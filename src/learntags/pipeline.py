"""End-to-end tagging runs and the tag-cloud store.

A run reads the ratings once into the learner table
(``ingest.learner_table``): every high rater's raw attributes and item
codes as one row, in learner-id order, and each resource's high-rating
subset as an array of rows.  Quantification reads that table once
for both nominal attributes; the clustering coordinates are its
attributes with the quantified values in place of the nominal ids.  The
subsets are clustered in shared rounds (``cluster.group_batches``);
the largest clusters of each batch of subsets are mined in one pass
(``mine.tag_itemsets_batch``), and each resource's winning itemsets
become its tags.

The run's result is a ``TagStore``: resource ids mapped to tag clouds
with provenance, plus the ``PipelineConfig`` and the two quantified
value maps of the run.  A tag carries quantified values, so ranking a
learner against the store needs those maps to read the values back as
parameter ids; with them in the store, ``match`` reads only the store
and the profiles.  The store round-trips through canonical JSON
(schema 2) byte-identically for a fixed seed.
"""
from __future__ import annotations

import itertools
import json
import logging
import math
import os
import reprlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, get_type_hints

from .cluster import KTraceEntry, group_batches
from .ingest import (
    ATTRIBUTES,
    LearnerProfile,
    RatingRecord,
    TimeBin,
    discretize_time,
    learner_table,
)
from .mine import tag_itemsets_batch
from .quantify import AttributeValueMap, quantify_nominal

logger = logging.getLogger(__name__)

SKIP_SMALL_SUBSET = "subset below threshold"
SKIP_NO_ITEMSET = "no itemset met the support level"

# Version of the store file format that save_store writes and
# load_store reads.  Stores without a header predate it.
STORE_SCHEMA = 2

# Upper bound of ``PipelineConfig.nmf_k``.  The paper extracts 10
# features, and a 5x5 matrix has at most 5 independent ones; the bound
# keeps NMF's factors and iterate histories to a few megabytes.
MAX_NMF_K = 1000


@dataclass
class PipelineConfig:
    """Tunable knobs, defaulted to the reference experiment settings."""

    delta0: int = 6             # subset rating threshold
    support_sl: float = 0.1     # Apriori support level
    nmf_k: int = 10             # independent features to extract
    nmf_max_iters: int = 500
    nmf_tol: float = 1e-6
    k_max: int = 8              # upper bound of the cluster-count sweep
    gamma: float = 2.0          # "very large factor" for the diameter jump
    seed: int = 0
    min_subset: int = 10        # resources with smaller subsets are skipped

    def __post_init__(self):
        for name in ("support_sl", "nmf_tol", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, valid, expected in (
            ("delta0", 1 <= self.delta0 <= 10, "be in 1..10"),
            ("support_sl", 0 < self.support_sl <= 1, "be in (0, 1]"),
            ("nmf_k", self.nmf_k >= 1, "be >= 1"),
            ("nmf_k", self.nmf_k <= MAX_NMF_K, f"be <= {MAX_NMF_K}"),
            ("nmf_max_iters", self.nmf_max_iters >= 1, "be >= 1"),
            ("nmf_tol", self.nmf_tol >= 0, "be >= 0"),
            ("k_max", self.k_max >= 1, "be >= 1"),
            ("gamma", self.gamma > 1, "exceed 1"),
            ("seed", self.seed >= 0, "be >= 0"),
            ("min_subset", self.min_subset >= 1, "be >= 1"),
        ):
            if not valid:
                raise ValueError(f"{name} must {expected}, got {getattr(self, name)}")


@dataclass(frozen=True)
class Tag:
    """One winning itemset rendered onto the five tag fields.

    Fields missing from the itemset stay None and render as "-"; the
    nominal attributes carry their quantified numeric values.
    """

    current_skill: int | None = None
    target_skill: int | None = None
    time_bin: TimeBin | None = None
    strategy_value: float | None = None
    presentation_value: float | None = None


@dataclass(frozen=True)
class Provenance:
    subset_size: int
    chosen_k: int | None = None
    cluster_size: int | None = None
    support: float | None = None


@dataclass
class TagCloud:
    resource_id: str
    tags: list[Tag] = field(default_factory=list)
    provenance: Provenance = Provenance(subset_size=0)
    skipped: str | None = None


@dataclass
class TagStore(Mapping[str, TagCloud]):
    """The tag clouds of one run, with the config and value maps behind them.

    As a mapping it holds the clouds only: iteration, ``len`` and ``[]``
    give resource ids and clouds.  ``value_maps`` holds each nominal
    attribute's quantified values, ``{"strategy": {1..5: float},
    "presentation": {1..5: float}}``; the name keeps ``values()`` the
    mapping's clouds.  Equality compares clouds, config and value maps.
    """

    clouds: dict[str, TagCloud]
    config: PipelineConfig
    value_maps: dict[str, AttributeValueMap]

    def __getitem__(self, resource_id: str) -> TagCloud:
        return self.clouds[resource_id]

    def __iter__(self):
        return iter(self.clouds)

    def __len__(self) -> int:
        return len(self.clouds)


def render_tag(tag: Tag) -> str:
    """Bracketed five-field line, e.g. ``[6, 6, [41-50], 24240, 20549]``."""
    fields = [
        "-" if tag.current_skill is None else str(tag.current_skill),
        "-" if tag.target_skill is None else str(tag.target_skill),
        "-" if tag.time_bin is None else tag.time_bin.label(),
        "-" if tag.strategy_value is None else str(round(tag.strategy_value)),
        "-" if tag.presentation_value is None else str(round(tag.presentation_value)),
    ]
    return "[" + ", ".join(fields) + "]"


def render_report(store: Mapping[str, TagCloud]) -> str:
    """One line per tagged resource, clouds joined with " and "."""
    lines = []
    for rid in sorted(store):
        cloud = store[rid]
        if not cloud.tags:
            continue
        lines.append(rid + "\t" + " and ".join(render_tag(t) for t in cloud.tags))
    return "\n".join(lines) + ("\n" if lines else "")


def run(
    config: PipelineConfig,
    ratings: Iterable[RatingRecord],
    profiles: Mapping[str, LearnerProfile],
    trace_hook: Callable[[str, list[KTraceEntry]], None] | None = None,
) -> TagStore:
    """Tag every resource with a non-empty subset.

    ``ratings`` is read once, so it may be a one-shot iterator.  Every
    subset member is coded once, into one learner table, and the nominal
    attributes are quantified once over all subsets so tag values stay
    comparable across resources; the store keeps both value maps and
    ``config``.  The k sweeps of all clustered subsets share their
    rounds, in batches of at most ``cluster._BATCH_FIT_ROWS`` fit rows
    taken in resource order, so memory is bounded by one batch; the
    largest clusters of a batch are mined together.  Resources whose
    subset is smaller than ``min_subset`` are recorded as skipped rather
    than failing the batch.  ``trace_hook``, when given, receives each
    resource's (k, sse, avg_diameter) sweep trace, in resource order.
    """
    table = learner_table(ratings, profiles, config.delta0)
    details = quantify_nominal(table, config)
    value_maps = {a: details[a].values for a in ATTRIBUTES}
    strategy_values, presentation_values = value_maps["strategy"], value_maps["presentation"]
    coords = table.coords(value_maps)

    clouds: dict[str, TagCloud] = dict.fromkeys(table.resources)  # resource order
    clustered = []
    for rid, rows in zip(table.resources, table.members):
        if len(rows) < config.min_subset:
            clouds[rid] = TagCloud(rid, [], Provenance(subset_size=len(rows)),
                                   skipped=SKIP_SMALL_SUBSET)
        else:
            clustered.append((rid, rows))
    pending = iter(clustered)
    for groups in group_batches(coords, [rows for _, rows in clustered],
                                config.k_max, config.gamma, config.seed):
        resources = list(itertools.islice(pending, len(groups)))
        if trace_hook is not None:
            for (rid, _), group in zip(resources, groups):
                trace_hook(rid, group.trace)
        mined = tag_itemsets_batch(
            [table.items[rows[group.largest]] for (_, rows), group in zip(resources, groups)],
            config.support_sl)
        for (rid, rows), group, winners in zip(resources, groups, mined):
            provenance = Provenance(
                subset_size=len(rows),
                chosen_k=group.k,
                cluster_size=int(group.largest.sum()),
                support=winners[0].support if winners else None,
            )
            if not winners:
                clouds[rid] = TagCloud(rid, [], provenance, skipped=SKIP_NO_ITEMSET)
                continue
            tags = [
                Tag(
                    current_skill=a1 or None,
                    target_skill=a2 or None,
                    time_bin=discretize_time(10 * hours_bin) if hours_bin else None,
                    strategy_value=strategy_values[a3] if a3 else None,
                    presentation_value=presentation_values[a4] if a4 else None,
                )
                for a1, a2, a3, a4, hours_bin in (w.fields for w in winners)
            ]
            clouds[rid] = TagCloud(rid, tags, provenance)

    skips = Counter(c.skipped for c in clouds.values() if c.skipped is not None)
    logger.info(
        "tagged %d of %d resources (skipped: %d %s, %d %s; %d with no rating >= %d)",
        len(clouds) - skips.total(), table.rated,
        skips[SKIP_SMALL_SUBSET], SKIP_SMALL_SUBSET, skips[SKIP_NO_ITEMSET], SKIP_NO_ITEMSET,
        table.rated - len(table.resources), config.delta0,
    )
    return TagStore(clouds, config, value_maps)


def _nearest_parameters(values: AttributeValueMap, targets: set) -> dict:
    """Each non-null target's parameter id whose quantified value is
    closest; ties to the smaller id."""
    ids = sorted(values)
    return {t: min(ids, key=lambda p: abs(values[p] - t)) for t in targets if t is not None}


def _tag_score(tag: Tag, profile: LearnerProfile, strategy_of: dict,
               presentation_of: dict) -> float:
    present = 0
    matched = 0
    if tag.current_skill is not None:
        present += 1
        matched += tag.current_skill == profile.current_skill
    if tag.target_skill is not None:
        present += 1
        matched += tag.target_skill == profile.target_skill
    if tag.time_bin is not None:
        present += 1
        # Binned as the miner bins it: hours below 1 fall into [1-10].
        matched += max(profile.hours, 1) in tag.time_bin
    if tag.strategy_value is not None:
        present += 1
        matched += strategy_of[tag.strategy_value] == profile.strategy
    if tag.presentation_value is not None:
        present += 1
        matched += presentation_of[tag.presentation_value] == profile.presentation
    return matched / present if present else 0.0


def match_resources(profile: LearnerProfile, store: TagStore,
                    top_n: int) -> list[tuple[str, float]]:
    """Rank resources by how well their best tag matches a profile.

    The score is the fraction of present tag fields the profile matches:
    skill levels exactly, the time bin by containment, and the nominal
    fields by mapping the stored quantified value back to its nearest
    parameter id under the store's own ``value_maps``, once per distinct
    value.  Skipped clouds are not candidates.  Ties rank by resource id.
    """
    if top_n <= 0:
        raise ValueError(f"top_n must be positive, got {top_n}")
    if not store:
        raise ValueError("store is empty")
    clouds = [(rid, store[rid].tags) for rid in sorted(store)]
    tags = [t for _, cloud_tags in clouds for t in cloud_tags]
    strategy_of = _nearest_parameters(store.value_maps["strategy"],
                                      {t.strategy_value for t in tags})
    presentation_of = _nearest_parameters(store.value_maps["presentation"],
                                          {t.presentation_value for t in tags})
    scored = [(rid, max(_tag_score(t, profile, strategy_of, presentation_of) for t in cloud_tags))
              for rid, cloud_tags in clouds if cloud_tags]
    scored.sort(key=lambda rs: (-rs[1], rs[0]))
    return scored[:top_n]


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    """An int or a finite float: json.load also reads NaN and Infinity."""
    return _int(v) or (isinstance(v, float) and math.isfinite(v))


def _decade_bin(v) -> bool:
    """Two ints [10j + 1, 10j + 10], as ``discretize_time`` bins hours."""
    return (isinstance(v, list) and len(v) == 2 and all(map(_int, v))
            and v[0] >= 1 and v[0] % 10 == 1 and v[1] == v[0] + 9)


def _or_null(valid):
    return lambda v: v is None or valid(v)


# Declared field type -> (check, what the check accepts), for load_store.
_TYPE_CHECKS = {
    int: (_int, "an int"),
    float: (_number, "a number"),
    int | None: (_or_null(_int), "an int or null"),
    float | None: (_or_null(_number), "a number or null"),
    TimeBin | None: (_or_null(_decade_bin), "null or two ints [10j+1, 10j+10]"),
}


def _field_checks(cls) -> dict:
    """Field name -> (check, what it accepts) of a stored dataclass, in
    declaration order."""
    return {name: _TYPE_CHECKS[hint] for name, hint in get_type_hints(cls).items()}


_TAG_FIELDS = _field_checks(Tag)
_PROVENANCE_FIELDS = _field_checks(Provenance)
_CONFIG_FIELDS = _field_checks(PipelineConfig)


def _validated(obj, checks: dict, where: str) -> dict:
    """The ``checks`` fields of a JSON object, each checked for its type and shape."""
    if not isinstance(obj, dict):
        raise ValueError(f"malformed {where}: expected an object, got {reprlib.repr(obj)}")
    for name, (valid, expected) in checks.items():
        if name not in obj:
            raise ValueError(f"malformed {where}: no {name} field")
        if not valid(obj[name]):
            raise ValueError(f"malformed {where}: {name} must be {expected}, "
                             f"got {reprlib.repr(obj[name])}")
    return {name: obj[name] for name in checks}


def _config_from_json(obj) -> PipelineConfig:
    known = _validated(obj, _CONFIG_FIELDS, "store config")
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"malformed store config: unknown fields {unknown}")
    try:
        return PipelineConfig(**known)
    except ValueError as exc:
        raise ValueError(f"malformed store config: {exc}") from None


def _value_map_from_json(obj, attribute: str) -> AttributeValueMap:
    if (not isinstance(obj, dict) or sorted(obj) != ["1", "2", "3", "4", "5"]
            or not all(map(_number, obj.values()))):
        raise ValueError(f"malformed store values: {attribute} must map the ids "
                         f"1..5 to numbers, got {reprlib.repr(obj)}")
    return {int(p): v for p, v in sorted(obj.items())}


def _cloud_to_json(cloud: TagCloud) -> dict:
    entry = {"tags": [vars(t) for t in cloud.tags], "provenance": vars(cloud.provenance)}
    if cloud.skipped is not None:
        entry["skipped"] = cloud.skipped
    return entry


def _cloud_from_json(rid: str, entry) -> TagCloud:
    # reprlib cuts a long id; it costs more than repr, which a short id needs.
    resource = f"resource {rid!r}" if len(rid) < 28 else f"resource {reprlib.repr(rid)}"
    try:
        provenance = Provenance(**_validated(
            entry["provenance"], _PROVENANCE_FIELDS, f"provenance of {resource}"))
        tags = []
        for obj in entry["tags"]:
            checked = _validated(obj, _TAG_FIELDS, f"tag in {resource}")
            if checked["time_bin"] is not None:
                checked["time_bin"] = TimeBin(*checked["time_bin"])
            tags.append(Tag(**checked))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed store entry for {resource}: {exc}") from exc
    skipped = entry.get("skipped")
    if "skipped" in entry and not isinstance(skipped, str):
        raise ValueError(f"malformed store entry for {resource}: skipped must be a string, "
                         f"got {reprlib.repr(skipped)}")
    return TagCloud(rid, tags, provenance, skipped=skipped)


def save_store(store: TagStore, path) -> None:
    """Write the store as canonical JSON (sorted keys, stable bytes),
    replacing ``path`` in one step.

    The document is ``{"schema": 2, "config": {...}, "values":
    {"presentation": {"1": v, ..., "5": v}, "strategy": {...}},
    "resources": {resource id: {"tags": [...], "provenance": {...}}}}``;
    a skipped resource also has a ``"skipped"`` reason.  An OSError
    names ``path``; a NaN or infinite number, which ``load_store`` would
    reject, raises ValueError and leaves the previous store in place.
    """
    doc = {
        "schema": STORE_SCHEMA,
        "config": vars(store.config),
        "values": store.value_maps,
        "resources": {rid: _cloud_to_json(store[rid]) for rid in sorted(store)},
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    # Written beside the target and moved over it, so a failed write
    # leaves the previous store in place.
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError):  # name the store, not the temp file
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def load_store(path) -> TagStore:
    """Read a store written by save_store; load o save is the identity.

    The header is checked first: the schema version, the config (rebuilt
    as a ``PipelineConfig``, so out-of-range knobs fail as they would in
    code) and both value maps (the ids 1..5, finite numbers only).  A
    store without a header predates schema 2 and must be rewritten by
    re-running ``learntags tag``.  Then every tag and provenance field
    is checked for its type and shape: numbers must be finite, a time
    bin must be a decade bin and a skip reason a string.  Each failure is
    a ValueError naming the field, and the resource where there is one;
    a document nested too deeply for the JSON reader is one naming the
    store.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)  # a malformed file raises with line and column
        except RecursionError:
            raise ValueError(f"store {os.fspath(path)!r} nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("store document must be a JSON object")
    if "schema" not in doc:
        raise ValueError(f"store {os.fspath(path)!r} has no schema header: it predates "
                         f"schema {STORE_SCHEMA}; re-run `learntags tag` to rewrite it")
    if not _int(doc["schema"]) or doc["schema"] != STORE_SCHEMA:
        raise ValueError(f"store schema {reprlib.repr(doc['schema'])} is not supported (this "
                         f"version reads schema {STORE_SCHEMA}); re-run `learntags tag`")
    for name in ("config", "values", "resources"):
        if name not in doc:
            raise ValueError(f"malformed store: no {name} field")
    config = _config_from_json(doc["config"])
    values = doc["values"]
    if not isinstance(values, dict) or sorted(values) != sorted(ATTRIBUTES):
        raise ValueError(f"malformed store values: expected maps for {sorted(ATTRIBUTES)}, "
                         f"got {reprlib.repr(values)}")
    value_maps = {a: _value_map_from_json(values[a], a) for a in ATTRIBUTES}
    if not isinstance(doc["resources"], dict):
        raise ValueError("malformed store resources: expected an object")
    clouds = {rid: _cloud_from_json(rid, entry) for rid, entry in doc["resources"].items()}
    return TagStore(clouds, config, value_maps)
