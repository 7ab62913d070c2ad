"""End-to-end tagging runs and the tag-cloud store.

A run builds every resource's high-rating learner subset, quantifies the
nominal attributes once over all of them, and then builds one learner
table: each subset member once, as a row of clustering coordinates
(with the quantified values) and a row of item codes, in learner-id
order.  Per resource, the subset's rows are clustered, the largest
cluster's item rows are mined, and the winning itemsets become the
resource's tags.  The store maps resource ids to tag clouds with
provenance and round-trips through JSON byte-identically for a fixed
seed.
"""
from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .cluster import KTraceEntry, group_rows
from .ingest import (
    LearnerProfile,
    LearnerSubset,
    RatingRecord,
    TimeBin,
    build_all_subsets,
    discretize_time,
)
from .mine import apriori, select_tag
from .quantify import AttributeValueMap, quantify_nominal

logger = logging.getLogger(__name__)

SKIP_SMALL_SUBSET = "subset below threshold"
SKIP_NO_ITEMSET = "no itemset met the support level"


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
        if not 1 <= self.delta0 <= 10:
            raise ValueError(f"delta0 must be in 1..10, got {self.delta0}")
        if not 0 < self.support_sl <= 1:
            raise ValueError(f"support_sl must be in (0, 1], got {self.support_sl}")
        if self.nmf_k < 1:
            raise ValueError(f"nmf_k must be >= 1, got {self.nmf_k}")
        if self.nmf_max_iters < 1:
            raise ValueError(f"nmf_max_iters must be >= 1, got {self.nmf_max_iters}")
        if self.nmf_tol < 0:
            raise ValueError(f"nmf_tol must be >= 0, got {self.nmf_tol}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.gamma <= 1:
            raise ValueError(f"gamma must exceed 1, got {self.gamma}")
        if self.min_subset < 1:
            raise ValueError(f"min_subset must be >= 1, got {self.min_subset}")


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
class LearnerTable:
    """Every subset member once, as one row each in learner-id order."""

    row: dict[str, int]   # learner id -> row
    coords: np.ndarray    # (n, 5) float64: a1, a2, strategy value, presentation value, hours
    items: np.ndarray     # (n, 5) int64 item codes: a1, a2, a3, a4, hours bin

    def rows(self, subset: LearnerSubset) -> np.ndarray:
        """The subset's rows, ascending, so in learner-id order."""
        return np.sort(np.fromiter((self.row[m] for m in subset.members),
                                   dtype=np.intp, count=len(subset)))


def learner_table(
    subsets: Iterable[LearnerSubset],
    profiles: Mapping[str, LearnerProfile],
    strategy_values: AttributeValueMap,
    presentation_values: AttributeValueMap,
) -> LearnerTable:
    """Embed and code every member of ``subsets`` once.

    ``coords`` carries the quantified values in place of the strategy and
    presentation ids.  ``items`` bins hours into 1-based decades, hours
    below 1 falling into the first, [1-10].
    """
    ids = sorted({m for s in subsets for m in s.members})
    for lid in ids:
        if lid not in profiles:
            raise KeyError(f"no profile for learner {lid!r}")
    attrs = np.array(
        [(p.current_skill, p.target_skill, p.strategy, p.presentation, p.hours)
         for p in map(profiles.__getitem__, ids)],
        dtype=np.int64,
    ).reshape(len(ids), 5)
    coords = attrs.astype(np.float64)
    for col, values in ((2, strategy_values), (3, presentation_values)):
        coords[:, col] = [values[p] for p in attrs[:, col].tolist()]
    items = attrs.copy()
    items[:, 4] = (np.maximum(attrs[:, 4], 1) - 1) // 10 + 1
    return LearnerTable({lid: i for i, lid in enumerate(ids)}, coords, items)


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
    profiles: Iterable[LearnerProfile] | Mapping[str, LearnerProfile],
    trace_hook: Callable[[str, list[KTraceEntry]], None] | None = None,
) -> dict[str, TagCloud]:
    """Tag every resource with a non-empty subset.

    Quantification of the nominal attributes happens once over all
    subsets so tag values stay comparable across resources.  Resources
    whose subset is smaller than ``min_subset`` are recorded as skipped
    rather than failing the batch.  ``trace_hook``, when given, receives
    each resource's (k, sse, avg_diameter) sweep trace.
    """
    if isinstance(profiles, Mapping):
        by_id = dict(profiles)
    else:
        by_id = {p.learner_id: p for p in profiles}

    records = ratings if isinstance(ratings, list) else list(ratings)
    total_resources = len({r.resource_id for r in records})
    subsets = build_all_subsets(records, config.delta0)
    ordered_resources = sorted(subsets)
    all_subsets = [subsets[rid] for rid in ordered_resources]

    details = quantify_nominal(all_subsets, by_id, config)
    strategy_values = details["strategy"].values
    presentation_values = details["presentation"].values
    table = learner_table(all_subsets, by_id, strategy_values, presentation_values)

    store: dict[str, TagCloud] = {}
    skipped = 0
    for rid in ordered_resources:
        subset = subsets[rid]
        size = len(subset)
        if size < config.min_subset:
            store[rid] = TagCloud(rid, [], Provenance(subset_size=size),
                                  skipped=SKIP_SMALL_SUBSET)
            skipped += 1
            continue

        rows = table.rows(subset)
        group = group_rows(table.coords[rows], config.k_max, config.gamma, config.seed)
        if trace_hook is not None and group.trace:
            trace_hook(rid, group.trace)
        winners = select_tag(apriori(table.items[rows[group.largest]], config.support_sl))
        provenance = Provenance(
            subset_size=size,
            chosen_k=group.k,
            cluster_size=int(group.largest.sum()),
            support=winners[0].support if winners else None,
        )
        if not winners:
            store[rid] = TagCloud(rid, [], provenance, skipped=SKIP_NO_ITEMSET)
            skipped += 1
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
        store[rid] = TagCloud(rid, tags, provenance)

    empty = total_resources - len(subsets)
    logger.info(
        "tagged %d of %d resources (%d skipped: %s; %d with no rating >= %d)",
        len(store) - skipped, total_resources, skipped,
        SKIP_SMALL_SUBSET, empty, config.delta0,
    )
    return store


def _nearest_parameter(values: AttributeValueMap, target: float) -> int:
    """Parameter id whose quantified value is closest; ties to smaller id."""
    return min(sorted(values), key=lambda p: abs(values[p] - target))


def _tag_score(
    tag: Tag,
    profile: LearnerProfile,
    strategy_values: AttributeValueMap,
    presentation_values: AttributeValueMap,
) -> float:
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
        matched += _nearest_parameter(strategy_values, tag.strategy_value) == profile.strategy
    if tag.presentation_value is not None:
        present += 1
        matched += (
            _nearest_parameter(presentation_values, tag.presentation_value)
            == profile.presentation
        )
    return matched / present if present else 0.0


def match_resources(
    profile: LearnerProfile,
    store: Mapping[str, TagCloud],
    strategy_values: AttributeValueMap,
    presentation_values: AttributeValueMap,
    top_n: int,
) -> list[tuple[str, float]]:
    """Rank resources by how well their best tag matches a profile.

    The score is the fraction of present tag fields the profile matches:
    skill levels exactly, the time bin by containment, and the nominal
    fields by mapping the stored quantified value back to its nearest
    parameter id.  Skipped clouds are not candidates.  Ties rank by
    resource id.
    """
    if top_n <= 0:
        raise ValueError(f"top_n must be positive, got {top_n}")
    if not store:
        raise ValueError("store is empty")
    scored = []
    for rid in sorted(store):
        cloud = store[rid]
        if not cloud.tags:
            continue
        best = max(
            _tag_score(t, profile, strategy_values, presentation_values)
            for t in cloud.tags
        )
        scored.append((rid, best))
    scored.sort(key=lambda rs: (-rs[1], rs[0]))
    return scored[:top_n]


def _tag_to_json(tag: Tag) -> dict:
    return {
        "current_skill": tag.current_skill,
        "target_skill": tag.target_skill,
        "time_bin": None if tag.time_bin is None else [tag.time_bin.lower, tag.time_bin.upper],
        "strategy_value": tag.strategy_value,
        "presentation_value": tag.presentation_value,
    }


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _number(v) -> bool:
    return _int(v) or isinstance(v, float)


def _or_null(valid):
    return lambda v: v is None or valid(v)


# Field name -> (check, what the check accepts), for load_store.
_TAG_FIELDS = {
    "current_skill": (_or_null(_int), "an int or null"),
    "target_skill": (_or_null(_int), "an int or null"),
    "time_bin": (_or_null(lambda v: isinstance(v, list) and len(v) == 2 and all(map(_int, v))),
                 "null or two ints"),
    "strategy_value": (_or_null(_number), "a number or null"),
    "presentation_value": (_or_null(_number), "a number or null"),
}
_PROVENANCE_FIELDS = {
    "subset_size": (_int, "an int"),
    "chosen_k": (_or_null(_int), "an int or null"),
    "cluster_size": (_or_null(_int), "an int or null"),
    "support": (_or_null(_number), "a number or null"),
}


def _validated(obj, fields: dict, where: str) -> dict:
    """The ``fields`` of a JSON object, each checked for its type and shape."""
    if not isinstance(obj, dict):
        raise ValueError(f"malformed {where}: expected an object, got {obj!r}")
    for name, (valid, expected) in fields.items():
        if not valid(obj[name]):
            raise ValueError(f"malformed {where}: {name} must be {expected}, got {obj[name]!r}")
    return {name: obj[name] for name in fields}


def save_store(store: Mapping[str, TagCloud], path) -> None:
    """Write the store as canonical JSON (sorted keys, stable bytes),
    replacing ``path`` in one step."""
    doc = {}
    for rid in sorted(store):
        cloud = store[rid]
        entry = {
            "tags": [_tag_to_json(t) for t in cloud.tags],
            "provenance": {
                "subset_size": cloud.provenance.subset_size,
                "chosen_k": cloud.provenance.chosen_k,
                "cluster_size": cloud.provenance.cluster_size,
                "support": cloud.provenance.support,
            },
        }
        if cloud.skipped is not None:
            entry["skipped"] = cloud.skipped
        doc[rid] = entry
    # Written beside the target and moved over it, so a failed write
    # leaves the previous store in place.
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_store(path) -> dict[str, TagCloud]:
    """Read a store written by save_store; load o save is the identity.

    Every tag and provenance field is checked for its type and shape; a
    ValueError names the resource and the field.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)  # a malformed file raises with line and column
    if not isinstance(doc, dict):
        raise ValueError("store document must be a JSON object")
    store: dict[str, TagCloud] = {}
    for rid, entry in doc.items():
        try:
            provenance = Provenance(**_validated(
                entry["provenance"], _PROVENANCE_FIELDS, f"provenance of resource {rid!r}"))
            tags = []
            for obj in entry["tags"]:
                fields = _validated(obj, _TAG_FIELDS, f"tag in resource {rid!r}")
                bin_pair = fields.pop("time_bin")
                time_bin = None if bin_pair is None else TimeBin(*bin_pair)
                tags.append(Tag(**fields, time_bin=time_bin))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed store entry for resource {rid!r}: {exc}") from exc
        store[rid] = TagCloud(rid, tags, provenance, skipped=entry.get("skipped"))
    return store
