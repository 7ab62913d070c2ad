"""End-to-end tagging runs and the tag-cloud store.

Per resource: build the high-rating learner subset, embed its members
with the globally quantified nominal values, cluster, mine the largest
cluster, and keep the winning itemsets as the resource's tags.  The
store maps resource ids to tag clouds with provenance and round-trips
through JSON byte-identically for a fixed seed.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from .cluster import (
    KTraceEntry,
    fit_normalization,
    apply_normalization,
    largest_cluster,
    select_k,
    to_feature_points,
)
from .ingest import LearnerProfile, RatingRecord, TimeBin, build_all_subsets
from .mine import FrequentItemset, Item, Transaction, apriori, select_tag, transaction_from_profile
from .quantify import AttributeValueMap, quantify

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


def tag_from_itemset(
    items: frozenset[Item],
    strategy_values: AttributeValueMap,
    presentation_values: AttributeValueMap,
) -> Tag:
    """Substitute quantified values for the nominal ids of an itemset."""
    fields: dict[int, object] = {i.attribute: i.value for i in items}
    return Tag(
        current_skill=fields.get(1),
        target_skill=fields.get(2),
        time_bin=fields.get(5),
        strategy_value=strategy_values[fields[3]] if 3 in fields else None,
        presentation_value=presentation_values[fields[4]] if 4 in fields else None,
    )


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

    details = quantify(all_subsets, by_id, config)
    strategy_values = details["strategy"].values
    presentation_values = details["presentation"].values

    store: dict[str, TagCloud] = {}
    encoded: dict[str, Transaction] = {}  # each learner's items, encoded once per run
    skipped = 0
    for rid in ordered_resources:
        subset = subsets[rid]
        size = len(subset)
        if size < config.min_subset:
            store[rid] = TagCloud(rid, [], Provenance(subset_size=size),
                                  skipped=SKIP_SMALL_SUBSET)
            skipped += 1
            continue

        points = to_feature_points(subset, by_id, strategy_values, presentation_values)
        if len(points) < 2:
            # Too few points to cluster; the subset itself is the group.
            chosen_k = 1
            cluster_ids = set(subset.members)
        else:
            normalized = apply_normalization(points, fit_normalization(points))
            selection = select_k(normalized, config.k_max, config.gamma, config.seed)
            if trace_hook is not None:
                trace_hook(rid, selection.trace)
            chosen_k = selection.clustering.k
            cluster_ids = largest_cluster(selection.clustering)

        for lid in sorted(cluster_ids - encoded.keys()):
            encoded[lid] = transaction_from_profile(by_id[lid])
        transactions = [encoded[lid] for lid in sorted(cluster_ids)]
        winners = select_tag(apriori(transactions, config.support_sl))
        provenance = Provenance(
            subset_size=size,
            chosen_k=chosen_k,
            cluster_size=len(cluster_ids),
            support=winners[0].support if winners else None,
        )
        if not winners:
            store[rid] = TagCloud(rid, [], provenance, skipped=SKIP_NO_ITEMSET)
            skipped += 1
            continue
        tags = [tag_from_itemset(w.items, strategy_values, presentation_values)
                for w in winners]
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


def _tag_from_json(obj: dict, where: str) -> Tag:
    try:
        bin_pair = obj["time_bin"]
        return Tag(
            current_skill=obj["current_skill"],
            target_skill=obj["target_skill"],
            time_bin=None if bin_pair is None else TimeBin(int(bin_pair[0]), int(bin_pair[1])),
            strategy_value=obj["strategy_value"],
            presentation_value=obj["presentation_value"],
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed tag in {where}: {exc}") from exc


def save_store(store: Mapping[str, TagCloud], path) -> None:
    """Write the store as canonical JSON (sorted keys, stable bytes)."""
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_store(path) -> dict[str, TagCloud]:
    """Read a store written by save_store; load o save is the identity."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)  # a malformed file raises with line and column
    if not isinstance(doc, dict):
        raise ValueError("store document must be a JSON object")
    store: dict[str, TagCloud] = {}
    for rid, entry in doc.items():
        try:
            prov = entry["provenance"]
            provenance = Provenance(
                subset_size=prov["subset_size"],
                chosen_k=prov["chosen_k"],
                cluster_size=prov["cluster_size"],
                support=prov["support"],
            )
            tags = [_tag_from_json(t, f"resource {rid!r}") for t in entry["tags"]]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed store entry for resource {rid!r}: {exc}") from exc
        store[rid] = TagCloud(rid, tags, provenance, skipped=entry.get("skipped"))
    return store
