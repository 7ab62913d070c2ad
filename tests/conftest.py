"""Shared corpus builders and independent oracles for the test suite.

The oracle functions deliberately avoid the library's own algorithms:
brute-force pair enumeration, exhaustive subset counting, level-wise
Apriori candidate search over item objects, the point-by-point k sweep
keyed by learner id, and direct rescans (``build_subset`` scans the
ratings once per resource), so test expectations are
derived independently of the code under test.  The item and point types
those oracles work on live here too; the library works on the integer
arrays of its learner table.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from hypothesis import HealthCheck, settings
from scipy.spatial.distance import cdist, pdist

from learntags import (
    FrequentItemset,
    LearnerProfile,
    RatingRecord,
    Tag,
    TimeBin,
    generate_profiles,
)
from learntags.cluster import DEFAULT_LLOYD_MAX_ITERS, KTraceEntry, LloydFit, lockstep_lloyd
from learntags.mine import N_ATTRIBUTES
from learntags.ingest import discretize_time

settings.register_profile(
    "suite", derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def synth_corpus(
    n_learners: int,
    n_resources: int,
    n_ratings: int,
    seed: int,
    skew: float = 0.0,
) -> tuple[list[RatingRecord], dict[str, LearnerProfile]]:
    """Random ratings plus one profile per learner.

    ``skew`` > 0 draws resources from a zipf-like popularity law so a
    few resources collect most ratings, as in real rating data; 0 keeps
    resource choice uniform.  Id strings are pooled so big corpora stay
    cheap.
    """
    rng = np.random.default_rng(seed)
    learner_ids = [f"u{i:06d}" for i in range(n_learners)]
    resource_ids = [f"b{i:06d}" for i in range(n_resources)]
    li = rng.integers(n_learners, size=n_ratings)
    if skew > 0:
        w = 1.0 / (np.arange(1, n_resources + 1) + 10.0) ** skew
        ri = rng.choice(n_resources, size=n_ratings, p=w / w.sum())
    else:
        ri = rng.integers(n_resources, size=n_ratings)
    scores = rng.integers(1, 11, size=n_ratings)
    records = [
        RatingRecord(learner_ids[li[j]], resource_ids[ri[j]], int(scores[j]))
        for j in range(n_ratings)
    ]
    profiles = {p.learner_id: p for p in generate_profiles(learner_ids, seed + 1)}
    return records, profiles


def build_subset(ratings, resource_id: str, delta0: int) -> frozenset[str]:
    """Rescan oracle for ``learner_table``'s subsets: the learners who
    rated ``resource_id`` at or above ``delta0``, found by scanning every
    rating."""
    return frozenset(
        r.learner_id for r in ratings if r.resource_id == resource_id and r.rating >= delta0)


def high_ratings(subsets) -> list[RatingRecord]:
    """Ratings whose high-rating subsets, at any delta0, are ``subsets``
    (resource id -> learner ids): each member rates its resource 10."""
    return [RatingRecord(lid, rid, 10) for rid, members in subsets.items()
            for lid in sorted(members)]


@dataclass(frozen=True, slots=True)
class Item:
    """One attribute-value token: (attribute index 1..5, level/id/bin)."""

    attribute: int
    value: int | TimeBin

    def sort_key(self) -> tuple[int, int]:
        v = self.value.lower if isinstance(self.value, TimeBin) else self.value
        return (self.attribute, v)


@dataclass(frozen=True)
class Transaction:
    """One learner's attribute items."""

    learner_id: str
    items: frozenset[Item]


@dataclass(frozen=True)
class OracleItemset:
    """A frequent itemset as the oracles report it."""

    items: frozenset[Item]
    support: float
    count: int


def transaction_from_profile(profile: LearnerProfile) -> Transaction:
    """The five-item transaction of one learner; hours below 1 fall into
    the first bin [1-10]."""
    items = frozenset(
        {
            Item(1, profile.current_skill),
            Item(2, profile.target_skill),
            Item(3, profile.strategy),
            Item(4, profile.presentation),
            Item(5, discretize_time(max(profile.hours, 1))),
        }
    )
    return Transaction(profile.learner_id, items)


def itemset_key(items: frozenset[Item]) -> tuple[tuple[int, int], ...]:
    """Deterministic ordering key for an itemset."""
    return tuple(sorted(i.sort_key() for i in items))


def items_array(transactions: list[Transaction]) -> np.ndarray:
    """The miner's ``(m, 5)`` item codes for transactions of one item per
    attribute: the value itself, or the 1-based index of a time bin."""
    def code(item: Item) -> int:
        v = item.value
        return (v.lower - 1) // 10 + 1 if isinstance(v, TimeBin) else v

    rows = [[code(i) for i in sorted(t.items, key=Item.sort_key)] for t in transactions]
    assert all(len(r) == N_ATTRIBUTES for r in rows), "one item per attribute"
    return np.array(rows, dtype=np.int64).reshape(len(rows), N_ATTRIBUTES)


def itemset_of(fields: tuple[int, ...]) -> frozenset[Item]:
    """The items a miner itemset's fields denote (0 = attribute absent)."""
    return frozenset(
        Item(a + 1, discretize_time(10 * v) if a == N_ATTRIBUTES - 1 else v)
        for a, v in enumerate(fields) if v
    )


def as_oracle(frequent: list[FrequentItemset]) -> list[OracleItemset]:
    """Miner output in the oracles' terms, order kept."""
    return [OracleItemset(itemset_of(f.fields), f.support, f.count) for f in frequent]


def maximal_itemsets(frequent: list[OracleItemset]) -> list[OracleItemset]:
    """Drop every itemset that has a frequent proper superset."""
    all_sets = [f.items for f in frequent]
    return [
        f
        for f in frequent
        if not any(f.items < other for other in all_sets)
    ]


def random_transactions(rng: np.random.Generator, n: int) -> list[Transaction]:
    """n transactions over a 15-item universe (5 attributes x 3 values)."""
    out = []
    for t in range(n):
        items = frozenset(
            {
                Item(1, int(rng.integers(1, 4))),
                Item(2, int(rng.integers(1, 4))),
                Item(3, int(rng.integers(1, 4))),
                Item(4, int(rng.integers(1, 4))),
                Item(5, discretize_time(int(rng.integers(1, 4)) * 10)),
            }
        )
        out.append(Transaction(f"t{t:03d}", items))
    return out


def brute_force_frequent(
    transactions: list[Transaction], sl: float
) -> dict[frozenset, tuple[int, float]]:
    """Exhaustive support counts: enumerate every subset per transaction."""
    n = len(transactions)
    counts: Counter = Counter()
    for t in transactions:
        items = sorted(t.items, key=Item.sort_key)
        for size in range(1, len(items) + 1):
            for combo in combinations(items, size):
                counts[frozenset(combo)] += 1
    return {
        s: (c, c / n) for s, c in counts.items() if c >= sl * n
    }


def levelwise_apriori(transactions: list[Transaction], sl: float) -> list[OracleItemset]:
    """Every itemset with support >= sl, mined level-wise.

    Candidates of size k are joined from frequent (k-1)-itemsets sharing
    a (k-2)-prefix and pruned unless all their (k-1)-subsets are
    frequent; itemsets never carry two items of the same attribute.
    Support compares inclusively so an itemset exactly at the threshold
    counts as frequent.  Output is sorted by size then item key for
    reproducible files.
    """
    if not transactions:
        raise ValueError("no transactions")
    if not 0 < sl <= 1:
        raise ValueError(f"support level must be in (0, 1], got {sl}")
    n = len(transactions)
    min_count = sl * n

    counts = Counter()
    for t in transactions:
        for item in t.items:
            counts[frozenset([item])] += 1
    frequent: dict[frozenset[Item], int] = {
        s: c for s, c in counts.items() if c >= min_count
    }
    level = sorted(frequent, key=itemset_key)

    size = 2
    while level and size <= N_ATTRIBUTES:
        prev = set(level)
        # Join step on sorted-tuple representations sharing the prefix.
        tuples = [tuple(sorted(s, key=Item.sort_key)) for s in level]
        tuples.sort(key=lambda t: tuple(i.sort_key() for i in t))
        candidates = set()
        for a, b in combinations(tuples, 2):
            if a[:-1] != b[:-1]:
                continue
            joined = a + (b[-1],)
            if len({i.attribute for i in joined}) != size:
                continue
            cand = frozenset(joined)
            if all(frozenset(sub) in prev for sub in combinations(joined, size - 1)):
                candidates.add(cand)

        counts = Counter()
        for t in transactions:
            for cand in candidates:
                if cand <= t.items:
                    counts[cand] += 1
        level = sorted((c for c in candidates if counts[c] >= min_count), key=itemset_key)
        for s in level:
            frequent[s] = counts[s]
        size += 1

    ordered = sorted(frequent, key=lambda s: (len(s), itemset_key(s)))
    return [OracleItemset(s, frequent[s] / n, frequent[s]) for s in ordered]


def items_from_tag(
    tag: Tag,
    strategy_values: dict[int, float],
    presentation_values: dict[int, float],
) -> list[frozenset]:
    """All itemsets a rendered tag could denote.

    The nominal fields store quantified values; every parameter whose
    value matches exactly is a candidate, so value collisions yield more
    than one candidate itemset.
    """
    fixed = []
    if tag.current_skill is not None:
        fixed.append([Item(1, tag.current_skill)])
    if tag.target_skill is not None:
        fixed.append([Item(2, tag.target_skill)])
    if tag.strategy_value is not None:
        fixed.append(
            [Item(3, p) for p, v in sorted(strategy_values.items())
             if v == tag.strategy_value]
        )
    if tag.presentation_value is not None:
        fixed.append(
            [Item(4, p) for p, v in sorted(presentation_values.items())
             if v == tag.presentation_value]
        )
    if tag.time_bin is not None:
        fixed.append([Item(5, tag.time_bin)])

    candidates = [frozenset()]
    for choices in fixed:
        candidates = [c | {item} for c in candidates for item in choices]
    return candidates


def recover_clusters(records, profiles, config):
    """Replay the run() stages to recover each resource's mined cluster,
    as oracle transactions.

    Determinism of the pipeline makes the replay exact; the supports
    recounted from these transactions are computed directly in the
    tests, independent of the mining code.
    """
    from learntags import group_rows, learner_table, quantify_nominal

    table = learner_table(records, profiles, config.delta0)
    details = quantify_nominal(table, config)
    strategy_values = details["strategy"].values
    presentation_values = details["presentation"].values
    coords = table.coords({"strategy": strategy_values, "presentation": presentation_values})
    clusters = {}
    for rid, rows in zip(table.resources, table.members):
        if len(rows) < config.min_subset:
            continue
        group = group_rows(coords[rows], config.k_max, config.gamma, config.seed)
        members = [table.ids[r] for r in rows[group.largest]]
        clusters[rid] = [transaction_from_profile(profiles[lid]) for lid in members]
    return clusters, strategy_values, presentation_values


def make_blobs(
    centers: list[tuple[float, ...]],
    per_blob: int,
    sigma: float,
    seed: int,
) -> np.ndarray:
    """Tight Gaussian blobs in 5-D for the k-selection tests, one row per
    point, blob by blob."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        np.asarray(center) + rng.normal(0.0, sigma, size=(per_blob, len(center)))
        for center in centers
    ])


def lloyd_kmeans(
    x: np.ndarray,
    seed_rows: list[int],
    max_iters: int = DEFAULT_LLOYD_MAX_ITERS,
) -> LloydFit:
    """Lloyd's iteration on the rows of ``x`` from centroids at
    ``seed_rows``: the one-fit case of ``lockstep_lloyd``."""
    return lockstep_lloyd(x, seed_rows, [len(seed_rows)], max_iters)[0]


@dataclass(frozen=True, slots=True)
class FeaturePoint:
    """One learner embedded in 5-D attribute space, for the reference sweep."""

    learner_id: str
    coords: tuple[float, ...]


@dataclass
class Clustering:
    """A reference k-means result, keyed by learner id."""

    k: int
    centroids: np.ndarray            # (k, dims)
    assignment: dict[str, int]       # learner_id -> cluster index
    sse: float
    sse_trace: list[float]


# Reference k sweep, point by point on tuples of FeaturePoint: the array
# code in learntags.cluster must reproduce it bit for bit.


def reference_farthest_first_seeds(
    points: list[FeaturePoint], k: int, seed: int
) -> list[FeaturePoint]:
    """Pick k seeds by farthest-first traversal.

    The first seed is drawn uniformly at random from ``seed``; every
    later seed is the point maximizing its minimum distance to the seeds
    already chosen, ties going to the smallest learner id.
    """
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"insufficient points: need 1 <= k <= {n}, got k={k}")
    x = np.array([p.coords for p in points], dtype=np.float64)
    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))

    chosen = [first]
    min_dist = np.linalg.norm(x - x[first], axis=1)
    while len(chosen) < k:
        masked = min_dist.copy()
        masked[chosen] = -np.inf
        best = masked.max()
        candidates = np.flatnonzero(masked == best)
        pick = min(candidates, key=lambda i: points[i].learner_id)
        chosen.append(int(pick))
        min_dist = np.minimum(min_dist, np.linalg.norm(x - x[pick], axis=1))
    return [points[i] for i in chosen]


def _reference_assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin takes the first minimum, which is the smallest cluster index.
    return np.argmin(cdist(x, centroids), axis=1)


def _reference_sse(x: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    diffs = x - centroids[labels]
    return float(np.sum(diffs * diffs))


def reference_repair_empty(x: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> None:
    """Reseed each empty cluster on the point farthest from its centroid.

    Keeps k stable so the diameter sequence stays comparable across the
    sweep.  A reseed at distance zero cannot reduce the error and would
    only shuffle duplicate points, so those clusters are left empty.
    """
    k = centroids.shape[0]
    for j in range(k):
        if np.any(labels == j):
            continue
        dist = np.linalg.norm(x - centroids[labels], axis=1)
        far = int(np.argmax(dist))
        if dist[far] == 0.0:
            continue
        centroids[j] = x[far]
        labels[far] = j


def reference_lloyd_kmeans(
    points: list[FeaturePoint],
    seeds: list[FeaturePoint],
    max_iters: int = DEFAULT_LLOYD_MAX_ITERS,
) -> Clustering:
    """Alternate nearest-centroid assignment and centroid means.

    Stops when no assignment changes or after ``max_iters``; the SSE is
    non-increasing across iterations, and the final assignment is always
    computed against the final centroids.
    """
    if not points:
        raise ValueError("no points to cluster")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    seed_ids = [s.learner_id for s in seeds]
    if len(set(seed_ids)) != len(seed_ids):
        raise ValueError("seeds must be distinct points")

    x = np.array([p.coords for p in points], dtype=np.float64)
    centroids = np.array([s.coords for s in seeds], dtype=np.float64)
    k = centroids.shape[0]

    labels = _reference_assign(x, centroids)
    reference_repair_empty(x, labels, centroids)
    trace = [_reference_sse(x, labels, centroids)]
    for _ in range(max_iters):
        prev = labels.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                centroids[j] = x[mask].mean(axis=0)
        labels = _reference_assign(x, centroids)
        reference_repair_empty(x, labels, centroids)
        trace.append(_reference_sse(x, labels, centroids))
        if np.array_equal(labels, prev):
            break

    assignment = {p.learner_id: int(labels[i]) for i, p in enumerate(points)}
    return Clustering(k=k, centroids=centroids, assignment=assignment,
                      sse=trace[-1], sse_trace=trace)


def reference_average_diameter(clustering: Clustering, points: list[FeaturePoint]) -> float:
    """Mean over non-empty clusters of the max pairwise member distance."""
    coords = {p.learner_id: p.coords for p in points}
    members: dict[int, list[tuple[float, ...]]] = {}
    for lid, j in clustering.assignment.items():
        members.setdefault(j, []).append(coords[lid])
    diameters = []
    for j in sorted(members):
        pts = members[j]
        if len(pts) < 2:
            diameters.append(0.0)
        else:
            diameters.append(float(pdist(np.array(pts)).max()))
    return float(np.mean(diameters))


def reference_select_k(
    points: list[FeaturePoint],
    k_max: int,
    gamma: float,
    seed: int,
    max_iters: int = DEFAULT_LLOYD_MAX_ITERS,
) -> tuple[Clustering, list[KTraceEntry]]:
    """Sweep k downward and stop just before the first diameter jump.

    Runs Lloyd for k = min(k_max, n) down to 1, seeded with the first k
    seeds of one farthest-first traversal, and returns the clustering at
    the smallest k reachable without the average diameter growing by
    more than a factor of ``gamma`` in one step; a zero diameter at k
    treats any positive diameter at k - 1 as a jump.
    With no jump anywhere the sweep ends at k = 1.
    """
    if not points:
        raise ValueError("no points to cluster")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if gamma <= 1:
        raise ValueError(f"gamma must exceed 1, got {gamma}")

    k_start = min(k_max, len(points))
    clusterings: dict[int, Clustering] = {}
    diameters: dict[int, float] = {}
    trace = []
    # Farthest-first picks do not depend on k, so the seeds for every k
    # of the sweep are a prefix of one traversal.
    seeds = reference_farthest_first_seeds(points, k_start, seed)
    for k in range(k_start, 0, -1):
        clusterings[k] = reference_lloyd_kmeans(points, seeds[:k], max_iters)
        diameters[k] = reference_average_diameter(clusterings[k], points)
        trace.append(KTraceEntry(k=k, sse=clusterings[k].sse, avg_diameter=diameters[k]))

    chosen = 1
    for k in range(k_start, 1, -1):
        if diameters[k - 1] > gamma * diameters[k]:
            chosen = k
            break
    return clusterings[chosen], trace
