"""Shared corpus builders and independent oracles for the test suite.

The oracle functions deliberately avoid the library's own algorithms:
brute-force pair enumeration, exhaustive subset counting, level-wise
Apriori candidate search over item objects, the Python sort key and
the tag selection over a full list of frequent itemsets that the array
passes of ``apriori`` and ``tag_itemsets`` replaced, a k sweep of one
subset at a time with its own Lloyd loop, empty-cluster repair and
``pdist`` diameters, diameter bounds (span, diagonal and farthest
member) and the steps they leave open from a loop over each fit's
clusters, the one-matrix NMF loop that the
stacked NMF replaced, the row-by-row ``int()`` checks and profile scan
that the parsers' tables of canonical texts replaced, over the
header-checking row generator they dropped, the per-type check
closures that ``load_store``'s table of allowed types replaced, and
direct rescans (``build_subset`` scans the ratings once per resource),
so test expectations are derived independently of the code under test.
``render_ratings`` writes records back to the ratings format for tests
that need a ratings file.  The item types those oracles
work on live here too; the library works on the integer arrays of its
learner table.
"""
from __future__ import annotations

import csv
import io
import math
import sys
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
from learntags.cluster import (
    _BOUND_MARGIN,
    LLOYD_MAX_ITERS,
    Grouping,
    KTraceEntry,
    LloydFit,
    _lockstep,
    group_batches,
)
from learntags.mine import N_ATTRIBUTES
from learntags.ingest import (
    MAX_HOURS,
    PROFILES_HEADER,
    RATINGS_HEADER,
    MalformedRowError,
    ProfilesResult,
    RatingsResult,
    _profile_violation,
    discretize_time,
)

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


def _data_rows(reader, header: tuple[str, ...], name: str):
    """The rows of a csv ``reader`` after its header row, which must be ``header``.

    A row the reader cannot split, such as one holding a field over the
    csv module's size limit, raises MalformedRowError with its line.
    """
    try:
        first = next(reader, None)
        if first is None:
            raise ValueError(f"{name} stream is empty, expected a header row")
        if tuple(first) != header:
            raise ValueError(f"unexpected {name} header {first!r}, expected {list(header)!r}")
        yield from reader
    except csv.Error as exc:
        raise MalformedRowError(reader.line_num, str(exc)) from None


def oracle_parse_ratings(stream) -> RatingsResult:
    """Row-by-row oracle for ``parse_ratings``: every field through the
    checks and ``int()``, with no table of canonical texts and no shared
    id strings."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream, delimiter=";", quotechar='"')
    result = RatingsResult(records=[])
    for row in _data_rows(reader, RATINGS_HEADER, "ratings"):
        if not row:
            continue
        reason = None
        if len(row) != 3:
            reason = f"expected 3 fields, got {len(row)}"
        else:
            learner_id, resource_id, rating_text = row
            if not learner_id or not resource_id:
                reason = "empty learner or resource id"
            else:
                try:
                    rating = int(rating_text)
                except ValueError:
                    reason = f"rating {rating_text!r} is not an integer"
                else:
                    if not 0 <= rating <= 10:
                        reason = f"rating {rating} outside 0..10"
        if reason is not None:
            result.malformed += 1
            continue
        if rating == 0:
            result.dropped_zero += 1
            continue
        result.records.append(RatingRecord(learner_id, resource_id, rating))
    return result


def oracle_checked_values(row: list[str]) -> tuple[int, ...] | str:
    """Row-by-row oracle for ``ingest._checked_values``, which serves
    ``parse_profiles`` and ``find_profile``: ``int()`` on every attribute
    field, then the ranges."""
    if len(row) != 6:
        return f"expected 6 fields, got {len(row)}"
    if not row[0]:
        return "empty learner id"
    try:
        values = tuple(map(int, row[1:]))
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and any(len(text) > limit for text in row[1:]):
            return f"attribute value too long (over {limit} characters)"
        return "non-integer attribute value"
    a1, a2, a3, a4, a5 = values
    if 1 <= a1 < a2 <= 6 and 1 <= a3 <= 5 and 1 <= a4 <= 5 and 0 <= a5 <= MAX_HOURS:
        return values
    return _profile_violation(LearnerProfile(row[0], *values))


def oracle_scan_profiles(stream, learner_id: str | None = None):
    """Row-by-row oracle for ``ingest._scan_profiles``, which serves
    ``parse_profiles`` and ``find_profile``: every non-blank row through
    ``oracle_checked_values``, duplicates counted as they occur.  Returns
    the ProfilesResult without profiles and each learner's checked values
    by learner id, as a 5-tuple."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    result = ProfilesResult(profiles=[])
    by_id: dict[str, tuple[int, ...]] = {}
    for row in _data_rows(reader, PROFILES_HEADER, "profiles"):
        if not row:
            continue
        checked = oracle_checked_values(row)
        if isinstance(checked, str):
            result.rejected.append((reader.line_num, checked))
            if row[0] == learner_id:
                result.learner_rejected = result.rejected[-1]
            continue
        if row[0] in by_id:
            result.duplicates += 1
        by_id[row[0]] = checked
    return result, by_id


def _oracle_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _oracle_number(v) -> bool:
    return ((_oracle_int(v) and abs(v) <= sys.float_info.max)
            or (isinstance(v, float) and math.isfinite(v)))


def _oracle_decade_bin(v) -> bool:
    return (isinstance(v, list) and len(v) == 2 and all(map(_oracle_int, v))
            and v[0] >= 1 and v[0] % 10 == 1 and v[1] == v[0] + 9)


def _oracle_or_null(valid):
    return lambda v: v is None or valid(v)


# Oracle for ``pipeline._TYPE_CHECKS``: declared field type -> (whether a
# JSON value passes load_store's check, what the field accepts).  A number
# field also refuses an int beyond the float range, which the closures
# let through to an OverflowError.
ORACLE_TYPE_CHECKS = {
    int: (_oracle_int, "an int"),
    float: (_oracle_number, "a number"),
    int | None: (_oracle_or_null(_oracle_int), "an int or null"),
    float | None: (_oracle_or_null(_oracle_number), "a number or null"),
    TimeBin | None: (_oracle_or_null(_oracle_decade_bin), "null or two ints [10j+1, 10j+10]"),
}


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


def items_of_tag(tag: Tag) -> frozenset[Item]:
    """The items a tag names, its nominal fields by parameter id."""
    return frozenset(Item(a, v) for a, v in enumerate(
        (tag.current_skill, tag.target_skill, tag.strategy, tag.presentation, tag.time_bin), 1)
        if v is not None)


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


def reference_order(f: FrequentItemset) -> tuple[int, list[tuple[int, int]]]:
    """Size, then the (attribute, code) pairs: the order miner itemsets
    are output in, as the Python sort key the array sort replaced."""
    pairs = [(a, v) for a, v in enumerate(f.fields) if v]
    return len(pairs), pairs


def reference_select_tag(frequent: list[FrequentItemset]) -> list[FrequentItemset]:
    """The tag selection over a full ``apriori`` list that
    ``tag_itemsets`` replaced: itemsets of top cardinality, then top
    count, all ties included, in ``reference_order``."""
    if not frequent:
        return []
    top_size = max(reference_order(f)[0] for f in frequent)
    biggest = [f for f in frequent if reference_order(f)[0] == top_size]
    top_count = max(f.count for f in biggest)
    return sorted((f for f in biggest if f.count == top_count), key=reference_order)


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
    coords = table.coords({a: details[a].values for a in ("strategy", "presentation")})
    clusters = {}
    for rid, rows in zip(table.resources, table.members):
        if len(rows) < config.min_subset:
            continue
        group = group_rows(coords[rows], config.k_max, config.gamma, config.seed)
        members = [table.ids[r] for r in rows[group.largest]]
        clusters[rid] = [transaction_from_profile(profiles[lid]) for lid in members]
    return clusters


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


def lloyd_kmeans(x: np.ndarray, seed_rows: list[int]) -> LloydFit:
    """Lloyd's iteration on the rows of ``x`` from centroids at
    ``seed_rows``: the one-fit case of the library's shared rounds."""
    return _lockstep(x, [len(x)], [seed_rows], [[len(seed_rows)]])[0][0]


# Reference k sweep of one subset's rows, with its own Lloyd loop,
# empty-cluster repair and pdist diameters: the shared rounds in
# learntags.cluster must reproduce it bit for bit.


def reference_farthest_first_seeds(x: np.ndarray, k: int, seed: int) -> list[int]:
    """Pick k seed rows by farthest-first traversal.

    The first seed is drawn uniformly at random from ``seed``; every
    later seed is the row maximizing its minimum distance to the seeds
    already chosen, ties going to the smallest row.
    """
    first = int(np.random.default_rng(seed).integers(len(x)))
    chosen = [first]
    min_dist = np.linalg.norm(x - x[first], axis=1)
    while len(chosen) < k:
        masked = min_dist.copy()
        masked[chosen] = -np.inf
        pick = int(np.flatnonzero(masked == masked.max())[0])
        chosen.append(pick)
        min_dist = np.minimum(min_dist, np.linalg.norm(x - x[pick], axis=1))
    return chosen


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
    x: np.ndarray, seed_rows: list[int], max_iters: int = LLOYD_MAX_ITERS
) -> LloydFit:
    """Alternate nearest-centroid assignment and centroid means.

    Stops when no assignment changes or after ``max_iters``; the SSE is
    non-increasing across iterations, and the final assignment is always
    computed against the final centroids.
    """
    centroids = np.array(x[list(seed_rows)], dtype=np.float64)
    labels = _reference_assign(x, centroids)
    reference_repair_empty(x, labels, centroids)
    trace = [_reference_sse(x, labels, centroids)]
    for _ in range(max_iters):
        prev = labels.copy()
        for j in range(len(centroids)):
            mask = labels == j
            if mask.any():
                centroids[j] = x[mask].mean(axis=0)
        labels = _reference_assign(x, centroids)
        reference_repair_empty(x, labels, centroids)
        trace.append(_reference_sse(x, labels, centroids))
        if np.array_equal(labels, prev):
            break
    return LloydFit(centroids=centroids, labels=labels, sse_trace=trace)


def reference_average_diameter(x: np.ndarray, labels) -> float:
    """Mean over non-empty clusters, in label order, of the max pairwise
    row distance."""
    labels = np.asarray(labels)
    diameters = []
    for j in np.unique(labels):
        rows = x[labels == j]
        diameters.append(float(pdist(rows).max()) if len(rows) > 1 else 0.0)
    return float(np.mean(diameters))


def reference_select_k(
    x: np.ndarray, k_max: int, gamma: float, seed: int, max_iters: int = LLOYD_MAX_ITERS
) -> Grouping:
    """Sweep k downward and stop just before the first diameter jump.

    Runs Lloyd for k = min(k_max, n) down to 1, seeded with the first k
    seeds of one farthest-first traversal, and chooses the smallest k
    reachable without the average diameter growing by more than a factor
    of ``gamma`` in one step; a zero diameter at k treats any positive
    diameter at k - 1 as a jump.  With no jump anywhere the sweep ends at
    k = 1.  Returns the rows, the seeds, every k's fit, the trace of
    SSEs and diameters, the chosen k and its largest cluster (ties to
    the cluster holding the smallest row).
    """
    k_start = min(k_max, len(x))
    # Farthest-first picks do not depend on k, so the seeds for every k
    # of the sweep are a prefix of one traversal.
    seeds = reference_farthest_first_seeds(x, k_start, seed)
    fits, diameters, trace = {}, {}, []
    for k in range(k_start, 0, -1):
        fits[k] = reference_lloyd_kmeans(x, seeds[:k], max_iters)
        diameters[k] = reference_average_diameter(x, fits[k].labels)
        trace.append(KTraceEntry(k=k, sse=fits[k].sse, avg_diameter=diameters[k]))

    chosen = 1
    for k in range(k_start, 1, -1):
        if diameters[k - 1] > gamma * diameters[k]:
            chosen = k
            break
    labels = fits[chosen].labels
    sizes = np.bincount(labels)
    biggest = next(j for j in labels if sizes[j] == sizes.max())
    grouping = Grouping(x, chosen, seeds, list(fits.values()), labels == biggest)
    grouping.trace = trace
    return grouping


def group_subsets(coords: np.ndarray, members, k_max: int, gamma: float, seed: int):
    """The groupings of ``group_batches``, one at a time, in subset order."""
    for batch in group_batches(coords, members, k_max, gamma, seed):
        yield from batch


def reference_diameter_bounds(x: np.ndarray, labels,
                              farthest: bool = False) -> tuple[float, float]:
    """A fit's average over non-empty clusters, in label order, of the
    largest column span and of the bounding-box diagonal, each span
    squared first.  With ``farthest`` a cluster's lower bound is the
    larger of its largest span and the distance from its first row to
    its farthest member."""
    labels = np.asarray(labels)
    low, high = [], []
    for j in np.unique(labels):
        rows = x[labels == j]
        squares = (rows.max(axis=0) - rows.min(axis=0)) ** 2
        low.append(math.sqrt(max(squares)))
        if farthest:
            low[-1] = max(low[-1], float(cdist(rows[:1], rows).max()))
        high.append(math.sqrt(sum(squares)))
    # Averaged as reference_average_diameter averages, so that a bound
    # at most each cluster's diameter is at most their average.
    return float(np.mean(low)), float(np.mean(high))


def reference_open_fits(bounds: list[tuple[float, float]], gamma: float) -> set[int]:
    """The fits of the steps, from the top down to the first the bounds
    settle as a jump, that they settle neither way."""
    fits = set()
    for i, ((low, high), (low_after, high_after)) in enumerate(zip(bounds, bounds[1:])):
        if low_after > gamma * high * (1 + _BOUND_MARGIN):
            break
        if high_after * (1 + _BOUND_MARGIN) > gamma * low:
            fits |= {i, i + 1}
    return fits


def reference_read_fits(grouping: Grouping, gamma: float) -> list[int]:
    """The fits, by index, whose exact diameters the jump rule reads:
    those of the steps the span and diagonal bounds leave open that the
    farthest-member bound leaves open too."""
    bounds = [reference_diameter_bounds(grouping.x, f.labels) for f in grouping.fits]
    for j in reference_open_fits(bounds, gamma):
        low = reference_diameter_bounds(grouping.x, grouping.fits[j].labels, farthest=True)[0]
        bounds[j] = (low, bounds[j][1])
    return sorted(reference_open_fits(bounds, gamma))


def render_ratings(records) -> str:
    """Write records back to the ratings file format (inverse of parse)."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=";", quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow(RATINGS_HEADER)
    writer.writerows(records)
    return out.getvalue()


def oracle_nmf(a: np.ndarray, k: int, max_iters: int, tol: float, seed: int):
    """One matrix's multiplicative-update loop, as the library ran each
    attribute before both shared one loop: (weights, features, error
    trace)."""
    a = np.asarray(a, dtype=np.float64)
    if not a.any():
        return np.zeros((a.shape[0], k)), np.zeros((k, a.shape[1])), [0.0]
    rng = np.random.default_rng(seed)
    b = 1.0 - rng.random((a.shape[0], k))
    c = 1.0 - rng.random((k, a.shape[1]))
    err = float(np.linalg.norm(a - b @ c))
    trace = [err]
    for _ in range(max_iters):
        c *= (b.T @ a) / (b.T @ b @ c + 1e-12)
        b *= (a @ c.T) / (b @ c @ c.T + 1e-12)
        new_err = float(np.linalg.norm(a - b @ c))
        trace.append(new_err)
        improvement = (err - new_err) / err if err > 0 else 0.0
        err = new_err
        if improvement < tol:
            break
    return b, c, trace
