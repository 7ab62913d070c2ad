"""Grouping subset learners in 5-D attribute space.

Each learner becomes a point (current skill, target skill, quantified
strategy, quantified presentation, hours).  Dimensions are min-max
normalized so the raw-count-scale quantified values cannot dominate the
Euclidean metric, seeding uses farthest-first traversal, Lloyd's
iteration refines the clusters, and the cluster count is chosen by
sweeping k downward until the average cluster diameter jumps by a large
factor.  The largest cluster is the learner group that tags a resource.
The k sweep works on one ``(n, dims)`` array per subset, with seeds as
row indices and one Lloyd label per row.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .ingest import LearnerProfile, LearnerSubset
from .quantify import AttributeValueMap

DEFAULT_LLOYD_MAX_ITERS = 100


@dataclass(frozen=True, slots=True)
class FeaturePoint:
    """One subset member embedded in 5-D attribute space."""

    learner_id: str
    coords: tuple[float, ...]


@dataclass(frozen=True)
class NormalizationSpec:
    """Per-dimension min and max captured from a point set."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]


@dataclass
class LloydFit:
    """Lloyd's result: each row labelled with its nearest centroid (ties
    to the smallest index, except a row a repaired empty cluster was
    reseeded on, at distance 0), and the non-increasing SSE after the
    seeding and after each iteration; ``sse`` is the last entry.
    """

    centroids: np.ndarray            # (k, dims)
    labels: np.ndarray               # (n,) cluster index per row
    sse: float
    sse_trace: list[float]


@dataclass
class Clustering:
    """The k-means result ``select_k`` picks, keyed by learner id."""

    k: int
    centroids: np.ndarray            # (k, dims)
    assignment: dict[str, int]       # learner_id -> cluster index
    sse: float
    sse_trace: list[float]


@dataclass(frozen=True)
class KTraceEntry:
    """One step of the k sweep used to pick the cluster count."""

    k: int
    sse: float
    avg_diameter: float


@dataclass
class KSelection:
    """The chosen clustering plus the (k, sse, avg_diameter) sweep trace."""

    clustering: Clustering
    trace: list[KTraceEntry]


def to_feature_points(
    subset: LearnerSubset,
    profiles: Mapping[str, LearnerProfile],
    strategy_values: AttributeValueMap,
    presentation_values: AttributeValueMap,
) -> list[FeaturePoint]:
    """Embed each subset member, ordered by learner id for determinism."""
    points = []
    for lid in sorted(subset.members):
        if lid not in profiles:
            raise KeyError(f"no profile for learner {lid!r}")
        p = profiles[lid]
        if p.strategy not in strategy_values:
            raise KeyError(f"no quantified value for strategy parameter {p.strategy}")
        if p.presentation not in presentation_values:
            raise KeyError(f"no quantified value for presentation parameter {p.presentation}")
        coords = (
            float(p.current_skill),
            float(p.target_skill),
            strategy_values[p.strategy],
            presentation_values[p.presentation],
            float(p.hours),
        )
        points.append(FeaturePoint(lid, coords))
    return points


def fit_normalization(points: list[FeaturePoint]) -> NormalizationSpec:
    """Capture per-dimension ranges for min-max scaling."""
    if not points:
        raise ValueError("cannot fit normalization on an empty point set")
    x = np.array([p.coords for p in points], dtype=np.float64)
    return NormalizationSpec(
        mins=tuple(float(v) for v in x.min(axis=0)),
        maxs=tuple(float(v) for v in x.max(axis=0)),
    )


def apply_normalization(points: list[FeaturePoint], spec: NormalizationSpec) -> list[FeaturePoint]:
    """Map each coordinate to (x - min) / (max - min); degenerate dims to 0."""
    mins = np.array(spec.mins)
    spans = np.array(spec.maxs) - mins
    x = np.array([p.coords for p in points], dtype=np.float64).reshape(len(points), len(mins))
    frac = np.where(spans == 0, 0.0, (x - mins) / np.where(spans > 0, spans, 1.0))
    return [FeaturePoint(p.learner_id, tuple(row)) for p, row in zip(points, frac.tolist())]


def farthest_first_seeds(points: list[FeaturePoint], k: int, seed: int) -> list[int]:
    """Pick k seeds by farthest-first traversal, as row indices into ``points``.

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
    return chosen


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    # argmin takes the first minimum, which is the smallest cluster index.
    return np.argmin(cdist(x, centroids), axis=1)


def _sse(x: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> float:
    diffs = x - centroids[labels]
    return float(np.sum(diffs * diffs))


def _repair_empty(x: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> None:
    """Reseed each empty cluster on the point farthest from its centroid.

    Keeps k stable so the diameter sequence stays comparable across the
    sweep.  A reseed at distance zero cannot reduce the error and would
    only shuffle duplicate points, so those clusters are left empty.  A
    reseed moves only row ``far`` (to distance 0), so distances are computed
    once; a later cluster it empties is repaired in turn.
    """
    counts = np.bincount(labels, minlength=len(centroids))
    if counts.all():
        return
    dist = np.linalg.norm(x - centroids[labels], axis=1)
    for j in range(len(counts)):
        if counts[j]:
            continue
        far = int(np.argmax(dist))
        if dist[far] == 0.0:
            return
        counts[labels[far]] -= 1
        counts[j] = 1
        centroids[j] = x[far]
        labels[far] = j
        dist[far] = 0.0


def lloyd_kmeans(
    x: np.ndarray,
    seed_rows: list[int],
    max_iters: int = DEFAULT_LLOYD_MAX_ITERS,
) -> LloydFit:
    """Alternate nearest-centroid assignment and centroid means on the rows
    of ``x``, starting from centroids at ``seed_rows``.

    Stops when no label changes or after ``max_iters``; the final labels
    are always computed against the final centroids.
    """
    if len(x) == 0:
        raise ValueError("no points to cluster")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if len(set(seed_rows)) != len(seed_rows):
        raise ValueError("seeds must be distinct points")

    centroids = x[list(seed_rows)].astype(np.float64)
    labels = _assign(x, centroids)
    _repair_empty(x, labels, centroids)
    trace = [_sse(x, labels, centroids)]
    for _ in range(max_iters):
        prev = labels
        # Row-order sums over counts equal x[labels == j].mean(axis=0) exactly.
        counts = np.bincount(labels, minlength=len(centroids))
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, x)
        filled = counts > 0
        centroids[filled] = sums[filled] / counts[filled, None]
        labels = _assign(x, centroids)
        _repair_empty(x, labels, centroids)
        trace.append(_sse(x, labels, centroids))
        if np.array_equal(labels, prev):
            break
    return LloydFit(centroids=centroids, labels=labels, sse=trace[-1], sse_trace=trace)


def average_diameter(x: np.ndarray, labels: np.ndarray) -> float:
    """Mean over non-empty clusters, in label order, of the max row distance."""
    clusters = [x[labels == j] for j in np.unique(labels)]
    return float(np.mean([pdist(m).max() if len(m) > 1 else 0.0 for m in clusters]))


def select_k(
    points: list[FeaturePoint],
    k_max: int,
    gamma: float,
    seed: int,
    max_iters: int = DEFAULT_LLOYD_MAX_ITERS,
) -> KSelection:
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

    x = np.array([p.coords for p in points], dtype=np.float64)
    k_start = min(k_max, len(points))
    fits: dict[int, LloydFit] = {}
    diameters: dict[int, float] = {}
    trace = []
    # Farthest-first picks do not depend on k, so the seeds for every k
    # of the sweep are a prefix of one traversal.
    seeds = farthest_first_seeds(points, k_start, seed)
    for k in range(k_start, 0, -1):
        fits[k] = lloyd_kmeans(x, seeds[:k], max_iters)
        diameters[k] = average_diameter(x, fits[k].labels)
        trace.append(KTraceEntry(k=k, sse=fits[k].sse, avg_diameter=diameters[k]))

    chosen = 1
    for k in range(k_start, 1, -1):
        if diameters[k - 1] > gamma * diameters[k]:
            chosen = k
            break
    fit = fits[chosen]
    assignment = dict(zip((p.learner_id for p in points), fit.labels.tolist()))
    return KSelection(Clustering(chosen, fit.centroids, assignment, fit.sse, fit.sse_trace), trace)


def largest_cluster(clustering: Clustering) -> set[str]:
    """Members of the biggest cluster; ties go to the smallest learner id."""
    if not clustering.assignment:
        raise ValueError("clustering has no points")
    members: dict[int, set[str]] = {}
    for lid, j in clustering.assignment.items():
        members.setdefault(j, set()).add(lid)
    max_size = max(len(m) for m in members.values())
    tied = [m for m in members.values() if len(m) == max_size]
    return set(min(tied, key=min))
