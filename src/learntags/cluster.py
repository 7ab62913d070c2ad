"""Grouping subset learners in 5-D attribute space.

Each learner becomes a point (current skill, target skill, quantified
strategy, quantified presentation, hours).  Dimensions are min-max
normalized so the raw-count-scale quantified values cannot dominate the
Euclidean metric, seeding uses farthest-first traversal, Lloyd's
iteration refines the clusters, and the cluster count is chosen by
sweeping k downward until the average cluster diameter jumps by a large
factor.  The largest cluster is the learner group that tags a resource.
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
class Clustering:
    """A k-means result.

    Every point is assigned to its nearest centroid under Euclidean
    distance (ties to the smallest cluster index, except for a point a
    repaired empty cluster was reseeded on, which sits at distance 0).
    ``sse_trace`` holds the sum of squared distances after each Lloyd
    iteration and is non-increasing.
    """

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
    safe = np.where(spans > 0, spans, 1.0)
    out = []
    for p in points:
        frac = (np.array(p.coords) - mins) / safe
        frac[spans == 0] = 0.0
        out.append(FeaturePoint(p.learner_id, tuple(float(v) for v in frac)))
    return out


def farthest_first_seeds(points: list[FeaturePoint], k: int, seed: int) -> list[FeaturePoint]:
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


def lloyd_kmeans(
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

    labels = _assign(x, centroids)
    _repair_empty(x, labels, centroids)
    trace = [_sse(x, labels, centroids)]
    for _ in range(max_iters):
        prev = labels.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                centroids[j] = x[mask].mean(axis=0)
        labels = _assign(x, centroids)
        _repair_empty(x, labels, centroids)
        trace.append(_sse(x, labels, centroids))
        if np.array_equal(labels, prev):
            break

    assignment = {p.learner_id: int(labels[i]) for i, p in enumerate(points)}
    return Clustering(k=k, centroids=centroids, assignment=assignment,
                      sse=trace[-1], sse_trace=trace)


def average_diameter(clustering: Clustering, points: list[FeaturePoint]) -> float:
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

    k_start = min(k_max, len(points))
    clusterings: dict[int, Clustering] = {}
    diameters: dict[int, float] = {}
    trace = []
    # Farthest-first picks do not depend on k, so the seeds for every k
    # of the sweep are a prefix of one traversal.
    seeds = farthest_first_seeds(points, k_start, seed)
    for k in range(k_start, 0, -1):
        clusterings[k] = lloyd_kmeans(points, seeds[:k], max_iters)
        diameters[k] = average_diameter(clusterings[k], points)
        trace.append(KTraceEntry(k=k, sse=clusterings[k].sse, avg_diameter=diameters[k]))

    chosen = 1
    for k in range(k_start, 1, -1):
        if diameters[k - 1] > gamma * diameters[k]:
            chosen = k
            break
    return KSelection(clustering=clusterings[chosen], trace=trace)


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
