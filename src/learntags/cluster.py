"""Grouping subset learners in 5-D attribute space.

Each learner is one row of (current skill, target skill, quantified
strategy, quantified presentation, hours), and a subset is the array of
its members' rows in learner-id order, so a tie that goes to the
smallest row goes to the smallest learner id.  Dimensions are min-max
normalized so the raw-count-scale quantified values cannot dominate the
Euclidean metric, seeding uses farthest-first traversal, Lloyd's
iteration refines the clusters, and the cluster count is chosen by
sweeping k downward until the average cluster diameter jumps by a large
factor.  The largest cluster is the learner group that tags a resource.
Seeds are row indices and Lloyd's result is one label per row.

The sweep runs the Lloyd fits of every k in lockstep: each round labels
the rows against the centroids of all fits still moving with one
distance call, and a fit leaves the round once its labels stop changing,
so every fit equals the one run alone.  One distance pass then serves
every fit's diameters: the rows are grouped into atoms, the rows that
share a cluster in every fit, and each block of rows against the rows
after it is reduced to atom-pair maxima, so no distance temporary
exceeds one row block by the subset size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

DEFAULT_LLOYD_MAX_ITERS = 100


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


@dataclass(frozen=True)
class KTraceEntry:
    """One step of the k sweep used to pick the cluster count."""

    k: int
    sse: float
    avg_diameter: float


@dataclass
class KSelection:
    """The chosen k, Lloyd's fit at that k, and the (k, sse, avg_diameter)
    sweep trace."""

    k: int
    fit: LloydFit
    trace: list[KTraceEntry]


@dataclass
class Grouping:
    """One subset's rows after normalization, the k sweep and the pick of
    the largest cluster."""

    x: np.ndarray                    # (n, dims) normalized rows
    k: int
    labels: np.ndarray               # (n,) cluster index per row
    largest: np.ndarray              # (n,) bool, rows of the largest cluster
    trace: list[KTraceEntry]         # empty when no sweep ran


def normalize(x: np.ndarray) -> np.ndarray:
    """Map each column to (x - min) / (max - min); degenerate columns to 0."""
    if len(x) == 0:
        raise ValueError("cannot normalize an empty point set")
    mins = x.min(axis=0)
    spans = x.max(axis=0) - mins
    return np.where(spans == 0, 0.0, (x - mins) / np.where(spans > 0, spans, 1.0))


def farthest_first_seeds(x: np.ndarray, k: int, seed: int) -> list[int]:
    """Pick k seeds of the rows of ``x`` by farthest-first traversal.

    The first seed is drawn uniformly at random from ``seed``; every
    later seed is the row maximizing its minimum distance to the seeds
    already chosen, ties going to the smallest row.
    """
    n = len(x)
    if not 1 <= k <= n:
        raise ValueError(f"insufficient points: need 1 <= k <= {n}, got k={k}")
    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))

    chosen = [first]
    min_dist = cdist(x, x[first:first + 1])[:, 0]
    min_dist[first] = -np.inf  # a chosen row stays at -inf, so it is never picked again
    while len(chosen) < k:
        pick = int(np.argmax(min_dist))  # the first maximum is the smallest row
        chosen.append(pick)
        np.minimum(min_dist, cdist(x, x[pick:pick + 1])[:, 0], out=min_dist)
        min_dist[pick] = -np.inf
    return chosen


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


def _slots(labels: np.ndarray, width: int) -> np.ndarray:
    """Each row's (fit, cluster) slot of ``(fits, n)`` labels, fit-major."""
    return labels + (np.arange(len(labels)) * width)[:, None]


def _assign(x: np.ndarray, centroids: np.ndarray, ks: np.ndarray):
    """Label the rows for every fit of ``(fits, width, dims)`` centroids,
    repair the fits left with an empty cluster, and count each slot."""
    fits, width, dims = centroids.shape
    dist = cdist(x, centroids.reshape(-1, dims)).reshape(len(x), fits, width)
    # argmin takes the first minimum, which is the smallest cluster index.
    labels = dist.argmin(axis=2).T
    counts = np.bincount(_slots(labels, width).ravel(), minlength=fits * width)
    counts = counts.reshape(fits, width)
    for f in np.flatnonzero(np.count_nonzero(counts, axis=1) < ks):
        _repair_empty(x, labels[f], centroids[f, :ks[f]])
        counts[f] = np.bincount(labels[f], minlength=width)
    return labels, counts


def _update(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray, counts: np.ndarray):
    """Move each centroid with members to their mean, in place.  Row-order
    sums over counts equal ``x[labels == j].mean(axis=0)`` exactly."""
    fits, width, dims = centroids.shape
    keys = _slots(labels, width)[:, :, None] * dims + np.arange(dims)
    weights = np.broadcast_to(x, (fits, *x.shape))
    sums = np.bincount(keys.ravel(), weights.ravel(), minlength=centroids.size)
    filled = counts > 0
    centroids[filled] = sums.reshape(centroids.shape)[filled] / counts[filled, None]


def _sse(x: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> list[float]:
    diffs = x - centroids[np.arange(len(labels))[:, None], labels]
    return (diffs * diffs).reshape(len(labels), -1).sum(axis=1).tolist()


def lockstep_lloyd(
    x: np.ndarray,
    seed_rows: list[int],
    ks: list[int],
    max_iters: int = DEFAULT_LLOYD_MAX_ITERS,
) -> list[LloydFit]:
    """Lloyd's iteration for several k at once on the rows of ``x``: fit
    ``f`` starts from centroids at the first ``ks[f]`` of ``seed_rows``.

    Each round moves the centroids of every fit still running, labels
    the rows against all of them with one distance call, and appends
    each fit's SSE.  A fit stops when no label changes or after
    ``max_iters`` rounds; its final labels are always computed against
    its final centroids, and it equals the fit run alone.
    """
    if len(x) == 0:
        raise ValueError("no points to cluster")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if len(set(seed_rows)) != len(seed_rows):
        raise ValueError("seeds must be distinct points")
    if len(ks) == 0 or min(ks) < 1 or max(ks) > len(seed_rows):
        raise ValueError(f"each k must be in 1..{len(seed_rows)}, got {ks}")

    ks = np.asarray(ks)
    ids = np.arange(len(ks))
    # Slots past a fit's k hold infinite centroids: never nearest, so never filled.
    used = np.arange(ks.max()) < ks[:, None]
    centroids = np.where(used[:, :, None], x[list(seed_rows[:ks.max()])], np.inf)
    traces: list[list[float]] = [[] for _ in ks]
    fits: list[LloydFit] = [None] * len(ks)

    labels, counts = _assign(x, centroids, ks)
    for i, value in zip(ids, _sse(x, centroids, labels)):
        traces[i].append(value)
    for round_ in range(1, max_iters + 1):
        _update(x, centroids, labels, counts)
        prev = labels
        labels, counts = _assign(x, centroids, ks)
        for i, value in zip(ids, _sse(x, centroids, labels)):
            traces[i].append(value)
        done = (labels == prev).all(axis=1) | (round_ == max_iters)
        for f in np.flatnonzero(done):
            trace = traces[ids[f]]
            fits[ids[f]] = LloydFit(centroids=centroids[f, :ks[f]].copy(),
                                    labels=labels[f].copy(), sse=trace[-1], sse_trace=trace)
        if done.all():
            return fits
        moving = ~done
        ids, ks, centroids, labels, counts = (
            a[moving] for a in (ids, ks, centroids, labels, counts))


# Rows per distance block in average_diameter: no distance temporary
# exceeds _DIAMETER_BLOCK_ROWS x n, and no per-fit mask of a block's
# atom pairs exceeds that block's distances.  On sweeps of 30 to 7,574
# rows, blocks of 16 to 256 rows timed within noise of 64.
_DIAMETER_BLOCK_ROWS = 64


def average_diameter(x: np.ndarray, labels: np.ndarray) -> list[float]:
    """Each fit's mean over its non-empty clusters, in label order, of the
    max row distance, for the ``(fits, n)`` labels of the rows of ``x``.

    The rows fall into atoms, the rows that share a cluster in every fit,
    which one lexsort of the label rows makes contiguous.  One pass over
    blocks of the sorted rows against the rows from the block on reduces
    each block's distances to atom-pair maxima; a fit's cluster diameter
    is the largest of those over the atom pairs its labels put together.
    """
    labels = np.asarray(labels)
    n = len(x)
    if n == 0:
        raise ValueError("no points to measure")
    if labels.ndim != 2 or len(labels) == 0 or labels.shape[1] != n:
        raise ValueError(f"labels must be (fits, {n}), got shape {labels.shape}")
    if labels.min() < 0:
        raise ValueError("labels must be non-negative")

    order = np.lexsort(labels)
    xs, sorted_labels = x[order], labels[:, order]
    new_atom = np.ones(n, dtype=bool)
    new_atom[1:] = (sorted_labels[:, 1:] != sorted_labels[:, :-1]).any(axis=0)
    starts = np.flatnonzero(new_atom)
    atom_of = np.cumsum(new_atom) - 1
    atom_labels = sorted_labels[:, starts]            # (fits, atoms)

    # best[f, a]: the largest distance from a row of atom a to itself or a
    # later row of its cluster in fit f, so every pair is counted once.
    best = np.zeros(atom_labels.shape)
    for i in range(0, n - 1, _DIAMETER_BLOCK_ROWS):
        block = cdist(xs[i:i + _DIAMETER_BLOCK_ROWS], xs[i:])
        first, last = atom_of[i], atom_of[i + len(block) - 1]
        # Where each atom from ``first`` on starts among the block's columns.
        cuts = starts[first:] - i
        cuts[0] = 0
        pair_max = np.maximum.reduceat(
            np.maximum.reduceat(block, cuts, axis=1), cuts[:last - first + 1], axis=0)
        row_labels = atom_labels[:, first:last + 1, None]
        # Fits in groups whose masks are no larger than the block.
        step = block.size // pair_max.size
        for f in range(0, len(labels), step):
            same = row_labels[f:f + step] == atom_labels[f:f + step, None, first:]
            np.maximum(best[f:f + step, first:last + 1],
                       np.where(same, pair_max, 0.0).max(axis=2),
                       out=best[f:f + step, first:last + 1])

    width = int(atom_labels.max()) + 1
    diameters = np.zeros((len(labels), width))
    filled = np.zeros(diameters.shape, dtype=bool)
    fit_rows = np.arange(len(labels))[:, None]
    np.maximum.at(diameters, (fit_rows, atom_labels), best)
    filled[fit_rows, atom_labels] = True
    return [float(np.mean(d[f])) for d, f in zip(diameters, filled)]


def sweep_k(
    x: np.ndarray,
    k_max: int,
    gamma: float,
    seed: int,
    max_iters: int = DEFAULT_LLOYD_MAX_ITERS,
) -> KSelection:
    """Sweep k downward over the rows of ``x`` and stop just before the
    first diameter jump.

    Runs Lloyd for k = min(k_max, n) down to 1, seeded with the first k
    seeds of one farthest-first traversal, and returns the fit at the
    smallest k reachable without the average diameter growing by more
    than a factor of ``gamma`` in one step; a zero diameter at k treats
    any positive diameter at k - 1 as a jump.
    With no jump anywhere the sweep ends at k = 1.
    """
    if len(x) == 0:
        raise ValueError("no points to cluster")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if gamma <= 1:
        raise ValueError(f"gamma must exceed 1, got {gamma}")

    k_start = min(k_max, len(x))
    ks = list(range(k_start, 0, -1))
    # Farthest-first picks do not depend on k, so the seeds for every k
    # of the sweep are a prefix of one traversal.
    seeds = farthest_first_seeds(x, k_start, seed)
    fits = dict(zip(ks, lockstep_lloyd(x, seeds, ks, max_iters)))
    diameters = dict(zip(ks, average_diameter(x, np.array([fits[k].labels for k in ks]))))
    trace = [KTraceEntry(k=k, sse=fits[k].sse, avg_diameter=diameters[k]) for k in ks]

    chosen = 1
    for k in range(k_start, 1, -1):
        if diameters[k - 1] > gamma * diameters[k]:
            chosen = k
            break
    return KSelection(chosen, fits[chosen], trace)


def largest_cluster(labels: np.ndarray) -> np.ndarray:
    """Row mask of the biggest cluster; of tied clusters, the one holding
    the smallest row."""
    if len(labels) == 0:
        raise ValueError("clustering has no points")
    sizes = np.bincount(labels)
    first = np.argmax(sizes[labels] == sizes.max())
    return labels == labels[first]


def group_rows(coords: np.ndarray, k_max: int, gamma: float, seed: int) -> Grouping:
    """Normalize one subset's rows, sweep k and pick the largest cluster.

    With fewer than two rows there is nothing to cluster: no sweep runs
    and the subset itself is the group, at k = 1.
    """
    x = normalize(coords)
    if len(x) < 2:
        labels = np.zeros(len(x), dtype=np.intp)
        return Grouping(x, 1, labels, labels == 0, [])
    selection = sweep_k(x, k_max, gamma, seed)
    labels = selection.fit.labels
    return Grouping(x, selection.k, labels, largest_cluster(labels), selection.trace)
