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
Seeds are row indices, Lloyd's result is one label per row, and each
subset's rows, seeds, fits, trace, k and largest cluster are one
``Grouping``.

A run sweeps k for all of its subsets in shared rounds.  The subsets are
packed, in order, into batches of at most ``_BATCH_FIT_ROWS`` fit rows:
a subset of n rows has a fit for each k from min(k_max, n) down to 1,
each of n rows.  A batch draws the farthest-first seeds of all its
subsets in k_max shared steps, then runs every (subset, k) Lloyd fit in
one lockstep loop: each round labels the rows of every fit still moving,
with one distance call per subset, and a fit retires once its labels
stop changing, so every fit equals the one run alone.  A subset alone in
its batch is the one-subset case of the same code.

The jump rule reads the steps of a sweep from the top k down, in two
stages, and a step is settled when a bound clears the rule's threshold
by the relative ``_BOUND_MARGIN``.  First, bounds for every cluster of a
batch's fits, from one stable sort of their (fit, cluster) slots: a
cluster's diameter is at least the larger of its largest column span
and the distance from its first row to its farthest member, and at most
its bounding-box diagonal.  Second, exact diameters, per subset, only
for the fits of the steps still open above the first settled jump;
``Grouping.trace``, which lists every fit's exact diameter, is computed
when it is first read.  One distance pass serves all the fits it is
given: the subset's rows are grouped into atoms, the rows that share a
cluster in every fit, and each block of rows against the rows after it
is reduced to atom-pair maxima, so no distance temporary exceeds one row
block by the subset size.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.spatial.distance import cdist

# Lloyd rounds after which a fit stops even if labels still change.  On
# the stretch corpus fits took at most 66 rounds, so none reaches it.
LLOYD_MAX_ITERS = 100

# Fit rows per batch of the shared sweep.  A batch's largest temporaries
# hold one float per fit row and centroid slot, a quarter megabyte at the
# default k_max of 8.  On the perfbench corpora, budgets from 4,096 to
# 32,768 fit rows timed within noise of each other, and a run's peak
# memory grows with the budget.  A subset with more fit rows than this is
# a batch of its own and costs what sweeping it alone costs.
_BATCH_FIT_ROWS = 1 << 12


@dataclass
class LloydFit:
    """Lloyd's result: each row labelled with its nearest centroid (ties
    to the smallest index, except a row a repaired empty cluster was
    reseeded on, at distance 0), and the non-increasing SSE after the
    seeding and after each iteration.
    """

    centroids: np.ndarray            # (k, dims)
    labels: np.ndarray               # (n,) cluster index per row
    sse_trace: list[float]

    @property
    def sse(self) -> float:
        return self.sse_trace[-1]


@dataclass(frozen=True)
class KTraceEntry:
    """One step of the k sweep used to pick the cluster count."""

    k: int
    sse: float
    avg_diameter: float


@dataclass
class Grouping:
    """One subset's k sweep: its farthest-first seeds, Lloyd's fit for
    every k from the first down to 1, the chosen k and its largest
    cluster.  The (k, sse, avg_diameter) trace of every fit is computed
    when first read."""

    x: np.ndarray                    # (n, dims) rows, normalized by group_batches
    k: int
    seeds: list[int]
    fits: list[LloydFit]             # fits[i] is the fit at k = len(fits) - i
    largest: np.ndarray              # (n,) bool, rows of the largest cluster

    @property
    def labels(self) -> np.ndarray:
        """(n,) cluster index per row at the chosen k."""
        return self.fits[len(self.fits) - self.k].labels

    @functools.cached_property
    def trace(self) -> list[KTraceEntry]:
        """Each fit's k, SSE and exact average diameter, from the first k down."""
        diameters = average_diameter(self.x, np.array([f.labels for f in self.fits]))
        return [KTraceEntry(k=len(self.fits) - i, sse=f.sse, avg_diameter=d)
                for i, (f, d) in enumerate(zip(self.fits, diameters))]


def normalize(x: np.ndarray) -> np.ndarray:
    """Map each column to (x - min) / (max - min); degenerate columns to 0."""
    if len(x) == 0:
        raise ValueError("cannot normalize an empty point set")
    mins = x.min(axis=0)
    spans = x.max(axis=0) - mins
    return np.where(spans == 0, 0.0, (x - mins) / np.where(spans > 0, spans, 1.0))


@functools.lru_cache(maxsize=256)  # a run draws from one seed for every subset size
def _first_seed(seed: int, n: int) -> int:
    """The first farthest-first seed of ``n`` rows, drawn uniformly from ``seed``."""
    return int(np.random.default_rng(seed).integers(n))


def _row_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The distance from each row of ``x`` to the same row of ``y``.  The
    squares are summed column by column, in order, and then rooted, which
    is the arithmetic of ``cdist``'s Euclidean metric, bit for bit."""
    squares = x - y
    squares *= squares
    total = squares[:, 0].copy()
    for column in squares.T[1:]:
        total += column
    return np.sqrt(total)


def _farthest_first(x: np.ndarray, sizes: Sequence[int], ks: Sequence[int],
                    seed: int) -> list[list[int]]:
    """Farthest-first seeds of each subset, ``ks[s]`` of them for subset s
    as row indices within it; subset s is the ``sizes[s]`` rows of ``x``
    after those of the subsets before it.  All subsets take their picks in
    max(ks) shared steps."""
    sizes = np.asarray(sizes)
    starts = np.cumsum(sizes) - sizes
    subset_of = np.repeat(np.arange(len(sizes)), sizes)
    picks = starts + [_first_seed(seed, n) for n in sizes.tolist()]
    steps = [picks]
    min_dist = _row_distances(x, x.take(picks[subset_of], axis=0))
    min_dist[picks] = -np.inf  # a chosen row stays at -inf, so it is never picked again
    for _ in range(1, max(ks)):
        best = np.maximum.reduceat(min_dist, starts)
        ties = np.flatnonzero(min_dist == best[subset_of])
        # Each subset's first maximum is its smallest row.
        picks = ties[np.searchsorted(ties, starts)]
        steps.append(picks)
        np.minimum(min_dist, _row_distances(x, x.take(picks[subset_of], axis=0)), out=min_dist)
        min_dist[picks] = -np.inf
    seeds = (np.stack(steps, axis=1) - starts[:, None]).tolist()
    return [rows[:k] for rows, k in zip(seeds, ks)]


def farthest_first_seeds(x: np.ndarray, k: int, seed: int) -> list[int]:
    """Pick k seeds of the rows of ``x`` by farthest-first traversal.

    The first seed is drawn uniformly at random from ``seed``; every
    later seed is the row maximizing its minimum distance to the seeds
    already chosen, ties going to the smallest row.
    """
    n = len(x)
    if not 1 <= k <= n:
        raise ValueError(f"insufficient points: need 1 <= k <= {n}, got k={k}")
    return _farthest_first(x, [n], [k], seed)[0]


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


def _layout(subset: np.ndarray, n: np.ndarray, starts: list[int], sizes: list[int]):
    """Where the fits still moving lie, fit-major with their subsets in
    order: each fit's first fit row, each fit row's fit, and per subset
    with fits left its rows of x, its fits and their fit rows."""
    spans = []
    f0 = e0 = 0
    for s, fits in enumerate(np.bincount(subset).tolist()):
        if fits:
            lo, m = starts[s], sizes[s]
            spans.append((slice(lo, lo + m), slice(f0, f0 + fits), slice(e0, e0 + fits * m)))
            f0, e0 = f0 + fits, e0 + fits * m
    return np.cumsum(n) - n, np.repeat(np.arange(len(n)), n), spans


def _assign(x: np.ndarray, centroids: np.ndarray, k: np.ndarray, fit_of_row: np.ndarray,
            spans: list):
    """Label each fit row by the nearest of its fit's ``(fits, width,
    dims)`` centroids, with one distance call per subset, repair the fits
    left with an empty cluster, and count each fit row's (fit, cluster)
    slot."""
    fits, width, dims = centroids.shape
    labels = np.empty(len(fit_of_row), dtype=np.intp)
    for rows, subset_fits, fit_rows in spans:
        m, f = rows.stop - rows.start, subset_fits.stop - subset_fits.start
        dist = cdist(x[rows], centroids[subset_fits].reshape(-1, dims)).reshape(m, f, width)
        # argmin takes the first minimum, which is the smallest cluster index.
        dist.argmin(axis=2, out=labels[fit_rows].reshape(f, m).T)
    slots = fit_of_row * width + labels
    counts = np.bincount(slots, minlength=fits * width).reshape(fits, width)
    for f in np.flatnonzero(np.count_nonzero(counts, axis=1) < k):
        rows, subset_fits, fit_rows = next(span for span in spans if span[1].stop > f)
        m = rows.stop - rows.start
        first = fit_rows.start + (f - subset_fits.start) * m
        own = labels[first:first + m]
        _repair_empty(x[rows], own, centroids[f, :k[f]])
        counts[f] = np.bincount(own, minlength=width)
        slots[first:first + m] = f * width + own
    return labels, slots, counts


def _update(xe: np.ndarray, centroids: np.ndarray, slots: np.ndarray, counts: np.ndarray):
    """Move each centroid with members to their mean, in place.  Sums in
    fit-row order over counts equal ``x[labels == j].mean(axis=0)``
    exactly."""
    sums = np.stack([np.bincount(slots, column, minlength=counts.size) for column in xe.T],
                    axis=1)
    np.divide(sums.reshape(centroids.shape), counts[:, :, None], out=centroids,
              where=(counts > 0)[:, :, None])


def _sse(xe: np.ndarray, centroids: np.ndarray, slots: np.ndarray, spans: list) -> list[float]:
    """Each fit's SSE: one pairwise sum over its own fit rows, as the fit
    sums it when it runs alone."""
    diffs = centroids.reshape(-1, xe.shape[1]).take(slots, axis=0)
    np.subtract(xe, diffs, out=diffs)
    diffs *= diffs
    return np.concatenate([
        diffs[fit_rows].reshape(subset_fits.stop - subset_fits.start, -1).sum(axis=1)
        for _, subset_fits, fit_rows in spans]).tolist()


def _lockstep(x: np.ndarray, sizes: Sequence[int], seeds: Sequence[Sequence[int]],
              ks: Sequence[Sequence[int]]) -> list[list[LloydFit]]:
    """Lloyd's iteration for every fit of each subset, laid out in ``x`` as
    for ``_farthest_first``: subset s has a fit for each k of ``ks[s]``,
    starting from centroids at the first k of ``seeds[s]``.

    Each round moves the centroids of every fit still running, labels
    the fit rows of all of them, with one distance call per subset, and
    appends each fit's SSE.  A fit stops when no label changes or after
    ``LLOYD_MAX_ITERS`` rounds; its final labels are always computed against
    its final centroids, and it equals the fit run alone.
    """
    sizes = list(sizes)
    starts = np.cumsum([0, *sizes[:-1]])
    subset = np.repeat(np.arange(len(sizes)), [len(subset_ks) for subset_ks in ks])
    k = np.concatenate([np.asarray(subset_ks, dtype=np.intp) for subset_ks in ks])
    n = np.asarray(sizes)[subset]
    width = int(k.max())
    seed_rows = np.zeros((len(sizes), width), dtype=np.intp)
    for s, rows in enumerate(seeds):
        seed_rows[s, :min(width, len(rows))] = rows[:width]
    # Slots past a fit's k hold infinite centroids: never nearest, so never filled.
    used = np.arange(width) < k[:, None]
    centroids = np.where(used[:, :, None], x[(seed_rows + starts[:, None])[subset]], np.inf)
    offsets, fit_of_row, spans = _layout(subset, n, starts.tolist(), sizes)
    xe = x.take(np.arange(n.sum()) + np.repeat(starts[subset] - offsets, n), axis=0)
    ids = np.arange(len(k))
    traces: list[list[float]] = [[] for _ in ids]
    fits: list[LloydFit] = [None] * len(k)

    labels, slots, counts = _assign(x, centroids, k, fit_of_row, spans)
    for i, value in zip(ids.tolist(), _sse(xe, centroids, slots, spans)):
        traces[i].append(value)
    for round_ in range(1, LLOYD_MAX_ITERS + 1):
        _update(xe, centroids, slots, counts)
        prev = labels
        labels, slots, counts = _assign(x, centroids, k, fit_of_row, spans)
        for i, value in zip(ids.tolist(), _sse(xe, centroids, slots, spans)):
            traces[i].append(value)
        done = ~np.logical_or.reduceat(labels != prev, offsets) | (round_ == LLOYD_MAX_ITERS)
        if not done.any():
            continue
        for f in np.flatnonzero(done).tolist():
            fits[ids[f]] = LloydFit(centroids=centroids[f, :k[f]].copy(),
                                    labels=labels[offsets[f]:offsets[f] + n[f]].copy(),
                                    sse_trace=traces[ids[f]])
        if done.all():
            break
        moving = ~done
        kept = np.flatnonzero(np.repeat(moving, n))
        xe, labels = xe.take(kept, axis=0), labels.take(kept)
        ids, subset, k, n, centroids, counts = (
            a[moving] for a in (ids, subset, k, n, centroids, counts))
        offsets, fit_of_row, spans = _layout(subset, n, starts.tolist(), sizes)
        slots = fit_of_row * width + labels
    bounds = np.cumsum([0, *(len(subset_ks) for subset_ks in ks)]).tolist()
    return [fits[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


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
    # np.add.reduce over a float64 vector, divided by its length, is the
    # arithmetic np.mean runs, without its Python wrapper.
    return [float(np.add.reduce(v) / len(v))
            for v in (d[f] for d, f in zip(diameters, filled))]


# A bound settles a step of the jump rule only if it clears the rule's
# threshold by this relative margin, far above the rounding by which a
# bound's arithmetic can differ from that of an exact diameter.
_BOUND_MARGIN = 1e-9


def _fit_bounds(x: np.ndarray, sizes: Sequence[int],
                fits: Sequence[Sequence[LloydFit]]) -> tuple[list[float], list[float]]:
    """Each fit's mean over its non-empty clusters of a lower and of an
    upper bound on their diameters, for a batch's fits laid out in ``x``
    as for ``_farthest_first`` and given in subset order.  One stable sort
    by (fit, cluster) slot makes each cluster's rows contiguous and in row
    order.  A cluster's diameter is at least the larger of its largest
    column span and the distance from its first row to its farthest
    member, and at most its bounding-box diagonal.  Slots are one past the
    largest label wide, not the most fits of a subset, so any of a batch's
    fits can be passed without their slots colliding."""
    counts = [len(subset_fits) for subset_fits in fits]
    n = np.repeat(sizes, counts)                         # rows per fit
    offsets = np.cumsum(n) - n
    rows = np.arange(n.sum()) + np.repeat(np.repeat(np.cumsum(sizes) - sizes, counts) - offsets, n)
    labels = np.concatenate([f.labels for subset_fits in fits for f in subset_fits])
    width = int(labels.max()) + 1
    slots = np.repeat(np.arange(len(n)) * width, n) + labels
    # The narrowest unsigned type lets the stable sort count its keys.
    order = np.argsort(slots.astype(np.min_scalar_type(len(n) * width)), kind="stable")
    slots = slots.take(order)
    cuts = np.flatnonzero(np.concatenate(([True], slots[1:] != slots[:-1])))  # first rows
    fit_of = slots.take(cuts) // width
    members = x.T.take(rows.take(order), axis=1)         # (dims, fit rows), by cluster
    spans = np.maximum.reduceat(members, cuts, axis=1)
    spans -= np.minimum.reduceat(members, cuts, axis=1)
    # Squared first, as a distance sums squares: a span whose square
    # underflows bounds a distance that reads 0.
    spans *= spans
    low = np.sqrt(spans.max(axis=0))
    high = np.sqrt(spans.sum(axis=0))
    # Gathered in the members' (dims, rows) layout: gathering rows of its
    # transpose took twice as long.
    first = members.take(np.repeat(cuts, np.diff(cuts, append=len(slots))), axis=1)
    far = np.maximum.reduceat(_row_distances(members.T, first.T), cuts)
    np.maximum(low, far, out=low)
    clusters = np.bincount(fit_of)
    return ((np.bincount(fit_of, low) / clusters).tolist(),
            (np.bincount(fit_of, high) / clusters).tolist())


def _scan(low: Sequence[float], high: Sequence[float], gamma: float,
          margin: float) -> tuple[int | None, list[int]]:
    """The jump rule from the top k down on one subset's bounds, fit i at
    k = len(low) - i: the first step, from fit i to i + 1, that they
    settle as a jump, if any, and the steps above it that they settle
    neither way.  A step is settled when a bound clears the threshold by
    the relative ``margin``; with exact diameters as both bounds and a
    margin of 0 every step is settled."""
    open_steps = []
    for i in range(len(low) - 1):
        if low[i + 1] > gamma * high[i] * (1 + margin):
            return i, open_steps
        if high[i + 1] * (1 + margin) > gamma * low[i]:
            open_steps.append(i)
    return None, open_steps


def _sweeps(xs: Sequence[np.ndarray], k_max: int, gamma: float, seed: int) -> list[Grouping]:
    """The grouping of each subset's rows ``xs[s]``: seeds and Lloyd fits
    in shared rounds on their concatenation, bounds on every fit's
    average diameter, then per subset the jump rule on those bounds,
    exact diameters for the fits of the steps they leave open, and the
    largest cluster."""
    sizes = [len(x) for x in xs]
    k_starts = [min(k_max, n) for n in sizes]
    x = np.concatenate(xs)
    seeds = _farthest_first(x, sizes, k_starts, seed)
    fits = _lockstep(x, sizes, seeds, [range(k, 0, -1) for k in k_starts])
    low, high = _fit_bounds(x, sizes, fits)
    firsts = np.cumsum([0, *map(len, fits)]).tolist()
    groupings = []
    for rows, subset_seeds, subset_fits, f in zip(xs, seeds, fits, firsts):
        lo, hi = low[f:f + len(subset_fits)], high[f:f + len(subset_fits)]
        # Step i goes from fit i to fit i + 1.  The rule stops at the first
        # jump, so only the fits of the open steps above it are read.
        jump, open_steps = _scan(lo, hi, gamma, _BOUND_MARGIN)
        if open_steps:
            read = sorted({j for i in open_steps for j in (i, i + 1)})
            exact = average_diameter(rows, np.array([subset_fits[j].labels for j in read]))
            for j, d in zip(read, exact):
                lo[j] = hi[j] = d
            jump, _ = _scan(lo, hi, gamma, 0.0)
        # The first jump from k to k - 1 picks k; with none the sweep ends at 1.
        chosen = 1 if jump is None else len(subset_fits) - jump
        largest = largest_cluster(subset_fits[len(subset_fits) - chosen].labels)
        groupings.append(Grouping(rows, chosen, subset_seeds, subset_fits, largest))
    return groupings


def _check_sweep(k_max: int, gamma: float) -> None:
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if gamma <= 1:
        raise ValueError(f"gamma must exceed 1, got {gamma}")


def sweep_k(x: np.ndarray, k_max: int, gamma: float, seed: int) -> Grouping:
    """Sweep k downward over the rows of ``x`` and stop just before the
    first diameter jump.

    Runs Lloyd for k = min(k_max, n) down to 1, seeded with the first k
    seeds of one farthest-first traversal, and chooses the smallest k
    reachable without the average diameter growing by more than a factor
    of ``gamma`` in one step; a zero diameter at k treats any positive
    diameter at k - 1 as a jump.  With no jump anywhere the sweep ends at
    k = 1.  Returns the grouping of the rows as given: the one-subset
    case of ``group_batches``' shared rounds, without normalization.
    """
    if len(x) == 0:
        raise ValueError("no points to cluster")
    _check_sweep(k_max, gamma)
    return _sweeps([x], k_max, gamma, seed)[0]


def largest_cluster(labels: np.ndarray) -> np.ndarray:
    """Row mask of the biggest cluster; of tied clusters, the one holding
    the smallest row."""
    if len(labels) == 0:
        raise ValueError("clustering has no points")
    sizes = np.bincount(labels)
    first = np.argmax(sizes[labels] == sizes.max())
    return labels == labels[first]


def _batches(sizes: Sequence[int], k_max: int) -> Iterator[list[int]]:
    """Consecutive subsets, by index, of at most ``_BATCH_FIT_ROWS`` fit
    rows together; a subset with more is a batch of its own."""
    batch, fit_rows = [], 0
    for i, n in enumerate(sizes):
        cost = n * min(k_max, n)
        if batch and fit_rows + cost > _BATCH_FIT_ROWS:
            yield batch
            batch, fit_rows = [], 0
        batch.append(i)
        fit_rows += cost
    if batch:
        yield batch


def group_batches(
    coords: np.ndarray,
    members: Sequence[np.ndarray],
    k_max: int,
    gamma: float,
    seed: int,
) -> Iterator[list[Grouping]]:
    """Group each subset, given as its rows of ``coords``: normalize its
    rows, sweep k and pick the largest cluster.  Groupings come in subset
    order, one list per batch of consecutive subsets.

    The sweeps run in shared rounds, batch by batch, so memory is bounded
    by one batch.  An empty subset is rejected, by index, before any
    grouping is yielded.
    """
    _check_sweep(k_max, gamma)
    sizes = [len(rows) for rows in members]
    if 0 in sizes:
        raise ValueError(f"subset {sizes.index(0)} is empty")
    for batch in _batches(sizes, k_max):
        yield _sweeps([normalize(coords[members[i]]) for i in batch], k_max, gamma, seed)


def group_rows(coords: np.ndarray, k_max: int, gamma: float, seed: int) -> Grouping:
    """Normalize one subset's rows, sweep k and pick the largest cluster:
    the one-subset case of ``group_batches``."""
    return next(group_batches(coords, [np.arange(len(coords))], k_max, gamma, seed))[0]
