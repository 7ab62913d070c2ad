"""Numeric quantification of the nominal attributes.

Learning strategy and presentation style have no inherent order, so
Euclidean geometry cannot compare them directly.  This module assigns
each of the five parameter values of each nominal attribute a numeric
score in four steps:

1. count, over all resource subsets, the unordered pairs of learners
   that share a subset, bucketed by the two learners' parameter values
   (a symmetric 5x5 co-occurrence matrix per attribute).  The counts
   read the learner table: each subset's member rows and the strategy
   and presentation columns of its attrs.  Both attributes come from one
   pass over the learner x subset incidence matrix, by one of two exact
   counters chosen per corpus by cost: inclusion-exclusion over the
   families of each learner's subsets, which costs at most
   ``sum(2**deg - 1)``, or the incidence matrix's product with its
   transpose over blocks of learner rows, which costs the pair work
   ``sum(|s|**2)`` and keeps memory bounded by the pair work of one
   block;
2. factor each matrix into non-negative weights x features with
   multiplicative-update NMF, both matrices in one loop over a stack;
3. for each parameter pick its dominant feature row, stacking the picks
   into an ordering matrix;
4. symmetrize the ordering matrix with elementwise minima and average
   each row.

The row averages are the quantified values used as coordinates and tag
fields downstream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

import numpy as np
from scipy import sparse

from .ingest import ATTRIBUTES, N_PARAMS, LearnerTable

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

# Guards multiplicative-update denominators against division by zero.
_EPS = 1e-12

# Pair work (summed subset sizes over a block's learner rows) per block of
# the co-occurrence product.  A block's product holds at most this many
# entries plus one row's, which keeps it near a megabyte.  Each product
# also fills scratch arrays as long as the learner count, so blocks grow
# to that count on corpora with more learners than this.
_BLOCK_PAIR_WORK = 1 << 16

# Cost of one subset family under inclusion-exclusion, in units of the
# product's pair work: ``build_cooccurrence`` counts by inclusion-exclusion
# when this many times the family count, ``sum(2**deg - 1)``, is at most
# the pair work, ``sum(|s|**2)``.
_FAMILY_COST = 16

AttributeValueMap = dict[int, float]


@dataclass
class FactorPair:
    """Non-negative factors A ~ weights @ features and the error trace.

    ``error_trace[0]`` is the Frobenius error of the random initialization;
    one entry is appended per multiplicative-update iteration.
    """

    weights: np.ndarray    # B, (5, k)
    features: np.ndarray   # C, (k, 5)
    error_trace: list[float]

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    @property
    def final_error(self) -> float:
        return self.error_trace[-1]


@dataclass
class QuantifyDetail:
    """Every intermediate artifact of the quantification chain."""

    cooccurrence: np.ndarray   # A, (5, 5) int64 symmetric pair counts
    factors: FactorPair
    orderings: np.ndarray      # D, one dominant feature row per parameter
    similarity: np.ndarray     # symmetrized D
    values: AttributeValueMap


def build_cooccurrence(table: LearnerTable) -> dict[str, np.ndarray]:
    """Count learner pairs sharing a subset, bucketed by parameter values.

    For each attribute, entry[i][j] of its (5, 5) int64 matrix is the
    number of unordered pairs of distinct learners (u, v) that co-occur
    in at least one common subset of ``table.members`` where u carries
    parameter i+1 and v carries parameter j+1.  Each pair is counted
    once globally no matter how many subsets it shares, so the counts
    are comparable across resources.

    Two exact counters give both attributes' counts of ordered pairs,
    self pairs included, from one pass over the learner x subset
    incidence matrix, and one of them is chosen for the whole corpus by
    cost.  The subset x learner matrix is built once, straight from
    ``table.members``, and the incidence matrix is its one transpose;
    the product counter reads both.  Inclusion-exclusion over each
    learner's subsets costs at most one unit per subset family,
    ``sum(2**deg - 1)`` over the learners' degrees; the blocked product
    costs one unit per unit of pair work, ``sum(|s|**2)`` over the
    subsets.  Inclusion-exclusion runs when ``_FAMILY_COST`` times its
    cost is at most the pair work.  Neither wins everywhere, so both
    stay: a few heavily shared subsets (skewed popularity) make the pair
    work grow with the square of their sizes, while learners in many
    subsets make their families grow as a power of two.  Then self pairs
    are subtracted and the diagonal, where both orders land in one
    bucket, is halved.
    """
    n, n_subsets = len(table.ids), len(table.members)
    sizes = np.fromiter((m.size for m in table.members), dtype=np.int64, count=n_subsets)
    # Each subset's rows are ascending, so the subsets laid end to end are
    # CSR indices; the transpose lists each learner's subsets ascending.
    members = sparse.csr_matrix(
        (np.ones(sizes.sum(), dtype=np.int32),
         np.concatenate([np.empty(0, dtype=np.intp), *table.members]),
         np.concatenate([[0], np.cumsum(sizes)])),
        shape=(n_subsets, n),
    )
    incidence = members.T.tocsr()
    # Each learner's 0-based parameter index, one column per attribute.
    values = table.attrs[:, 2:4] - 1

    degrees = np.diff(incidence.indptr)
    families = sum(int(c) << d for d, c in enumerate(np.bincount(degrees))) - n
    if _FAMILY_COST * families <= int(sizes @ sizes):
        counts = _inclusion_exclusion_counts(incidence, values)
    else:
        counts = _product_counts(incidence, members, values, sizes)
    # Every learner is its own partner once; both orders of a same-value
    # pair land on the diagonal.
    diagonal = np.arange(N_PARAMS)
    for a in range(len(ATTRIBUTES)):
        counts[a, diagonal, diagonal] -= np.bincount(values[:, a], minlength=N_PARAMS)
    counts[:, diagonal, diagonal] //= 2
    return {attribute: counts[a].copy() for a, attribute in enumerate(ATTRIBUTES)}


def _inclusion_exclusion_counts(incidence: sparse.csr_matrix, values: np.ndarray) -> np.ndarray:
    """Ordered pair counts, self pairs included, of learners sharing a subset.

    Let N(u) be the subsets of learner u, the row of ``incidence``, and
    for a non-empty family F of subsets let T_F be the one-hot histogram
    of the learners v whose N(v) contains F.  Two learners share a
    subset exactly when the alternating sum of (-1)**(|F|+1) over the
    non-empty F inside N(u) & N(v) is 1 rather than 0, so the counts are
    the sum of (-1)**(|F|+1) * T_F.T @ T_F over every family of some
    learner's subsets.

    Families are walked one size at a time, each as an entry per learner
    that holds it, with subsets in ascending order.  An entry grows by
    each later subset of its learner, and a family is keyed by its
    prefix's rank among the previous size's families and its last
    subset, so that learners of every degree holding the same family
    share one key.  A family held by one learner u has only u's families
    above it, 2**r of them counting itself when u has r subsets after
    its last one, and their terms are all T_u.T @ T_u with alternating
    signs.  They cancel unless r is 0, when the family adds its one
    term; either way it is never grown.  Memory is bounded by the entries
    of one size, and lone families make the walk far cheaper than its
    bound ``sum(2**deg - 1)`` wherever few learners share many subsets.
    """
    n = incidence.shape[0]
    degrees = np.diff(incidence.indptr)
    diagonal = np.arange(N_PARAMS)
    counts = np.zeros((len(ATTRIBUTES), N_PARAMS, N_PARAMS), dtype=np.int64)
    # Size 1: one entry per (learner, subset), keyed by the subset.
    learner = np.repeat(np.arange(n, dtype=np.int32), degrees)
    position = np.arange(learner.size, dtype=np.int32) - incidence.indptr[learner]
    key = incidence.indices.astype(np.int64)
    sign = 1
    while key.size:
        _, rank, holders = np.unique(key, return_inverse=True, return_counts=True)
        later = degrees[learner] - 1 - position
        # A lone family adds its learner's self term if it cannot grow
        # and nothing otherwise; only shared families go on.
        family_shared = holders > 1
        shared = family_shared[rank]
        last = learner[~shared & (later == 0)]
        learner, position, later = learner[shared], position[shared], later[shared]
        # The shared families, numbered from 0 in key order.
        rank = (np.cumsum(family_shared) - 1)[rank[shared]]
        width = int(family_shared.sum()) * N_PARAMS
        for a in range(len(ATTRIBUTES)):
            counts[a, diagonal, diagonal] += sign * np.bincount(values[last, a],
                                                                minlength=N_PARAMS)
            hist = np.bincount(rank * N_PARAMS + values[learner, a], minlength=width)
            hist = hist.reshape(-1, N_PARAMS)
            counts[a] += sign * (hist.T @ hist)
        sign = -sign
        learner, position, key = _grown(incidence, learner, position, later, rank)
        del rank, later, last  # freed before the next size's np.unique
    return counts


def _grown(incidence: sparse.csr_matrix, learner: np.ndarray, position: np.ndarray,
           later: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of the next family size: each entry (``learner``, family
    ``rank``, last subset at ``position`` in the learner's row) grows by
    each of its ``later`` subsets."""
    parent = np.repeat(np.arange(rank.size), later)
    offset = np.arange(parent.size, dtype=np.int32) - np.repeat(np.cumsum(later) - later, later)
    position = (position[parent] + 1 + offset).astype(np.int32)
    learner = learner[parent]
    subset = incidence.indices[incidence.indptr[learner] + position]
    return learner, position, rank[parent] * incidence.shape[1] + subset


def _product_counts(incidence: sparse.csr_matrix, members: sparse.csr_matrix,
                    values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Ordered pair counts, self pairs included, of learners sharing a subset.

    With M the learner x subset ``incidence`` and M.T its transpose
    ``members``, for each block of learner rows the nonzeros of
    ``M[block] @ M.T`` mark every partner of every row, the row itself
    included; multiplying them by a stacked one-hot of both attributes'
    ``values`` (five columns each) gives per-learner partner counts,
    which fold into a 10x10 count of ordered pairs.  Each attribute's
    counts are its diagonal 5x5 block; the cross-attribute blocks are
    dropped.  A block's product has at most one entry per unit of its
    rows' pair work (the summed sizes of the subsets each row belongs
    to), and blocks are cut at ``_BLOCK_PAIR_WORK`` units or the learner
    count, whichever is larger, so the product's memory stays within a
    small multiple of the input's and never approaches the corpus's
    total pair count.
    """
    n = incidence.shape[0]
    # Attribute a's value index p sets column a * N_PARAMS + p.
    attributes = np.arange(len(ATTRIBUTES))
    onehot = np.zeros((n, len(ATTRIBUTES) * N_PARAMS), dtype=np.int64)
    onehot[np.arange(n)[:, None], values + N_PARAMS * attributes] = 1

    # Rows whose work starts in the same window share a block, so a block
    # holds at most one window of work plus one row's.
    work = incidence @ sizes
    window = (np.cumsum(work) - work) // max(_BLOCK_PAIR_WORK, n)
    bounds = [0, *(np.flatnonzero(np.diff(window)) + 1), n]

    counts = np.zeros((onehot.shape[1], onehot.shape[1]), dtype=np.int64)
    for lo, hi in zip(bounds, bounds[1:]):
        partners = incidence[lo:hi] @ members
        partners.data[:] = 1  # shared-subset counts -> "shares at least one"
        counts += onehot[lo:hi].T @ (partners @ onehot)
    blocks = counts.reshape(len(ATTRIBUTES), N_PARAMS, len(ATTRIBUTES), N_PARAMS)
    return blocks[attributes, :, attributes]


def nmf(
    A: np.ndarray,
    k: int,
    max_iters: int,
    tol: float,
    seed: int,
) -> FactorPair:
    """Factor a non-negative square matrix with multiplicative updates.

    Minimizes the squared Frobenius error ||A - B C||, which makes the
    per-iteration error non-increasing.  Both factors are initialized
    uniformly in (0, 1] from ``seed``; iteration stops when the relative
    error improvement drops below ``tol`` or after ``max_iters``.
    An all-zero input short-circuits to zero factors with zero error.
    The one-matrix case of ``nmf_stack``.
    """
    a = np.asarray(A, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return nmf_stack([a], k, max_iters, tol, [seed])[0]


def nmf_stack(
    matrices,
    k: int,
    max_iters: int,
    tol: float,
    seeds: list[int],
) -> list[FactorPair]:
    """Factor several non-negative matrices of one shape, matrix i as
    ``nmf`` factors it from ``seeds[i]``, in one multiplicative-update loop.

    Each iteration updates the whole stack, and each matrix's result is
    taken at the iteration where it stops, so each equals that matrix
    factored alone: the updates of one matrix never read another's.  An
    all-zero matrix's result is set before the loop, which ends once
    every result is set.
    """
    a = np.asarray(matrices, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if np.any(a < 0):
        raise ValueError("matrix must be non-negative")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not tol >= 0:  # also rejects NaN
        raise ValueError(f"tol must be >= 0, got {tol}")
    if len(seeds) != len(a):
        raise ValueError(f"expected {len(a)} seeds, one per matrix, got {len(seeds)}")

    _, n_rows, n_cols = a.shape
    results = [None if matrix.any() else
               FactorPair(np.zeros((n_rows, k)), np.zeros((k, n_cols)), [0.0])
               for matrix in a]
    # 1 - random() maps [0, 1) to (0, 1]: strictly positive entries never
    # get stuck at zero under multiplicative updates.
    draws = [np.random.default_rng(seed) for seed in seeds]
    b = np.stack([1.0 - rng.random((n_rows, k)) for rng in draws])
    c = np.stack([1.0 - rng.random((k, n_cols)) for rng in draws])

    traces = [[e] for e in _errors(a, b, c)]
    for it in range(1, max_iters + 1):
        if None not in results:
            break
        bt = b.transpose(0, 2, 1)
        c *= (bt @ a) / (bt @ b @ c + _EPS)
        ct = c.transpose(0, 2, 1)
        b *= (a @ ct) / (b @ c @ ct + _EPS)
        for i, (trace, new_err) in enumerate(zip(traces, _errors(a, b, c))):
            if results[i] is not None:
                continue
            err = trace[-1]
            trace.append(new_err)
            improvement = (err - new_err) / err if err > 0 else 0.0
            if improvement < tol or it == max_iters:
                results[i] = FactorPair(b[i].copy(), c[i].copy(), trace)
    return results


def _errors(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> list[float]:
    """The Frobenius error of each matrix of the stack: the square root of
    the residual's dot product with itself, the arithmetic
    ``np.linalg.norm`` runs."""
    residuals = (a - b @ c).reshape(len(a), -1)
    return [math.sqrt(r @ r) for r in residuals]


def derive_orderings(factors: FactorPair) -> np.ndarray:
    """Pick each parameter's dominant feature row out of the features matrix.

    Row i of the result is the feature row with the largest weight for
    parameter i; argmax ties (including all-zero weight rows) resolve to
    the smallest feature index.
    """
    dominant = np.argmax(factors.weights, axis=1)
    return factors.features[dominant, :].copy()


def symmetrize(D: np.ndarray) -> np.ndarray:
    """Replace each entry with min(D[i][j], D[j][i]).

    Two parameters cannot be similar to each other by two different
    amounts; taking the minimum keeps the more conservative score.
    """
    d = np.asarray(D, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {d.shape}")
    return np.minimum(d, d.T)


def attribute_values(D_sym: np.ndarray) -> AttributeValueMap:
    """Average each row of the symmetric similarity matrix.

    The mean runs over all entries including the diagonal; value i+1 is
    the average similarity of parameter i+1 to every parameter.
    """
    d = np.asarray(D_sym, dtype=np.float64)
    if not np.array_equal(d, d.T):
        raise ValueError("matrix must be symmetric")
    return {i + 1: float(d[i].mean()) for i in range(d.shape[0])}


def quantify_nominal(table: LearnerTable, config: "PipelineConfig") -> dict[str, QuantifyDetail]:
    """Run the full chain for both attributes from one co-occurrence pass
    over the learner table and one NMF loop over both matrices.

    Keeps every intermediate artifact.  NMF seeds are derived per
    attribute: ``config.seed`` for strategy, ``config.seed + 1`` for
    presentation.
    """
    cooccurrence = build_cooccurrence(table)
    factorizations = nmf_stack(
        list(cooccurrence.values()),
        k=config.nmf_k,
        max_iters=config.nmf_max_iters,
        tol=config.nmf_tol,
        seeds=[config.seed + offset for offset in range(len(cooccurrence))],
    )
    details = {}
    for (attribute, cooc), factors in zip(cooccurrence.items(), factorizations):
        orderings = derive_orderings(factors)
        similarity = symmetrize(orderings)
        details[attribute] = QuantifyDetail(
            cooccurrence=cooc,
            factors=factors,
            orderings=orderings,
            similarity=similarity,
            values=attribute_values(similarity),
        )
    return details


def quantification_report(details: Mapping[str, QuantifyDetail]) -> dict:
    """JSON-ready dump of A, B, C, D, the symmetrized D, and the value maps."""
    report = {}
    for attribute in sorted(details):
        d = details[attribute]
        report[attribute] = {
            "cooccurrence": d.cooccurrence.tolist(),
            "weights": d.factors.weights.tolist(),
            "features": d.factors.features.tolist(),
            "orderings": d.orderings.tolist(),
            "similarity": d.similarity.tolist(),
            "final_error": d.factors.final_error,
            "values": {str(p): v for p, v in sorted(d.values.items())},
        }
    return report
