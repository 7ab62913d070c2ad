"""Frequent-itemset mining over the largest cluster.

Each learner in the chosen cluster is one row of five positive item
codes, one per profile attribute: the two skill levels, the strategy
and presentation ids, and the 1-based decade bin of learning time.  An
itemset is a five-field tuple holding its item's code in each attribute
it covers and 0 in the others.  Because a row holds one item per
attribute, every itemset it supports is one of the 31 that its
non-empty attribute masks cut out of it, so the frequent itemsets of the
paper's Apriori step come from counting those directly, with no
level-wise candidate generation.  The tag for the resource is the
frequent itemset of highest cardinality, then highest support, with all
ties returned: ``tag_itemsets_batch`` counts the itemsets of several
clusters at once, picks each cluster's winners from the counts in array
passes and builds an itemset only for them, where ``apriori`` returns
every frequent itemset of one cluster.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_ATTRIBUTES = 5

# The sort key of an absent field, above every item code.
_ABSENT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class FrequentItemset:
    fields: tuple[int, ...]  # item code per attribute, 0 where absent
    count: int
    support: float


def _rows(items) -> np.ndarray:
    """``items`` checked as one cluster's ``(m, 5)`` rows of positive
    integer item codes, as int64."""
    items = np.asarray(items)
    if len(items) == 0:
        raise ValueError("no transactions")
    if items.dtype.kind not in "iu":  # signed or unsigned integers, not bool or float
        raise ValueError(f"item codes must be integers, got {items.dtype}")
    items = items.astype(np.int64, copy=False)
    if items.ndim != 2 or items.shape[1] != N_ATTRIBUTES or items.min() < 1:
        raise ValueError(f"expected rows of {N_ATTRIBUTES} positive item codes")
    return items


def _frequent(clusters: list[np.ndarray], sl: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cluster, fields and count of every itemset with support >= sl
    among the checked rows of each cluster, by cluster and then code.

    An itemset is coded as one mixed-radix integer whose digits are its
    fields, offset by its cluster's index times the code space.  The
    keys of the 32 attribute masks of every row are built by doubling:
    the masks holding attribute a are those below ``2**a`` plus a's
    scaled code.  The empty mask, the offset alone, is dropped, and one
    ``np.unique`` counts every (cluster, code) key.  Only the keys whose
    count reaches ``sl`` times their cluster's row count are decoded.
    Support compares inclusively so an itemset exactly at the threshold
    counts as frequent.  Clusters whose keys would overflow int64
    together are counted in halves; one cluster whose own codes would is
    rejected.
    """
    items = np.concatenate(clusters)
    top = items.max(axis=0).tolist()  # Python ints: the product cannot overflow
    space = math.prod(v + 1 for v in top)
    if len(clusters) * space >= 2**63:
        if len(clusters) == 1:
            raise ValueError("item codes too large to count")
        half = len(clusters) // 2
        low, high = _frequent(clusters[:half], sl), _frequent(clusters[half:], sl)
        return (np.concatenate([low[0], high[0] + half]),
                np.concatenate([low[1], high[1]]), np.concatenate([low[2], high[2]]))
    radix = np.array(top) + 1
    place = np.cumprod(radix) // radix
    sizes = np.array([len(rows) for rows in clusters])
    scaled = (items * place).T
    # Row r holds the keys of attribute mask r, one column per item row.
    keys = np.empty((2**N_ATTRIBUTES, len(items)), dtype=np.int64)
    keys[0] = np.repeat(np.arange(len(clusters)) * space, sizes)
    for a in range(N_ATTRIBUTES):
        np.add(keys[:1 << a], scaled[a], out=keys[1 << a:2 << a])

    keys, counts = np.unique(keys[1:], return_counts=True)
    cluster = keys // space
    keep = counts >= sl * sizes[cluster]
    # A cluster's offset is a multiple of every place value times its radix.
    return cluster[keep], keys[keep, None] // place % radix, counts[keep]


def _itemsets(sizes: list[int], cluster: np.ndarray, fields: np.ndarray,
              counts: np.ndarray) -> list[list[FrequentItemset]]:
    """Each cluster's itemsets, sorted by size, then by their (attribute,
    code) pairs; ``sizes`` holds the clusters' row counts.

    Keying an absent field (0) above every code makes one ``lexsort`` on
    the cluster, the size and the five fields give that order: at the
    first attribute where two itemsets of one size differ, the one
    holding a code there has the smaller next pair.
    """
    present = fields != 0
    keys = np.where(present, fields, _ABSENT)
    order = np.lexsort((*keys.T[::-1], present.sum(axis=1), cluster))
    itemsets = [[] for _ in sizes]
    for i, f, c in zip(cluster[order].tolist(), fields[order].tolist(), counts[order].tolist()):
        itemsets[i].append(FrequentItemset(tuple(f), c, c / sizes[i]))
    return itemsets


def _check_support(sl: float) -> None:
    if not 0 < sl <= 1:
        raise ValueError(f"support level must be in (0, 1], got {sl}")


def apriori(items: np.ndarray, sl: float) -> list[FrequentItemset]:
    """Every itemset with support >= sl among the rows of ``items``, a
    ``(m, 5)`` integer array of positive item codes.

    Output is sorted by size, then by the (attribute, code) pairs, for
    reproducible files.
    """
    rows = _rows(items)
    _check_support(sl)
    return _itemsets([len(rows)], *_frequent([rows], sl))[0]


def tag_itemsets(items: np.ndarray, sl: float) -> list[FrequentItemset]:
    """The tag-cloud content of the rows of ``items``: the frequent
    itemsets of top cardinality, then top count, all ties included, in
    ``apriori``'s order.  The one-cluster case of ``tag_itemsets_batch``.
    """
    return tag_itemsets_batch([items], sl)[0]


def tag_itemsets_batch(clusters: list[np.ndarray], sl: float) -> list[list[FrequentItemset]]:
    """The tag-cloud content of each of several clusters' item rows, as
    ``tag_itemsets`` gives it for each alone, from one count of all
    their itemsets.

    A frequent itemset of top cardinality has no frequent proper
    superset, so the winners are maximal without a check.  Each
    cluster's winners are the itemsets holding its top score, size
    times one more than every count plus count.
    """
    rows = [_rows(items) for items in clusters]
    _check_support(sl)
    if not rows:
        return []
    cluster, fields, counts = _frequent(rows, sl)
    if len(counts):
        score = (fields != 0).sum(axis=1) * (counts.max() + 1) + counts
        best = np.zeros(len(rows), dtype=score.dtype)
        np.maximum.at(best, cluster, score)
        top = score == best[cluster]
        cluster, fields, counts = cluster[top], fields[top], counts[top]
    return _itemsets([len(r) for r in rows], cluster, fields, counts)
