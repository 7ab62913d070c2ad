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
ties returned: ``tag_itemsets`` picks those winners from the counts in
array passes and builds an itemset only for them, where ``apriori``
returns every frequent itemset.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

N_ATTRIBUTES = 5

# Row r is the non-empty attribute mask r + 1, one 0/1 column per attribute.
_MASKS = (np.arange(1, 2**N_ATTRIBUTES)[:, None] >> np.arange(N_ATTRIBUTES)) & 1
# The sort key of an absent field, above every item code.
_ABSENT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class FrequentItemset:
    fields: tuple[int, ...]  # item code per attribute, 0 where absent
    count: int
    support: float


def _frequent(items: np.ndarray, sl: float) -> tuple[np.ndarray, np.ndarray, int]:
    """The fields and counts of every itemset with support >= sl among
    the rows of ``items``, in code order, and the row count.

    An itemset is coded as one mixed-radix integer whose digits are its
    fields, so the codes of the 31 itemsets a row supports are one
    product of the ``(m, 5)`` rows with the mask matrix scaled by each
    attribute's place value, and one ``np.unique`` counts every code.
    Only the codes whose count reaches ``sl * m`` are decoded.  Support
    compares inclusively so an itemset exactly at the threshold counts
    as frequent.
    """
    items = np.asarray(items)
    if len(items) == 0:
        raise ValueError("no transactions")
    if not 0 < sl <= 1:
        raise ValueError(f"support level must be in (0, 1], got {sl}")
    if items.dtype.kind not in "iu":  # signed or unsigned integers, not bool or float
        raise ValueError(f"item codes must be integers, got {items.dtype}")
    items = items.astype(np.int64, copy=False)
    if items.ndim != 2 or items.shape[1] != N_ATTRIBUTES or items.min() < 1:
        raise ValueError(f"expected rows of {N_ATTRIBUTES} positive item codes")
    top = items.max(axis=0).tolist()  # Python ints: the product cannot overflow
    if math.prod(v + 1 for v in top) >= 2**63:
        raise ValueError("item codes too large to count")
    radix = np.array(top) + 1
    place = np.cumprod(radix) // radix
    m = len(items)

    codes, counts = np.unique(items @ (_MASKS * place).T, return_counts=True)
    keep = counts >= sl * m
    return codes[keep, None] // place % radix, counts[keep], m


def _itemsets(fields: np.ndarray, counts: np.ndarray, m: int) -> list[FrequentItemset]:
    """The itemsets sorted by size, then by their (attribute, code) pairs.

    Keying an absent field (0) above every code makes one ``lexsort`` on
    the size and the five fields give that order: at the first attribute
    where two itemsets of one size differ, the one holding a code there
    has the smaller next pair.
    """
    present = fields != 0
    keys = np.where(present, fields, _ABSENT)
    order = np.lexsort((*keys.T[::-1], present.sum(axis=1)))
    return [
        FrequentItemset(tuple(f), c, c / m)
        for f, c in zip(fields[order].tolist(), counts[order].tolist())
    ]


def apriori(items: np.ndarray, sl: float) -> list[FrequentItemset]:
    """Every itemset with support >= sl among the rows of ``items``, a
    ``(m, 5)`` integer array of positive item codes.

    Output is sorted by size, then by the (attribute, code) pairs, for
    reproducible files.
    """
    return _itemsets(*_frequent(items, sl))


def tag_itemsets(items: np.ndarray, sl: float) -> list[FrequentItemset]:
    """The tag-cloud content of the rows of ``items``: the frequent
    itemsets of top cardinality, then top count, all ties included, in
    ``apriori``'s order.

    A frequent itemset of top cardinality has no frequent proper
    superset, so the winners are maximal without a check.
    """
    fields, counts, m = _frequent(items, sl)
    if len(counts) == 0:
        return []
    sizes = (fields != 0).sum(axis=1)
    top = sizes == sizes.max()
    top &= counts == counts[top].max()
    return _itemsets(fields[top], counts[top], m)
