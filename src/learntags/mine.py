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
ties returned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

N_ATTRIBUTES = 5

# Row r is the non-empty attribute mask r + 1, one 0/1 column per attribute.
_MASKS = (np.arange(1, 2**N_ATTRIBUTES)[:, None] >> np.arange(N_ATTRIBUTES)) & 1


@dataclass(frozen=True)
class FrequentItemset:
    fields: tuple[int, ...]  # item code per attribute, 0 where absent
    count: int
    support: float


def _order(f: FrequentItemset) -> tuple[int, list[tuple[int, int]]]:
    """Size, then the (attribute, code) pairs: the order itemsets are output in."""
    pairs = [(a, v) for a, v in enumerate(f.fields) if v]
    return len(pairs), pairs


def apriori(items: np.ndarray, sl: float) -> list[FrequentItemset]:
    """Every itemset with support >= sl among the rows of ``items``.

    An itemset is coded as one mixed-radix integer whose digits are its
    fields, so the codes of the 31 itemsets a row supports are one
    product of the ``(m, 5)`` rows with the mask matrix scaled by each
    attribute's place value, and one ``np.unique`` counts every code.
    Only the codes whose count reaches ``sl * m`` are decoded.  Support
    compares inclusively so an itemset exactly at the threshold counts
    as frequent.  Output is sorted by size, then by the (attribute,
    code) pairs, for reproducible files.
    """
    items = np.asarray(items, dtype=np.int64)
    if len(items) == 0:
        raise ValueError("no transactions")
    if not 0 < sl <= 1:
        raise ValueError(f"support level must be in (0, 1], got {sl}")
    if items.ndim != 2 or items.shape[1] != N_ATTRIBUTES or items.min() < 1:
        raise ValueError(f"expected rows of {N_ATTRIBUTES} positive item codes")
    radix = items.max(axis=0) + 1
    if np.prod(radix.astype(np.float64)) >= 2.0**63:
        raise ValueError("item codes too large to count")
    place = np.cumprod(radix) // radix
    m = len(items)

    codes, counts = np.unique(items @ (_MASKS * place).T, return_counts=True)
    keep = counts >= sl * m
    fields = codes[keep, None] // place % radix
    frequent = [
        FrequentItemset(tuple(f), c, c / m)
        for f, c in zip(fields.tolist(), counts[keep].tolist())
    ]
    return sorted(frequent, key=_order)


def select_tag(frequent: list[FrequentItemset]) -> list[FrequentItemset]:
    """The tag-cloud content: itemsets of top cardinality, then top count,
    all ties included.

    A frequent itemset of top cardinality has no frequent proper
    superset, so the winners are maximal without a check.
    """
    if not frequent:
        return []
    top_size = max(_order(f)[0] for f in frequent)
    biggest = [f for f in frequent if _order(f)[0] == top_size]
    top_count = max(f.count for f in biggest)
    return sorted((f for f in biggest if f.count == top_count), key=_order)
