"""Frequent-itemset mining over the largest cluster.

Each learner in the chosen cluster becomes a transaction of five items,
one per profile attribute; strategy and presentation stay categorical
ids for counting and learning time is carried as its decade bin.
Because a transaction holds one item per attribute, every itemset it
supports is one of its at most 31 non-empty attribute subsets, so the
frequent itemsets of the paper's Apriori step come from counting those
subsets directly, with no level-wise candidate generation.  The tag for
the resource is the maximal itemset of highest cardinality, then highest
support, with all co-maximal itemsets returned when tied.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .ingest import LearnerProfile, TimeBin, discretize_time

N_ATTRIBUTES = 5


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
    """One learner's five attribute items."""

    learner_id: str
    items: frozenset[Item]


@dataclass(frozen=True)
class FrequentItemset:
    items: frozenset[Item]
    support: float
    count: int


def transaction_from_profile(profile: LearnerProfile) -> Transaction:
    """Build the five-item transaction for one learner.

    Hours below 1 fall into the first bin [1-10]; the bins are 1-based.
    """
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


def apriori(transactions: list[Transaction], sl: float) -> list[FrequentItemset]:
    """Every itemset with support >= sl, counted subset by subset.

    An itemset's support is the number of transactions that contain it,
    and a transaction contains exactly its own subsets.  Adding each
    distinct transaction's weight (how often it occurs) to every subset
    of its items, interned as small ints for the call, therefore counts
    every itemset a level-wise Apriori search can reach, with no
    candidates to join or prune.  As in that search, subsets stop at
    ``N_ATTRIBUTES`` items and itemsets never carry two items of the same
    attribute.  Support compares inclusively so an itemset exactly at the
    threshold counts as frequent.  Output is sorted by size then item key
    for reproducible files.
    """
    if not transactions:
        raise ValueError("no transactions")
    if not 0 < sl <= 1:
        raise ValueError(f"support level must be in (0, 1], got {sl}")
    n = len(transactions)
    min_count = sl * n

    codes: dict[Item, int] = {}
    counts: Counter[tuple[int, ...]] = Counter()
    for items, weight in Counter(t.items for t in transactions).items():
        coded = sorted(codes.setdefault(item, len(codes)) for item in items)
        for size in range(1, min(len(coded), N_ATTRIBUTES) + 1):
            for combo in combinations(coded, size):
                counts[combo] += weight

    decode = list(codes)
    frequent = []
    for combo, count in counts.items():
        if count < min_count:
            continue
        itemset = frozenset(decode[c] for c in combo)
        if len({i.attribute for i in itemset}) == len(combo):
            frequent.append(FrequentItemset(itemset, count / n, count))
    return sorted(frequent, key=lambda f: (len(f.items), itemset_key(f.items)))


def maximal_itemsets(frequent: list[FrequentItemset]) -> list[FrequentItemset]:
    """Drop every itemset that has a frequent proper superset."""
    all_sets = [f.items for f in frequent]
    return [
        f
        for f in frequent
        if not any(f.items < other for other in all_sets)
    ]


def select_tag(frequent: list[FrequentItemset]) -> list[FrequentItemset]:
    """The tag-cloud content: maximal itemsets of top cardinality, then
    top support, all co-maximal ties included."""
    if not frequent:
        return []
    maximal = maximal_itemsets(frequent)
    top_size = max(len(f.items) for f in maximal)
    biggest = [f for f in maximal if len(f.items) == top_size]
    top_support = max(f.support for f in biggest)
    winners = [f for f in biggest if f.support == top_support]
    return sorted(winners, key=lambda f: itemset_key(f.items))
