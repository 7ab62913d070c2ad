"""Mine tests: transactions, Apriori with oracle checks, tag selection."""
from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from learntags import (
    LearnerProfile,
    apriori,
    maximal_itemsets,
    select_tag,
    transaction_from_profile,
)
from learntags.ingest import TimeBin, discretize_time
from learntags.mine import N_ATTRIBUTES, FrequentItemset, Item, Transaction, itemset_key


def tx(lid: str, *items: Item) -> Transaction:
    return Transaction(lid, frozenset(items))


def as_comparable(frequent):
    return {f.items: (f.count, f.support) for f in frequent}


@st.composite
def mining_inputs(draw, full: bool = False):
    """Transactions drawn with repeats from a small pool, plus a support level.

    With ``full`` each transaction holds one item per attribute; otherwise
    an attribute may be missing or carry two items.  Support levels are
    either exactly at a count boundary c / n or anywhere in (0, 1].
    """
    values = st.frozensets(
        st.integers(1, 3), min_size=1 if full else 0, max_size=1 if full else 2
    )
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        items = set()
        for attribute in range(1, N_ATTRIBUTES + 1):
            for v in draw(values):
                items.add(Item(attribute, discretize_time(v * 10) if attribute == 5 else v))
        pool.append(frozenset(items))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    transactions = [Transaction(f"t{i:02d}", pool[j]) for i, j in enumerate(picks)]
    n = len(transactions)
    sl = draw(st.one_of(
        st.integers(1, n).map(lambda c: c / n),
        st.floats(0, 1, exclude_min=True),
    ))
    return transactions, sl


class TestTransactionFromProfile:
    def test_five_items_one_per_attribute(self):
        t = transaction_from_profile(LearnerProfile("u1", 2, 5, 3, 4, 45))
        assert t.items == frozenset(
            {
                Item(1, 2),
                Item(2, 5),
                Item(3, 3),
                Item(4, 4),
                Item(5, TimeBin(41, 50)),
            }
        )

    def test_zero_hours_fall_into_first_bin(self):
        t = transaction_from_profile(LearnerProfile("u1", 1, 2, 1, 1, 0))
        assert Item(5, TimeBin(1, 10)) in t.items


class TestApriori:
    def test_single_transaction_closure(self):
        t = transaction_from_profile(LearnerProfile("u1", 2, 5, 3, 4, 45))
        frequent = apriori([t], sl=1.0)
        assert len(frequent) == 31
        assert all(f.support == 1.0 and f.count == 1 for f in frequent)
        sizes = sorted(len(f.items) for f in frequent)
        assert sizes == sorted(
            len(c)
            for size in range(1, 6)
            for c in combinations(range(5), size)
        )

    def test_infrequent_item_never_appears(self):
        base = LearnerProfile("u", 1, 2, 1, 1, 5)
        transactions = []
        for i in range(10):
            strategy = 5 if i < 4 else 1
            transactions.append(
                transaction_from_profile(
                    LearnerProfile(f"u{i}", base.current_skill, base.target_skill,
                                   strategy, base.presentation, base.hours)
                )
            )
        frequent = apriori(transactions, sl=0.5)
        rare = Item(3, 5)
        assert all(rare not in f.items for f in frequent)

    def test_boundary_support_is_frequent(self):
        transactions = [
            transaction_from_profile(LearnerProfile(f"u{i}", 1, 2, (i % 5) + 1, 1, 5))
            for i in range(10)
        ]
        frequent = apriori(transactions, sl=0.2)
        supports = {f.items: f.support for f in frequent}
        assert supports[frozenset({Item(3, 1)})] == pytest.approx(0.2)

    def test_errors(self):
        with pytest.raises(ValueError, match="no transactions"):
            apriori([], sl=0.1)
        t = transaction_from_profile(LearnerProfile("u", 1, 2, 1, 1, 5))
        with pytest.raises(ValueError, match="support level"):
            apriori([t], sl=0.0)
        with pytest.raises(ValueError, match="support level"):
            apriori([t], sl=1.5)

    def test_matches_brute_force_on_seeded_instances(self):
        from conftest import brute_force_frequent, random_transactions

        rng = np.random.default_rng(55)
        for trial in range(20):
            transactions = random_transactions(rng, int(rng.integers(1, 13)))
            sl = float(rng.choice([0.1, 0.25, 0.5, 0.75, 1.0]))
            got = as_comparable(apriori(transactions, sl))
            want = brute_force_frequent(transactions, sl)
            assert got == want, f"trial {trial} diverged"

    @given(mining_inputs())
    def test_equals_levelwise_search(self, inputs):
        from conftest import levelwise_apriori

        transactions, sl = inputs
        assert apriori(transactions, sl) == levelwise_apriori(transactions, sl)

    @given(mining_inputs(full=True))
    def test_full_transactions_equal_both_oracles(self, inputs):
        from conftest import brute_force_frequent, levelwise_apriori

        transactions, sl = inputs
        got = apriori(transactions, sl)
        assert got == levelwise_apriori(transactions, sl)
        assert as_comparable(got) == brute_force_frequent(transactions, sl)

    def test_structural_invariants(self):
        from conftest import random_transactions

        rng = np.random.default_rng(21)
        transactions = random_transactions(rng, 12)
        frequent = apriori(transactions, sl=0.1)
        supports = {f.items: f.support for f in frequent}
        for f in frequent:
            attrs = [i.attribute for i in f.items]
            assert len(attrs) == len(set(attrs))
            for size in range(1, len(f.items)):
                for sub in combinations(f.items, size):
                    assert frozenset(sub) in supports
                    assert supports[frozenset(sub)] >= f.support

    def test_output_order_deterministic(self):
        from conftest import random_transactions

        rng = np.random.default_rng(33)
        transactions = random_transactions(rng, 10)
        a = apriori(transactions, sl=0.2)
        b = apriori(list(transactions), sl=0.2)
        assert [itemset_key(f.items) for f in a] == [itemset_key(f.items) for f in b]
        keys = [(len(f.items), itemset_key(f.items)) for f in a]
        assert keys == sorted(keys)


class TestMaximalItemsets:
    def test_subsets_pruned(self):
        a, b = Item(1, 1), Item(2, 2)
        frequent = [
            FrequentItemset(frozenset({a}), 0.5, 5),
            FrequentItemset(frozenset({b}), 0.5, 5),
            FrequentItemset(frozenset({a, b}), 0.4, 4),
        ]
        kept = maximal_itemsets(frequent)
        assert [f.items for f in kept] == [frozenset({a, b})]

    def test_singletons_survive_without_pairs(self):
        frequent = [
            FrequentItemset(frozenset({Item(1, 1)}), 0.5, 5),
            FrequentItemset(frozenset({Item(2, 1)}), 0.6, 6),
        ]
        assert maximal_itemsets(frequent) == frequent

    def test_no_retained_subset_of_another(self):
        from conftest import random_transactions

        rng = np.random.default_rng(44)
        transactions = random_transactions(rng, 12)
        kept = maximal_itemsets(apriori(transactions, sl=0.2))
        for f, g in combinations(kept, 2):
            assert not f.items < g.items
            assert not g.items < f.items


class TestSelectTag:
    def test_cardinality_beats_support(self):
        five = frozenset(
            {Item(1, 1), Item(2, 2), Item(3, 3), Item(4, 4), Item(5, TimeBin(1, 10))}
        )
        three = frozenset({Item(1, 2), Item(2, 3), Item(3, 1)})
        frequent = [
            FrequentItemset(five, 0.6, 6),
            FrequentItemset(three, 0.9, 9),
        ]
        winners = select_tag(frequent)
        assert [w.items for w in winners] == [five]

    def test_equal_support_ties_all_returned(self):
        a = frozenset({Item(1, 1), Item(2, 2), Item(3, 3), Item(4, 4)})
        b = frozenset({Item(1, 2), Item(2, 3), Item(3, 4), Item(4, 5)})
        frequent = [FrequentItemset(a, 0.5, 5), FrequentItemset(b, 0.5, 5)]
        winners = select_tag(frequent)
        assert {w.items for w in winners} == {a, b}
        assert len(winners) == 2

    def test_empty_input_gives_empty_cloud(self):
        assert select_tag([]) == []

    def test_matches_oracle_ranking(self):
        from conftest import brute_force_frequent, random_transactions

        rng = np.random.default_rng(66)
        for _ in range(10):
            transactions = random_transactions(rng, int(rng.integers(2, 13)))
            frequent = apriori(transactions, sl=0.2)
            winners = select_tag(frequent)

            oracle = brute_force_frequent(transactions, 0.2)
            maximal = {
                s: cs for s, cs in oracle.items()
                if not any(s < other for other in oracle)
            }
            if not maximal:
                assert winners == []
                continue
            top_size = max(len(s) for s in maximal)
            sized = {s: cs for s, cs in maximal.items() if len(s) == top_size}
            top_support = max(sup for _, sup in sized.values())
            expected = {s for s, (_, sup) in sized.items() if sup == top_support}
            assert {w.items for w in winners} == expected
