"""Mine tests: item codes, Apriori with oracle checks, tag selection."""
from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from learntags import (
    LearnerProfile,
    apriori,
    learner_table,
    tag_itemsets,
)
from learntags.ingest import discretize_time
from learntags.mine import N_ATTRIBUTES, FrequentItemset

from conftest import (
    Item,
    OracleItemset,
    Transaction,
    as_oracle,
    high_ratings,
    itemset_key,
    itemset_of,
    items_array,
    maximal_itemsets,
    reference_order,
    reference_select_tag,
    transaction_from_profile,
)


def table_items(profiles: list[LearnerProfile]) -> np.ndarray:
    """The learner table's item codes, one row per profile in list order
    (ids must ascend along the list)."""
    ids = [p.learner_id for p in profiles]
    assert ids == sorted(ids)
    table = learner_table(high_ratings({"r": ids}), {p.learner_id: p for p in profiles}, 10)
    return table.items


def mine(transactions: list[Transaction], sl: float) -> list[OracleItemset]:
    """apriori on the transactions' item codes, reported as oracle itemsets."""
    return as_oracle(apriori(items_array(transactions), sl))


def as_comparable(frequent):
    return {f.items: (f.count, f.support) for f in frequent}


def maximal_selection(frequent: list[OracleItemset]) -> list[OracleItemset]:
    """The tag selection before maximal itemsets were implied: maximal
    itemsets of top cardinality, then top support, in key order."""
    if not frequent:
        return []
    maximal = maximal_itemsets(frequent)
    top_size = max(len(f.items) for f in maximal)
    biggest = [f for f in maximal if len(f.items) == top_size]
    top_support = max(f.support for f in biggest)
    winners = [f for f in biggest if f.support == top_support]
    return sorted(winners, key=lambda f: itemset_key(f.items))


def support_levels(n: int):
    """Exactly at a count boundary c / n, or anywhere in (0, 1]."""
    return st.one_of(
        st.integers(1, n).map(lambda c: c / n),
        st.floats(0, 1, exclude_min=True),
    )


@st.composite
def mining_inputs(draw):
    """Transactions of one item per attribute, drawn with repeats from a
    small pool, plus a support level."""
    pool = []
    for _ in range(draw(st.integers(1, 5))):
        values = [draw(st.integers(1, 3)) for _ in range(N_ATTRIBUTES)]
        values[-1] = discretize_time(values[-1] * 10)
        pool.append(frozenset(Item(a + 1, v) for a, v in enumerate(values)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    transactions = [Transaction(f"t{i:02d}", pool[j]) for i, j in enumerate(picks)]
    return transactions, draw(support_levels(len(transactions)))


@st.composite
def tied_rows(draw):
    """One to ten item rows over codes 1 and 2, so that top sizes and top
    counts tie often, plus a support level."""
    n = draw(st.integers(1, 10))
    row = st.lists(st.integers(1, 2), min_size=N_ATTRIBUTES, max_size=N_ATTRIBUTES)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return np.array(rows, dtype=np.int64), draw(support_levels(n))


@st.composite
def profile_inputs(draw):
    """Full learner profiles drawn with repeats from a small pool, with
    hours on and around bin edges and far out, plus a support level."""
    pool = [
        LearnerProfile("", draw(st.integers(1, 3)), draw(st.integers(4, 6)),
                       draw(st.integers(1, 5)), draw(st.integers(1, 5)),
                       draw(st.sampled_from([0, 1, 10, 11, 45, 10**6])))
        for _ in range(draw(st.integers(1, 5)))
    ]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    profiles = [pool[j]._replace(learner_id=f"t{i:02d}") for i, j in enumerate(picks)]
    return profiles, draw(support_levels(len(profiles)))


class TestTransactionFromProfile:
    """The learner table's item codes: one per attribute, hours as bins."""

    def test_five_items_one_per_attribute(self):
        profile = LearnerProfile("u1", 2, 5, 3, 4, 45)
        assert table_items([profile]).tolist() == [[2, 5, 3, 4, 5]]
        (full,) = [f for f in apriori(table_items([profile]), 1.0) if all(f.fields)]
        assert itemset_of(full.fields) == transaction_from_profile(profile).items

    def test_zero_hours_fall_into_first_bin(self):
        items = table_items([LearnerProfile("u1", 1, 2, 1, 1, 0),
                             LearnerProfile("u2", 1, 2, 1, 1, 10),
                             LearnerProfile("u3", 1, 2, 1, 1, 11),
                             LearnerProfile("u4", 1, 2, 1, 1, 10**6)])
        assert items[:, 4].tolist() == [1, 1, 2, 100_000]
        assert itemset_of((0, 0, 0, 0, 1)) == {Item(5, discretize_time(1))}


class TestApriori:
    def test_single_transaction_closure(self):
        frequent = apriori(table_items([LearnerProfile("u1", 2, 5, 3, 4, 45)]), sl=1.0)
        assert len(frequent) == 31
        assert all(f.support == 1.0 and f.count == 1 for f in frequent)
        sizes = sorted(sum(1 for v in f.fields if v) for f in frequent)
        assert sizes == sorted(
            len(c)
            for size in range(1, 6)
            for c in combinations(range(5), size)
        )

    def test_infrequent_item_never_appears(self):
        profiles = [
            LearnerProfile(f"u{i}", 1, 2, 5 if i < 4 else 1, 1, 5) for i in range(10)
        ]
        frequent = apriori(table_items(profiles), sl=0.5)
        assert all(f.fields[2] != 5 for f in frequent)

    def test_boundary_support_is_frequent(self):
        profiles = [LearnerProfile(f"u{i}", 1, 2, (i % 5) + 1, 1, 5) for i in range(10)]
        frequent = apriori(table_items(profiles), sl=0.2)
        supports = {f.fields: f.support for f in frequent}
        assert supports[(0, 0, 1, 0, 0)] == pytest.approx(0.2)

    def test_errors(self):
        with pytest.raises(ValueError, match="no transactions"):
            apriori(np.zeros((0, 5), dtype=np.int64), sl=0.1)
        items = table_items([LearnerProfile("u", 1, 2, 1, 1, 5)])
        with pytest.raises(ValueError, match="support level"):
            apriori(items, sl=0.0)
        with pytest.raises(ValueError, match="support level"):
            apriori(items, sl=1.5)

    def test_rows_must_hold_five_positive_codes(self):
        with pytest.raises(ValueError, match="positive item codes"):
            apriori(np.array([[1, 2, 0, 1, 1]]), sl=0.5)
        with pytest.raises(ValueError, match="positive item codes"):
            apriori(np.array([[1, 2, 3, 1]]), sl=0.5)

    def test_code_space_beyond_int64_rejected(self):
        items = np.array([[6, 6, 5, 5, 2**58]])
        with pytest.raises(ValueError, match="too large"):
            apriori(items, sl=1.0)

    @pytest.mark.parametrize("miner", [apriori, tag_itemsets])
    def test_largest_int64_code_rejected(self, miner):
        """Its radix, the code plus one, would wrap to a negative int64."""
        with pytest.raises(ValueError, match="too large"):
            miner(np.array([[1, 1, 1, 1, np.iinfo(np.int64).max]]), sl=1.0)

    @pytest.mark.parametrize("miner", [apriori, tag_itemsets])
    @pytest.mark.parametrize("items", [
        np.array([[1.7, 2, 3, 4, 1]]),
        np.array([[1.0, 2, 3, 4, 1]]),
        np.ones((1, N_ATTRIBUTES), dtype=bool),
        np.array([["1", "2", "3", "4", "1"]]),
    ], ids=["fraction", "whole-float", "bool", "str"])
    def test_non_integer_codes_rejected(self, miner, items):
        with pytest.raises(ValueError, match="item codes must be integers"):
            miner(items, sl=1.0)

    @pytest.mark.parametrize("miner", [apriori, tag_itemsets])
    @pytest.mark.parametrize("items", [
        [[1, 2, 3, 4, 1]],
        np.array([[1, 2, 3, 4, 1]], dtype=np.int32),
        np.array([[1, 2, 3, 4, 1]], dtype=np.uint8),
    ], ids=["list", "int32", "uint8"])
    def test_any_integer_codes_accepted(self, miner, items):
        expected = miner(np.array([[1, 2, 3, 4, 1]], dtype=np.int64), sl=1.0)
        assert miner(items, sl=1.0) == expected

    def test_matches_brute_force_on_seeded_instances(self):
        from conftest import brute_force_frequent, random_transactions

        rng = np.random.default_rng(55)
        for trial in range(20):
            transactions = random_transactions(rng, int(rng.integers(1, 13)))
            sl = float(rng.choice([0.1, 0.25, 0.5, 0.75, 1.0]))
            got = as_comparable(mine(transactions, sl))
            want = brute_force_frequent(transactions, sl)
            assert got == want, f"trial {trial} diverged"

    @given(profile_inputs())
    def test_equals_levelwise_search(self, inputs):
        """Learner-table rows, mined, equal both oracles on the profiles'
        transactions, order included."""
        from conftest import brute_force_frequent, levelwise_apriori

        profiles, sl = inputs
        transactions = [transaction_from_profile(p) for p in profiles]
        got = as_oracle(apriori(table_items(profiles), sl))
        assert got == levelwise_apriori(transactions, sl)
        assert as_comparable(got) == brute_force_frequent(transactions, sl)

    @given(mining_inputs())
    def test_full_transactions_equal_both_oracles(self, inputs):
        from conftest import brute_force_frequent, levelwise_apriori

        transactions, sl = inputs
        got = mine(transactions, sl)
        assert got == levelwise_apriori(transactions, sl)
        assert as_comparable(got) == brute_force_frequent(transactions, sl)

    def test_structural_invariants(self):
        from conftest import random_transactions

        rng = np.random.default_rng(21)
        frequent = mine(random_transactions(rng, 12), sl=0.1)
        supports = {f.items: f.support for f in frequent}
        for f in frequent:
            attrs = [i.attribute for i in f.items]
            assert len(attrs) == len(set(attrs))
            for size in range(1, len(f.items)):
                for sub in combinations(f.items, size):
                    assert frozenset(sub) in supports
                    assert supports[frozenset(sub)] >= f.support

    @given(tied_rows())
    def test_order_is_the_reference_sort_key(self, inputs):
        """One lexsort with absent fields keyed last orders itemsets as the
        Python key of size, then (attribute, code) pairs."""
        frequent = apriori(*inputs)
        assert frequent == sorted(frequent, key=reference_order)

    def test_output_order_deterministic(self):
        from conftest import random_transactions

        rng = np.random.default_rng(33)
        items = items_array(random_transactions(rng, 10))
        a = apriori(items, sl=0.2)
        b = apriori(items[::-1], sl=0.2)
        assert a == b
        keys = [(len(f.items), itemset_key(f.items)) for f in as_oracle(a)]
        assert keys == sorted(keys)


class TestMaximalItemsets:
    """The maximal-itemset oracle behind the select_tag tests."""

    def test_subsets_pruned(self):
        a, b = Item(1, 1), Item(2, 2)
        frequent = [
            OracleItemset(frozenset({a}), 0.5, 5),
            OracleItemset(frozenset({b}), 0.5, 5),
            OracleItemset(frozenset({a, b}), 0.4, 4),
        ]
        kept = maximal_itemsets(frequent)
        assert [f.items for f in kept] == [frozenset({a, b})]

    def test_singletons_survive_without_pairs(self):
        frequent = [
            OracleItemset(frozenset({Item(1, 1)}), 0.5, 5),
            OracleItemset(frozenset({Item(2, 1)}), 0.6, 6),
        ]
        assert maximal_itemsets(frequent) == frequent

    def test_no_retained_subset_of_another(self):
        from conftest import random_transactions

        rng = np.random.default_rng(44)
        kept = maximal_itemsets(mine(random_transactions(rng, 12), sl=0.2))
        for f, g in combinations(kept, 2):
            assert not f.items < g.items
            assert not g.items < f.items


class TestSelectTag:
    """tag_itemsets on item rows: the winners of the full frequent list."""

    def test_cardinality_beats_support(self):
        # (1, 2, 3, 4, 1) in 6 of 15 rows; (2, 3, 1, ., .) in the other 9,
        # whose last two fields spread so that no larger itemset reaches 6.
        five = (1, 2, 3, 4, 1)
        rows = [five] * 6 + [(2, 3, 1, i % 3 + 1, i // 3 + 1) for i in range(9)]
        winners = tag_itemsets(np.array(rows), 6 / 15)
        assert [(w.fields, w.count) for w in winners] == [(five, 6)]
        assert max(f.count for f in apriori(np.array(rows), 6 / 15)
                   if f.fields[:3] == (2, 3, 1)) == 9

    def test_equal_support_ties_all_returned(self):
        a = (1, 2, 3, 4, 0)
        b = (2, 3, 4, 5, 0)
        rows = [(*b[:4], t) for t in range(1, 6)] + [(*a[:4], t) for t in range(1, 6)]
        winners = tag_itemsets(np.array(rows), 0.5)
        assert [(w.fields, w.count) for w in winners] == [(a, 5), (b, 5)]

    def test_empty_input_gives_empty_cloud(self):
        assert tag_itemsets(np.array([[1] * 5, [2] * 5]), 1.0) == []

    def test_matches_oracle_ranking(self):
        from conftest import brute_force_frequent, random_transactions

        rng = np.random.default_rng(66)
        for _ in range(10):
            transactions = random_transactions(rng, int(rng.integers(2, 13)))
            winners = as_oracle(tag_itemsets(items_array(transactions), 0.2))

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

    @given(profile_inputs())
    def test_equals_maximal_itemset_selection(self, inputs):
        profiles, sl = inputs
        items = table_items(profiles)
        assert as_oracle(tag_itemsets(items, sl)) == maximal_selection(
            as_oracle(apriori(items, sl)))

    @given(tied_rows())
    @example((np.array([[1, 2, 1, 2, 1]]), 1.0))  # one row: its full itemset
    @example((np.array([[1] * 5, [2] * 5]), 1.0))  # nothing frequent
    @example((np.array([[1] * 5, [1] * 5, [2] * 5]), 1 / 3))  # one size, two counts
    @example((np.array([[1, 1, 1, 1, 1], [1, 1, 1, 1, 2], [2, 2, 2, 2, 2]]), 2 / 3))
    @example((np.array([[1, 1, 2, 2, 1], [1, 1, 2, 2, 2], [2, 1, 2, 2, 1]]), 1 / 3))
    def test_equals_both_selection_oracles(self, inputs):
        """Equal to the selection over apriori's full list and to the
        maximal itemsets of the level-wise search, order included: ties on
        size and count, support exactly at sl, one row, nothing frequent."""
        from conftest import levelwise_apriori

        items, sl = inputs
        winners = tag_itemsets(items, sl)
        assert winners == reference_select_tag(apriori(items, sl))
        transactions = [Transaction(f"t{i:02d}", itemset_of(tuple(row)))
                        for i, row in enumerate(items.tolist())]
        assert as_oracle(winners) == maximal_selection(levelwise_apriori(transactions, sl))
