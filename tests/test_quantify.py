"""Quantify tests: co-occurrence counting, NMF, the ordering chain."""
from __future__ import annotations

import importlib
import types
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from learntags import (
    LearnerProfile,
    PipelineConfig,
    RatingRecord,
    attribute_values,
    build_cooccurrence,
    derive_orderings,
    learner_table,
    nmf,
    nmf_stack,
    quantification_report,
    quantify_nominal,
    symmetrize,
)
from learntags.quantify import ATTRIBUTES, FactorPair

from conftest import high_ratings, oracle_nmf

quantify_module = importlib.import_module("learntags.quantify")


def profile(lid: str, a3: int = 1, a4: int = 1) -> LearnerProfile:
    return LearnerProfile(lid, 1, 2, a3, a4, 10)


def brute_force_cooccurrence(subsets, profiles, attribute) -> np.ndarray:
    """O(n^2) oracle: enumerate unordered learner pairs per shared subset."""
    field = {"strategy": "strategy", "presentation": "presentation"}[attribute]
    pairs = set()
    for members in subsets.values():
        for u, v in combinations(sorted(members), 2):
            pairs.add((u, v))
    counts = np.zeros((5, 5), dtype=np.int64)
    for u, v in pairs:
        i = getattr(profiles[u], field) - 1
        j = getattr(profiles[v], field) - 1
        counts[i, j] += 1
        if i != j:
            counts[j, i] += 1
    return counts


def loop_cooccurrence(subsets, profiles, attribute) -> np.ndarray:
    """Per-learner oracle: deduplicate each learner's partners with np.unique
    and count the partners with a larger index, one learner at a time."""
    field = {"strategy": "strategy", "presentation": "presentation"}[attribute]
    ids = sorted({m for members in subsets.values() for m in members})
    index = {lid: i for i, lid in enumerate(ids)}
    params = np.array([getattr(profiles[lid], field) for lid in ids], dtype=np.int64)
    subset_arrays = [
        np.fromiter(sorted(index[m] for m in members), dtype=np.int64, count=len(members))
        for members in subsets.values()
    ]
    containing: list[list[int]] = [[] for _ in ids]
    for si, arr in enumerate(subset_arrays):
        for u in arr:
            containing[u].append(si)

    counts = np.zeros((5, 5), dtype=np.int64)
    for u in range(len(ids)):
        if not containing[u]:
            continue
        partners = np.unique(np.concatenate([subset_arrays[si] for si in containing[u]]))
        partners = partners[partners > u]
        p_u = int(params[u]) - 1
        partner_counts = np.bincount(params[partners] - 1, minlength=5)
        for p_v in range(5):
            c = int(partner_counts[p_v])
            counts[p_u, p_v] += c
            if p_v != p_u:
                counts[p_v, p_u] += c
    return counts


def cooccurrence_of(subsets, profiles) -> dict[str, np.ndarray]:
    """build_cooccurrence over the learner table of ``subsets``
    (resource id -> learner ids)."""
    return build_cooccurrence(learner_table(high_ratings(subsets), profiles, 10))


# _FAMILY_COST values that send every non-empty corpus down one path of
# build_cooccurrence.
_PATHS = {"inclusion_exclusion": 0, "product": 1 << 62}


def on_path(path: str):
    """Patch the routing constant so that build_cooccurrence takes ``path``."""
    return mock.patch.object(quantify_module, "_FAMILY_COST", _PATHS[path])


def assert_matches_oracles(subsets, profiles) -> None:
    """On each path, both matrices of one build_cooccurrence call are
    (5, 5) int64, symmetric and equal to both oracles."""
    for path in _PATHS:
        with on_path(path):
            cooccurrence = cooccurrence_of(subsets, profiles)
        assert list(cooccurrence) == list(ATTRIBUTES)
        for attribute, got in cooccurrence.items():
            assert got.shape == (5, 5) and got.dtype == np.int64
            np.testing.assert_array_equal(got, got.T)
            np.testing.assert_array_equal(
                got, brute_force_cooccurrence(subsets, profiles, attribute), err_msg=path)
            np.testing.assert_array_equal(
                got, loop_cooccurrence(subsets, profiles, attribute), err_msg=path)


def _subsets(*groups) -> dict[str, set[str]]:
    return {f"r{i}": set(g) for i, g in enumerate(groups)}


_IDS = [f"u{i:02d}" for i in range(12)]
_BIG = [f"u{i:03d}" for i in range(400)]
_NAMED_CASES = {
    "empty_subset_list": ({}, {}),
    "one_learner_subsets": (
        _subsets({"u00"}, {"u01"}, {"u00"}),
        {lid: profile(lid, a3=2, a4=4) for lid in _IDS[:2]},
    ),
    "repeated_subset": (
        _subsets(*[set(_IDS[:6])] * 4),
        {lid: profile(lid, a3=i % 5 + 1, a4=(2 * i) % 5 + 1) for i, lid in enumerate(_IDS)},
    ),
    "one_parameter_value": (
        _subsets(set(_IDS[:7]), set(_IDS[5:]), {"u03", "u11"}),
        {lid: profile(lid, a3=3, a4=3) for lid in _IDS},
    ),
    # One subset of 400 learners is 160,000 units of pair work, more than
    # two blocks hold, so block edges fall inside it.
    "crosses_block_edges": (
        _subsets(set(_BIG), set(_BIG[::7]), set(_BIG[390:]) | {"u000"}),
        {lid: profile(lid, a3=i % 5 + 1, a4=(i * i) % 5 + 1) for i, lid in enumerate(_BIG)},
    ),
    "all_degree_one": (
        _subsets(set(_IDS[:5]), set(_IDS[5:9]), {"u09"}, set(_IDS[10:])),
        {lid: profile(lid, a3=i % 5 + 1, a4=(3 * i) % 5 + 1) for i, lid in enumerate(_IDS)},
    ),
    "one_learner_in_every_subset": (
        _subsets(*({"u00", _IDS[i], _IDS[i + 1]} for i in range(1, 11, 2))),
        {lid: profile(lid, a3=i % 5 + 1, a4=(i + 2) % 5 + 1) for i, lid in enumerate(_IDS)},
    ),
    # A family such as {r0, r1} is held by learners of degree 2, 3, 4 and
    # 5; counting each degree's families apart would miss their pairs.
    "families_across_degrees": (
        _subsets(
            {"u00", "u01", "u02", "u04"},
            {"u00", "u01", "u02", "u03", "u04"},
            {"u01", "u02", "u03", "u04", "u05"},
            {"u02", "u03", "u04", "u06"},
            {"u03", "u04", "u06"},
        ),
        {lid: profile(lid, a3=i % 5 + 1, a4=(2 * i + 1) % 5 + 1) for i, lid in enumerate(_IDS)},
    ),
    "one_learner_subset": (
        _subsets(set(_IDS[:4]), {"u02"}, {"u07"}, set(_IDS[3:6])),
        {lid: profile(lid, a3=i % 3 + 1, a4=i % 5 + 1) for i, lid in enumerate(_IDS)},
    ),
}


class TestBuildCooccurrence:
    def test_single_learner_yields_zero_matrix(self):
        subsets = {"r": {"u1"}}
        cooccurrence = cooccurrence_of(subsets, {"u1": profile("u1")})
        assert not any(c.any() for c in cooccurrence.values())

    def test_single_pair(self):
        subsets = {"r": {"u1", "u2"}}
        profiles = {"u1": profile("u1", a3=1), "u2": profile("u2", a3=3)}
        cooc = cooccurrence_of(subsets, profiles)["strategy"]
        expected = np.zeros((5, 5), dtype=np.int64)
        expected[0, 2] = expected[2, 0] = 1
        np.testing.assert_array_equal(cooc, expected)

    def test_pair_counted_once_across_subsets(self):
        subsets = {"r1": {"u1", "u2"}, "r2": {"u1", "u2"}}
        profiles = {"u1": profile("u1", a3=2), "u2": profile("u2", a3=2)}
        cooc = cooccurrence_of(subsets, profiles)["strategy"]
        assert cooc[1, 1] == 1
        assert cooc.sum() == 1

    def test_missing_profile_names_learner(self):
        subsets = {"r": {"u1", "ghost"}}
        with pytest.raises(KeyError, match="ghost"):
            cooccurrence_of(subsets, {"u1": profile("u1")})

    def test_missing_profile_checked_before_values(self):
        subsets = {"r": {"u1", "ghost"}}
        with pytest.raises(KeyError, match="ghost"):
            cooccurrence_of(subsets, {"u1": profile("u1", a3=0, a4=0)})

    @pytest.mark.parametrize("attribute", ["strategy", "presentation"])
    @pytest.mark.parametrize("bad", [0, 6, -1])
    def test_out_of_range_value_names_learner(self, attribute, bad):
        subsets = {"r": {"u1", "u2"}}
        profiles = {
            "u1": profile("u1", a3=5, a4=5),
            "u2": profile("u2", **{"a3" if attribute == "strategy" else "a4": bad}),
        }
        with pytest.raises(ValueError, match=f"'u2' has {attribute} {bad}, expected 1..5"):
            cooccurrence_of(subsets, profiles)

    def test_both_values_out_of_range_names_strategy(self):
        subsets = {"r": {"u1", "u2"}}
        profiles = {"u1": profile("u1", a3=2, a4=2), "u2": profile("u2", a3=6, a4=0)}
        with pytest.raises(ValueError, match="'u2' has strategy 6, expected 1..5"):
            cooccurrence_of(subsets, profiles)
        # Every strategy is checked before any presentation.
        profiles["u1"] = profile("u1", a3=2, a4=9)
        with pytest.raises(ValueError, match="'u2' has strategy 6, expected 1..5"):
            cooccurrence_of(subsets, profiles)

    def test_bad_presentation_with_valid_strategy_names_presentation(self):
        subsets = {"r": {"u1", "u2"}}
        profiles = {"u1": profile("u1", a3=3, a4=7), "u2": profile("u2", a3=5, a4=1)}
        with pytest.raises(ValueError, match="'u1' has presentation 7, expected 1..5"):
            cooccurrence_of(subsets, profiles)

    @pytest.mark.parametrize("attribute", ATTRIBUTES)
    def test_matches_brute_force_enumeration(self, attribute):
        """Seeded 200-learner, 20-subset instance against the pair oracle."""
        rng = np.random.default_rng(77)
        ids = [f"u{i:03d}" for i in range(200)]
        profiles = {
            lid: profile(lid, a3=int(rng.integers(1, 6)), a4=int(rng.integers(1, 6)))
            for lid in ids
        }
        subsets = {}
        for s in range(20):
            size = int(rng.integers(2, 40))
            subsets[f"r{s}"] = {str(m) for m in rng.choice(ids, size=size, replace=False)}

        cooc = cooccurrence_of(subsets, profiles)[attribute]
        expected = brute_force_cooccurrence(subsets, profiles, attribute)
        np.testing.assert_array_equal(cooc, expected)
        np.testing.assert_array_equal(cooc, cooc.T)

    @given(
        groups=st.lists(st.frozensets(st.sampled_from(_IDS), max_size=len(_IDS)), max_size=8),
        strategy=st.lists(st.integers(1, 5), min_size=len(_IDS), max_size=len(_IDS)),
        presentation=st.lists(st.integers(1, 5), min_size=len(_IDS), max_size=len(_IDS)),
        order=st.permutations(range(len(_IDS))),
    )
    def test_permuting_presentation_leaves_strategy_unchanged(
        self, groups, strategy, presentation, order
    ):
        """The attributes share one pass but not their counts."""
        subsets = _subsets(*groups)

        def strategy_matrix(values):
            profiles = {
                lid: profile(lid, a3=a3, a4=a4)
                for lid, a3, a4 in zip(_IDS, strategy, values)
            }
            return cooccurrence_of(subsets, profiles)["strategy"]

        np.testing.assert_array_equal(
            strategy_matrix([presentation[i] for i in order]), strategy_matrix(presentation)
        )

    @pytest.mark.parametrize("case", sorted(_NAMED_CASES))
    def test_named_cases_match_oracles(self, case):
        subsets, profiles = _NAMED_CASES[case]
        if case == "crosses_block_edges":
            assert sum(len(m) ** 2 for m in subsets.values()) > 2 * quantify_module._BLOCK_PAIR_WORK
        assert_matches_oracles(subsets, profiles)

    @given(
        groups=st.lists(st.frozensets(st.sampled_from(_IDS), max_size=len(_IDS)), max_size=8),
        strategy=st.lists(st.integers(1, 5), min_size=len(_IDS), max_size=len(_IDS)),
        presentation=st.lists(st.integers(1, 5), min_size=len(_IDS), max_size=len(_IDS)),
        block=st.sampled_from([1, 17, quantify_module._BLOCK_PAIR_WORK]),
        data=st.data(),
    )
    def test_matches_oracles_at_any_block_size(self, groups, strategy, presentation, block,
                                               data):
        """Random corpora in any subset order, with blocks down to the
        smallest the learner count allows."""
        profiles = {
            lid: profile(lid, a3=a3, a4=a4)
            for lid, a3, a4 in zip(_IDS, strategy, presentation)
        }
        shuffled = _subsets(*data.draw(st.permutations(groups)))
        with mock.patch.object(quantify_module, "_BLOCK_PAIR_WORK", block):
            assert_matches_oracles(shuffled, profiles)

    def test_empty_table_gives_zeros_on_each_path(self):
        ratings = [RatingRecord("u1", "r", 3), RatingRecord("u2", "r", 3)]
        table = learner_table(ratings, {"u1": profile("u1"), "u2": profile("u2")}, 10)
        assert not table.ids and not table.members
        for path in _PATHS:
            with on_path(path):
                cooccurrence = build_cooccurrence(table)
            for got in cooccurrence.values():
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, np.zeros((5, 5), dtype=np.int64))

    @pytest.mark.parametrize("offset, path", [
        (-1, "product"), (0, "inclusion_exclusion"), (1, "inclusion_exclusion"),
    ])
    def test_routes_at_threshold(self, offset, path):
        """One subset of s degree-1 learners holds s families and s * s units
        of pair work, so s = _FAMILY_COST sits exactly at the threshold, where
        inclusion-exclusion runs."""
        size = quantify_module._FAMILY_COST + offset
        subsets = {"r": set(_BIG[:size])}
        profiles = {lid: profile(lid, a3=i % 5 + 1, a4=i % 4 + 1)
                    for i, lid in enumerate(_BIG[:size])}
        spies = {
            name: mock.patch.object(quantify_module, f"_{name}_counts",
                                    wraps=getattr(quantify_module, f"_{name}_counts"))
            for name in _PATHS
        }
        with spies["inclusion_exclusion"] as ie, spies["product"] as product:
            cooccurrence = cooccurrence_of(subsets, profiles)
        assert (ie.call_count, product.call_count) == (
            (1, 0) if path == "inclusion_exclusion" else (0, 1))
        for attribute, got in cooccurrence.items():
            np.testing.assert_array_equal(
                got, brute_force_cooccurrence(subsets, profiles, attribute))

    def test_paths_agree_on_skewed_corpus(self):
        """20,000 learners with zipf-0.9 popularity: the largest subsets
        hold over 1,000 learners each, so the default routing takes
        inclusion-exclusion, and the product must give the same matrices."""
        from conftest import synth_corpus

        records, profiles = synth_corpus(20_000, 200, 100_000, seed=1, skew=0.9)
        table = learner_table(records, profiles, delta0=6)
        with mock.patch.object(quantify_module, "_inclusion_exclusion_counts",
                               wraps=quantify_module._inclusion_exclusion_counts) as ie:
            routed = build_cooccurrence(table)
        assert ie.call_count == 1
        with on_path("product"):
            product = build_cooccurrence(table)
        for attribute in ATTRIBUTES:
            np.testing.assert_array_equal(routed[attribute], product[attribute])
        assert routed["strategy"].sum() > 10**6


class TestNMF:
    def test_rank_one_recovery(self):
        a = np.zeros((5, 5))
        a[:2, :2] = np.outer([1.0, 2.0], [3.0, 4.0])
        result = nmf(a, k=1, max_iters=5000, tol=0.0, seed=0)
        assert result.final_error < 1e-6

    def test_zero_matrix_short_circuit(self):
        result = nmf(np.zeros((5, 5)), k=3, max_iters=100, tol=1e-6, seed=0)
        assert not result.weights.any()
        assert not result.features.any()
        assert result.final_error == 0.0
        assert result.error_trace == [0.0]

    def test_validation(self):
        a = np.ones((5, 5))
        with pytest.raises(ValueError, match="non-negative"):
            nmf(-a, k=2, max_iters=10, tol=0.0, seed=0)
        with pytest.raises(ValueError, match="k must be"):
            nmf(a, k=0, max_iters=10, tol=0.0, seed=0)
        with pytest.raises(ValueError, match="max_iters"):
            nmf(a, k=2, max_iters=0, tol=0.0, seed=0)

    def test_deterministic(self):
        a = np.random.default_rng(3).uniform(0, 10, (5, 5))
        r1 = nmf(a, k=10, max_iters=50, tol=0.0, seed=21)
        r2 = nmf(a, k=10, max_iters=50, tol=0.0, seed=21)
        np.testing.assert_array_equal(r1.weights, r2.weights)
        np.testing.assert_array_equal(r1.features, r2.features)
        assert r1.error_trace == r2.error_trace

    def test_error_monotone_over_seeded_matrices(self):
        """100 random 5x5 inputs, k=10: error trace never increases."""
        rng = np.random.default_rng(99)
        for trial in range(100):
            a = rng.uniform(0.0, 10.0, (5, 5))
            result = nmf(a, k=10, max_iters=200, tol=0.0, seed=trial)
            trace = np.array(result.error_trace)
            slack = 1e-9 * trace[0]
            assert np.all(np.diff(trace) <= slack)
            assert np.all(result.weights >= 0)
            assert np.all(result.features >= 0)

    def test_tolerance_stops_early(self):
        a = np.random.default_rng(5).uniform(0, 10, (5, 5))
        result = nmf(a, k=10, max_iters=500, tol=0.5, seed=1)
        trace = result.error_trace
        assert len(trace) < 501
        assert (trace[-2] - trace[-1]) / trace[-2] < 0.5


class TestNMFStack:
    """Both attributes' NMF in one loop against each matrix factored alone."""

    count_matrices = st.lists(st.integers(0, 10**6), min_size=25, max_size=25).map(
        lambda v: np.array(v, dtype=np.int64).reshape(5, 5))

    @given(st.lists(st.one_of(count_matrices, st.just(np.zeros((5, 5), dtype=np.int64))),
                    min_size=1, max_size=3),
           st.integers(1, 12), st.sampled_from([1, 2, 7, 500]),
           st.sampled_from([0.0, 1e-6, 1e-2]), st.integers(0, 2**32 - 2),
           st.sampled_from([1, 2, 7, quantify_module._NMF_CHUNK]))
    def test_each_matrix_as_factored_alone(self, matrices, k, max_iters, tol, seed, chunk):
        """Matrices stop at their own iterations, wherever those fall in a
        chunk of iterations; zero ones short-circuit."""
        with mock.patch.object(quantify_module, "_NMF_CHUNK", chunk):
            self.assert_each_as_factored_alone([m + m.T for m in matrices], k, max_iters, tol,
                                               [seed + i for i in range(len(matrices))])

    @staticmethod
    def assert_each_as_factored_alone(matrices, k, max_iters, tol, seeds):
        got = nmf_stack(matrices, k=k, max_iters=max_iters, tol=tol, seeds=seeds)
        for matrix, s, result in zip(matrices, seeds, got):
            weights, features, trace = oracle_nmf(matrix, k, max_iters, tol, s)
            np.testing.assert_array_equal(result.weights, weights)
            np.testing.assert_array_equal(result.features, features)
            assert repr(result.error_trace) == repr(trace)
            assert result.final_error == trace[-1] and result.k == k
        return got

    def test_zero_matrix_between_matrices_stopping_apart(self):
        """A stopped matrix keeps its result while the others run on."""
        rng = np.random.default_rng(2)
        first, last = (m + m.T for m in rng.integers(0, 900, (2, 5, 5)))
        got = self.assert_each_as_factored_alone(
            [first, np.zeros((5, 5)), last], 10, 500, 1e-3, [0, 1, 2])
        assert [len(r.error_trace) for r in got] == [314, 1, 443]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_stop_at_the_edges_of_a_chunk(self, offset):
        """The first matrix stops at iteration 313: the last but one of the
        first chunk, its last, or the first of the second chunk."""
        rng = np.random.default_rng(2)
        first, last = (m + m.T for m in rng.integers(0, 900, (2, 5, 5)))
        with mock.patch.object(quantify_module, "_NMF_CHUNK", 313 - offset):
            got = self.assert_each_as_factored_alone([first, last], 10, 500, 1e-3, [0, 2])
        assert [len(r.error_trace) for r in got] == [314, 443]

    @pytest.mark.parametrize("chunk, max_iters", [(7, 17), (32, 45)])
    def test_max_iters_not_a_multiple_of_the_chunk(self, chunk, max_iters):
        rng = np.random.default_rng(8)
        matrices = [m + m.T for m in rng.integers(0, 900, (2, 5, 5))]
        with mock.patch.object(quantify_module, "_NMF_CHUNK", chunk):
            got = self.assert_each_as_factored_alone(matrices, 10, max_iters, 0.0, [3, 4])
        assert [len(r.error_trace) for r in got] == [max_iters + 1] * 2

    @pytest.mark.parametrize("chunk", [1, 7, 32, 500])
    def test_iterations_past_the_last_stop_raise_no_warning(self, chunk):
        """A chunk runs on after a matrix stops, and a zero matrix's error
        stays 0 there, so its improvement would be 0 / 0."""
        rng = np.random.default_rng(1)
        first, last = (m + m.T for m in rng.integers(0, 900, (2, 5, 5)))
        with mock.patch.object(quantify_module, "_NMF_CHUNK", chunk), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = self.assert_each_as_factored_alone(
                [first, np.zeros((5, 5)), last], 10, 500, 0.1, [0, 1, 2])
        assert [len(r.error_trace) for r in got] == [27, 1, 14]

    def test_all_zero_stack_runs_no_update(self):
        with mock.patch.object(quantify_module, "_errors",
                               wraps=quantify_module._errors) as errors:
            got = nmf_stack(np.zeros((2, 5, 5)), k=3, max_iters=500, tol=0.0, seeds=[0, 1])
        assert errors.call_count == 1  # the initial errors only
        for result in got:
            assert not result.weights.any() and not result.features.any()
            assert result.weights.shape == (5, 3) and result.features.shape == (3, 5)
            assert result.error_trace == [0.0]

    def test_one_iteration(self):
        rng = np.random.default_rng(6)
        matrices = [m + m.T for m in rng.integers(0, 900, (2, 5, 5))]
        got = self.assert_each_as_factored_alone(matrices, 4, 1, 0.0, [5, 6])
        assert [len(r.error_trace) for r in got] == [2, 2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        a = np.ones((5, 5))
        a[1, 3] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            nmf(a, k=2, max_iters=10, tol=0.0, seed=0)
        with pytest.raises(ValueError, match="entries must be finite"):
            nmf_stack([np.ones((5, 5)), a], k=2, max_iters=10, tol=0.0, seeds=[0, 1])

    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2]])
    def test_one_seed_per_matrix(self, seeds):
        expected = f"expected 2 seeds, one per matrix, got {len(seeds)}"
        with pytest.raises(ValueError, match=expected):
            nmf_stack(np.ones((2, 5, 5)), k=2, max_iters=10, tol=0.0, seeds=seeds)

    @pytest.mark.parametrize("tol", [np.nan, -1e-9])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            nmf(np.ones((5, 5)), k=2, max_iters=10, tol=tol, seed=0)

    def test_nmf_is_the_one_matrix_case(self):
        a = np.random.default_rng(4).integers(0, 900, (5, 5))
        alone = nmf(a + a.T, k=10, max_iters=500, tol=1e-6, seed=3)
        [stacked] = nmf_stack([a + a.T], k=10, max_iters=500, tol=1e-6, seeds=[3])
        np.testing.assert_array_equal(alone.weights, stacked.weights)
        assert alone.error_trace == stacked.error_trace


class TestDeriveOrderings:
    def test_picks_dominant_feature_row(self):
        weights = np.array([[0.0, 7.0, 2.0]] * 5)
        features = np.array(
            [[9, 9, 9, 9, 9], [5, 4, 3, 2, 1], [1, 1, 1, 1, 1]], dtype=float
        )
        d = derive_orderings(FactorPair(weights, features, [0.0]))
        np.testing.assert_array_equal(d, np.array([[5, 4, 3, 2, 1]] * 5, dtype=float))

    def test_zero_weight_row_takes_feature_zero(self):
        weights = np.zeros((5, 3))
        features = np.arange(15, dtype=float).reshape(3, 5)
        d = derive_orderings(FactorPair(weights, features, [0.0]))
        np.testing.assert_array_equal(d, np.tile(features[0], (5, 1)))

    def test_rows_are_rows_of_features(self):
        rng = np.random.default_rng(31)
        factors = nmf(rng.uniform(0, 5, (5, 5)), k=4, max_iters=30, tol=0.0, seed=8)
        d = derive_orderings(factors)
        feature_rows = [tuple(row) for row in factors.features]
        for row in d:
            assert tuple(row) in feature_rows


class TestSymmetrize:
    def test_symmetric_input_unchanged(self):
        d = np.array([[1.0, 2.0], [2.0, 3.0]])
        np.testing.assert_array_equal(symmetrize(d), d)

    def test_elementwise_min(self):
        d = np.array([[0.0, 5.0], [3.0, 0.0]])
        np.testing.assert_array_equal(symmetrize(d), [[0.0, 3.0], [3.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            symmetrize(np.ones((2, 3)))

    def test_symmetric_and_idempotent_over_seeded_matrices(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            d = rng.uniform(0, 100, (5, 5))
            out = symmetrize(d)
            np.testing.assert_array_equal(out, out.T)
            np.testing.assert_array_equal(symmetrize(out), out)
            assert np.all(out <= d)


class TestAttributeValues:
    def test_constant_row(self):
        d = np.full((5, 5), 2.0)
        assert attribute_values(d) == {i: 2.0 for i in range(1, 6)}

    def test_zero_matrix(self):
        assert attribute_values(np.zeros((5, 5))) == {i: 0.0 for i in range(1, 6)}

    def test_asymmetric_rejected(self):
        d = np.zeros((5, 5))
        d[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            attribute_values(d)

    def test_matches_row_means(self):
        d = symmetrize(np.random.default_rng(2).uniform(0, 9, (5, 5)))
        values = attribute_values(d)
        for i in range(5):
            assert values[i + 1] == pytest.approx(float(np.mean(d[i])), abs=0)


class TestQuantifyAttribute:
    def corpus(self, seed: int = 13):
        from conftest import synth_corpus

        records, profiles = synth_corpus(150, 12, 2500, seed=seed)
        return learner_table(records, profiles, delta0=6)

    def test_one_learner_corpus_gives_zeros(self):
        table = learner_table(high_ratings({"r": {"u1"}}), {"u1": profile("u1")}, 10)
        details = quantify_nominal(table, PipelineConfig())
        assert list(details) == list(ATTRIBUTES)
        for detail in details.values():
            assert detail.values == {i: 0.0 for i in range(1, 6)}

    def test_deterministic(self):
        table = self.corpus()
        config = PipelineConfig(seed=4)
        d1 = quantify_nominal(table, config)
        d2 = quantify_nominal(table, config)
        assert {a: d.values for a, d in d1.items()} == {a: d.values for a, d in d2.items()}

    def test_attributes_use_derived_seeds(self):
        config = PipelineConfig(seed=4)
        details = quantify_nominal(self.corpus(), config)
        assert (details["strategy"].factors.error_trace[0]
                != details["presentation"].factors.error_trace[0])
        for attribute, seed in (("strategy", 4), ("presentation", 5)):
            detail = details[attribute]
            expected = nmf(detail.cooccurrence, k=config.nmf_k, max_iters=config.nmf_max_iters,
                           tol=config.nmf_tol, seed=seed)
            assert detail.factors.error_trace == expected.error_trace
            np.testing.assert_array_equal(detail.factors.weights, expected.weights)

    def test_values_are_similarity_row_means(self):
        for detail in quantify_nominal(self.corpus(), PipelineConfig()).values():
            for i in range(5):
                assert detail.values[i + 1] == float(np.mean(detail.similarity[i]))

    def test_report_is_json_ready(self):
        import json

        details = quantify_nominal(self.corpus(), PipelineConfig())
        doc = json.loads(json.dumps(quantification_report(details)))
        assert set(doc) == {"strategy", "presentation"}
        for attr in doc:
            assert set(doc[attr]["values"]) == {"1", "2", "3", "4", "5"}
            assert len(doc[attr]["cooccurrence"]) == 5


class TestModuleName:
    """``learntags.quantify`` names the module, not a function in it."""

    def test_submodule_import_binds_the_module(self):
        import learntags
        import learntags.quantify as q

        assert isinstance(q, types.ModuleType)
        assert learntags.quantify is q is quantify_module

    def test_dotted_patch_reaches_the_module(self, monkeypatch):
        seeds = []
        real = quantify_module.nmf_stack

        def recording(*args, **kwargs):
            seeds.extend(kwargs["seeds"])
            return real(*args, **kwargs)

        monkeypatch.setattr("learntags.quantify.nmf_stack", recording)
        profiles = {"u1": profile("u1"), "u2": profile("u2", 2, 3)}
        table = learner_table(high_ratings({"r": {"u1", "u2"}}), profiles, 10)
        quantify_nominal(table, PipelineConfig(seed=7))
        assert seeds == [7, 8]
