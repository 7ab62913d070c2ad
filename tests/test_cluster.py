"""Cluster tests: the learner table's coordinates, normalization,
seeding, Lloyd, k selection and the largest cluster."""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.spatial.distance import cdist

from learntags import (
    Grouping,
    KTraceEntry,
    LearnerProfile,
    LloydFit,
    average_diameter,
    farthest_first_seeds,
    group_rows,
    largest_cluster,
    learner_table,
    normalize,
    sweep_k,
)
import learntags.cluster as cluster_module
from learntags.cluster import _BOUND_MARGIN, _fit_bounds, _repair_empty, _scan
from learntags.ingest import RatingRecord
from learntags.pipeline import PipelineConfig, run

from conftest import (
    group_subsets,
    high_ratings,
    lloyd_kmeans,
    make_blobs,
    reference_average_diameter,
    reference_diameter_bounds,
    reference_farthest_first_seeds,
    reference_lloyd_kmeans,
    reference_open_fits,
    reference_read_fits,
    reference_repair_empty,
    reference_select_k,
    seed_distances,
    synth_corpus,
)

FULL_VALUES = {1: 10.0, 2: 20.0, 3: 24240.0, 4: 40.0, 5: 50.0}
PRES_VALUES = {1: 11.0, 2: 22.0, 3: 33.0, 4: 20549.0, 5: 55.0}


def line(xs: list[float]) -> np.ndarray:
    """Rows spread along the first axis."""
    x = np.zeros((len(xs), 5))
    x[:, 0] = xs
    return x


def lloyd_iters(max_iters: int):
    """Cap the library's Lloyd rounds at ``max_iters``."""
    return mock.patch.object(cluster_module, "LLOYD_MAX_ITERS", max_iters)


def lockstep(x: np.ndarray, seed_rows: list[int], ks: list[int]):
    """Every fit of one subset's rows in one lockstep loop, fit f from the
    first ``ks[f]`` of ``seed_rows``."""
    return cluster_module._lockstep(x, [len(x)], [seed_rows], [ks],
                                    seed_distances(x, seed_rows))[0]


def assert_fits_equal(got, want):
    """Labels, centroids and sse_trace equal, float for float."""
    assert got.labels.tolist() == want.labels.tolist()
    np.testing.assert_array_equal(got.centroids, want.centroids)
    assert repr(got.sse_trace) == repr(want.sse_trace)


def assert_lockstep_matches_reference(x, seed_rows: list[int], ks: list[int],
                                      max_iters: int = 100):
    """Each lockstep fit equals the reference Lloyd's from its seed
    prefix, run alone."""
    x = np.asarray(x, dtype=np.float64)
    with lloyd_iters(max_iters):
        fits = lockstep(x, seed_rows, ks)
    for k, fit in zip(ks, fits):
        assert_fits_equal(fit, reference_lloyd_kmeans(x, seed_rows[:k], max_iters))
    return fits


def assert_same_grouping(got, want):
    """Rows, chosen k, seeds, every fit, the trace, the labels and the
    largest cluster equal, float for float."""
    assert repr(got.x.tolist()) == repr(want.x.tolist())
    assert (got.k, got.seeds, got.largest.tolist()) == (want.k, want.seeds, want.largest.tolist())
    assert len(got.fits) == len(want.fits)
    for fit, expected in zip(got.fits, want.fits):
        assert_fits_equal(fit, expected)
    assert [(e.k, repr(e.sse), repr(e.avg_diameter)) for e in got.trace] == [
        (e.k, repr(e.sse), repr(e.avg_diameter)) for e in want.trace]
    assert got.labels.tolist() == want.labels.tolist()


def assert_sweep_matches_reference(x, k_max=8, gamma=2.0, seed=0, max_iters=100):
    """sweep_k's grouping equals the reference sweep's, field by field."""
    x = np.asarray(x, dtype=np.float64)
    with lloyd_iters(max_iters):
        got = sweep_k(x, k_max, gamma, seed)
    assert_same_grouping(got, reference_select_k(x, k_max, gamma, seed, max_iters))
    return got


def assert_diameters_match_reference(x, labels):
    got = average_diameter(x, np.array(labels))
    assert repr(got) == repr([reference_average_diameter(x, fit) for fit in labels])
    return got


class TestToFeaturePoints:
    """The learner table's coordinates, which embed every subset member once."""

    VALUE_MAPS = {"strategy": FULL_VALUES, "presentation": PRES_VALUES}

    def test_paper_scale_coordinates(self):
        profiles = {"u1": LearnerProfile("u1", 2, 5, 3, 4, 25)}
        table = learner_table(high_ratings({"r": {"u1"}}), profiles, 10)
        assert table.attrs.tolist() == [[2, 5, 3, 4, 25]]
        assert table.coords(self.VALUE_MAPS).tolist() == [[2.0, 5.0, 24240.0, 20549.0, 25.0]]

    def test_empty_subset(self):
        # Rated below delta0 only, "r" has an empty subset and no row.
        table = learner_table([RatingRecord("u1", "r", 5)], {}, 6)
        assert table.ids == [] and table.resources == [] and table.members == []
        assert table.attrs.shape == table.items.shape == (0, 5)
        assert table.coords(self.VALUE_MAPS).shape == (0, 5)

    def test_missing_profile_names_learner(self):
        with pytest.raises(KeyError, match="nobody"):
            learner_table(high_ratings({"r": {"nobody"}}), {}, 10)

    def test_bijective_on_members(self):
        ids = [f"u{i}" for i in range(40)]
        profiles = {lid: LearnerProfile(lid, 1, 2, 1, 1, 5) for lid in ids}
        table = learner_table(high_ratings({"r": ids}), profiles, 10)
        assert table.ids == sorted(ids)
        assert [m.tolist() for m in table.members] == [list(range(len(ids)))]

    def test_rows_follow_learner_ids_across_subsets(self):
        profiles = {lid: LearnerProfile(lid, i % 5 + 1, 6, i % 5 + 1, 5 - i % 5, 10 * i)
                    for i, lid in enumerate(["u3", "u1", "u4", "u0", "u2"])}
        table = learner_table(high_ratings({"b": {"u0", "u3", "u2"}, "a": {"u4", "u1", "u2"}}),
                              profiles, 10)
        assert table.ids == [f"u{i}" for i in range(5)]
        assert table.resources == ["a", "b"]
        assert [m.tolist() for m in table.members] == [[1, 2, 4], [0, 2, 3]]
        coords = table.coords(self.VALUE_MAPS)
        for r, lid in enumerate(table.ids):
            p = profiles[lid]
            assert table.attrs[r].tolist() == [
                p.current_skill, p.target_skill, p.strategy, p.presentation, p.hours]
            assert coords[r].tolist() == [
                p.current_skill, p.target_skill, FULL_VALUES[p.strategy],
                PRES_VALUES[p.presentation], p.hours]
            assert table.items[r, :4].tolist() == [
                p.current_skill, p.target_skill, p.strategy, p.presentation]


class TestNormalization:
    def test_single_point_maps_to_zero(self):
        assert normalize(line([7.0])).tolist() == [[0.0] * 5]

    def test_affine_map(self):
        assert normalize(line([10.0, 20.0, 30.0]))[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            normalize(np.zeros((0, 5)))

    def test_range_and_idempotence(self):
        rng = np.random.default_rng(8)
        once = normalize(rng.uniform(-50, 50, (60, 5)))
        assert np.all((once >= 0.0) & (once <= 1.0))
        np.testing.assert_allclose(normalize(once), once, atol=1e-12)

    def test_empty_point_list(self):
        with pytest.raises(ValueError, match="empty"):
            group_rows(np.zeros((0, 5)), k_max=8, gamma=2.0, seed=0)

    def test_degenerate_dimension_maps_to_zero(self):
        x = np.array([(1.0, 4.0, 2.0, 3.0, 5.0), (3.0, 4.0, 2.0, 7.0, 5.0)])
        assert normalize(x).tolist() == [[0.0] * 5, [1.0, 0.0, 0.0, 1.0, 0.0]]

    @given(
        st.lists(
            st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 5), min_size=1, max_size=20
        ),
    )
    def test_matches_point_by_point(self, coords):
        """The array map equals the per-point formula bit for bit."""
        x = np.array(coords, dtype=np.float64)
        mins = x.min(axis=0)
        spans = x.max(axis=0) - mins
        safe = np.where(spans > 0, spans, 1.0)
        expected = []
        for row in x:
            frac = (row - mins) / safe
            frac[spans == 0] = 0.0
            expected.append([float(v) for v in frac])
        assert repr(normalize(x).tolist()) == repr(expected)


class TestFarthestFirstSeeds:
    @staticmethod
    def seed_starting_at(n: int, index: int) -> int:
        """A seed whose uniform first draw over n rows lands on ``index``."""
        return next(
            s for s in range(1000)
            if int(np.random.default_rng(s).integers(n)) == index
        )

    def test_max_min_on_a_line(self):
        x = line([0.0, 1.0, 10.0])
        seeds = farthest_first_seeds(x, k=2, seed=self.seed_starting_at(3, 0))
        assert [x[i, 0] for i in seeds] == [0.0, 10.0]

    def test_k_equals_n(self):
        seeds = farthest_first_seeds(line([3.0, 1.0, 2.0]), k=3, seed=0)
        assert sorted(seeds) == [0, 1, 2]

    def test_identical_rows_picked_in_row_order(self):
        # Every distance is 0, so after the random first row the ties go
        # to the smallest rows not yet picked.
        seeds = farthest_first_seeds(np.ones((6, 5)), k=6, seed=self.seed_starting_at(6, 3))
        assert seeds == [3, 0, 1, 2, 4, 5]

    def test_k_out_of_range(self):
        x = line([0.0, 1.0])
        with pytest.raises(ValueError, match="insufficient points"):
            farthest_first_seeds(x, k=3, seed=0)
        with pytest.raises(ValueError, match="insufficient points"):
            farthest_first_seeds(x, k=0, seed=0)

    def test_ties_go_to_smallest_row(self):
        # From row 1 (at 0), rows 0, 2 and 3 are all 1 away; row 0 wins.
        x = line([-1.0, 0.0, 1.0, 1.0])
        seeds = farthest_first_seeds(x, k=2, seed=self.seed_starting_at(4, 1))
        assert seeds == [1, 0]
        # Rows 2 and 3 then tie again, at distance 1; row 2 wins.
        assert farthest_first_seeds(x, k=3, seed=self.seed_starting_at(4, 1)) == [1, 0, 2]

    def test_max_min_property_exhaustive(self):
        """Each seed's min-distance to prior seeds beats every alternative."""
        x = np.random.default_rng(123).uniform(0, 1, (100, 5))
        chosen = farthest_first_seeds(x, k=5, seed=42)
        for t in range(1, len(chosen)):
            min_dist = cdist(x, x[chosen[:t]]).min(axis=1)
            picked = min_dist[chosen[t]]
            others = np.delete(np.arange(len(x)), chosen[:t])
            assert picked >= min_dist[others].max() - 1e-12

    def test_deterministic(self):
        x = line(list(np.random.default_rng(4).uniform(0, 9, 30)))
        assert farthest_first_seeds(x, k=4, seed=7) == farthest_first_seeds(x, k=4, seed=7)

    @given(
        st.lists(st.tuples(*[st.integers(0, 2)] * 5), min_size=1, max_size=15),
        st.integers(0, 2**32 - 1),
    )
    def test_seeds_for_k_prefix_seeds_for_larger_k(self, grid, seed):
        """sweep_k relies on this to run one traversal per sweep; grid
        coordinates make many distance ties."""
        x = np.array(grid, dtype=np.float64)
        full = farthest_first_seeds(x, k=len(x), seed=seed)
        for k in range(1, len(x)):
            assert farthest_first_seeds(x, k=k, seed=seed) == full[:k]


class TestLloydKmeans:
    def test_k1_centroid_is_mean(self):
        clustering = lloyd_kmeans(line([0.0, 2.0, 4.0]), [0])
        np.testing.assert_allclose(clustering.centroids[0], [2.0, 0, 0, 0, 0])
        assert set(clustering.labels.tolist()) == {0}

    def test_separated_pairs(self):
        x = np.zeros((4, 5))
        x[:, :2] = [(0.0, 0.0), (0.01, 0.0), (1.0, 1.0), (0.99, 1.0)]
        a = lloyd_kmeans(x, [0, 2]).labels
        assert a[0] == a[1]
        assert a[2] == a[3]
        assert a[0] != a[2]

    def test_sse_trace_monotone(self):
        x = np.random.default_rng(6).uniform(0, 1, (8, 5))
        clustering = lloyd_kmeans(x, farthest_first_seeds(x, k=2, seed=1))
        trace = np.array(clustering.sse_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert clustering.sse == trace[-1]
        assert clustering.sse <= trace[0]

    def test_final_assignment_is_nearest_centroid(self):
        x = np.random.default_rng(16).uniform(0, 1, (50, 5))
        clustering = lloyd_kmeans(x, farthest_first_seeds(x, k=4, seed=3))
        expected = np.argmin(cdist(x, clustering.centroids), axis=1)
        np.testing.assert_array_equal(clustering.labels, expected)

    def test_duplicate_points_terminate(self):
        assert lloyd_kmeans(np.ones((6, 5)), [0, 1]).sse == 0.0


class TestAverageDiameter:
    def test_all_singletons(self):
        x = line([0.0, 5.0, 9.0])
        assert average_diameter(x, [lloyd_kmeans(x, [0, 1, 2]).labels]) == [0.0]

    def test_single_cluster_span(self):
        x = line([0.0, 3.0])
        assert average_diameter(x, [lloyd_kmeans(x, [0]).labels]) == [pytest.approx(3.0)]

    def test_matches_brute_force(self):
        x = np.random.default_rng(9).uniform(0, 1, (40, 5))
        clustering = lloyd_kmeans(x, farthest_first_seeds(x, k=3, seed=2))

        by_cluster: dict[int, list] = {}
        for row, label in zip(x, clustering.labels):
            by_cluster.setdefault(label, []).append(row)
        diams = []
        for members in by_cluster.values():
            best = 0.0
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    best = max(best, float(np.linalg.norm(members[i] - members[j])))
            diams.append(best)
        assert average_diameter(x, [clustering.labels]) == [pytest.approx(float(np.mean(diams)))]

    def test_one_atom(self):
        # Every fit puts all 150 rows in one cluster, under different labels,
        # so the single atom spans three row blocks.
        x = np.random.default_rng(2).uniform(0, 1, (150, 5))
        got = assert_diameters_match_reference(x, [[0] * 150, [4] * 150])
        assert got[0] == got[1] > 0.0

    def test_identical_rows(self):
        x = np.tile([0.5, 1.0, 0.0, 0.0, 2.0], (9, 1))
        assert assert_diameters_match_reference(x, [[0] * 9, [0, 1, 2] * 3]) == [0.0, 0.0]

    def test_every_row_its_own_atom(self):
        x = np.random.default_rng(3).uniform(0, 1, (150, 5))
        got = assert_diameters_match_reference(
            x, [list(range(150)), [r % 7 for r in range(150)], [0] * 150])
        assert got[0] == 0.0

    def test_two_rows(self):
        x = line([1.0, 4.0])
        assert average_diameter(x, [[0, 0], [0, 1], [1, 0]]) == [3.0, 0.0, 0.0]

    def test_one_distance_pass_in_bounded_blocks(self):
        x = np.random.default_rng(4).uniform(0, 1, (200, 5))
        labels = [lloyd_kmeans(x, farthest_first_seeds(x, k, 0)).labels for k in (8, 5, 2, 1)]
        shapes = []

        def spy(a, b):
            shapes.append((len(a), len(b)))
            return cdist(a, b)

        with mock.patch.object(cluster_module, "cdist", spy):
            average_diameter(x, labels)
        block = cluster_module._DIAMETER_BLOCK_ROWS
        assert shapes == [(min(block, 200 - i), 200 - i) for i in range(0, 199, block)]

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            average_diameter(np.zeros((0, 5)), np.zeros((1, 0), dtype=np.intp))

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            average_diameter(line([0.0, 1.0]), [[0, 0], [-1, 0]])

    @pytest.mark.parametrize("labels", [[[0, 0]], [0, 0, 1], [[0, 0, 1, 1]], np.zeros((0, 3))])
    def test_labels_not_fits_by_rows_rejected(self, labels):
        with pytest.raises(ValueError, match=r"labels must be \(fits, 3\)"):
            average_diameter(line([0.0, 1.0, 2.0]), np.asarray(labels, dtype=np.intp))


class TestSelectK:
    def test_identical_points_select_one(self):
        assert sweep_k(np.full((12, 5), 2.0), k_max=4, gamma=2.0, seed=0).k == 1

    def test_two_blobs(self):
        x = make_blobs([(0.0,) * 5, (1.0,) * 5], per_blob=10, sigma=0.01, seed=5)
        assert sweep_k(x, k_max=4, gamma=2.0, seed=1).k == 2

    def test_three_blobs_with_jump_at_merge(self):
        centers = [(0.0,) * 5, (1.0,) * 5, (1.0, 0.0, 1.0, 0.0, 1.0)]
        x = make_blobs(centers, per_blob=12, sigma=0.01, seed=6)
        sweep = sweep_k(x, k_max=8, gamma=2.0, seed=1)
        assert sweep.k == 3

        diam = {e.k: e.avg_diameter for e in sweep.trace}
        assert diam[2] > 2.0 * diam[3]
        for k in range(8, 3, -1):
            assert diam[k - 1] <= 2.0 * diam[k]

    def test_trace_covers_sweep(self):
        sweep = sweep_k(line(list(range(10))), k_max=4, gamma=2.0, seed=0)
        assert [e.k for e in sweep.trace] == [4, 3, 2, 1]

    def test_validation(self):
        x = line([0.0, 1.0])
        with pytest.raises(ValueError, match="no points"):
            sweep_k(np.zeros((0, 5)), k_max=3, gamma=2.0, seed=0)
        with pytest.raises(ValueError, match="k_max"):
            sweep_k(x, k_max=0, gamma=2.0, seed=0)
        with pytest.raises(ValueError, match="gamma"):
            sweep_k(x, k_max=2, gamma=1.0, seed=0)

    def test_deterministic(self):
        x = np.random.default_rng(10).uniform(0, 1, (30, 5))
        assert_same_grouping(sweep_k(x, k_max=6, gamma=2.0, seed=9),
                             sweep_k(x, k_max=6, gamma=2.0, seed=9))

    def test_k_max_twelve_matches_reference(self):
        centers = [tuple(np.random.default_rng(c).uniform(0, 10, 5)) for c in range(14)]
        x = make_blobs(centers, per_blob=6, sigma=0.2, seed=4)
        sweep = assert_sweep_matches_reference(x, k_max=12)
        assert [e.k for e in sweep.trace] == list(range(12, 0, -1))


class TestLargestCluster:
    def test_k1_returns_everyone(self):
        labels = lloyd_kmeans(line([0.0, 1.0, 2.0]), [0]).labels
        assert largest_cluster(labels).tolist() == [True] * 3

    def test_majority_cluster_wins(self):
        labels = lloyd_kmeans(line([0.0, 0.1, 0.2, 0.3, 0.4, 10.0, 10.1]), [0, 5]).labels
        assert largest_cluster(labels).tolist() == [True] * 5 + [False] * 2

    def test_tie_breaks_to_smallest_learner_id(self):
        # Rows are in learner-id order, so the smallest id is the first row.
        labels = lloyd_kmeans(line([0.0, 0.1, 10.0, 10.1]), [2, 0]).labels
        assert labels.tolist() == [1, 1, 0, 0]
        assert largest_cluster(labels).tolist() == [True, True, False, False]

    def test_tie_goes_to_cluster_holding_first_row(self):
        labels = np.array([2, 0, 0, 2, 1, 1])
        assert largest_cluster(labels).tolist() == [True, False, False, True, False, False]
        # The first row sits in a smaller cluster: the tied cluster whose
        # first row comes first wins, empty cluster indexes aside.
        labels = np.array([1, 3, 0, 0, 3])
        assert largest_cluster(labels).tolist() == [False, True, False, False, True]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no points"):
            largest_cluster(np.array([], dtype=np.intp))


class TestGroupRows:
    """The normalize -> sweep -> largest-cluster chain run() relies on."""

    def test_equals_the_stages(self):
        x = np.random.default_rng(12).uniform(0, 50, (30, 5))
        group = group_rows(x, k_max=6, gamma=1.5, seed=4)
        assert_same_grouping(group, sweep_k(normalize(x), 6, 1.5, 4))
        np.testing.assert_array_equal(group.largest, largest_cluster(group.labels))

    def test_one_row_is_its_own_group(self):
        x = np.array([[2.0, 5.0, 1.5, 3.5, 25.0]])
        group = group_rows(x, k_max=8, gamma=2.0, seed=0)
        assert_same_grouping(group, sweep_k(normalize(x), 8, 2.0, 0))
        assert group.x.tolist() == [[0.0] * 5]
        assert (group.k, group.seeds, group.trace) == (1, [0], [KTraceEntry(1, 0.0, 0.0)])
        assert group.largest.tolist() == [True]


class TestSweepEdgeCases:
    """Named corner cases of the k sweep, each checked against the
    reference implementation."""

    def test_repair_reseeds_empty_cluster(self):
        # Seeds 1 and 2 coincide, so cluster 1 starts empty and is reseeded
        # on row 3, the point farthest from its centroid.
        x = [(3, 3, 0, 0, 0), (0, 9, 0, 0, 0), (0, 9, 0, 0, 0), (9, 9, 0, 0, 0)]
        [fit] = assert_lockstep_matches_reference(x, [1, 2, 0], [3])
        assert fit.labels[3] == 1
        assert sorted(set(fit.labels.tolist())) == [0, 1, 2]

    def test_repair_chain_empties_later_cluster(self):
        # Reseeding cluster 0 on row 2 takes the only member of cluster 2,
        # which is then reseeded on the next farthest row.
        x = np.array([[0.0] * 5, [1.0] + [0.0] * 4, [100.0] + [0.0] * 4])
        got = (np.array([1, 1, 2]), np.array([[50.0] + [0.0] * 4, [0.5] + [0.0] * 4,
                                              [90.0] + [0.0] * 4]))
        want = (got[0].copy(), got[1].copy())
        _repair_empty(x, *got)
        reference_repair_empty(x, *want)
        assert got[0].tolist() == want[0].tolist() == [2, 1, 0]
        np.testing.assert_array_equal(got[1], want[1])

    def test_repair_leaves_cluster_empty_on_duplicates(self):
        # Every point sits on centroid 0, so the farthest point is at
        # distance 0 and cluster 1 stays empty.
        [fit] = assert_lockstep_matches_reference(np.ones((6, 5)), [0, 1], [2])
        assert set(fit.labels.tolist()) == {0}
        assert fit.sse == 0.0

    def test_two_points(self):
        sweep = assert_sweep_matches_reference([(0, 0, 0, 0, 0), (1, 2, 0, 0, 0)])
        assert [e.k for e in sweep.trace] == [2, 1]

    def test_fewer_points_than_k_max(self):
        sweep = assert_sweep_matches_reference([(i, i % 2, 0, 0, 0) for i in range(5)], seed=4)
        assert [e.k for e in sweep.trace] == [5, 4, 3, 2, 1]

    def test_all_points_identical(self):
        sweep = assert_sweep_matches_reference(np.full((9, 5), 2.0), k_max=4)
        assert sweep.k == 1
        assert all(e.sse == 0.0 and e.avg_diameter == 0.0 for e in sweep.trace)


class TestLockstep:
    """Named corner cases of running every k's Lloyd in one loop, each
    fit checked against the reference Lloyd's run alone."""

    def test_repair_in_the_round_another_fit_converges(self, monkeypatch):
        # Seed rows 0 and 3 coincide.  In round 1 the k = 3 fit reseeds an
        # empty cluster while the k = 4 fit stops.
        x = [(3, 1, 0, 0, 0), (0, 2, 0, 0, 0), (0, 2, 0, 0, 0), (3, 1, 0, 0, 0), (3, 2, 0, 0, 0)]
        rounds, reseeds = [0], []
        update, repair = cluster_module._update, cluster_module._repair_empty

        def counting_update(*args):
            rounds[0] += 1
            update(*args)

        def logging_repair(x, labels, centroids):
            before = labels.copy()
            repair(x, labels, centroids)
            if not np.array_equal(before, labels):
                reseeds.append((rounds[0], len(centroids)))

        monkeypatch.setattr(cluster_module, "_update", counting_update)
        monkeypatch.setattr(cluster_module, "_repair_empty", logging_repair)
        fits = assert_lockstep_matches_reference(x, [0, 3, 4, 2], [4, 3, 2, 1])
        assert (1, 3) in reseeds
        assert len(fits[0].sse_trace) == 2  # the k = 4 fit stops after round 1
        assert len(fits[1].sse_trace) > 2

    def test_duplicate_rows_leave_clusters_empty(self):
        # Every reseed would be at distance 0, so each fit keeps one cluster.
        fits = assert_lockstep_matches_reference(np.ones((6, 5)), [0, 1, 2, 3], [4, 3, 2, 1])
        for fit in fits:
            assert set(fit.labels.tolist()) == {0}
            assert fit.sse_trace == [0.0, 0.0]

    @pytest.mark.parametrize("max_iters", [1, 100])
    def test_fewer_rows_than_k_max(self, max_iters):
        # The widest fit seeds every row, so its clusters are the rows.
        x = [(0, 0, 0, 0, 0), (2, 0, 0, 0, 0), (2, 1, 0, 0, 0)]
        sweep = assert_sweep_matches_reference(x, k_max=8, max_iters=max_iters)
        assert [e.k for e in sweep.trace] == [3, 2, 1]
        assert sweep.trace[0].sse == sweep.trace[0].avg_diameter == 0.0

    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    def test_capped_fits_beside_converged_ones(self, max_iters):
        # Uncapped, the fits for k = 8..1 stop after 1, 1, 2, 2, 2, 2, 5
        # and 1 rounds, so every cap here stops some fits and not others.
        x = np.random.default_rng(5).uniform(0, 1, (20, 5))
        ks, seeds = list(range(8, 0, -1)), farthest_first_seeds(x, 8, 0)
        capped = [len(fit.sse_trace) > max_iters + 1 for fit in lockstep(x, seeds, ks)]
        assert any(capped) and not all(capped)
        fits = assert_lockstep_matches_reference(x, seeds, ks, max_iters)
        assert max(len(fit.sse_trace) for fit in fits) == max_iters + 1
        assert_sweep_matches_reference(x, seed=0, max_iters=max_iters)

    @pytest.mark.parametrize("second", [(0, 0, 0, 0, 0), (1, 2, 0, 0, 0)])
    def test_two_rows(self, second):
        x = [(0, 0, 0, 0, 0), second]
        sweep = assert_sweep_matches_reference(x)
        assert [e.k for e in sweep.trace] == [2, 1]
        assert_lockstep_matches_reference(x, [1, 0], [2, 1])


row_strategies = (
    # tie-heavy grid coordinates
    st.tuples(*[st.integers(0, 2)] * 5),
    st.tuples(*[st.floats(-100, 100, allow_nan=False)] * 5),
)
rows_strategy = st.one_of(*(st.lists(row, min_size=1, max_size=25) for row in row_strategies))


class TestMatchesReference:
    @given(rows_strategy, st.integers(1, 8), st.floats(1.0, 4.0, exclude_min=True),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 100]))
    def test_select_k(self, rows, k_max, gamma, seed, max_iters):
        """Small ``max_iters`` caps some lockstep fits while others converge."""
        x = np.array(rows, dtype=np.float64)
        assert_sweep_matches_reference(x, k_max, gamma, seed, max_iters)
        k = min(k_max, len(x))
        assert farthest_first_seeds(x, k, seed) == reference_farthest_first_seeds(x, k, seed)

    # Shrinking a failing example here ran for minutes, so a regression
    # looked like a hung job; unshrunk, it fails within seconds.
    @settings(phases=[p for p in Phase if p is not Phase.shrink])
    @given(rows_strategy, st.data())
    def test_lloyd_kmeans(self, rows, data):
        """Arbitrary seed rows, so duplicate seeds and empty clusters are common."""
        seed_rows = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                                       max_size=min(len(rows), 8), unique=True))
        assert_lockstep_matches_reference(rows, seed_rows, [len(seed_rows)])

    @given(st.data(), st.sampled_from([1, 3, cluster_module._DIAMETER_BLOCK_ROWS]))
    def test_average_diameter(self, data, block):
        """Rows drawn from a small pool repeat, labels up to 5 leave
        clusters empty, and row blocks of 1 and 3 cut atoms at block edges."""
        pool = data.draw(rows_strategy)
        x = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30)),
                     dtype=np.float64)
        labels = data.draw(st.lists(
            st.lists(st.integers(0, 5), min_size=len(x), max_size=len(x)),
            min_size=1, max_size=4))
        with mock.patch.object(cluster_module, "_DIAMETER_BLOCK_ROWS", block):
            assert_diameters_match_reference(x, labels)


def reference_group_rows(coords: np.ndarray, k_max: int, gamma: float, seed: int,
                         max_iters: int) -> Grouping:
    """Normalize one subset's rows and sweep them alone with the reference."""
    return reference_select_k(normalize(coords), k_max, gamma, seed, max_iters)


class TestSharedSweep:
    """group_batches, whose subsets share their rounds, against the
    reference that sweeps each subset alone."""

    # No deadline: an edit of this class can draw examples that run past
    # hypothesis's default 200 ms on a loaded machine.
    @settings(phases=[p for p in Phase if p is not Phase.shrink], deadline=None)
    @given(st.data())
    def test_matches_sweeping_each_subset_alone(self, data):
        """Subsets draw their rows, with repeats, from one small table, so
        they share learners and hold duplicate rows (empty-cluster repair,
        reseeds at distance 0) and grid ties; some are smaller than k_max,
        and a small budget cuts the subsets into several batches."""
        table = data.draw(st.one_of(*(st.lists(row, min_size=1, max_size=40)
                                      for row in row_strategies)))
        coords = np.array(table, dtype=np.float64)
        members = [np.array(rows) for rows in data.draw(st.lists(
            st.lists(st.integers(0, len(table) - 1), min_size=1, max_size=80),
            min_size=1, max_size=12))]
        k_max = data.draw(st.integers(1, 8))
        gamma = data.draw(st.floats(1.0, 4.0, exclude_min=True))
        seed = data.draw(st.integers(0, 2**32 - 1))
        max_iters = data.draw(st.sampled_from([1, 2, 3, 100]))
        budget = data.draw(st.sampled_from([1, 60, 400, cluster_module._BATCH_FIT_ROWS]))
        with mock.patch.object(cluster_module, "_BATCH_FIT_ROWS", budget), lloyd_iters(max_iters):
            groups = list(group_subsets(coords, members, k_max, gamma, seed))
        assert len(groups) == len(members)
        for rows, group in zip(members, groups):
            assert_same_grouping(
                group, reference_group_rows(coords[rows], k_max, gamma, seed, max_iters))

    def test_batches_fill_the_budget_in_order(self):
        # Fit rows: 5 * 5, 3 * 3, 40 * 8, 9 * 8 and 1.
        with mock.patch.object(cluster_module, "_BATCH_FIT_ROWS", 100):
            batches = list(cluster_module._batches([5, 3, 40, 9, 1], k_max=8))
        assert batches == [[0, 1], [2], [3, 4]]

    def test_batches_are_swept_as_they_are_read(self, monkeypatch):
        """Only the batch being read is held, so memory is bounded by one."""
        calls = []
        sweeps = cluster_module._sweeps
        monkeypatch.setattr(cluster_module, "_BATCH_FIT_ROWS", 1)
        monkeypatch.setattr(cluster_module, "_sweeps",
                            lambda x, *args: calls.append(len(x)) or sweeps(x, *args))
        coords = np.random.default_rng(3).uniform(0, 1, (30, 5))
        groups = group_subsets(coords, [np.arange(10), np.arange(5, 30)], 8, 2.0, 0)
        next(groups)
        assert calls == [10]
        next(groups)
        assert calls == [10, 25]

    def test_empty_subset_rejected_by_index(self):
        """Rejected as the generator starts, before the subsets ahead of it
        in its batch are grouped."""
        coords = np.random.default_rng(1).uniform(0, 1, (6, 5))
        groups = group_subsets(coords, [np.arange(3), np.arange(0), np.arange(2, 6)], 8, 2.0, 0)
        with pytest.raises(ValueError, match="subset 1 is empty"):
            next(groups)

    def test_group_rows_is_the_one_subset_case(self):
        coords = np.random.default_rng(9).uniform(0, 50, (40, 5))
        rows = [np.arange(0, 40, 2), np.arange(1, 40, 3), np.arange(40)]
        for r, group in zip(rows, group_subsets(coords, rows, 6, 1.5, 2)):
            assert_same_grouping(group_rows(coords[r], 6, 1.5, 2), group)


def assert_one_batch_matches_reference(coords, members, k_max, gamma=2.0, seed=0):
    """The subsets form one batch, and each grouping equals the reference
    sweep of its subset alone."""
    [groups] = cluster_module.group_batches(coords, members, k_max, gamma, seed)
    assert len(groups) == len(members)
    for rows, group in zip(members, groups):
        assert_same_grouping(group, reference_group_rows(coords[rows], k_max, gamma, seed, 100))
        np.testing.assert_array_equal(group.largest, largest_cluster(group.labels))
    return groups


class TestBatchSetUpAndFinish:
    """Named cases of a batch's shared set-up and finish: one normalization
    pass, round 0 labelled from the traversal's distances and every
    chosen fit's largest cluster from the bound sort."""

    def test_duplicate_seed_leaves_round_zero_clusters_empty(self, monkeypatch):
        # Three distinct rows and k = 5: the traversal's last two seeds are
        # duplicates at distance 0, so round 0 leaves their clusters empty
        # and the repair, with nothing farther than 0, keeps them empty.
        coords = np.concatenate([line([0.0, 0.0, 1.0, 1.0, 3.0, 3.0]),
                                 np.random.default_rng(2).uniform(0, 1, (10, 5))])
        rounds, repairs = [0], []
        update, repair = cluster_module._update, cluster_module._repair_empty

        def counting_update(*args):
            rounds[0] += 1
            update(*args)

        def logging_repair(x, labels, centroids):
            repairs.append((rounds[0], len(centroids)))
            repair(x, labels, centroids)

        monkeypatch.setattr(cluster_module, "_update", counting_update)
        monkeypatch.setattr(cluster_module, "_repair_empty", logging_repair)
        group, _ = assert_one_batch_matches_reference(
            coords, [np.arange(6), np.arange(6, 16)], k_max=5)
        assert len({tuple(group.x[s]) for s in group.seeds}) == 3 < len(group.seeds) == 5
        assert {(0, 5), (0, 4)} <= set(repairs)
        assert len(set(group.fits[0].labels.tolist())) == 3

    def test_tied_largest_clusters_take_the_one_holding_the_smallest_row(self):
        # The middle subset chooses k = 2 with two clusters of four rows;
        # the one holding its first row has label 1, not 0.
        tied = line([10.0, 0.0, 10.2, 0.3, 10.1, 0.1, 10.4, 0.2])
        coords = np.concatenate([np.random.default_rng(5).uniform(0, 1, (12, 5)), tied])
        members = [np.arange(7), np.arange(12, 20), np.arange(3, 12)]
        _, group, _ = assert_one_batch_matches_reference(coords, members, k_max=2, seed=1)
        assert group.k == 2
        assert np.bincount(group.labels).tolist() == [4, 4]
        assert group.labels[0] == 1
        assert group.largest.tolist() == [True, False] * 4

    def test_small_subset_beside_a_zero_span_column(self):
        # A subset of three rows sweeps from k = 3 beside one whose last
        # column is constant, which normalizes to 0.0 as normalize does.
        coords = np.random.default_rng(7).uniform(0, 50, (30, 5))
        coords[10:, 4] = 7.0
        members = [np.array([4, 0, 8]), np.arange(10, 30)]
        small, flat = assert_one_batch_matches_reference(coords, members, k_max=8)
        assert len(small.fits) == 3
        assert flat.x[:, 4].tolist() == [0.0] * 20


@pytest.fixture
def diameter_calls(monkeypatch):
    """The label arrays each ``cluster.average_diameter`` call is given."""
    calls = []
    measure = cluster_module.average_diameter

    def spy(x, labels):
        calls.append(np.asarray(labels).tolist())
        return measure(x, labels)

    monkeypatch.setattr(cluster_module, "average_diameter", spy)
    return calls


def first_exact_jump(group: Grouping, gamma: float) -> int:
    """The k the jump rule picks from the exact trace."""
    trace = group.trace
    return next((e.k for e, after in zip(trace, trace[1:])
                 if after.avg_diameter > gamma * e.avg_diameter), 1)


def farthest_bounds(x: np.ndarray, labels) -> list[float]:
    """The library's farthest-member lower bound of each fit of the rows
    of ``x``, fits given by their labels."""
    fits = [LloydFit(np.empty((0, x.shape[1])), np.asarray(fit), []) for fit in labels]
    return _fit_bounds(x, [len(x)], [fits])[0]


def two_tier_scan(group: Grouping, gamma: float) -> tuple[int | None, set[int]]:
    """The oracle's two bound tiers: span and diagonal bounds for every
    fit, then the farthest-member lower bound for the fits of the steps
    those leave open.  Returns the first step they settle as a jump, if
    any, and the fits of the steps above it they leave open."""
    bounds = [reference_diameter_bounds(group.x, f.labels) for f in group.fits]
    for j in reference_open_fits(bounds, gamma):
        low = reference_diameter_bounds(group.x, group.fits[j].labels, farthest=True)[0]
        bounds[j] = (low, bounds[j][1])
    jump = next((i for i, ((_, high), (low_after, _)) in enumerate(zip(bounds, bounds[1:]))
                 if low_after > gamma * high * (1 + _BOUND_MARGIN)), None)
    return jump, reference_open_fits(bounds, gamma)


class TestBoundedRule:
    """The jump rule settled by diameter bounds where they clear the
    threshold, and read from exact diameters only where they do not."""

    @settings(deadline=None)
    @given(rows_strategy, st.sampled_from([1.0, 1e-160, 1e-310]), st.integers(1, 8),
           st.floats(1.0, 4.0, exclude_min=True), st.integers(0, 2**32 - 1))
    def test_chosen_k_is_the_first_jump_of_the_exact_trace(self, rows, scale, k_max, gamma,
                                                           seed):
        """Tiny scales give spans whose squares are subnormal or underflow."""
        group = sweep_k(np.array(rows, dtype=np.float64) * scale, k_max, gamma, seed)
        assert group.k == first_exact_jump(group, gamma)

    def test_duplicate_rows(self, diameter_calls):
        # Two points, five rows each: every fit above k = 1 has clusters of
        # one point, diameter 0, so the step to k = 1 is a jump.
        x = line([0.0] * 5 + [1.0] * 5)
        group = assert_sweep_matches_reference(x, k_max=4)
        assert group.k == 2
        assert diameter_calls == [[fit.labels.tolist() for fit in group.fits]]  # the trace

    @pytest.mark.parametrize("gap, k", [(1e-6, 3), (1e-200, 2)])
    def test_zero_diameter_cluster(self, gap, k):
        # At k = 3 every cluster is one row, so any positive diameter at
        # k = 2, where the first two rows merge, is a jump.  A gap of 1e-200
        # squares to 0, so its distance reads 0 and the jump comes at 2 -> 1.
        x = line([0.0, gap, 1.0])
        group = assert_sweep_matches_reference(x, k_max=3, gamma=2.0)
        assert group.k == k

    @pytest.mark.parametrize("gamma, k", [(4.0, 1), (np.nextafter(4.0, 0.0), 2)])
    def test_step_inside_the_margin_is_read_exactly(self, diameter_calls, gamma, k):
        # Rows on a line have spans, farthest-member distances and diameters
        # all equal: 1 at k = 2 and 4 at k = 1.  At gamma 4 the step sits on
        # the threshold, so no bound clears it by the margin and both fits
        # are read exactly.
        x = line([0.0, 1.0, 3.0, 4.0])
        with lloyd_iters(100):
            group = sweep_k(x, 2, gamma, 0)
        assert diameter_calls == [[fit.labels.tolist() for fit in group.fits]]
        assert group.k == k == first_exact_jump(group, gamma)
        assert [e.avg_diameter for e in group.trace] == [1.0, 4.0]

    def test_well_separated_subset_reads_no_diameter(self, diameter_calls):
        # Three blobs whose rows differ only in the first column, where
        # every cluster's span is its diameter.
        x = make_blobs([(0,) * 5, (10,) + (0,) * 4, (0, 10, 0, 0, 0)], 12, 0.1, 3)
        x[:, 1:] = x[:, 1:].round()
        group = group_rows(x, k_max=8, gamma=2.0, seed=1)
        assert diameter_calls == []
        assert group.k == 3 == first_exact_jump(group, 2.0)

    @settings(deadline=None)
    @given(rows_strategy, st.sampled_from([1.0, 1e-160, 1e-310]), st.data())
    def test_farthest_bound_lies_between_span_bound_and_diameter(self, rows, scale, data):
        """Tiny scales give spans whose squares are subnormal or underflow.
        The library's per-cluster bounds are the oracle's; its mean adds
        them in another order, which the rule's margin absorbs."""
        x = np.array(rows, dtype=np.float64) * scale
        labels = data.draw(st.lists(st.integers(0, 7), min_size=len(x), max_size=len(x)))
        bound = reference_diameter_bounds(x, labels, farthest=True)[0]
        assert reference_diameter_bounds(x, labels)[0] <= bound
        assert bound <= reference_average_diameter(x, labels)
        assert farthest_bounds(x, [labels]) == [pytest.approx(bound, rel=1e-12, abs=0)]

    @settings(deadline=None)
    @given(st.lists(rows_strategy, min_size=1, max_size=4),
           st.sampled_from([1.0, 1e-160, 1e-310]), st.integers(1, 8),
           st.floats(1.0, 4.0, exclude_min=True), st.integers(0, 2**32 - 1))
    def test_batch_bounds_are_the_oracles_and_settle_what_two_tiers_do(
            self, subsets, scale, k_max, gamma, seed):
        """Every fit of a batch gets the oracle's farthest-member and
        diagonal bounds, which bracket its exact diameter; the library
        averages them in another order.  One bounded scan per subset then
        settles the same jump and leaves the same steps open as the
        oracle's two tiers, which raise the lower bounds of only the fits
        the span and diagonal bounds leave open."""
        xs = [np.array(rows, dtype=np.float64) * scale for rows in subsets]
        x, sizes = np.concatenate(xs), list(map(len, xs))
        groups = cluster_module._sweeps(x, sizes, k_max, gamma, seed)
        low, high, _ = _fit_bounds(x, sizes, [g.fits for g in groups])
        first = 0
        for group in groups:
            lo, hi = low[first:first + len(group.fits)], high[first:first + len(group.fits)]
            first += len(group.fits)
            for fit, bounds in zip(group.fits, zip(lo, hi)):
                want = reference_diameter_bounds(group.x, fit.labels, farthest=True)
                assert bounds == pytest.approx(want, rel=1e-12, abs=0)
                diameter = reference_average_diameter(group.x, fit.labels)
                assert bounds[0] <= diameter * (1 + 1e-12)
                assert diameter <= bounds[1] * (1 + 1e-12)
            jump, open_steps = _scan(lo, hi, gamma, _BOUND_MARGIN)
            read = {j for i in open_steps for j in (i, i + 1)}
            assert (jump, read) == two_tier_scan(group, gamma)

    def test_one_row_cluster_bounds_zero(self):
        # Clusters {0} and {3, 4} bound 0 and 1; three clusters of one row, 0.
        x = line([0.0, 3.0, 4.0])
        assert farthest_bounds(x, [[0, 1, 1], [0, 1, 2]]) == [0.5, 0.0]
        assert reference_diameter_bounds(x, [0, 1, 1], farthest=True)[0] == 0.5

    def test_duplicate_rows_bound_the_diameter(self):
        # The first row's duplicates lie at distance 0 and its farthest
        # member across the diagonal: the bound is the diameter, sqrt(2),
        # where the largest span is 1.
        x = np.zeros((5, 5))
        x[2:4, :2] = 1.0
        labels = [0] * 5
        assert farthest_bounds(x, [labels]) == [math.sqrt(2)]
        assert reference_average_diameter(x, labels) == math.sqrt(2)
        assert reference_diameter_bounds(x, labels)[0] == 1.0

    def test_uniform_subset_settles_its_last_step_without_a_read(self, diameter_calls):
        # Uniform rows: the span and diagonal bounds leave the k = 2 -> 1
        # step open, and the farthest-member bound settles it.
        x = np.random.default_rng(1).random((30, 5))
        group = group_rows(x, k_max=8, gamma=2.0, seed=0)
        bounds = [reference_diameter_bounds(group.x, f.labels) for f in group.fits]
        assert len(group.fits) - 1 in reference_open_fits(bounds, 2.0)
        assert diameter_calls == []
        assert group.k == 1 == first_exact_jump(group, 2.0)

    def test_some_fits_passed_alone_keep_their_bounds(self):
        """Slots are as wide as the largest label, not as the most fits of
        a subset, so fits passed alone keep the bounds they have in the
        full batch."""
        rng = np.random.default_rng(4)
        xs = [rng.random((n, 5)) for n in (9, 3, 14)]
        fits = [sweep_k(rows, 8, 2.0, 0).fits for rows in xs]
        picks = [[1, 5], [], [0, 2, 3]]            # by index in each subset's fits
        ids = [first + i for first, subset_picks in zip(np.cumsum([0, 8, 3]), picks)
               for i in subset_picks]
        x, sizes = np.concatenate(xs), [len(rows) for rows in xs]
        alone = _fit_bounds(x, sizes, [[f[i] for i in p] for f, p in zip(fits, picks)])
        assert alone == tuple([bound[i] for i in ids] for bound in _fit_bounds(x, sizes, fits))

    def test_run_reads_only_the_open_steps(self, diameter_calls, monkeypatch):
        """Without a trace hook, each subset's one distance pass gets the
        fits of the steps the oracle's two bound tiers leave open, and none
        when they settle it.  At gamma 1.5 the farthest-member bound
        settles some of the steps the span and diagonal bounds leave open,
        not all."""
        groups = run_groups(monkeypatch, 1.5)
        calls = list(diameter_calls)
        read = [reference_read_fits(g, 1.5) for g in groups]
        assert calls == [[g.fits[j].labels.tolist() for j in fits]
                         for g, fits in zip(groups, read) if fits]
        assert 0 < sum(map(len, calls)) < sum(map(len, open_fits(groups, 1.5)))

    def test_run_at_the_default_gamma_reads_no_diameter(self, diameter_calls, monkeypatch):
        """At gamma 2 the farthest-member bound settles every step of the
        corpus that the span and diagonal bounds leave open."""
        groups = run_groups(monkeypatch, 2.0)
        assert diameter_calls == []
        assert [reference_read_fits(g, 2.0) for g in groups] == [[] for _ in groups]
        assert any(open_fits(groups, 2.0))


def run_groups(monkeypatch, gamma: float) -> list[Grouping]:
    """The groupings of a run at ``gamma`` on a small synthetic corpus."""
    groups = []
    batches = cluster_module.group_batches

    def keep(*args):
        for batch in batches(*args):
            groups.extend(batch)
            yield batch

    monkeypatch.setattr("learntags.pipeline.group_batches", keep)
    run(PipelineConfig(seed=5, gamma=gamma), *synth_corpus(200, 12, 4000, seed=2))
    return groups


def open_fits(groups: list[Grouping], gamma: float) -> list[set[int]]:
    """Each grouping's fits of the steps its span and diagonal bounds leave open."""
    return [reference_open_fits([reference_diameter_bounds(g.x, f.labels) for f in g.fits],
                                gamma) for g in groups]
