"""Cluster tests: embedding, normalization, seeding, Lloyd, k selection."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.spatial.distance import cdist

from learntags import (
    LearnerProfile,
    apply_normalization,
    average_diameter,
    farthest_first_seeds,
    fit_normalization,
    largest_cluster,
    lloyd_kmeans,
    select_k,
    to_feature_points,
)
from learntags.cluster import Clustering, FeaturePoint, NormalizationSpec, _repair_empty
from learntags.ingest import LearnerSubset

from conftest import (
    reference_farthest_first_seeds,
    reference_lloyd_kmeans,
    reference_repair_empty,
    reference_select_k,
)

FULL_VALUES = {1: 10.0, 2: 20.0, 3: 24240.0, 4: 40.0, 5: 50.0}
PRES_VALUES = {1: 11.0, 2: 22.0, 3: 33.0, 4: 20549.0, 5: 55.0}


def line_points(xs: list[float]) -> list[FeaturePoint]:
    return [
        FeaturePoint(f"u{i:02d}", (float(x), 0.0, 0.0, 0.0, 0.0))
        for i, x in enumerate(xs)
    ]


def coords_array(points: list[FeaturePoint]) -> np.ndarray:
    return np.array([p.coords for p in points])


def clustering_of(points: list[FeaturePoint], seed_rows: list[int]) -> Clustering:
    """Lloyd on the points' coordinates, keyed back to learner ids."""
    fit = lloyd_kmeans(coords_array(points), seed_rows)
    assignment = {p.learner_id: int(j) for p, j in zip(points, fit.labels)}
    return Clustering(len(seed_rows), fit.centroids, assignment, fit.sse, fit.sse_trace)


def grid_points(grid, reverse_ids: bool = False) -> list[FeaturePoint]:
    """Points from coordinate tuples; ``reverse_ids`` makes the learner ids
    descend along the list, so id tie-breaks differ from row order."""
    n = len(grid)
    return [
        FeaturePoint(f"u{n - 1 - i if reverse_ids else i:02d}", tuple(float(c) for c in coords))
        for i, coords in enumerate(grid)
    ]


def assert_lloyd_matches_reference(points: list[FeaturePoint], seed_rows: list[int]):
    """Labels, centroids and sse_trace equal the point-by-point Lloyd's."""
    fit = lloyd_kmeans(coords_array(points), seed_rows)
    want = reference_lloyd_kmeans(points, [points[i] for i in seed_rows])
    assert {p.learner_id: j for p, j in zip(points, fit.labels.tolist())} == want.assignment
    np.testing.assert_array_equal(fit.centroids, want.centroids)
    assert repr(fit.sse_trace) == repr(want.sse_trace)
    return fit


def assert_sweep_matches_reference(points, k_max=8, gamma=2.0, seed=0):
    """Every trace entry, float for float, and the chosen clustering equal
    the point-by-point sweep's."""
    got = select_k(points, k_max, gamma, seed)
    want = reference_select_k(points, k_max, gamma, seed)
    assert [(e.k, repr(e.sse), repr(e.avg_diameter)) for e in got.trace] == [
        (e.k, repr(e.sse), repr(e.avg_diameter)) for e in want.trace
    ]
    assert got.clustering.k == want.clustering.k
    assert got.clustering.assignment == want.clustering.assignment
    np.testing.assert_array_equal(got.clustering.centroids, want.clustering.centroids)
    assert repr(got.clustering.sse_trace) == repr(want.clustering.sse_trace)
    return got


class TestToFeaturePoints:
    def test_paper_scale_coordinates(self):
        profiles = {"u1": LearnerProfile("u1", 2, 5, 3, 4, 25)}
        subset = LearnerSubset("r", frozenset({"u1"}))
        (point,) = to_feature_points(subset, profiles, FULL_VALUES, PRES_VALUES)
        assert point.coords == (2.0, 5.0, 24240.0, 20549.0, 25.0)

    def test_empty_subset(self):
        assert to_feature_points(
            LearnerSubset("r", frozenset()), {}, FULL_VALUES, PRES_VALUES
        ) == []

    def test_missing_profile_names_learner(self):
        subset = LearnerSubset("r", frozenset({"nobody"}))
        with pytest.raises(KeyError, match="nobody"):
            to_feature_points(subset, {}, FULL_VALUES, PRES_VALUES)

    def test_bijective_on_members(self):
        ids = [f"u{i}" for i in range(40)]
        profiles = {lid: LearnerProfile(lid, 1, 2, 1, 1, 5) for lid in ids}
        subset = LearnerSubset("r", frozenset(ids))
        points = to_feature_points(subset, profiles, FULL_VALUES, PRES_VALUES)
        assert sorted(p.learner_id for p in points) == sorted(ids)
        assert len(points) == len(subset.members)


class TestNormalization:
    def test_single_point_maps_to_zero(self):
        points = line_points([7.0])
        out = apply_normalization(points, fit_normalization(points))
        assert out[0].coords == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_affine_map(self):
        points = line_points([10.0, 20.0, 30.0])
        out = apply_normalization(points, fit_normalization(points))
        assert [p.coords[0] for p in out] == [0.0, 0.5, 1.0]

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_normalization([])

    def test_range_and_idempotence(self):
        rng = np.random.default_rng(8)
        points = [
            FeaturePoint(f"u{i}", tuple(rng.uniform(-50, 50, 5)))
            for i in range(60)
        ]
        once = apply_normalization(points, fit_normalization(points))
        x = coords_array(once)
        assert np.all((x >= 0.0) & (x <= 1.0))
        twice = apply_normalization(once, fit_normalization(once))
        np.testing.assert_allclose(coords_array(twice), x, atol=1e-12)

    def test_empty_point_list(self):
        spec = NormalizationSpec(mins=(0.0,) * 5, maxs=(1.0,) * 5)
        assert apply_normalization([], spec) == []

    def test_degenerate_dimension_maps_to_zero(self):
        points = [
            FeaturePoint("a", (1.0, 4.0, 2.0, 3.0, 5.0)),
            FeaturePoint("b", (3.0, 4.0, 2.0, 7.0, 5.0)),
        ]
        out = apply_normalization(points, fit_normalization(points))
        assert [p.coords for p in out] == [(0.0,) * 5, (1.0, 0.0, 0.0, 1.0, 0.0)]
        off_min = FeaturePoint("c", (3.0, 9.0, 0.0, 0.0, 0.0))
        spec = NormalizationSpec(mins=(0.0, 5.0, 0.0, 0.0, 0.0), maxs=(10.0, 5.0, 1.0, 1.0, 1.0))
        assert apply_normalization([off_min], spec)[0].coords == (0.3, 0.0, 0.0, 0.0, 0.0)

    @given(
        st.lists(
            st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 5), min_size=1, max_size=20
        ),
        st.integers(1, 20),
    )
    def test_matches_point_by_point(self, coords, fit_on):
        """The array map equals the per-point formula bit for bit, also for
        points outside the range the spec was fitted on."""
        points = grid_points(coords)
        spec = fit_normalization(points[:fit_on])
        mins = np.array(spec.mins)
        spans = np.array(spec.maxs) - mins
        safe = np.where(spans > 0, spans, 1.0)
        expected = []
        for p in points:
            frac = (np.array(p.coords) - mins) / safe
            frac[spans == 0] = 0.0
            expected.append((p.learner_id, tuple(float(v) for v in frac)))
        out = apply_normalization(points, spec)
        assert repr([(p.learner_id, p.coords) for p in out]) == repr(expected)


class TestFarthestFirstSeeds:
    @staticmethod
    def seed_starting_at(points, index: int) -> int:
        """A seed whose uniform first draw lands on ``index``."""
        n = len(points)
        return next(
            s for s in range(1000)
            if int(np.random.default_rng(s).integers(n)) == index
        )

    def test_max_min_on_a_line(self):
        points = line_points([0.0, 1.0, 10.0])
        seed = self.seed_starting_at(points, 0)
        seeds = farthest_first_seeds(points, k=2, seed=seed)
        assert [points[i].coords[0] for i in seeds] == [0.0, 10.0]

    def test_k_equals_n(self):
        points = line_points([3.0, 1.0, 2.0])
        seeds = farthest_first_seeds(points, k=3, seed=0)
        assert {points[i].learner_id for i in seeds} == {p.learner_id for p in points}

    def test_k_out_of_range(self):
        points = line_points([0.0, 1.0])
        with pytest.raises(ValueError, match="insufficient points"):
            farthest_first_seeds(points, k=3, seed=0)
        with pytest.raises(ValueError, match="insufficient points"):
            farthest_first_seeds(points, k=0, seed=0)

    def test_max_min_property_exhaustive(self):
        """Each seed's min-distance to prior seeds beats every alternative."""
        rng = np.random.default_rng(123)
        points = [
            FeaturePoint(f"u{i:03d}", tuple(rng.uniform(0, 1, 5)))
            for i in range(100)
        ]
        x = coords_array(points)
        chosen = farthest_first_seeds(points, k=5, seed=42)
        for t in range(1, len(chosen)):
            prior = x[chosen[:t]]
            min_dist = cdist(x, prior).min(axis=1)
            picked = min_dist[chosen[t]]
            others = np.delete(np.arange(len(points)), chosen[:t])
            assert picked >= min_dist[others].max() - 1e-12

    def test_deterministic(self):
        points = line_points(list(np.random.default_rng(4).uniform(0, 9, 30)))
        a = farthest_first_seeds(points, k=4, seed=7)
        b = farthest_first_seeds(points, k=4, seed=7)
        assert a == b

    @given(
        st.lists(st.tuples(*[st.integers(0, 2)] * 5), min_size=1, max_size=15),
        st.integers(0, 2**32 - 1),
    )
    def test_seeds_for_k_prefix_seeds_for_larger_k(self, grid, seed):
        """select_k relies on this to run one traversal per sweep; grid
        coordinates make many distance ties."""
        points = [
            FeaturePoint(f"u{i:02d}", tuple(float(c) for c in coords))
            for i, coords in enumerate(grid)
        ]
        full = farthest_first_seeds(points, k=len(points), seed=seed)
        for k in range(1, len(points)):
            assert farthest_first_seeds(points, k=k, seed=seed) == full[:k]


class TestLloydKmeans:
    def test_k1_centroid_is_mean(self):
        points = line_points([0.0, 2.0, 4.0])
        clustering = lloyd_kmeans(coords_array(points), [0])
        np.testing.assert_allclose(clustering.centroids[0], [2.0, 0, 0, 0, 0])
        assert set(clustering.labels.tolist()) == {0}

    def test_separated_pairs(self):
        coords = [
            (0.0, 0.0), (0.01, 0.0), (1.0, 1.0), (0.99, 1.0),
        ]
        points = [
            FeaturePoint(f"u{i}", c + (0.0, 0.0, 0.0)) for i, c in enumerate(coords)
        ]
        a = lloyd_kmeans(coords_array(points), [0, 2]).labels
        assert a[0] == a[1]
        assert a[2] == a[3]
        assert a[0] != a[2]

    def test_sse_trace_monotone(self):
        rng = np.random.default_rng(6)
        points = [
            FeaturePoint(f"u{i}", tuple(rng.uniform(0, 1, 5))) for i in range(8)
        ]
        seeds = farthest_first_seeds(points, k=2, seed=1)
        clustering = lloyd_kmeans(coords_array(points), seeds)
        trace = np.array(clustering.sse_trace)
        assert np.all(np.diff(trace) <= 1e-12)
        assert clustering.sse == trace[-1]
        assert clustering.sse <= trace[0]

    def test_final_assignment_is_nearest_centroid(self):
        rng = np.random.default_rng(16)
        points = [
            FeaturePoint(f"u{i:02d}", tuple(rng.uniform(0, 1, 5))) for i in range(50)
        ]
        seeds = farthest_first_seeds(points, k=4, seed=3)
        clustering = lloyd_kmeans(coords_array(points), seeds)
        dist = cdist(coords_array(points), clustering.centroids)
        expected = np.argmin(dist, axis=1)
        np.testing.assert_array_equal(clustering.labels, expected)

    def test_duplicate_points_terminate(self):
        points = [FeaturePoint(f"u{i}", (1.0,) * 5) for i in range(6)]
        clustering = lloyd_kmeans(coords_array(points), [0, 1])
        assert clustering.sse == 0.0

    def test_duplicate_seeds_rejected(self):
        points = line_points([0.0, 1.0])
        with pytest.raises(ValueError, match="distinct"):
            lloyd_kmeans(coords_array(points), [0, 0])


class TestAverageDiameter:
    def test_all_singletons(self):
        x = coords_array(line_points([0.0, 5.0, 9.0]))
        clustering = lloyd_kmeans(x, [0, 1, 2])
        assert average_diameter(x, clustering.labels) == 0.0

    def test_single_cluster_span(self):
        x = coords_array(line_points([0.0, 3.0]))
        clustering = lloyd_kmeans(x, [0])
        assert average_diameter(x, clustering.labels) == pytest.approx(3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        points = [
            FeaturePoint(f"u{i:02d}", tuple(rng.uniform(0, 1, 5))) for i in range(40)
        ]
        seeds = farthest_first_seeds(points, k=3, seed=2)
        x = coords_array(points)
        clustering = lloyd_kmeans(x, seeds)

        by_cluster: dict[int, list] = {}
        for p, label in zip(points, clustering.labels):
            by_cluster.setdefault(label, []).append(np.array(p.coords))
        diams = []
        for members in by_cluster.values():
            best = 0.0
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    best = max(best, float(np.linalg.norm(members[i] - members[j])))
            diams.append(best)
        assert average_diameter(x, clustering.labels) == pytest.approx(
            float(np.mean(diams))
        )


class TestSelectK:
    def test_identical_points_select_one(self):
        points = [FeaturePoint(f"u{i}", (2.0,) * 5) for i in range(12)]
        selection = select_k(points, k_max=4, gamma=2.0, seed=0)
        assert selection.clustering.k == 1

    def test_two_blobs(self):
        from conftest import make_blobs

        points = make_blobs(
            [(0.0,) * 5, (1.0,) * 5], per_blob=10, sigma=0.01, seed=5
        )
        selection = select_k(points, k_max=4, gamma=2.0, seed=1)
        assert selection.clustering.k == 2

    def test_three_blobs_with_jump_at_merge(self):
        from conftest import make_blobs

        centers = [(0.0,) * 5, (1.0,) * 5, (1.0, 0.0, 1.0, 0.0, 1.0)]
        points = make_blobs(centers, per_blob=12, sigma=0.01, seed=6)
        selection = select_k(points, k_max=8, gamma=2.0, seed=1)
        assert selection.clustering.k == 3

        diam = {e.k: e.avg_diameter for e in selection.trace}
        assert diam[2] > 2.0 * diam[3]
        for k in range(8, 3, -1):
            assert diam[k - 1] <= 2.0 * diam[k]

    def test_trace_covers_sweep(self):
        points = line_points(list(range(10)))
        selection = select_k(points, k_max=4, gamma=2.0, seed=0)
        assert [e.k for e in selection.trace] == [4, 3, 2, 1]

    def test_validation(self):
        points = line_points([0.0, 1.0])
        with pytest.raises(ValueError, match="no points"):
            select_k([], k_max=3, gamma=2.0, seed=0)
        with pytest.raises(ValueError, match="k_max"):
            select_k(points, k_max=0, gamma=2.0, seed=0)
        with pytest.raises(ValueError, match="gamma"):
            select_k(points, k_max=2, gamma=1.0, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        points = [
            FeaturePoint(f"u{i:02d}", tuple(rng.uniform(0, 1, 5))) for i in range(30)
        ]
        s1 = select_k(points, k_max=6, gamma=2.0, seed=9)
        s2 = select_k(points, k_max=6, gamma=2.0, seed=9)
        assert s1.clustering.assignment == s2.clustering.assignment
        assert [e.avg_diameter for e in s1.trace] == [e.avg_diameter for e in s2.trace]


class TestLargestCluster:
    def test_k1_returns_everyone(self):
        points = line_points([0.0, 1.0, 2.0])
        clustering = clustering_of(points, [0])
        assert largest_cluster(clustering) == {"u00", "u01", "u02"}

    def test_majority_cluster_wins(self):
        points = line_points([0.0, 0.1, 0.2, 0.3, 0.4, 10.0, 10.1])
        clustering = clustering_of(points, [0, 5])
        assert largest_cluster(clustering) == {"u00", "u01", "u02", "u03", "u04"}

    def test_tie_breaks_to_smallest_learner_id(self):
        points = line_points([0.0, 0.1, 10.0, 10.1])
        for _ in range(5):
            clustering = clustering_of(points, [2, 0])
            winner = largest_cluster(clustering)
            assert winner == {"u00", "u01"}

    def test_empty_rejected(self):
        empty = Clustering(k=1, centroids=np.zeros((1, 5)), assignment={}, sse=0.0,
                           sse_trace=[0.0])
        with pytest.raises(ValueError, match="no points"):
            largest_cluster(empty)


class TestSweepEdgeCases:
    """Named corner cases of the k sweep, each checked against the
    point-by-point reference implementation."""

    def test_repair_reseeds_empty_cluster(self):
        # Seeds 1 and 2 coincide, so cluster 1 starts empty and is reseeded
        # on row 3, the point farthest from its centroid.
        points = grid_points([(3, 3, 0, 0, 0), (0, 9, 0, 0, 0), (0, 9, 0, 0, 0), (9, 9, 0, 0, 0)])
        fit = assert_lloyd_matches_reference(points, [1, 2, 0])
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
        points = grid_points([(1, 1, 1, 1, 1)] * 6)
        fit = assert_lloyd_matches_reference(points, [0, 1])
        assert set(fit.labels.tolist()) == {0}
        assert fit.sse == 0.0

    def test_two_points(self):
        selection = assert_sweep_matches_reference(grid_points([(0, 0, 0, 0, 0), (1, 2, 0, 0, 0)]))
        assert [e.k for e in selection.trace] == [2, 1]

    def test_fewer_points_than_k_max(self):
        points = grid_points([(i, i % 2, 0, 0, 0) for i in range(5)])
        selection = assert_sweep_matches_reference(points, k_max=8, seed=4)
        assert [e.k for e in selection.trace] == [5, 4, 3, 2, 1]

    def test_all_points_identical(self):
        selection = assert_sweep_matches_reference(grid_points([(2, 2, 2, 2, 2)] * 9), k_max=4)
        assert selection.clustering.k == 1
        assert all(e.sse == 0.0 and e.avg_diameter == 0.0 for e in selection.trace)


points_strategy = st.one_of(
    # tie-heavy grid coordinates
    st.lists(st.tuples(*[st.integers(0, 2)] * 5), min_size=1, max_size=25),
    st.lists(
        st.tuples(*[st.floats(-100, 100, allow_nan=False)] * 5), min_size=1, max_size=25
    ),
)


class TestMatchesReference:
    @given(points_strategy, st.booleans(), st.integers(1, 8),
           st.floats(1.0, 4.0, exclude_min=True), st.integers(0, 2**32 - 1))
    def test_select_k(self, grid, reverse_ids, k_max, gamma, seed):
        points = grid_points(grid, reverse_ids)
        assert_sweep_matches_reference(points, k_max, gamma, seed)
        k = min(k_max, len(points))
        assert [points[i] for i in farthest_first_seeds(points, k, seed)] == (
            reference_farthest_first_seeds(points, k, seed)
        )

    @given(points_strategy, st.data())
    def test_lloyd_kmeans(self, grid, data):
        """Arbitrary seed rows, so duplicate seeds and empty clusters are common."""
        points = grid_points(grid)
        rows = data.draw(st.lists(st.integers(0, len(points) - 1), min_size=1,
                                  max_size=min(len(points), 8), unique=True))
        assert_lloyd_matches_reference(points, rows)
