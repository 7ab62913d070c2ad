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
from learntags.cluster import FeaturePoint
from learntags.ingest import LearnerSubset

FULL_VALUES = {1: 10.0, 2: 20.0, 3: 24240.0, 4: 40.0, 5: 50.0}
PRES_VALUES = {1: 11.0, 2: 22.0, 3: 33.0, 4: 20549.0, 5: 55.0}


def line_points(xs: list[float]) -> list[FeaturePoint]:
    return [
        FeaturePoint(f"u{i:02d}", (float(x), 0.0, 0.0, 0.0, 0.0))
        for i, x in enumerate(xs)
    ]


def coords_array(points: list[FeaturePoint]) -> np.ndarray:
    return np.array([p.coords for p in points])


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
        assert [s.coords[0] for s in seeds] == [0.0, 10.0]

    def test_k_equals_n(self):
        points = line_points([3.0, 1.0, 2.0])
        seeds = farthest_first_seeds(points, k=3, seed=0)
        assert {s.learner_id for s in seeds} == {p.learner_id for p in points}

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
        by_id = {p.learner_id: i for i, p in enumerate(points)}
        seeds = farthest_first_seeds(points, k=5, seed=42)
        chosen = [by_id[s.learner_id] for s in seeds]
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
        assert [s.learner_id for s in a] == [s.learner_id for s in b]

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
        clustering = lloyd_kmeans(points, [points[0]])
        np.testing.assert_allclose(clustering.centroids[0], [2.0, 0, 0, 0, 0])
        assert set(clustering.assignment.values()) == {0}

    def test_separated_pairs(self):
        coords = [
            (0.0, 0.0), (0.01, 0.0), (1.0, 1.0), (0.99, 1.0),
        ]
        points = [
            FeaturePoint(f"u{i}", c + (0.0, 0.0, 0.0)) for i, c in enumerate(coords)
        ]
        clustering = lloyd_kmeans(points, [points[0], points[2]])
        a = clustering.assignment
        assert a["u0"] == a["u1"]
        assert a["u2"] == a["u3"]
        assert a["u0"] != a["u2"]

    def test_sse_trace_monotone(self):
        rng = np.random.default_rng(6)
        points = [
            FeaturePoint(f"u{i}", tuple(rng.uniform(0, 1, 5))) for i in range(8)
        ]
        seeds = farthest_first_seeds(points, k=2, seed=1)
        clustering = lloyd_kmeans(points, seeds)
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
        clustering = lloyd_kmeans(points, seeds)
        dist = cdist(coords_array(points), clustering.centroids)
        expected = np.argmin(dist, axis=1)
        for i, p in enumerate(points):
            assert clustering.assignment[p.learner_id] == expected[i]

    def test_duplicate_points_terminate(self):
        points = [FeaturePoint(f"u{i}", (1.0,) * 5) for i in range(6)]
        clustering = lloyd_kmeans(points, [points[0], points[1]])
        assert clustering.sse == 0.0

    def test_duplicate_seeds_rejected(self):
        points = line_points([0.0, 1.0])
        with pytest.raises(ValueError, match="distinct"):
            lloyd_kmeans(points, [points[0], points[0]])


class TestAverageDiameter:
    def test_all_singletons(self):
        points = line_points([0.0, 5.0, 9.0])
        clustering = lloyd_kmeans(points, points)
        assert average_diameter(clustering, points) == 0.0

    def test_single_cluster_span(self):
        points = line_points([0.0, 3.0])
        clustering = lloyd_kmeans(points, [points[0]])
        assert average_diameter(clustering, points) == pytest.approx(3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        points = [
            FeaturePoint(f"u{i:02d}", tuple(rng.uniform(0, 1, 5))) for i in range(40)
        ]
        seeds = farthest_first_seeds(points, k=3, seed=2)
        clustering = lloyd_kmeans(points, seeds)

        by_cluster: dict[int, list] = {}
        for p in points:
            by_cluster.setdefault(clustering.assignment[p.learner_id], []).append(
                np.array(p.coords)
            )
        diams = []
        for members in by_cluster.values():
            best = 0.0
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    best = max(best, float(np.linalg.norm(members[i] - members[j])))
            diams.append(best)
        assert average_diameter(clustering, points) == pytest.approx(
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
        clustering = lloyd_kmeans(points, [points[0]])
        assert largest_cluster(clustering) == {"u00", "u01", "u02"}

    def test_majority_cluster_wins(self):
        points = line_points([0.0, 0.1, 0.2, 0.3, 0.4, 10.0, 10.1])
        seeds = [points[0], points[5]]
        clustering = lloyd_kmeans(points, seeds)
        assert largest_cluster(clustering) == {"u00", "u01", "u02", "u03", "u04"}

    def test_tie_breaks_to_smallest_learner_id(self):
        points = line_points([0.0, 0.1, 10.0, 10.1])
        for _ in range(5):
            clustering = lloyd_kmeans(points, [points[2], points[0]])
            winner = largest_cluster(clustering)
            assert winner == {"u00", "u01"}

    def test_empty_rejected(self):
        from learntags.cluster import Clustering

        empty = Clustering(k=1, centroids=np.zeros((1, 5)), assignment={}, sse=0.0,
                           sse_trace=[0.0])
        with pytest.raises(ValueError, match="no points"):
            largest_cluster(empty)
