"""Cluster tests: the learner table's coordinates, normalization,
seeding, Lloyd, k selection and the largest cluster."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.spatial.distance import cdist

from learntags import (
    LearnerProfile,
    average_diameter,
    farthest_first_seeds,
    group_rows,
    largest_cluster,
    learner_table,
    lockstep_lloyd,
    normalize,
    sweep_k,
)
import learntags.cluster as cluster_module
from learntags.cluster import _repair_empty
from learntags.ingest import RatingRecord

from conftest import (
    Clustering,
    FeaturePoint,
    high_ratings,
    lloyd_kmeans,
    make_blobs,
    reference_average_diameter,
    reference_farthest_first_seeds,
    reference_lloyd_kmeans,
    reference_repair_empty,
    reference_select_k,
)

FULL_VALUES = {1: 10.0, 2: 20.0, 3: 24240.0, 4: 40.0, 5: 50.0}
PRES_VALUES = {1: 11.0, 2: 22.0, 3: 33.0, 4: 20549.0, 5: 55.0}


def line(xs: list[float]) -> np.ndarray:
    """Rows spread along the first axis."""
    x = np.zeros((len(xs), 5))
    x[:, 0] = xs
    return x


def coords_array(points: list[FeaturePoint]) -> np.ndarray:
    return np.array([p.coords for p in points])


def grid_points(grid, reverse_ids: bool = False) -> list[FeaturePoint]:
    """Points from coordinate tuples; ``reverse_ids`` makes the learner ids
    descend along the list, so id order differs from list order."""
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


def assert_lockstep_matches_reference(points: list[FeaturePoint], seed_rows: list[int],
                                      ks: list[int], max_iters: int = 100):
    """Each lockstep fit equals the point-by-point Lloyd's from its seed
    prefix, run alone."""
    fits = lockstep_lloyd(coords_array(points), seed_rows, ks, max_iters)
    for k, fit in zip(ks, fits):
        want = reference_lloyd_kmeans(points, [points[i] for i in seed_rows[:k]], max_iters)
        assert {p.learner_id: j for p, j in zip(points, fit.labels.tolist())} == want.assignment
        np.testing.assert_array_equal(fit.centroids, want.centroids)
        assert repr(fit.sse_trace) == repr(want.sse_trace)
    return fits


def assert_sweep_matches_reference(points, k_max=8, gamma=2.0, seed=0, max_iters=100):
    """Every trace entry, float for float, and the chosen fit equal the
    point-by-point sweep's.  Rows go in learner-id order, as in the
    learner table, so the row tie-breaks are the reference's id
    tie-breaks."""
    points = sorted(points, key=lambda p: p.learner_id)
    got = sweep_k(coords_array(points), k_max, gamma, seed, max_iters)
    want, want_trace = reference_select_k(points, k_max, gamma, seed, max_iters)
    assert [(e.k, repr(e.sse), repr(e.avg_diameter)) for e in got.trace] == [
        (e.k, repr(e.sse), repr(e.avg_diameter)) for e in want_trace
    ]
    assert got.k == want.k
    assert dict(zip((p.learner_id for p in points), got.fit.labels.tolist())) == want.assignment
    np.testing.assert_array_equal(got.fit.centroids, want.centroids)
    assert repr(got.fit.sse_trace) == repr(want.sse_trace)
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

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            lloyd_kmeans(line([0.0, 1.0]), [0, 0])


def reference_diameters(points: list[FeaturePoint], labels) -> list[float]:
    """Each fit's average diameter by the point-by-point oracle."""
    return [
        reference_average_diameter(
            Clustering(k=max(fit) + 1, centroids=np.zeros((max(fit) + 1, 5)), sse=0.0,
                       sse_trace=[], assignment={p.learner_id: int(j) for p, j in zip(points, fit)}),
            points)
        for fit in labels
    ]


def assert_diameters_match_reference(points: list[FeaturePoint], labels):
    got = average_diameter(coords_array(points), np.array(labels))
    assert repr(got) == repr(reference_diameters(points, labels))
    return got


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
        points = grid_points(np.random.default_rng(2).uniform(0, 1, (150, 5)).tolist())
        got = assert_diameters_match_reference(points, [[0] * 150, [4] * 150])
        assert got[0] == got[1] > 0.0

    def test_identical_rows(self):
        points = grid_points([(0.5, 1.0, 0.0, 0.0, 2.0)] * 9)
        assert assert_diameters_match_reference(points, [[0] * 9, [0, 1, 2] * 3]) == [0.0, 0.0]

    def test_every_row_its_own_atom(self):
        rows = np.random.default_rng(3).uniform(0, 1, (150, 5))
        points = grid_points(rows.tolist())
        got = assert_diameters_match_reference(
            points, [list(range(150)), [r % 7 for r in range(150)], [0] * 150])
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
        from conftest import make_blobs

        x = make_blobs([(0.0,) * 5, (1.0,) * 5], per_blob=10, sigma=0.01, seed=5)
        assert sweep_k(x, k_max=4, gamma=2.0, seed=1).k == 2

    def test_three_blobs_with_jump_at_merge(self):
        from conftest import make_blobs

        centers = [(0.0,) * 5, (1.0,) * 5, (1.0, 0.0, 1.0, 0.0, 1.0)]
        x = make_blobs(centers, per_blob=12, sigma=0.01, seed=6)
        selection = sweep_k(x, k_max=8, gamma=2.0, seed=1)
        assert selection.k == 3

        diam = {e.k: e.avg_diameter for e in selection.trace}
        assert diam[2] > 2.0 * diam[3]
        for k in range(8, 3, -1):
            assert diam[k - 1] <= 2.0 * diam[k]

    def test_trace_covers_sweep(self):
        selection = sweep_k(line(list(range(10))), k_max=4, gamma=2.0, seed=0)
        assert [e.k for e in selection.trace] == [4, 3, 2, 1]

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
        s1 = sweep_k(x, k_max=6, gamma=2.0, seed=9)
        s2 = sweep_k(x, k_max=6, gamma=2.0, seed=9)
        assert s1.fit.labels.tolist() == s2.fit.labels.tolist()
        assert [e.avg_diameter for e in s1.trace] == [e.avg_diameter for e in s2.trace]

    def test_k_max_twelve_matches_reference(self):
        centers = [tuple(np.random.default_rng(c).uniform(0, 10, 5)) for c in range(14)]
        x = make_blobs(centers, per_blob=6, sigma=0.2, seed=4)
        selection = assert_sweep_matches_reference(grid_points(x.tolist()), k_max=12)
        assert [e.k for e in selection.trace] == list(range(12, 0, -1))


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
        selection = sweep_k(normalize(x), 6, 1.5, 4)
        np.testing.assert_array_equal(group.x, normalize(x))
        assert group.k == selection.k
        assert group.trace == selection.trace
        np.testing.assert_array_equal(group.labels, selection.fit.labels)
        np.testing.assert_array_equal(group.largest, largest_cluster(selection.fit.labels))

    def test_one_row_is_its_own_group(self):
        group = group_rows(np.array([[2.0, 5.0, 1.5, 3.5, 25.0]]), k_max=8, gamma=2.0, seed=0)
        assert (group.k, group.trace) == (1, [])
        assert group.x.tolist() == [[0.0] * 5]
        assert group.labels.tolist() == [0]
        assert group.largest.tolist() == [True]


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
        assert selection.k == 1
        assert all(e.sse == 0.0 and e.avg_diameter == 0.0 for e in selection.trace)


class TestLockstep:
    """Named corner cases of running every k's Lloyd in one loop, each
    fit checked against the point-by-point Lloyd's run alone."""

    def test_repair_in_the_round_another_fit_converges(self, monkeypatch):
        # Seed rows 0 and 3 coincide.  In round 1 the k = 3 fit reseeds an
        # empty cluster while the k = 4 fit stops.
        points = grid_points([(3, 1, 0, 0, 0), (0, 2, 0, 0, 0), (0, 2, 0, 0, 0),
                              (3, 1, 0, 0, 0), (3, 2, 0, 0, 0)])
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
        fits = assert_lockstep_matches_reference(points, [0, 3, 4, 2], [4, 3, 2, 1])
        assert (1, 3) in reseeds
        assert len(fits[0].sse_trace) == 2  # the k = 4 fit stops after round 1
        assert len(fits[1].sse_trace) > 2

    def test_duplicate_rows_leave_clusters_empty(self):
        # Every reseed would be at distance 0, so each fit keeps one cluster.
        points = grid_points([(1, 1, 1, 1, 1)] * 6)
        fits = assert_lockstep_matches_reference(points, [0, 1, 2, 3], [4, 3, 2, 1])
        for fit in fits:
            assert set(fit.labels.tolist()) == {0}
            assert fit.sse_trace == [0.0, 0.0]

    @pytest.mark.parametrize("max_iters", [1, 100])
    def test_fewer_rows_than_k_max(self, max_iters):
        # The widest fit seeds every row, so its clusters are the rows.
        points = grid_points([(0, 0, 0, 0, 0), (2, 0, 0, 0, 0), (2, 1, 0, 0, 0)])
        selection = assert_sweep_matches_reference(points, k_max=8, max_iters=max_iters)
        assert [e.k for e in selection.trace] == [3, 2, 1]
        assert selection.trace[0].sse == selection.trace[0].avg_diameter == 0.0

    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    def test_capped_fits_beside_converged_ones(self, max_iters):
        # Uncapped, the fits for k = 8..1 stop after 1, 1, 2, 2, 2, 2, 5
        # and 1 rounds, so every cap here stops some fits and not others.
        points = grid_points(np.random.default_rng(5).uniform(0, 1, (20, 5)).tolist())
        x, ks = coords_array(points), list(range(8, 0, -1))
        seeds = farthest_first_seeds(x, 8, 0)
        capped = [len(fit.sse_trace) > max_iters + 1 for fit in lockstep_lloyd(x, seeds, ks)]
        assert any(capped) and not all(capped)
        fits = assert_lockstep_matches_reference(points, seeds, ks, max_iters)
        assert max(len(fit.sse_trace) for fit in fits) == max_iters + 1
        assert_sweep_matches_reference(points, seed=0, max_iters=max_iters)

    @pytest.mark.parametrize("ks", [[], [0], [3, 1]])
    def test_k_out_of_range_rejected(self, ks):
        with pytest.raises(ValueError, match="each k"):
            lockstep_lloyd(line([0.0, 1.0, 2.0]), [0, 1], ks)

    @pytest.mark.parametrize("second", [(0, 0, 0, 0, 0), (1, 2, 0, 0, 0)])
    def test_two_rows(self, second):
        points = grid_points([(0, 0, 0, 0, 0), second])
        selection = assert_sweep_matches_reference(points)
        assert [e.k for e in selection.trace] == [2, 1]
        assert_lockstep_matches_reference(points, [1, 0], [2, 1])


row_strategies = (
    # tie-heavy grid coordinates
    st.tuples(*[st.integers(0, 2)] * 5),
    st.tuples(*[st.floats(-100, 100, allow_nan=False)] * 5),
)
points_strategy = st.one_of(*(st.lists(row, min_size=1, max_size=25) for row in row_strategies))


class TestMatchesReference:
    @given(points_strategy, st.booleans(), st.integers(1, 8),
           st.floats(1.0, 4.0, exclude_min=True), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 2, 3, 100]))
    def test_select_k(self, grid, reverse_ids, k_max, gamma, seed, max_iters):
        """Small ``max_iters`` caps some lockstep fits while others converge."""
        points = grid_points(grid, reverse_ids)
        assert_sweep_matches_reference(points, k_max, gamma, seed, max_iters)
        points.sort(key=lambda p: p.learner_id)
        k = min(k_max, len(points))
        assert [points[i] for i in farthest_first_seeds(coords_array(points), k, seed)] == (
            reference_farthest_first_seeds(points, k, seed)
        )

    # Shrinking a failing example here ran for minutes, so a regression
    # looked like a hung job; unshrunk, it fails within seconds.
    @settings(phases=[p for p in Phase if p is not Phase.shrink])
    @given(points_strategy, st.data())
    def test_lloyd_kmeans(self, grid, data):
        """Arbitrary seed rows, so duplicate seeds and empty clusters are common."""
        points = grid_points(grid)
        rows = data.draw(st.lists(st.integers(0, len(points) - 1), min_size=1,
                                  max_size=min(len(points), 8), unique=True))
        assert_lloyd_matches_reference(points, rows)

    @given(st.data(), st.sampled_from([1, 3, cluster_module._DIAMETER_BLOCK_ROWS]))
    def test_average_diameter(self, data, block):
        """Rows drawn from a small pool repeat, labels up to 5 leave
        clusters empty, and row blocks of 1 and 3 cut atoms at block edges."""
        pool = data.draw(st.one_of(*(st.lists(row, min_size=1, max_size=25)
                                     for row in row_strategies)))
        points = grid_points(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30)))
        labels = data.draw(st.lists(
            st.lists(st.integers(0, 5), min_size=len(points), max_size=len(points)),
            min_size=1, max_size=4))
        with mock.patch.object(cluster_module, "_DIAMETER_BLOCK_ROWS", block):
            assert_diameters_match_reference(points, labels)
