from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from hwnas import pareto
from hwnas.pareto import (
    dominated_boxes,
    dominates,
    hypervolume_improvements,
    hypervolume_values,
    non_dominated_mask,
    pareto_filter,
)
from hwnas.records import EvaluationRecord, ObjectiveVector, logical_timestamp
from hwnas.search_space import random_genome


def make_records(values, subset=("error", "energy", "time")):
    """Wrap raw objective rows into records (unused axes get neutral values)."""
    rng = np.random.default_rng(0)
    g = random_genome(rng)
    records = []
    for i, row in enumerate(values):
        by = {"error": 0.5, "energy": 1.0, "time": 1.0}
        for name, v in zip(subset, row):
            by[name] = float(v)
        ov = ObjectiveVector(error=by["error"], energy_j=by["energy"], time_s=by["time"])
        records.append(EvaluationRecord(g, ov, "dev", i, "random", logical_timestamp(i)))
    return records


def brute_force_front(values):
    """All-pairs dominance oracle (O(n^2) broadcast)."""
    V = np.asarray(values, dtype=float)
    le = np.all(V[:, None, :] <= V[None, :, :], axis=2)
    lt = np.any(V[:, None, :] < V[None, :, :], axis=2)
    dominated = np.any(le & lt, axis=0)
    return ~dominated


def grid_hypervolume(values, d, k):
    """Exact oracle on integer grids with reference k on every axis.

    The count of unit cells c in {0..k-1}^d that some point p <= c covers.
    """
    V = np.asarray(values, dtype=float).reshape(-1, d)
    cells = np.indices((k,) * d).reshape(d, -1).T
    return int(np.any(np.all(V[None, :, :] <= cells[:, None, :], axis=2), axis=1).sum())


def assert_maximal_stair_slabs(values, boxes):
    """Each box is the slab of one (x, y) stair, on three axes padded with 0 below 1.

    No point below the box's top in z weakly dominates its lower (x, y) corner
    unless it is that corner, and no two boxes of one slab touch in z (they
    would be one box).
    """
    d = boxes.shape[2]
    pts = np.hstack([values, np.zeros((len(values), 3 - d))])
    lo = np.hstack([boxes[:, 0], np.zeros((len(boxes), 3 - d))])
    hi = np.hstack([boxes[:, 1], np.ones((len(boxes), 3 - d))])
    below = pts[None, :, 2] < hi[:, None, 2]
    covers = np.all(pts[None, :, :2] <= lo[:, None, :2], axis=2)
    elsewhere = np.any(pts[None, :, :2] != lo[:, None, :2], axis=2)
    assert not np.any(below & covers & elsewhere)
    same_slab = np.all(lo[:, None, :2] == lo[None, :, :2], axis=2) & np.all(hi[:, None, :2] == hi[None, :, :2], axis=2)
    assert not np.any(same_slab & (hi[:, None, 2] == lo[None, :, 2]))


@st.composite
def grid_rows(draw, finite=False):
    """0-80 rows of 0-3 (1-3 when ``finite``) columns on {0..3}, ±inf too unless ``finite``."""
    d = draw(st.integers(1 if finite else 0, 3))
    cell = st.integers(0, 3).map(float)
    if not finite:
        cell = st.one_of(cell, st.sampled_from([-np.inf, np.inf]))
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), max_size=80))
    return np.array(rows, dtype=float).reshape(len(rows), d)


@st.composite
def grid_fronts(draw):
    """(values, k): up to 10 integer rows in {0..k+1}^d, d = 1..3, reference k."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, k + 1), min_size=d, max_size=d), max_size=10))
    return np.array(rows, dtype=float).reshape(len(rows), d), k


class TestDominates:
    def test_paper_pair_error_energy(self):
        a = ObjectiveVector(0.2342, 1.16, 1.0)
        b = ObjectiveVector(0.2390, 1.32, 1.0)
        assert dominates(a, b, ("error", "energy"))
        assert not dominates(b, a, ("error", "energy"))

    def test_mutually_non_dominated_pair(self):
        a = ObjectiveVector(0.2216, 2.02, 1.0)
        b = ObjectiveVector(0.2588, 1.99, 1.0)
        assert not dominates(a, b, ("error", "energy"))
        assert not dominates(b, a, ("error", "energy"))

    def test_no_self_dominance(self):
        a = ObjectiveVector(0.3, 2.0, 0.5)
        assert not dominates(a, a)

    def test_three_objective_dominance(self):
        a = ObjectiveVector(0.2286, 815.0, 6.08)
        b = ObjectiveVector(0.2318, 1160.0, 8.18)
        assert dominates(a, b)

    def test_subset_selects_axes(self):
        a = ObjectiveVector(0.1, 10.0, 1.0)
        b = ObjectiveVector(0.2, 5.0, 2.0)
        assert dominates(a, b, ("error", "time"))
        assert not dominates(a, b, ("error", "energy"))


class TestParetoFilter:
    def test_single_record_is_front(self):
        recs = make_records([[0.5, 1.0, 1.0]])
        assert pareto_filter(recs) == recs

    def test_paper_pair_front(self):
        recs = make_records([[0.2342, 1.16], [0.2390, 1.32]], subset=("error", "energy"))
        front = pareto_filter(recs, ("error", "energy"))
        assert front == [recs[0]]

    def test_duplicates_both_kept(self):
        recs = make_records([[0.3, 1.0], [0.3, 1.0], [0.4, 2.0]], subset=("error", "energy"))
        front = pareto_filter(recs, ("error", "energy"))
        assert front == [recs[0], recs[1]]

    def test_order_preserved(self):
        rng = np.random.default_rng(1)
        recs = make_records(rng.random((50, 3)))
        front = pareto_filter(recs)
        iters = [r.iteration for r in front]
        assert iters == sorted(iters)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            d = int(rng.integers(2, 4))
            V = rng.random((n, d))
            assert np.array_equal(non_dominated_mask(V), brute_force_front(V))
        # Small integer grids: ties on single axes, exact duplicates, no columns.
        grid = np.random.default_rng(4)
        for _ in range(300):
            V = grid.integers(0, 4, size=(int(grid.integers(0, 40)), int(grid.integers(0, 4))))
            assert np.array_equal(non_dominated_mask(V), brute_force_front(V))

    def test_copies_of_a_front_row_prune_once(self, monkeypatch):
        # 2,000 copies of each of three front rows, then three rows they
        # dominate.  A copy takes the verdict of the row before it, so the
        # staircase is searched at most twice (a query and an insertion) per
        # distinct row; a search per copy makes the filter's work grow with
        # the copies, as on the duplicate-heavy fronts of `hwnas enumerate`.
        searches = 0

        def counting(search):
            def wrapped(*args):
                nonlocal searches
                searches += 1
                return search(*args)

            return wrapped

        monkeypatch.setattr(pareto, "bisect_left", counting(pareto.bisect_left))
        monkeypatch.setattr(pareto, "bisect_right", counting(pareto.bisect_right))
        front = np.array([[0.0, 3.0], [1.0, 1.0], [3.0, 0.0]])
        V = np.concatenate([np.repeat(front, 2000, axis=0), front + 1])
        mask = non_dominated_mask(V)
        assert searches <= 2 * len(np.unique(V, axis=0))
        assert mask.tolist() == [True] * 6000 + [False] * 3

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        recs = make_records(rng.random((100, 3)))
        front = pareto_filter(recs)
        assert pareto_filter(front) == front


class TestHypervolume:
    def test_inclusion_exclusion_2d(self):
        assert hypervolume_values(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([3.0, 3.0])) == pytest.approx(3.0)

    def test_unit_cube_3d(self):
        assert hypervolume_values(np.zeros((1, 3)), np.ones(3)) == pytest.approx(1.0)

    def test_points_at_or_beyond_ref_excluded(self):
        V = np.array([[1.0, 1.0], [5.0, 0.0], [2.0, 2.0]])
        assert hypervolume_values(V, np.array([2.0, 2.0])) == pytest.approx(1.0)

    def test_monotone_in_points(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            V = rng.random((20, 3))
            ref = np.array([1.1, 1.1, 1.1])
            base = hypervolume_values(V, ref)
            more = hypervolume_values(np.vstack([V, rng.random((1, 3))]), ref)
            assert more >= base - 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        V = rng.random((30, 3))
        ref = np.array([1.2, 1.2, 1.2])
        base = hypervolume_values(V, ref)
        for _ in range(5):
            perm = rng.permutation(30)
            assert hypervolume_values(V[perm], ref) == pytest.approx(base, rel=1e-12)

    def test_monte_carlo_oracle_2d_3d(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            for _ in range(5):
                V = rng.random((15, d))
                ref = np.full(d, 1.1)
                exact = hypervolume_values(V, ref)
                samples = rng.random((200_000, d)) * 1.1
                inside = np.zeros(len(samples), dtype=bool)
                for p in V:
                    inside |= np.all(samples >= p, axis=1)
                mc = inside.mean() * 1.1**d
                assert exact == pytest.approx(mc, rel=0.03)


class TestBoxesAndImprovements:
    def test_boxes_are_disjoint_and_sum_to_hv(self):
        rng = np.random.default_rng(7)
        for d in (1, 2, 3):
            for trial in range(60):
                n = int(rng.integers(0, 25))
                if trial % 2:
                    k = int(rng.integers(1, 6))
                    V = rng.integers(0, k + 2, size=(n, d)).astype(float)
                    ref = np.full(d, float(k))
                else:
                    V = rng.random((n, d))
                    ref = np.full(d, 1.2)
                boxes = dominated_boxes(V, ref)
                assert boxes.shape == (boxes.shape[0], 2, d)
                assert np.all(boxes[:, 0] < boxes[:, 1]) and np.all(boxes[:, 1] <= ref)
                lo = np.maximum(boxes[:, None, 0], boxes[None, :, 0])
                hi = np.minimum(boxes[:, None, 1], boxes[None, :, 1])
                overlap = np.prod(np.clip(hi - lo, 0.0, None), axis=2)
                np.fill_diagonal(overlap, 0.0)
                assert not overlap.any()
                assert_maximal_stair_slabs(V, boxes)
                if trial % 2:
                    vol = np.sum(np.prod(boxes[:, 1] - boxes[:, 0], axis=1))
                    assert vol == grid_hypervolume(V, d, k)

    def test_improvement_matches_direct_difference(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            for _ in range(30):
                V = rng.random((int(rng.integers(1, 20)), d))
                ref = np.full(d, 1.1)
                base = hypervolume_values(V, ref)
                samples = rng.random((10, d)) * 1.2
                for stds in (None, np.zeros_like(samples)):
                    hvi = hypervolume_improvements(V, ref, samples, stds)
                    for k in range(10):
                        direct = hypervolume_values(np.vstack([V, samples[k]]), ref) - base
                        assert hvi[k] == pytest.approx(direct, abs=1e-10)

    def test_expected_improvement_matches_monte_carlo(self):
        # Oracle: the mean point gain over Gaussian draws; one axis of the last
        # candidate has zero spread, so point and Gaussian axes mix.
        rng = np.random.default_rng(9)
        n = 100_000
        for d in (2, 3):
            for _ in range(3):
                V = rng.random((int(rng.integers(2, 15)), d))
                ref = np.full(d, 1.1)
                means = rng.random((3, d)) * 1.2
                stds = rng.uniform(0.01, 0.4, (3, d))
                stds[-1, 0] = 0.0
                exact = hypervolume_improvements(V, ref, means, stds)
                for k in range(3):
                    draws = means[k] + stds[k] * rng.standard_normal((n, d))
                    gains = hypervolume_improvements(V, ref, draws)
                    se = gains.std(ddof=1) / np.sqrt(n)
                    assert abs(exact[k] - gains.mean()) <= 4 * se + 1e-6

    def test_empty_front_improvement_is_own_box(self):
        ref = np.array([1.0, 1.0, 1.0])
        samples = np.array([[0.5, 0.5, 0.5], [2.0, 0.0, 0.0]])
        hvi = hypervolume_improvements(np.empty((0, 3)), ref, samples)
        assert hvi[0] == pytest.approx(0.125)
        assert hvi[1] == pytest.approx(0.0)


class TestGridProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(front=grid_fronts())
    def test_hypervolume_matches_grid_count(self, front):
        V, k = front
        d = V.shape[1]
        assert hypervolume_values(V, np.full(d, float(k))) == grid_hypervolume(V, d, k)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(front=grid_fronts(), data=st.data())
    def test_bit_identical_under_permutation_and_redundant_rows(self, front, data):
        V, k = front
        n, d = V.shape
        ref = np.full(d, float(k))
        base = hypervolume_values(V, ref)
        perm = data.draw(st.permutations(range(n)))
        assert hypervolume_values(V[list(perm)], ref) == base
        if n:
            picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
            shifts = data.draw(
                st.lists(st.lists(st.integers(0, 2), min_size=d, max_size=d), min_size=len(picks), max_size=len(picks))
            )
            redundant = V[picks] + np.array(shifts, dtype=float)
            assert hypervolume_values(np.vstack([V, redundant]), ref) == base
            assert hypervolume_values(np.vstack([redundant, V[::-1]]), ref) == base

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_repeated_rows_leave_the_boxes_bit_identical(self, data):
        # The search passes its front's objective rows, copies included, as they are.
        d = data.draw(st.integers(1, 3))
        cell = st.one_of(st.integers(0, 3).map(float), st.floats(-3, 3).map(lambda v: v + 0.0))
        rows = data.draw(st.lists(st.tuples(*[cell] * d), min_size=1, max_size=12, unique=True))
        points = np.array(rows, dtype=float)
        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=8))
        repeated = np.vstack([points, points[picks]])
        repeated = repeated[data.draw(st.permutations(range(len(repeated))))]
        ref = np.max(points, axis=0) + data.draw(st.sampled_from([-1.0, 0.0, 0.5]))
        alone, with_copies = dominated_boxes(points, ref), dominated_boxes(repeated, ref)
        assert with_copies.shape == alone.shape and with_copies.tobytes() == alone.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(front=grid_fronts(), data=st.data())
    def test_point_gain_matches_grid_oracle(self, front, data):
        V, k = front
        d = V.shape[1]
        rows = data.draw(st.lists(st.lists(st.integers(0, k + 1), min_size=d, max_size=d), min_size=1, max_size=4))
        means = np.array(rows, dtype=float)
        hvi = hypervolume_improvements(V, np.full(d, float(k)), means, np.zeros_like(means))
        base = grid_hypervolume(V, d, k)
        expected = [grid_hypervolume(np.vstack([V, m]), d, k) - base for m in means]
        assert hvi.tolist() == expected

    @pytest.mark.parametrize("n", [0, 2])
    @pytest.mark.parametrize("d", [0, 4])
    def test_unsupported_dimension_rejected(self, d, n):
        V = np.zeros((n, d))
        ref = np.ones(d)
        with pytest.raises(ValueError):
            dominated_boxes(V, ref)
        with pytest.raises(ValueError):
            hypervolume_values(V, ref)


class TestNonDominatedSweep:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(V=grid_rows())
    def test_matches_brute_force(self, V):
        assert np.array_equal(non_dominated_mask(V), brute_force_front(V))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(V=grid_rows(finite=True))
    def test_filter_keeps_history_order_and_is_idempotent(self, V):
        subset = ("error", "energy", "time")[: V.shape[1]]
        # Error is a fraction: its column is scaled into [0, 0.75].
        records = make_records(V * np.where(np.arange(V.shape[1]) == 0, 0.25, 1.0), subset)
        front = pareto_filter(records, subset)
        assert front == [records[i] for i in np.flatnonzero(brute_force_front(V))]
        assert pareto_filter(front, subset) == front

    @pytest.mark.parametrize("n", [0, 2])
    def test_four_columns_rejected(self, n):
        with pytest.raises(ValueError, match="0-3 objectives"):
            non_dominated_mask(np.zeros((n, 4)))

    @pytest.mark.parametrize("d", [1, 3])
    def test_nan_rejected(self, d):
        V = np.zeros((3, d))
        V[1, -1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            non_dominated_mask(V)


def curved_front(rng, n, d):
    """n mutually non-dominated points on a quarter sphere, so every point adds boxes."""
    pts = rng.random((n, d)) + 1e-3
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


class TestImprovementChunks:
    """The EHVI of a candidate does not depend on how the candidates are chunked."""

    @staticmethod
    def improvements(front, ref, means, stds, elements):
        with mock.patch.object(pareto, "_CHUNK_ELEMENTS", elements):
            return hypervolume_improvements(front, ref, means, stds).view(np.int64)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 3),
        n=st.integers(0, 60),
        m=st.integers(1, 300),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_for_one_row_and_all_rows(self, d, n, m, zero_share, seed):
        rng = np.random.default_rng(seed)
        front = curved_front(rng, n, d)
        ref = np.full(d, 1.1)
        means = rng.uniform(0.0, 1.2, size=(m, d))
        stds = np.where(rng.random((m, d)) < zero_share, 0.0, rng.uniform(0.0, 0.3, size=(m, d)))
        boxes = max(len(dominated_boxes(front, ref)), 1)
        one_chunk = self.improvements(front, ref, means, stds, m * boxes)
        assert np.array_equal(self.improvements(front, ref, means, stds, 1), one_chunk)
        assert np.array_equal(self.improvements(front, ref, means, stds, pareto._CHUNK_ELEMENTS), one_chunk)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_module_chunk_splits_a_large_pool(self, d):
        rng = np.random.default_rng(d)
        front = curved_front(rng, 120, d)
        ref = np.full(d, 1.1)
        boxes = len(dominated_boxes(front, ref))
        m = 3 * pareto._CHUNK_ELEMENTS // boxes + 7
        means = rng.uniform(0.0, 1.2, size=(m, d))
        stds = rng.uniform(0.0, 0.3, size=(m, d))
        stds[::5] = 0.0
        one_chunk = self.improvements(front, ref, means, stds, m * boxes)
        assert np.array_equal(self.improvements(front, ref, means, stds, pareto._CHUNK_ELEMENTS), one_chunk)
        assert np.array_equal(self.improvements(front, ref, means, stds, 1), one_chunk)


def candidate_pool(seed, d, n, m, grid, zero_share, duplicates):
    """(front, ref, means, stds) with ``duplicates`` rows copied over others.

    ``grid`` puts the front and the means on integers, so scores tie.
    """
    rng = np.random.default_rng(seed)
    if grid:
        front = rng.integers(0, 5, size=(n, d)).astype(float)
        ref = np.full(d, 4.0)
        means = rng.integers(0, 6, size=(m, d)).astype(float)
        stds = rng.choice([0.0, 0.5, 1.0], size=(m, d))
    else:
        front = curved_front(rng, n, d)
        ref = np.full(d, 1.1)
        means = rng.uniform(0.0, 1.2, size=(m, d))
        stds = rng.uniform(0.0, 0.3, size=(m, d))
    stds[rng.random((m, d)) < zero_share] = 0.0
    source, target = rng.integers(0, m, size=(2, duplicates))
    means[target] = means[source]
    stds[target] = stds[source]
    return front, ref, means, stds


class TestContenders:
    """The pruning pass keeps every row that can win, and scoring them alone keeps their bits."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 3),
        n=st.integers(0, 40),
        m=st.integers(1, 60),
        grid=st.booleans(),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
        duplicates=st.integers(0, 10),
        group=st.integers(1, 3),
        exact=st.integers(1, 2),
        stop=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_first_argmax_and_bits_kept(self, d, n, m, grid, zero_share, duplicates, group, exact, stop, seed):
        front, ref, means, stds = candidate_pool(seed, d, n, m, grid, zero_share, duplicates)
        full = hypervolume_improvements(front, ref, means, stds)
        with mock.patch.multiple(pareto, _PRUNE_GROUP=group, _PRUNE_EXACT=exact, _PRUNE_STOP=stop):
            rows, boxes = pareto.contenders(front, ref, means, stds)
        assert np.all(np.diff(rows) > 0) and rows[0] >= 0 and rows[-1] < m
        assert set(np.flatnonzero(full == full.max())) <= set(rows.tolist())
        assert np.array_equal(boxes, dominated_boxes(front, ref))
        scores = hypervolume_improvements(front, ref, means[rows], stds[rows])
        assert np.array_equal(scores.view(np.int64), full[rows].view(np.int64))
        # The handed-on boxes give the same bits as boxes built afresh.
        handed = hypervolume_improvements(front, ref, means[rows], stds[rows], boxes=boxes)
        assert np.array_equal(handed.view(np.int64), scores.view(np.int64))
        assert rows[np.argmax(scores)] == np.argmax(full)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 3),
        n=st.integers(1, 40),
        m=st.integers(1, 30),
        grid=st.booleans(),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_partial_sum_bounds_the_score(self, d, n, m, grid, zero_share, seed, data):
        front, ref, means, stds = candidate_pool(seed, d, n, m, grid, zero_share, 0)
        boxes = dominated_boxes(front, ref)
        picked = data.draw(st.lists(st.booleans(), min_size=len(boxes), max_size=len(boxes)))
        subset = boxes[np.array(picked, dtype=bool)] if len(boxes) else boxes
        own = pareto._own(ref, means, stds)
        partial = pareto._covered(pareto._box_corners(subset), means, stds).sum(axis=1) if len(subset) else 0.0
        full = hypervolume_improvements(front, ref, means, stds)
        assert np.all(own - partial >= full - pareto._PRUNE_SLACK * own)

    def test_keeps_every_row_where_it_cannot_prune(self):
        rng = np.random.default_rng(3)
        front = curved_front(rng, 40, 3)
        ref = np.full(3, 1.1)
        means = rng.uniform(0.0, 1.2, size=(200, 3))
        stds = rng.uniform(0.0, 0.3, size=(200, 3))
        everyone = np.arange(200)

        def kept(front, means, stds):
            rows, boxes = pareto.contenders(front, ref, means, stds)
            # The boxes come back on every path, pruned or not.
            assert np.array_equal(boxes, dominated_boxes(front, ref))
            return rows

        assert len(kept(front, means, stds)) < 200
        # Few rows, one group of boxes, a non-finite input, every score 0.
        assert np.array_equal(kept(front, means[:32], stds[:32]), np.arange(32))
        assert np.array_equal(kept(front[:1], means, stds), everyone)
        for bad in (np.nan, np.inf):
            poisoned = stds.copy()
            poisoned[7, 1] = bad
            assert np.array_equal(kept(front, means, poisoned), everyone)
        covered = np.full_like(means, 1.05)
        assert not hypervolume_improvements(front, ref, covered, np.zeros_like(stds)).any()
        assert np.array_equal(kept(front, covered, np.zeros_like(stds)), everyone)

    def test_prunes_most_of_a_large_front(self):
        """Pruned scoring stays under 60% of the shortfall work of full scoring (measured: 49%)."""
        rng = np.random.default_rng(0)
        front = curved_front(rng, 100, 3)
        ref = np.full(3, 1.1)
        # Candidates near the front, as the surrogates place mutants of its members.
        means = front[rng.integers(0, 100, 1300)] + rng.normal(0.0, 0.05, (1300, 3))
        stds = rng.uniform(0.02, 0.1, (1300, 3))
        counted = []
        shortfall = pareto._expected_shortfall

        def counting(a, mean, std):
            out = shortfall(a, mean, std)
            counted.append(out.size)  # one (row, corner) pair per element
            return out

        with mock.patch.object(pareto, "_expected_shortfall", counting):
            full = hypervolume_improvements(front, ref, means, stds)
            whole = sum(counted)
            counted.clear()
            rows, boxes = pareto.contenders(front, ref, means, stds)
            scores = hypervolume_improvements(front, ref, means[rows], stds[rows], boxes=boxes)
        assert rows[np.argmax(scores)] == np.argmax(full)
        assert sum(counted) < 0.6 * whole


def shortfall_formula(a, mean, std):
    """Reference: E[(a - s)+] for s ~ N(mean, std^2) as one expression, then (a - mean)+ where std is 0."""
    diff = a - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / std
        smooth = diff * ndtr(z) + std * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return np.where(std > 0, smooth, np.maximum(diff, 0.0))


class TestExpectedShortfall:
    """The in-place shortfall has the bits of the one-expression formula."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        rows=st.integers(1, 60),
        corners=st.integers(1, 40),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_as_the_formula(self, rows, corners, zero_share, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, size=(1, corners))
        # One (mean, std) per row, as the box corners are scored, and one per
        # cell, as the reference point is; |z| reaches 40 and beyond.
        for cols in (1, corners):
            mean = rng.uniform(-1.0, 1.0, size=(rows, cols))
            std = 10.0 ** rng.uniform(-1.7, 1.0, size=mean.shape)
            std[rng.random(mean.shape) < zero_share] = 0.0
            std = np.broadcast_to(std, mean.shape)  # read-only, as hypervolume_improvements passes it
            got = pareto._expected_shortfall(a, mean, std)
            assert np.array_equal(got.view(np.int64), shortfall_formula(a, mean, std).view(np.int64))

    def test_far_tails_and_zero_stds(self):
        z = np.linspace(-40.0, 40.0, 161)
        a = z[None, :]
        mean = np.zeros((3, 1))
        std = np.array([[1.0], [0.0], [1e-150]])
        got = pareto._expected_shortfall(a, mean, std)
        assert np.array_equal(got.view(np.int64), shortfall_formula(a, mean, std).view(np.int64))
        assert np.array_equal(got[1], np.maximum(z, 0.0))
