import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from predbands import forest as forest_module, montecarlo
from predbands.dataset import GenConfig, generate_dataset, generate_rows, make_grid, split_rows
from predbands.forest import (DecisionTreeRegressor, ForestFits, ForestParams,
                              RandomForestRegressor, fit_forests)
from predbands.linear import SingularFitError
from predbands.montecarlo import ReplicationError, StudyConfig, run_study
from predbands.rng import Rng, stream_seeds


def exhaustive_tree_oracle(xs, ys, max_depth=None, min_leaf=1, min_split=2):
    """Independent plain-Python CART: exhaustive SSE search at every node.

    Candidate SSEs are compared exactly, as rationals of the float inputs,
    so an exact tie goes to the lowest threshold, not to rounding.
    Returns (thresholds, leaf values) in left-to-right order, matching the
    flattened representation of DecisionTreeRegressor.
    """
    rows = sorted(zip(map(float, xs), map(float, ys)))

    def grow(part, depth, thresholds, values):
        n = len(part)
        targets = [y for _, y in part]
        if (n < min_split
                or (max_depth is not None and depth >= max_depth)
                or part[0][0] == part[-1][0]
                or min(targets) == max(targets)):
            values.append(sum(targets) / n)
            return
        exact = [Fraction(y) for y in targets]
        total, total_sq = sum(exact), sum(y * y for y in exact)
        left = 0
        best = None
        for i in range(n - 1):
            left += exact[i]
            if part[i][0] == part[i + 1][0]:
                continue
            if i + 1 < min_leaf or n - i - 1 < min_leaf:
                continue
            right = total - left
            sse = total_sq - left * left / (i + 1) - right * right / (n - i - 1)
            if best is None or sse < best[0]:
                best = (sse, i)
        if best is None:
            values.append(sum(targets) / n)
            return
        i = best[1]
        grow(part[: i + 1], depth + 1, thresholds, values)
        thresholds.append((part[i][0] + part[i + 1][0]) / 2.0)
        grow(part[i + 1 :], depth + 1, thresholds, values)

    thresholds, values = [], []
    grow(rows, 0, thresholds, values)
    return np.array(thresholds), np.array(values)


def forest_trees(fits, forest=0):
    """(thresholds, leaf values) of each tree of one forest of a ForestFits."""
    n_trees = fits.n_leaves.shape[1]
    ends = np.cumsum(fits.n_leaves.ravel()).tolist()
    starts = [0] + ends[:-1]
    # tree i has one cut fewer than leaves: its cuts are [s - i, e - i - 1)
    return [(fits.thresholds[starts[i] - i:ends[i] - i - 1], fits.values[starts[i]:ends[i]])
            for i in range(forest * n_trees, (forest + 1) * n_trees)]


class TestDecisionTree:
    def test_constant_targets_give_single_leaf(self):
        tree = DecisionTreeRegressor().fit([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])
        assert tree.n_leaves_ == 1
        assert np.array_equal(tree.predict([0.0, 2.5, 9.0]), [7.0, 7.0, 7.0])

    def test_depth_zero_is_a_stump(self):
        tree = DecisionTreeRegressor(max_depth=0).fit([1.0, 2.0, 3.0], [1.0, 2.0, 6.0])
        assert tree.n_leaves_ == 1
        assert tree.predict([2.0])[0] == pytest.approx(3.0, rel=1e-12)

    def test_depth_one_textbook_split(self):
        tree = DecisionTreeRegressor(max_depth=1).fit(
            [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 10.0, 10.0])
        assert tree.thresholds_.tolist() == [2.5]
        assert tree.leaf_values_.tolist() == [1.0, 10.0]
        assert tree.predict([1.0, 2.0, 3.0, 4.0]).tolist() == [1.0, 1.0, 10.0, 10.0]

    def test_boundary_point_routes_left(self):
        tree = DecisionTreeRegressor(max_depth=1).fit(
            [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 10.0, 10.0])
        assert tree.predict([2.5])[0] == 1.0

    @pytest.mark.parametrize("xs, cut", [
        # the midpoint of adjacent doubles rounds onto x[2], which x <= cut routed left
        ([1.0, 1.0000000000000002, 1.0000000000000004, 1.0000000000000007],
         1.0000000000000002),
        ([0.0, 5e-324, 1e-323, 1.5e-323], 5e-324),
        # x[1] + x[2] overflows a float
        ([0.5e308, 1e308, 1.5e308, 1.7e308], 1.25e308),
    ], ids=["adjacent", "subnormal", "huge"])
    def test_depth_one_split_of_extreme_x(self, xs, cut):
        # the textbook split and boundary tests above, where a midpoint fails
        tree = DecisionTreeRegressor(max_depth=1).fit(xs, [1.0, 1.0, 10.0, 10.0])
        assert tree.thresholds_.tolist() == [cut]
        assert tree.predict(xs + [cut]).tolist() == [1.0, 1.0, 10.0, 10.0, 1.0]

    def test_equal_sse_tie_takes_lowest_threshold(self):
        # symmetric targets: splitting at 0.5 or 2.5 costs the same
        tree = DecisionTreeRegressor(max_depth=1).fit(
            [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 0.0])
        assert tree.thresholds_.tolist() == [0.5]

    def test_matches_exhaustive_oracle_on_small_datasets(self):
        configs = [
            dict(max_depth=None, min_leaf=1, min_split=2),
            dict(max_depth=3, min_leaf=1, min_split=2),
            dict(max_depth=None, min_leaf=3, min_split=6),
            dict(max_depth=2, min_leaf=2, min_split=4),
        ]
        for n in range(2, 31):
            rng = Rng(1000 + n)
            xs = rng.uniform(0.0, 10.0, n)
            ys = 3.0 * xs + 5.0 * rng.normals(n)
            for cfg in configs:
                if n < cfg["min_leaf"]:
                    continue
                tree = DecisionTreeRegressor(
                    max_depth=cfg["max_depth"], min_samples_leaf=cfg["min_leaf"],
                    min_samples_split=cfg["min_split"]).fit(xs, ys)
                want_t, want_v = exhaustive_tree_oracle(
                    xs, ys, cfg["max_depth"], cfg["min_leaf"], cfg["min_split"])
                assert np.allclose(tree.thresholds_, want_t, rtol=1e-12, atol=1e-12), \
                    f"thresholds diverge for n={n}, cfg={cfg}"
                assert np.allclose(tree.leaf_values_, want_v, rtol=1e-12, atol=1e-12)

    def test_every_leaf_holds_min_samples(self):
        rng = Rng(77)
        xs = rng.uniform(0.0, 1.0, 60)
        ys = rng.normals(60)
        tree = DecisionTreeRegressor(min_samples_leaf=5, min_samples_split=10).fit(xs, ys)
        leaf_of = np.searchsorted(tree.thresholds_, xs, side="left")
        counts = np.bincount(leaf_of, minlength=tree.n_leaves_)
        assert counts.min() >= 5

    def test_predictions_bounded_by_training_targets(self):
        rng = Rng(21)
        xs = rng.uniform(0.0, 1.0, 40)
        ys = rng.normals(40)
        tree = DecisionTreeRegressor().fit(xs, ys)
        preds = tree.predict(rng.uniform(-1.0, 2.0, 200))
        assert preds.min() >= ys.min()
        assert preds.max() <= ys.max()

    def test_rejects_empty_and_too_small(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor().fit([], [])
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=5).fit([1.0, 2.0], [1.0, 2.0])

    def test_unfitted_predict_raises(self):
        with pytest.raises(ValueError, match="not fitted"):
            DecisionTreeRegressor().predict([1.0])


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_tree(self):
        rng = Rng(5)
        xs = rng.uniform(0.0, 10.0, 50)
        ys = 2.0 * xs + rng.normals(50)
        forest = RandomForestRegressor(n_trees=1, bootstrap=False,
                                       min_samples_leaf=5, min_samples_split=10,
                                       seed=1).fit(xs, ys)
        tree = DecisionTreeRegressor(min_samples_leaf=5, min_samples_split=10).fit(xs, ys)
        grid = np.linspace(0.0, 10.0, 33)
        assert np.array_equal(forest.predict(grid), tree.predict(grid))

    def test_constant_targets_predict_constant(self):
        xs = Rng(6).uniform(0.0, 1.0, 30)
        forest = RandomForestRegressor(n_trees=20, seed=2).fit(xs, np.full(30, 3.5))
        assert np.allclose(forest.predict([0.1, 0.5, 0.9]), 3.5, rtol=0, atol=1e-12)

    def test_deterministic_given_seed(self):
        data = generate_dataset(GenConfig(seed=30))
        grid = make_grid(150.0, 200.0, 25).points
        p1 = RandomForestRegressor(n_trees=10, seed=9).fit(data.xs, data.ys).predict(grid)
        p2 = RandomForestRegressor(n_trees=10, seed=9).fit(data.xs, data.ys).predict(grid)
        assert np.array_equal(p1, p2)
        p3 = RandomForestRegressor(n_trees=10, seed=10).fit(data.xs, data.ys).predict(grid)
        assert not np.array_equal(p1, p3)

    def test_prediction_is_mean_of_trees(self):
        data = generate_dataset(GenConfig(seed=31, n_samples=60))
        grid = make_grid(150.0, 200.0, 21).points
        forest = RandomForestRegressor(n_trees=7, seed=3).fit(data.xs, data.ys)
        stacked = np.array([values[np.searchsorted(thresholds, grid, side="left")]
                            for thresholds, values in forest_trees(forest.fits_)])
        assert np.allclose(forest.predict(grid), stacked.mean(axis=0),
                           rtol=1e-12, atol=1e-12)

    def test_tree_order_does_not_matter(self):
        data = generate_dataset(GenConfig(seed=32, n_samples=60))
        grid = make_grid(150.0, 200.0, 21).points
        forest = RandomForestRegressor(n_trees=8, seed=4).fit(data.xs, data.ys)
        before = forest.predict(grid)
        trees = forest_trees(forest.fits_)[::-1]
        forest.fits_ = ForestFits(np.concatenate([t for t, _ in trees]),
                                  np.concatenate([v for _, v in trees]),
                                  np.array([[len(v) for _, v in trees]]))
        assert np.allclose(forest.predict(grid), before, rtol=1e-12, atol=1e-14)

    def test_bounded_by_training_targets(self):
        data = generate_dataset(GenConfig(seed=33))
        forest = RandomForestRegressor(n_trees=15, seed=5).fit(data.xs, data.ys)
        preds = forest.predict(make_grid(150.0, 200.0, 101).points)
        assert preds.min() >= data.ys.min()
        assert preds.max() <= data.ys.max()

    def test_shifting_targets_shifts_predictions(self):
        xs = Rng(8).uniform(0.0, 1.0, 40)
        ys = np.floor(Rng(9).uniform(0.0, 16.0, 40))
        grid = np.linspace(0.0, 1.0, 17)
        base = RandomForestRegressor(n_trees=10, seed=6).fit(xs, ys).predict(grid)
        moved = RandomForestRegressor(n_trees=10, seed=6).fit(xs, ys + 64.0).predict(grid)
        assert np.allclose(moved, base + 64.0, rtol=1e-12, atol=1e-12)

    def test_from_params_round_trip(self):
        params = ForestParams(n_trees=12, max_depth=4, min_samples_leaf=2,
                              min_samples_split=4, bootstrap=False)
        forest = RandomForestRegressor.from_params(params, seed=11)
        got = dataclasses.asdict(forest)
        assert got["n_trees"] == 12
        assert got["max_depth"] == 4
        assert got["bootstrap"] is False
        assert got["seed"] == 11

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_trees=0).fit([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            ForestParams(min_samples_leaf=0)
        with pytest.raises(ValueError, match="max_depth must be >= 0"):
            ForestParams(max_depth=-1)

    def test_single_column_x_equals_a_vector_and_two_columns_are_rejected(self):
        data = generate_dataset(GenConfig(seed=31))
        column = RandomForestRegressor(n_trees=10, seed=4).fit(data.xs[:, None], data.ys)
        vector = RandomForestRegressor(n_trees=10, seed=4).fit(data.xs, data.ys)
        grid = np.linspace(150.0, 200.0, 11)
        assert np.array_equal(column.predict(grid[:, None]), vector.predict(grid))
        with pytest.raises(ValueError, match="x must be 1-D"):
            RandomForestRegressor().fit(np.column_stack([data.xs, data.xs]), data.ys)

    def test_block_names_its_first_row_whose_sums_overflow(self, monkeypatch):
        xs = np.tile(np.arange(10.0), (3, 1))
        ys = np.zeros((3, 10))
        ys[1, 9] = 1e154  # drawn n times, its square overflows
        ys[2] = 1e308
        params = ForestParams(n_trees=3)
        with pytest.raises(SingularFitError, match="overflow"):
            fit_forests(xs, ys, params, [0, 1, 2])
        # rows 1 and 2 fail; a study of these rows names replication 1
        monkeypatch.setattr(montecarlo, "generate_rows", lambda config, seeds: (xs, ys))
        config = StudyConfig(gen=GenConfig(n_samples=10), model="forest", forest=params,
                             replications=3)
        with pytest.raises(ReplicationError, match="replication 1: the targets' sums overflow"):
            run_study(config)


    def test_passes_move_no_zero_sign(self, monkeypatch):
        # every target is +-0.0; the leaf bounds' zero signs depend on how the
        # trees are split into passes, and each leaf value keeps its mean's sign
        rng = np.random.default_rng(5)
        xs = rng.uniform(150.0, 200.0, (1, 23))
        ys = np.round(rng.normal(size=(1, 23)) * 1e-3, 0)
        assert 0 < np.signbit(ys).sum() < 23 and not ys.any()
        params = ForestParams(n_trees=37, max_depth=1)
        fits = []
        for batch_rows in (37, 20_000):  # one tree per pass, then all in one
            monkeypatch.setattr(forest_module, "_BATCH_ROWS", batch_rows)
            fits.append(fit_forests(xs, ys, params, [9]))
        for got, want in zip(*fits):
            assert got.tobytes() == want.tobytes()


def mean_of_tree_searches(fits, points):
    """Each forest's predictions as the mean of its trees, each routing by its own search."""
    forests, n_trees = fits.n_leaves.shape
    points = np.broadcast_to(points, (forests, points.shape[-1]))
    return np.array([
        np.stack([values[np.searchsorted(cuts, points[r], side="left")]
                  for cuts, values in forest_trees(fits, r)]).sum(axis=0) / n_trees
        for r in range(forests)])


class TestForestPredict:
    """ForestFits.predict, which finds leaves by counting cuts below sorted points."""

    @staticmethod
    def block():
        xs, ys = generate_rows(GenConfig(seed=40, n_samples=30), stream_seeds(40, range(4)))
        xs = np.round(xs, 0)  # tied x values
        params = ForestParams(n_trees=9, min_samples_leaf=2, min_samples_split=4)
        return fit_forests(xs, ys, params, [5, 6, 7, 8])

    @staticmethod
    def edge_points(cuts, rng):
        """Cuts, their neighbours either side and points beyond them, duplicated and shuffled."""
        chosen = rng.choice(cuts, 6)
        points = np.concatenate([chosen, np.nextafter(chosen, -np.inf),
                                 np.nextafter(chosen, np.inf), [100.0, 175.0, 250.0]])
        return rng.permutation(np.concatenate([points, points[::3]]))

    @pytest.mark.parametrize("batch_rows", [1, 10 ** 9], ids=["one-forest", "every-forest"])
    def test_equals_each_trees_search_bit_for_bit(self, monkeypatch, batch_rows):
        fits = self.block()
        forests = fits.n_leaves.shape[0]
        assert forests == 4 and len(fits.thresholds) > 4 * 9
        monkeypatch.setattr(forest_module, "_BATCH_ROWS", batch_rows)
        rng = np.random.default_rng(41)
        shared = self.edge_points(fits.thresholds, rng)
        own = np.array([self.edge_points(np.concatenate([c for c, _ in forest_trees(fits, r)]),
                                         rng) for r in range(forests)])
        for points in (shared, own, shared[:1], own[:, :1]):
            got = fits.predict(points)
            assert got.shape == (forests, points.shape[-1])
            assert got.tobytes() == mean_of_tree_searches(fits, points).tobytes()

    def test_memory_of_a_wide_grid(self):
        xs, ys = generate_rows(GenConfig(seed=42), stream_seeds(42, range(10)))
        fits = fit_forests(xs, ys, ForestParams(), range(10))
        grid = make_grid(150.0, 200.0, 1001).points
        fits.predict(grid)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            fits.predict(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.2e6


class TestMse:
    """The holdout mse column of a study with a test split."""

    def test_identical_vectors(self):
        # a noiseless flat line is predicted exactly at every held-out point
        gen = GenConfig(intercept=1.0, slope=0.0, noise_sigma=0.0, seed=3)
        for model in ("linear", "forest"):
            config = StudyConfig(gen=gen, model=model, forest=ForestParams(n_trees=5),
                                 replications=3, test_fraction=0.3)
            assert run_study(config).coefficients.test_mse.tolist() == [0.0] * 3

    def test_hand_computed(self):
        master, big_r = 100, 4
        config = StudyConfig(gen=GenConfig(seed=master), replications=big_r, test_fraction=0.25)
        coeffs = run_study(config).coefficients
        for r in range(big_r):
            xs, ys = generate_rows(config.gen, [stream_seeds(master, range(big_r))[r]])
            split_seed = stream_seeds(master, range(2 * big_r, 3 * big_r))[r]
            _, (test_xs, test_ys) = split_rows(xs, ys, 0.25, [split_seed])
            a, b = float(coeffs.intercepts[r]), float(coeffs.slopes[r])
            residuals = [y - (a + b * x) for x, y in zip(test_xs[0].tolist(), test_ys[0].tolist())]
            assert len(residuals) == 25
            want = math.fsum(d * d for d in residuals) / 25
            assert coeffs.test_mse[r] == pytest.approx(want, rel=1e-15)

    def test_nonnegative(self):
        config = StudyConfig(gen=GenConfig(seed=12), model="forest",
                             forest=ForestParams(n_trees=5), replications=4, test_fraction=0.3)
        assert np.all(run_study(config).coefficients.test_mse > 0.0)
