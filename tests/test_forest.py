import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from predbands.dataset import GenConfig, generate_dataset, make_grid
from predbands.forest import (DecisionTreeRegressor, ForestFits, ForestParams,
                              RandomForestRegressor)
from predbands.metrics import mse
from predbands.rng import Rng


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
        stacked = np.array([tree.predict(grid) for tree in forest.trees_])
        assert np.allclose(forest.predict(grid), stacked.mean(axis=0),
                           rtol=1e-12, atol=1e-12)

    def test_tree_order_does_not_matter(self):
        data = generate_dataset(GenConfig(seed=32, n_samples=60))
        grid = make_grid(150.0, 200.0, 21).points
        forest = RandomForestRegressor(n_trees=8, seed=4).fit(data.xs, data.ys)
        before = forest.predict(grid)
        trees = forest.fits_.trees(0)[::-1]
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


class TestMse:
    def test_identical_vectors(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offsets(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_computed(self):
        assert mse([1.0, 2.0, 3.0], [2.0, 4.0, 3.0]) == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            mse([1.0, 2.0], [1.0])

    def test_nonnegative(self):
        rng = Rng(12)
        a, b = rng.normals(50), rng.normals(50)
        assert mse(a, b) > 0.0
