"""Property tests: bootstrap block draws and batched forest trees against oracles."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from predbands import forest
from predbands.dataset import GenConfig, generate_dataset
from predbands.forest import RandomForestRegressor
from predbands.rng import Rng, derive_seed, stream_integers

from test_forest import exhaustive_tree_oracle

# derandomized so that every run of the suite checks the same examples
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def rational_tree_oracle(xs, ys, max_depth=None, min_leaf=1, min_split=2):
    """The search of exhaustive_tree_oracle, in exact rational arithmetic.

    Integer-valued targets make equal-SSE cuts common.  The float oracle
    breaks such ties by rounding; this one by the documented rule, the
    lowest threshold.
    """
    rows = sorted(zip(map(float, xs), map(Fraction, ys)))
    thresholds, values = [], []

    def sse(part):
        mean = sum(y for _, y in part) / len(part)
        return sum((y - mean) ** 2 for _, y in part)

    def grow(part, depth):
        n = len(part)
        targets = [y for _, y in part]
        cuts = []
        if not (n < min_split or (max_depth is not None and depth >= max_depth)
                or min(targets) == max(targets)):
            cuts = [i for i in range(min_leaf, n - min_leaf + 1)
                    if part[i - 1][0] != part[i][0]]
        if not cuts:
            values.append(float(sum(targets) / n))
            return
        i = min(cuts, key=lambda i: sse(part[:i]) + sse(part[i:]))  # first minimum
        grow(part[:i], depth + 1)
        thresholds.append((part[i - 1][0] + part[i][0]) / 2.0)
        grow(part[i:], depth + 1)

    grow(rows, 0)
    return np.array(thresholds), np.array(values)


@PROPERTY
@given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 50),
       n_trees=st.integers(1, 20), n=st.integers(1, 300))
def test_bootstrap_block_equals_per_tree_draws(seed, first, n_trees, n):
    trees = range(first, first + n_trees)
    block = stream_integers(seed, trees, n, n)
    assert block.shape == (n_trees, n) and block.dtype == np.int64
    for row, t in zip(block, trees):
        assert np.array_equal(row, Rng(derive_seed(seed, t)).integers(n, size=n))


def test_growing_in_batches_changes_no_tree(monkeypatch):
    data = generate_dataset(GenConfig(seed=34))
    whole = RandomForestRegressor(n_trees=12, seed=7).fit(data.xs, data.ys)
    monkeypatch.setattr(forest, "_BATCH_ROWS", 5 * len(data.xs))  # 5 trees a batch
    batched = RandomForestRegressor(n_trees=12, seed=7).fit(data.xs, data.ys)
    assert len(batched.trees_) == 12
    for a, b in zip(whole.trees_, batched.trees_):
        assert np.array_equal(a.thresholds_, b.thresholds_)
        assert np.array_equal(a.leaf_values_, b.leaf_values_)


@st.composite
def forest_cases(draw, integer_targets):
    """x on a coarse grid, so x values repeat; integer or continuous targets."""
    xs = draw(st.lists(st.integers(0, 8), min_size=1, max_size=25))
    n = len(xs)
    if integer_targets:
        ys = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    else:
        ys = 10.0 * Rng(draw(st.integers(0, 2**64 - 1))).normals(n)
    return dict(
        xs=np.array(xs, dtype=float),
        ys=np.array(ys, dtype=float),
        n_trees=draw(st.integers(1, 5)),
        max_depth=draw(st.none() | st.integers(0, 4)),
        min_leaf=draw(st.integers(1, min(4, n))),
        min_split=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def check_trees(case, oracle):
    forest = RandomForestRegressor(
        n_trees=case["n_trees"], max_depth=case["max_depth"],
        min_samples_leaf=case["min_leaf"], min_samples_split=case["min_split"],
        seed=case["seed"]).fit(case["xs"], case["ys"])
    n = len(case["xs"])
    assert len(forest.trees_) == case["n_trees"]
    for t, tree in enumerate(forest.trees_):
        idx = Rng(derive_seed(case["seed"], t)).integers(n, size=n)
        want_t, want_v = oracle(case["xs"][idx], case["ys"][idx], case["max_depth"],
                                case["min_leaf"], case["min_split"])
        assert tree.thresholds_.shape == want_t.shape, f"tree {t}"
        assert np.allclose(tree.thresholds_, want_t, rtol=1e-12, atol=1e-12), f"tree {t}"
        assert np.allclose(tree.leaf_values_, want_v, rtol=1e-12, atol=1e-12), f"tree {t}"
        assert tree.n_leaves_ == len(want_v)


# Continuous targets: bootstrap repeats give tied rows, the grid gives
# duplicate x with distinct targets.
@PROPERTY
@given(forest_cases(integer_targets=False))
def test_bootstrapped_trees_match_exhaustive_oracle(case):
    check_trees(case, exhaustive_tree_oracle)


# Few integer targets: constant nodes and exact SSE ties are common.
@PROPERTY
@given(forest_cases(integer_targets=True))
def test_bootstrapped_trees_with_tied_targets_match_rational_oracle(case):
    check_trees(case, rational_tree_oracle)
