"""Regression tree and bagged forest for univariate inputs, from scratch.

Trees are grown by greedy binary splitting under the squared-error
criterion: at every node all candidate thresholds (midpoints between
consecutive distinct x values in the node) are evaluated and the split
with the smallest total child SSE wins; equal-SSE ties go to the lowest
threshold so builds are deterministic.  Routing sends ``x <= threshold``
left.  Because x is one-dimensional, a fitted tree is just a piecewise
constant function, stored as its sorted cut points plus leaf means.

All trees of a forest grow together, level by level.  x is sorted and
deduplicated once per fit, and each tree's bootstrap sample becomes a
vector of counts over the distinct x values.  Per-tree prefix sums of
the counts and of the count-weighted targets give the size and sum of
any node, or of either side of any cut, as two differences.  So one
vectorized pass scores every cut of every open node of every tree at a
depth.  A node stops splitting when it is too small, too deep, holds a
single distinct x, has constant targets (an exact min/max test) or has no
cut that leaves both children ``min_samples_leaf`` rows.  A single tree is
a forest of one tree grown on its sample as given.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .base import ParamsMixin, as_float_vector, check_xy
from .rng import stream_integers


@dataclass(frozen=True)
class ForestParams:
    """Forest hyperparameters (seed excluded; it is scheduled separately)."""

    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 5
    min_samples_split: int = 10
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0 or None, got {self.max_depth}")
        if self.min_samples_leaf < 1 or self.min_samples_split < 1:
            raise ValueError("min_samples_leaf and min_samples_split must be positive")


# Rows drawn by the trees grown in one batch.  Working memory is about
# 130 bytes per row, so a batch stays near 35 MB however large the data;
# batching never changes a result, as each tree's arithmetic is its own.
_BATCH_ROWS = 1 << 18


def _grow(xs, ys, params: ForestParams, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Grow ``params.n_trees`` trees; (thresholds, leaf values) of each.

    Tree t is fit to the bootstrap sample drawn from the stream
    ``derive_seed(seed, t)``, or to (xs, ys) itself without bootstrap.
    """
    n = len(xs)
    if n < params.min_samples_leaf:
        raise ValueError(
            f"need at least min_samples_leaf={params.min_samples_leaf} rows, got {n}")
    per_batch = max(1, _BATCH_ROWS // n)
    grown = []
    for first in range(0, params.n_trees, per_batch):
        batch = range(first, min(first + per_batch, params.n_trees))
        grown += _grow_batch(xs, ys, params, seed, batch)
    return grown


def _grow_batch(xs, ys, params: ForestParams, seed: int, trees: range):
    """_grow for the trees numbered ``trees``, grown level by level together."""
    n_trees, n = len(trees), len(xs)
    distinct, group = np.unique(xs, return_inverse=True)
    m = len(distinct)
    if params.bootstrap:
        draws = stream_integers(seed, trees, n, n)
    else:
        draws = np.broadcast_to(np.arange(n), (n_trees, n))
    # Number the distinct x values each tree drew from left to right.  Entry
    # k of tree t sits at flat index t*width + k, so a node is a flat range
    # [start, stop); a row has one slot to spare, so its prefix sums (entry
    # k's count is added at k + 1) never reach the next tree.
    rows, cols = np.arange(n_trees)[:, None], group[draws]
    drawn = np.zeros((n_trees, m), dtype=bool)
    drawn[rows, cols] = True
    rank = drawn.cumsum(axis=1) - 1
    per_tree = rank[:, -1] + 1
    width = int(per_tree.max()) + 1
    row_start = np.arange(n_trees) * width
    slot = (row_start[:, None] + rank[rows, cols]).ravel()
    size = n_trees * width
    x_at = np.zeros(size)
    x_at[slot] = xs[draws].ravel()
    y = ys[draws].ravel()
    y_low = np.full(size, np.inf)
    y_high = np.full(size, -np.inf)
    np.minimum.at(y_low, slot, y)
    np.maximum.at(y_high, slot, y)
    # Targets are centred to limit cancellation.  The median keeps
    # integer-valued targets exact, so mirror-image cuts tie exactly.
    centre = float(np.median(ys))
    prefix_n = np.bincount(slot + 1, minlength=size).reshape(n_trees, width)
    prefix_n = prefix_n.cumsum(axis=1).ravel()
    prefix_y = np.bincount(slot + 1, weights=y - centre, minlength=size).reshape(n_trees, width)
    prefix_y = prefix_y.cumsum(axis=1).ravel()

    leaf_at, leaf_values, cut_at = [], [], []
    start, stop = row_start, row_start + per_tree
    depth = 0
    while len(start):
        n_in = prefix_n[stop] - prefix_n[start]
        bounds = np.column_stack([start, stop]).ravel()
        lo = np.minimum.reduceat(y_low, bounds)[::2]
        hi = np.maximum.reduceat(y_high, bounds)[::2]
        open_ = np.flatnonzero((n_in >= params.min_samples_split) & (lo < hi)
                               & (stop - start > 1))
        if params.max_depth is not None and depth >= params.max_depth:
            open_ = open_[:0]
        # Cut j sends entries [a, j] left.  Its score is the total child SSE
        # minus the node's own sum of squares, which no cut changes.
        a, b = start[open_], stop[open_]
        n_cuts = b - a - 1
        first = np.cumsum(n_cuts) - n_cuts
        j = np.arange(n_cuts.sum()) + np.repeat(a - first, n_cuts)
        a, b = np.repeat(a, n_cuts), np.repeat(b, n_cuts)
        n_left = prefix_n[j + 1] - prefix_n[a]
        n_right = prefix_n[b] - prefix_n[j + 1]
        s_left = prefix_y[j + 1] - prefix_y[a]
        s_right = prefix_y[b] - prefix_y[j + 1]
        score = np.where((n_left >= params.min_samples_leaf)
                         & (n_right >= params.min_samples_leaf),
                         -(s_left * s_left / n_left + s_right * s_right / n_right), np.inf)
        best = np.minimum.reduceat(score, first)
        found = best < np.inf
        # the first minimum of a node is its lowest threshold
        at_best = np.where(score == np.repeat(best, n_cuts), np.arange(len(score)), len(score))
        cut = j[np.minimum.reduceat(at_best, first)[found]]
        split = np.zeros(len(start), dtype=bool)
        split[open_[found]] = True
        leaf = ~split
        mean = centre + (prefix_y[stop[leaf]] - prefix_y[start[leaf]]) / n_in[leaf]
        leaf_at.append(start[leaf])
        # a mean can round past its targets' range by an ulp; keep it inside
        leaf_values.append(np.clip(mean, lo[leaf], hi[leaf]))
        cut_at.append(cut)
        start, stop = (np.column_stack([start[split], cut + 1]).ravel(),
                       np.column_stack([cut + 1, stop[split]]).ravel())
        depth += 1

    leaf_at = np.concatenate(leaf_at)
    order = np.argsort(leaf_at)
    values = np.concatenate(leaf_values)[order]
    cut_at = np.sort(np.concatenate(cut_at))
    thresholds = (x_at[cut_at] + x_at[cut_at + 1]) / 2.0
    ends = np.cumsum(np.bincount(leaf_at // width, minlength=n_trees)).tolist()
    # tree t holds leaves [s, e) and, having one cut fewer than leaves
    # per tree, cuts [s - t, e - t - 1)
    return [(thresholds[s - t:e - t - 1], values[s:e])
            for t, (s, e) in enumerate(zip([0] + ends[:-1], ends))]


class DecisionTreeRegressor(ParamsMixin):
    """CART-style regression tree on a single feature.

    Attributes (after ``fit``)
    --------------------------
    thresholds_ : ndarray
        Sorted cut points; point x is routed to leaf
        ``searchsorted(thresholds_, x, side="left")``.
    leaf_values_ : ndarray
        Mean training target of each leaf, left to right
        (``len(leaf_values_) == len(thresholds_) + 1``).
    """

    def __init__(self, max_depth: int | None = None, min_samples_leaf: int = 1,
                 min_samples_split: int = 2):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split

    def fit(self, x, y) -> "DecisionTreeRegressor":
        xs, ys = check_xy(x, y)
        params = ForestParams(n_trees=1, max_depth=self.max_depth,
                              min_samples_leaf=self.min_samples_leaf,
                              min_samples_split=self.min_samples_split, bootstrap=False)
        [(thresholds, values)] = _grow(xs, ys, params, seed=0)
        return self._set_fitted(thresholds, values)

    def _set_fitted(self, thresholds, values) -> "DecisionTreeRegressor":
        self.thresholds_ = thresholds
        self.leaf_values_ = values
        self.n_leaves_ = len(values)
        return self

    def _check_fitted(self):
        if not hasattr(self, "leaf_values_"):
            raise ValueError("this DecisionTreeRegressor instance is not fitted yet")

    def predict(self, x) -> np.ndarray:
        self._check_fitted()
        xs = as_float_vector(x, "x")
        return self.leaf_values_[np.searchsorted(self.thresholds_, xs, side="left")]


class RandomForestRegressor(ParamsMixin):
    """Bagging ensemble of regression trees; prediction is the tree mean.

    With one feature there is nothing to subsample per split, so the
    ensemble randomness comes entirely from bootstrap resampling.  Tree t
    draws its bootstrap sample from the stream ``derive_seed(seed, t)``,
    which makes fits reproducible and order-independent.  Defaults and
    validation come from :class:`ForestParams`.
    """

    def __init__(self, n_trees: int = ForestParams.n_trees,
                 max_depth: int | None = ForestParams.max_depth,
                 min_samples_leaf: int = ForestParams.min_samples_leaf,
                 min_samples_split: int = ForestParams.min_samples_split,
                 bootstrap: bool = ForestParams.bootstrap, seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.bootstrap = bootstrap
        self.seed = seed

    @classmethod
    def from_params(cls, params: ForestParams, seed: int) -> "RandomForestRegressor":
        return cls(**asdict(params), seed=seed)

    def fit(self, x, y) -> "RandomForestRegressor":
        params = ForestParams(**{f.name: getattr(self, f.name) for f in fields(ForestParams)})
        xs, ys = check_xy(x, y)
        self.trees_ = [
            DecisionTreeRegressor(params.max_depth, params.min_samples_leaf,
                                  params.min_samples_split)._set_fitted(thresholds, values)
            for thresholds, values in _grow(xs, ys, params, self.seed)]
        return self

    def _check_fitted(self):
        if not hasattr(self, "trees_"):
            raise ValueError("this RandomForestRegressor instance is not fitted yet")

    def predict(self, x) -> np.ndarray:
        self._check_fitted()
        xs = as_float_vector(x, "x")
        trees = self.trees_
        n_cuts = [len(tree.thresholds_) for tree in trees]
        cuts = np.concatenate([tree.thresholds_ for tree in trees])
        values = np.concatenate([tree.leaf_values_ for tree in trees])
        # Rank cuts and points among the distinct cuts, then offset each
        # tree's ranks into its own band: one sorted search then finds, for
        # every (tree, point), the cuts below the point in earlier trees and
        # in its own.  Adding the tree index turns that into a leaf index.
        levels = np.unique(cuts)
        band = (len(levels) + 1) * np.arange(len(trees))
        keys = np.repeat(band, n_cuts) + np.searchsorted(levels, cuts)
        queries = band[:, None] + np.searchsorted(levels, xs)
        leaf = np.searchsorted(keys, queries) + np.arange(len(trees))[:, None]
        return values[leaf].sum(axis=0) / len(trees)
