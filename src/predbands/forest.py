"""Regression tree and bagged forest for univariate inputs, from scratch.

Trees are grown by greedy binary splitting under the squared-error
criterion: at every node all candidate thresholds (midpoints between
consecutive distinct x values in the node) are evaluated and the split
with the smallest total child SSE wins; equal-SSE ties go to the lowest
threshold so builds are deterministic.  Routing sends ``x <= threshold``
left.  Because x is one-dimensional, a fitted tree is just a piecewise
constant function, stored as its sorted cut points plus leaf means.

:func:`fit_forests` grows the forests of a whole block of datasets, one
per row, and every tree of them grows together, level by level.  Each
dataset's x is deduplicated once, and each tree's bootstrap sample
becomes a vector of counts over its dataset's distinct x values.
Per-tree prefix sums of the counts and of the count-weighted targets
give the size and sum of any node, or of either side of any cut, as two
differences.  So one vectorized pass scores every cut of every open node
of every tree at a depth.  A node stops splitting when it is too small,
too deep, holds a single distinct x, has constant targets (an exact test
on prefix counts) or has no cut that leaves both children
``min_samples_leaf`` rows.  A forest or a single tree is a block of one
row; a single tree is a forest of one tree grown on its sample as given.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .base import ForestParams, as_float_vector, check_fitted, check_xy
from .rng import Streams, stream_seeds


# Rows drawn by the trees grown in one pass, whichever datasets they
# belong to.  Growing takes about 80 bytes per drawn row, so a pass stays
# near 1.6 MB however large the block; passes never change a result, as
# each tree's arithmetic is its own.
_BATCH_ROWS = 20_000


def forests_per_block(n: int, params: ForestParams) -> int:
    """How many forests on ``n`` rows a block should fit at once (at least 1).

    A block's trees are held until they have predicted.  A tree has at
    most ``n / min_samples_leaf`` leaves, so this holds at most
    ``_BATCH_ROWS`` leaves.
    """
    return max(1, _BATCH_ROWS * params.min_samples_leaf // (n * params.n_trees))


class ForestFits(NamedTuple):
    """Fitted forests of a block: every tree as its cut points and leaf values.

    Trees are stored forest by forest, in tree order: tree t of forest r
    is tree ``r * n_trees + t`` of the flat arrays.
    """

    thresholds: np.ndarray  # every tree's sorted cut points, tree after tree
    values: np.ndarray      # every tree's leaf values, left to right, tree after tree
    n_leaves: np.ndarray    # (forests, n_trees) leaves of each tree

    def trees(self, forest: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """(thresholds, leaf values) of each tree of one forest."""
        n_trees = self.n_leaves.shape[1]
        first = forest * n_trees
        ends = np.cumsum(self.n_leaves.ravel()[:first + n_trees]).tolist()
        starts = [0] + ends[:-1]
        # tree i has one cut fewer than leaves: its cuts are [s - i, e - i - 1)
        return [(self.thresholds[s - i:e - i - 1], self.values[s:e])
                for i, s, e in zip(range(first, first + n_trees), starts[first:], ends[first:])]

    def predict(self, points: np.ndarray) -> np.ndarray:
        """(forests, k) mean tree predictions at ``points``.

        ``points`` is (k,), shared by every forest, or (forests, k), one
        row of points per forest.
        """
        forests, n_trees = self.n_leaves.shape
        out = np.empty((forests, points.shape[-1]))
        leaf_ends = np.concatenate([[0], np.cumsum(self.n_leaves.ravel())])
        tree = np.arange(n_trees)
        for r in range(forests):
            lo, hi = leaf_ends[r * n_trees], leaf_ends[(r + 1) * n_trees]
            cuts = self.thresholds[lo - r * n_trees:hi - (r + 1) * n_trees]
            # Rank cuts and points among the forest's distinct cuts, then offset
            # each tree's ranks into its own band: one sorted search then finds,
            # for every (tree, point), the cuts below the point in earlier trees
            # and in its own.  Adding the tree index gives a leaf index.
            levels = np.unique(cuts)
            band = (len(levels) + 1) * tree
            keys = np.repeat(band, self.n_leaves[r] - 1) + np.searchsorted(levels, cuts)
            ranks = np.searchsorted(levels, points if points.ndim == 1 else points[r])
            leaf = np.searchsorted(keys, band[:, None] + ranks) + tree[:, None]
            out[r] = self.values[lo:hi][leaf].sum(axis=0) / n_trees
        return out


class _Block(NamedTuple):
    """The datasets of a block, flattened row after row."""

    xs: np.ndarray
    ys: np.ndarray
    group: np.ndarray   # rank of each x among its row's distinct x values
    centre: np.ndarray  # median target of each row
    n: int              # values per row


def fit_forests(xs: np.ndarray, ys: np.ndarray, params: ForestParams, seeds) -> ForestFits:
    """Grow a forest on every row of (rows, n) arrays xs and ys.

    Tree t of row r is fit to the bootstrap sample drawn from the stream
    ``derive_seed(seeds[r], t)``, or to the row itself without bootstrap.
    Trees are grown in passes of at most ``_BATCH_ROWS`` drawn rows,
    filled in (row, tree) order across row boundaries.
    """
    rows, n = xs.shape
    if n < params.min_samples_leaf:
        raise ValueError(
            f"need at least min_samples_leaf={params.min_samples_leaf} rows, got {n}")
    # Number each row's distinct x values from left to right.
    order = np.argsort(xs, axis=1)
    ordered = np.take_along_axis(xs, order, axis=1)
    rises = np.empty((rows, n), dtype=np.int32)
    rises[:, 0] = 0
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=rises[:, 1:])
    group = np.empty_like(rises)
    np.put_along_axis(group, order, np.cumsum(rises, axis=1, dtype=np.int32), axis=1)
    data = _Block(xs.ravel(), ys.ravel(), group.ravel(), np.median(ys, axis=1), n)
    tree_seeds = stream_seeds(seeds, range(params.n_trees)).ravel() if params.bootstrap else None
    total = rows * params.n_trees
    per_pass = max(1, _BATCH_ROWS // n)
    parts = [_grow(data, params, tree_seeds, range(first, min(first + per_pass, total)))
             for first in range(0, total, per_pass)]
    thresholds, values, n_leaves = (np.concatenate(part) for part in zip(*parts))
    return ForestFits(thresholds, values, n_leaves.reshape(rows, params.n_trees))


def _pack(data: _Block, params: ForestParams, tree_seeds, trees: range):
    """Bootstrap the trees numbered ``trees`` and pack them one per row.

    Tree i of the pass is a row of ``width`` entries: entry k holds the
    k-th distinct x value the tree drew, and entry k of tree i sits at
    flat index i*width + k.  Every row has one slot to spare, so a
    node is a flat range [start, stop) and the prefix sums below (entry
    k's count is added at k + 1) never reach the next tree.
    """
    n, n_trees = data.n, params.n_trees
    dataset = np.arange(trees.start, trees.stop) // n_trees
    if tree_seeds is not None:
        draws = Streams(tree_seeds[trees.start:trees.stop]).integers(n, n)
        draws += (dataset * n)[:, None]
    else:
        draws = np.arange(n) + (dataset * n)[:, None]
    cols = data.group[draws]
    drawn = np.zeros(cols.shape, dtype=bool)
    at = np.arange(len(trees))[:, None]
    drawn[at, cols] = True
    rank = np.cumsum(drawn, axis=1, dtype=np.int32)
    per_tree = rank[:, -1]
    width = int(per_tree.max()) + 1
    slot = rank[at, cols]
    del drawn, rank, cols
    slot += (np.arange(len(trees), dtype=np.int32) * width - 1)[:, None]
    slot = slot.ravel()
    size = len(trees) * width
    x_at = np.zeros(size)
    x_at[slot] = data.xs[draws].ravel()
    y = data.ys[draws]
    del draws
    y_low = np.full(size, np.inf)
    y_high = np.full(size, -np.inf)
    np.minimum.at(y_low, slot, y.ravel())
    np.maximum.at(y_high, slot, y.ravel())
    # Targets are centred to limit cancellation.  The median keeps
    # integer-valued targets exact, so mirror-image cuts tie exactly.
    centre = data.centre[dataset]
    y -= centre[:, None]
    slot += 1
    prefix_y = np.bincount(slot, weights=y.ravel(), minlength=size)
    del y
    prefix_y = prefix_y.reshape(len(trees), width).cumsum(axis=1).ravel()
    # Counts run on across rows, so prefix_n is monotone over the whole
    # pass, and reach[v] is the first flat index whose prefix count is v
    # or more: the searchsorted(prefix_n, v) of every count v.
    counts = np.bincount(slot, minlength=size)
    prefix_n = counts.cumsum(dtype=np.int32)
    counts[0] = 1
    reach = np.repeat(np.arange(size, dtype=np.int32), counts)
    return width, per_tree, centre, x_at, y_low, y_high, prefix_n, prefix_y, reach


def _grow(data: _Block, params: ForestParams, tree_seeds, trees: range):
    """Grow the trees numbered ``trees`` level by level together.

    Returns their cut points and leaf values, tree after tree, and the
    number of leaves of each.
    """
    width, per_tree, centre, x_at, y_low, y_high, prefix_n, prefix_y, reach = _pack(
        data, params, tree_seeds, trees)
    # A node is constant when none of its entries mixes targets and no
    # entry after its first differs from the entry before.
    size = len(x_at)
    mixed = np.zeros(size, dtype=np.int32)
    np.cumsum(y_low[:-1] < y_high[:-1], out=mixed[1:])
    steps = np.zeros(size, dtype=np.int32)
    np.cumsum(y_low[1:] != y_low[:-1], out=steps[1:])
    leaf_size = params.min_samples_leaf
    # a node of fewer rows has no cut that leaves both children leaf_size rows
    min_rows = max(params.min_samples_split, 2 * leaf_size)

    leaf_at, leaf_end, cut_at = [], [], []
    start = np.arange(len(trees)) * width
    stop = start + per_tree
    depth = 0
    while len(start):
        open_ = ((prefix_n[stop] - prefix_n[start] >= min_rows)
                 & ((mixed[stop] > mixed[start]) | (steps[stop - 1] > steps[start])))
        if params.max_depth is not None and depth >= params.max_depth:
            open_[:] = False
        # A cut is the first entry k of its right child, and the cuts that
        # leave both children leaf_size rows are the k from low to high.
        a, b = start[open_], stop[open_]
        low = reach[prefix_n[a] + leaf_size]
        high = reach[prefix_n[b] - leaf_size + 1] - 1
        n_cuts = high - low + 1  # >= 0, as each node has 2 * leaf_size rows
        has_cut = n_cuts > 0
        open_[open_] = has_cut
        a, b, low, n_cuts = a[has_cut], b[has_cut], low[has_cut], n_cuts[has_cut]
        first = np.cumsum(n_cuts) - n_cuts
        k = np.repeat((low - first).astype(np.int32), n_cuts)
        k += np.arange(len(k), dtype=np.int32)
        # Its score is the total child SSE minus the node's own sum of
        # squares, which no cut changes.
        n_left = prefix_n[k]
        n_right = np.repeat(prefix_n[b], n_cuts) - n_left
        n_left -= np.repeat(prefix_n[a], n_cuts)
        s_left = prefix_y[k]
        s_right = np.repeat(prefix_y[b], n_cuts) - s_left
        s_left -= np.repeat(prefix_y[a], n_cuts)
        score = -(s_left * s_left / n_left + s_right * s_right / n_right)
        del n_left, n_right, s_left, s_right
        best = np.minimum.reduceat(score, first) if len(score) else score
        # the first minimum of a node is its lowest threshold
        ties = np.flatnonzero(score == np.repeat(best, n_cuts))
        cut = k[ties[np.searchsorted(ties, first)]]
        leaf = ~open_
        leaf_at.append(start[leaf])
        leaf_end.append(stop[leaf])
        cut_at.append(cut)
        start, stop = np.concatenate([a, cut]), np.concatenate([cut, b])
        depth += 1

    leaf_at = np.concatenate(leaf_at)
    order = np.argsort(leaf_at)
    leaf_at, leaf_end = leaf_at[order], np.concatenate(leaf_end)[order]
    means = centre[leaf_at // width] + (prefix_y[leaf_end] - prefix_y[leaf_at]) / (
        prefix_n[leaf_end] - prefix_n[leaf_at])
    # A leaf's targets lie between its first entry and the next leaf's;
    # empty slots hold +-inf and change no bound.  A mean can round past
    # its targets' range by an ulp; keep it inside.
    values = np.clip(means, np.minimum.reduceat(y_low, leaf_at),
                     np.maximum.reduceat(y_high, leaf_at))
    cut_at = np.sort(np.concatenate(cut_at))
    thresholds = (x_at[cut_at - 1] + x_at[cut_at]) / 2.0
    return thresholds, values, np.bincount(leaf_at // width, minlength=len(trees))


@dataclass(eq=False)
class DecisionTreeRegressor:
    """CART-style regression tree on one feature, kept in ``fits_`` as a one-tree forest.

    Attributes (after ``fit``, read-only views of ``fits_``)
    --------------------------------------------------------
    thresholds_ : ndarray
        Sorted cut points; point x is routed to leaf
        ``searchsorted(thresholds_, x, side="left")``.
    leaf_values_ : ndarray
        Mean training target of each leaf, left to right
        (``len(leaf_values_) == len(thresholds_) + 1``).
    """

    max_depth: int | None = None
    min_samples_leaf: int = 1
    min_samples_split: int = 2

    def fit(self, x, y) -> "DecisionTreeRegressor":
        xs, ys = check_xy(x, y)
        params = ForestParams(n_trees=1, bootstrap=False, **asdict(self))
        self.fits_ = fit_forests(xs[None], ys[None], params, [0])
        return self

    @property
    def thresholds_(self) -> np.ndarray:
        return check_fitted(self, "fits_").thresholds

    @property
    def leaf_values_(self) -> np.ndarray:
        return check_fitted(self, "fits_").values

    @property
    def n_leaves_(self) -> int:
        return len(self.leaf_values_)

    def predict(self, x) -> np.ndarray:
        return check_fitted(self, "fits_").predict(as_float_vector(x, "x"))[0]


@dataclass(eq=False)
class RandomForestRegressor:
    """Bagging ensemble of regression trees; prediction is the tree mean.

    With one feature there is nothing to subsample per split, so the
    ensemble randomness comes entirely from bootstrap resampling.  Tree t
    draws its bootstrap sample from the stream ``derive_seed(seed, t)``,
    which makes fits reproducible and order-independent.  Defaults and
    validation come from :class:`ForestParams`.  ``fit`` keeps the fitted
    forest in ``fits_``; ``trees_`` lists read-only one-tree views of it.
    """

    n_trees: int = ForestParams.n_trees
    max_depth: int | None = ForestParams.max_depth
    min_samples_leaf: int = ForestParams.min_samples_leaf
    min_samples_split: int = ForestParams.min_samples_split
    bootstrap: bool = ForestParams.bootstrap
    seed: int = 0

    @classmethod
    def from_params(cls, params: ForestParams, seed: int) -> "RandomForestRegressor":
        return cls(**asdict(params), seed=seed)

    def fit(self, x, y) -> "RandomForestRegressor":
        params = ForestParams(**{f.name: getattr(self, f.name) for f in fields(ForestParams)})
        xs, ys = check_xy(x, y)
        self.fits_ = fit_forests(xs[None], ys[None], params, [self.seed])
        return self

    @property
    def trees_(self) -> list[DecisionTreeRegressor]:
        trees = []
        for thresholds, values in check_fitted(self, "fits_").trees(0):
            tree = DecisionTreeRegressor(self.max_depth, self.min_samples_leaf,
                                         self.min_samples_split)
            tree.fits_ = ForestFits(thresholds, values, np.array([[len(values)]]))
            trees.append(tree)
        return trees

    def predict(self, x) -> np.ndarray:
        return check_fitted(self, "fits_").predict(as_float_vector(x, "x"))[0]
