"""Non-parametric summaries of prediction and coefficient samples.

Quantiles use linear interpolation between order statistics at rank
``h = (n - 1) * p`` (the "type 7" convention).  Band limits are the
classic box-plot fences, 1.5 interquartile ranges (``iqr = q3 - q1``)
below the first quartile and above the third.

For Gaussian data these fences sit at about +/-2.70 standard deviations
(99.3% coverage), slightly narrower than the 3-sigma / 99.7% rule of
thumb they are often equated with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .base import as_float_vector

if TYPE_CHECKING:
    from .dataset import Grid
    from .montecarlo import PredictionMatrix

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _column_quantile(sorted_cols: np.ndarray, p: float) -> np.ndarray:
    # The type-7 rule, applied down each column of a column-sorted array
    # (a sorted vector is a single column).
    n = sorted_cols.shape[0]
    h = (n - 1) * p
    lo = int(h)
    if lo >= n - 1:
        return sorted_cols[-1].copy()
    frac = h - lo
    return sorted_cols[lo] + frac * (sorted_cols[lo + 1] - sorted_cols[lo])


def _fences(sorted_cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """q1, median, q3, iqr, low and high of each column of a column-sorted array."""
    q1 = _column_quantile(sorted_cols, 0.25)
    median = _column_quantile(sorted_cols, 0.5)
    q3 = _column_quantile(sorted_cols, 0.75)
    iqr = q3 - q1
    return q1, median, q3, iqr, q1 - 1.5 * iqr, q3 + 1.5 * iqr


@dataclass(frozen=True)
class BandCurve:
    """Per-grid-point quartile band of a prediction matrix."""

    grid: Grid
    q1: np.ndarray
    median: np.ndarray
    q3: np.ndarray
    iqr: np.ndarray
    low: np.ndarray
    high: np.ndarray
    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self):
        g = len(self.grid.points)
        for name in ("q1", "median", "q3", "iqr", "low", "high", "mean", "sd"):
            if len(getattr(self, name)) != g:
                raise ValueError(f"{name} length does not match grid ({g})")

    def table(self) -> tuple[list[str], np.ndarray]:
        """Header ``x,mean,sd,q1,median,q3,iqr,low,high`` and one row per grid point."""
        names = ["mean", "sd", "q1", "median", "q3", "iqr", "low", "high"]
        return ["x"] + names, np.column_stack(
            [self.grid.points] + [getattr(self, name) for name in names])


def band_curve(matrix: "PredictionMatrix") -> BandCurve:
    """Column-wise quartile band of a prediction matrix (needs >= 2 rows)."""
    n, g = matrix.n_replications, len(matrix.grid)
    if n < 2:
        raise ValueError(f"need at least 2 replications, got {n}")
    # np.mean, np.std and np.sort would each make a temporary the size of the
    # matrix, so all three work on the matrix's blocks of rows or columns.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _sum_down(matrix.row_blocks()) / n
        sd = np.sqrt(_sum_down(matrix.row_blocks(), mean) / (n - 1))
    if not (np.isfinite(mean).all() and np.isfinite(sd).all()):
        raise ValueError("the predictions' mean or sd overflows a float")
    fences = np.empty((6, g))
    for cols, lanes in matrix.column_blocks():
        lanes.sort(axis=1)
        fences[:, cols] = _fences(lanes.T)
    return BandCurve(matrix.grid, *fences, mean=mean, sd=sd)


def _sum_down(blocks, centre: np.ndarray | None = None) -> np.ndarray:
    """Column sums of row blocks, or with ``centre`` of their squared deviations
    from it, in numpy's bits for the whole matrix.  numpy adds 2 or more columns
    up row by row, so each block is summed below the sum of the rows before it,
    and the first alone, as numpy's sum starts at its first row (so a column of
    -0.0 sums to -0.0)."""
    total = None
    for block in blocks:
        if centre is not None:
            block = np.square(block - centre)
        if total is not None:
            block = np.concatenate([total[None], block])
        total = np.add.reduce(block, axis=0)
    return total


def distribution_report(values, bins: int | None = None) -> dict:
    """Histogram + boxplot + Gaussian overlay as one JSON-ready document.

    The histogram has ``bins`` equal bins over [min, max], ceil(sqrt(n))
    by default, each right-open except the last; a constant sample gets
    one unit-width bin centered on it.  The box holds the quartiles,
    whiskers at the most extreme points inside the 1.5*IQR fences, and
    the sorted points strictly outside them.  The overlay is the
    expected-count curve ``n * bin_width * pdf((x - mean) / sd) / sd`` at
    16 points per bin, from the sample's own mean and n-1 standard
    deviation; it is ``None`` for constant samples (sd = 0).
    """
    v = as_float_vector(values)
    n = len(v)
    if bins is None:
        bins = math.ceil(math.sqrt(n))
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    low, high = float(v.min()), float(v.max())
    # in the sample's own order: a sorted copy sums in another order
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = float(np.mean(v)), float(np.std(v, ddof=1)) if n > 1 else 0.0
        # A sum of huge values can overflow where their mean and sd are finite;
        # then these are taken again from the values less their minimum.  A
        # finite value stays as numpy gives it, so no written report moves.
        if not math.isfinite(mean):
            mean = low + float(np.mean(v - low))
        if not math.isfinite(sd):
            sd = float(np.std(v - low, ddof=1))
    if not all(map(math.isfinite, (high - low, mean, sd))):
        raise ValueError("the sample's range, mean or sd overflows a float")
    if low == high:
        edges, counts = np.array([low - 0.5, high + 0.5]), np.array([n])
    else:
        edges = np.linspace(low, high, bins + 1)
        if np.any(np.diff(edges) <= 0):
            raise ValueError(f"the sample's range is too narrow for {bins} bins")
        counts, _ = np.histogram(v, bins=edges)
    overlay = None
    if sd > 0:
        xs = np.linspace(edges[0], edges[-1], len(counts) * 16 + 1)
        z = (xs - mean) / sd
        width = float((edges[-1] - edges[0]) / len(counts))
        ys = n * width * (np.exp(-0.5 * z * z) / _SQRT_2PI) / sd
        overlay = {"x": xs.tolist(), "y": ys.tolist()}
    s = np.sort(v)
    q1, median, q3, _, fence_low, fence_high = (float(f) for f in _fences(s))
    inside = s[(s >= fence_low) & (s <= fence_high)]
    return {
        "n": n,
        "mean": mean,
        "sd": sd,
        "bin_edges": edges.tolist(),
        "counts": counts.tolist(),
        "overlay": overlay,
        "box": {
            "q1": q1,
            "median": median,
            "q3": q3,
            # Fences always contain some data point, but fall back to the box
            # edges rather than crash on a pathological sample.
            "whisker_low": float(inside[0]) if len(inside) else q1,
            "whisker_high": float(inside[-1]) if len(inside) else q3,
            "outliers": s[(s < fence_low) | (s > fence_high)].tolist(),
        },
    }
