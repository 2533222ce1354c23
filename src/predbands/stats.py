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
from .dataset import Grid
from .linear import LinearRegression

if TYPE_CHECKING:
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


def quantile(values, p: float) -> float:
    """Interpolated quantile of a nonempty sample, p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return float(_column_quantile(np.sort(as_float_vector(values)), p))


def mean_sd(values) -> tuple[float, float]:
    """Sample mean and standard deviation (n-1 denominator; sd 0 for n=1)."""
    v = as_float_vector(values)
    sd = float(np.std(v, ddof=1)) if len(v) > 1 else 0.0
    return float(np.mean(v)), sd


@dataclass(frozen=True)
class QuartileBand:
    """Quartiles of one sample plus the 1.5*IQR fences."""

    q1: float
    median: float
    q3: float
    iqr: float
    low: float
    high: float


def quartile_band(values) -> QuartileBand:
    """Quartiles and fences of a sample."""
    return QuartileBand(*(float(v) for v in _fences(np.sort(as_float_vector(values)))))


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

    def band_at(self, i: int) -> QuartileBand:
        return QuartileBand(q1=float(self.q1[i]), median=float(self.median[i]),
                            q3=float(self.q3[i]), iqr=float(self.iqr[i]),
                            low=float(self.low[i]), high=float(self.high[i]))

    def table(self) -> tuple[list[str], np.ndarray]:
        """Header ``x,mean,sd,q1,median,q3,iqr,low,high`` and one row per grid point."""
        names = ["mean", "sd", "q1", "median", "q3", "iqr", "low", "high"]
        return ["x"] + names, np.column_stack(
            [self.grid.points] + [getattr(self, name) for name in names])


def band_curve(matrix: "PredictionMatrix") -> BandCurve:
    """Column-wise quartile band of a prediction matrix (needs >= 2 rows)."""
    rows = matrix.rows
    if rows.shape[0] < 2:
        raise ValueError(f"need at least 2 replications, got {rows.shape[0]}")
    # sd's matrix-sized temporary is freed before the sorted copy is made
    mean, sd = np.mean(rows, axis=0), np.std(rows, axis=0, ddof=1)
    return BandCurve(matrix.grid, *_fences(np.sort(rows, axis=0)), mean=mean, sd=sd)


def band_slope(curve: BandCurve) -> float:
    """Least squares slope of the median curve over its grid.

    A model that systematically flattens its predictions toward the
    sample mean shows up here as a slope below the generating one.
    """
    return LinearRegression().fit(curve.grid.points, curve.median).slope_


@dataclass(frozen=True)
class Histogram:
    """Equal-width count histogram; bins right-open except the last."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n: int

    def __post_init__(self):
        if np.any(np.diff(self.bin_edges) <= 0):
            raise ValueError("bin_edges must be strictly increasing")
        if len(self.bin_edges) != len(self.counts) + 1:
            raise ValueError("need len(bin_edges) == len(counts) + 1")
        if int(np.sum(self.counts)) != self.n:
            raise ValueError("counts must sum to n")

    @property
    def bin_width(self) -> float:
        return float((self.bin_edges[-1] - self.bin_edges[0]) / len(self.counts))


def histogram(values, bins: int | None = None) -> Histogram:
    """Histogram over [min, max] with ceil(sqrt(n)) bins by default.

    A constant sample gets a single unit-width bin centered on it.
    """
    v = as_float_vector(values)
    n = len(v)
    if bins is None:
        bins = math.ceil(math.sqrt(n))
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    vmin, vmax = float(v.min()), float(v.max())
    if vmin == vmax:
        return Histogram(bin_edges=np.array([vmin - 0.5, vmax + 0.5]),
                         counts=np.array([n]), n=n)
    edges = np.linspace(vmin, vmax, bins + 1)
    counts, _ = np.histogram(v, bins=edges)
    return Histogram(bin_edges=edges, counts=counts, n=n)


def gaussian_overlay(mean: float, sd: float, hist: Histogram,
                     points_per_bin: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Expected-count Gaussian curve to superimpose on a count histogram.

    Returns (x, y) with ``y = n * bin_width * pdf((x - mean) / sd) / sd``
    sampled at ``points_per_bin`` points per bin across the histogram span.
    """
    if sd <= 0:
        raise ValueError(f"sd must be positive, got {sd}")
    if points_per_bin < 1:
        raise ValueError(f"points_per_bin must be >= 1, got {points_per_bin}")
    k = len(hist.counts)
    xs = np.linspace(hist.bin_edges[0], hist.bin_edges[-1], k * points_per_bin + 1)
    z = (xs - mean) / sd
    ys = hist.n * hist.bin_width * (np.exp(-0.5 * z * z) / _SQRT_2PI) / sd
    return xs, ys


@dataclass(frozen=True)
class BoxplotSummary:
    """Box-and-whisker statistics of one sample."""

    q1: float
    median: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: np.ndarray


def boxplot_summary(values) -> BoxplotSummary:
    """Quartiles, whiskers at the most extreme points inside the fences,
    and the sorted points strictly outside them."""
    v = np.sort(as_float_vector(values))
    band = QuartileBand(*(float(f) for f in _fences(v)))
    inside = v[(v >= band.low) & (v <= band.high)]
    # Fences always contain some data point, but fall back to the box
    # edges rather than crash on a pathological sample.
    whisker_low = float(inside[0]) if len(inside) else band.q1
    whisker_high = float(inside[-1]) if len(inside) else band.q3
    outliers = v[(v < band.low) | (v > band.high)]
    return BoxplotSummary(q1=band.q1, median=band.median, q3=band.q3,
                          whisker_low=whisker_low, whisker_high=whisker_high,
                          outliers=outliers)


def distribution_report(values, bins: int | None = None,
                        points_per_bin: int = 16) -> dict:
    """Histogram + boxplot + Gaussian overlay as one JSON-ready document.

    The overlay uses the sample's own mean and standard deviation; it is
    ``None`` for constant samples (sd = 0).
    """
    v = as_float_vector(values)
    hist = histogram(v, bins=bins)
    box = boxplot_summary(v)
    mean, sd = mean_sd(v)
    overlay = None
    if sd > 0:
        ox, oy = gaussian_overlay(mean, sd, hist, points_per_bin=points_per_bin)
        overlay = {"x": ox.tolist(), "y": oy.tolist()}
    return {
        "n": int(len(v)),
        "mean": mean,
        "sd": sd,
        "bin_edges": hist.bin_edges.tolist(),
        "counts": hist.counts.tolist(),
        "overlay": overlay,
        "box": {
            "q1": box.q1,
            "median": box.median,
            "q3": box.q3,
            "whisker_low": box.whisker_low,
            "whisker_high": box.whisker_high,
            "outliers": box.outliers.tolist(),
        },
    }
