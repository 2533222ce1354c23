"""Closed-form univariate least squares with coefficient standard errors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .base import as_float_vector, check_fitted, check_xy


class SingularFitError(ValueError):
    """Raised when the design is degenerate (all x values identical).

    ``row`` is the first degenerate row of a batched fit.
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class LineFits(NamedTuple):
    """Least squares lines of a batch, one entry per row."""

    slope: np.ndarray
    intercept: np.ndarray
    residual_se: np.ndarray
    x_mean: np.ndarray
    sxx: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        """(rows, len(x)) predictions; x is shared by all rows, or one row of x per line."""
        return self.intercept[:, None] + self.slope[:, None] * x


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # stacked (1, n) @ (n, 1) products call the same BLAS dot as np.dot(a[i], b[i])
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def fit_lines(xs: np.ndarray, ys: np.ndarray) -> LineFits:
    """Ordinary least squares fit of every row of (rows, n) arrays xs and ys."""
    n = xs.shape[1]
    if n < 2:
        raise ValueError(f"need at least 2 observations to fit a line, got {n}")
    flat = np.ptp(xs, axis=1) == 0.0
    if flat.any():
        raise SingularFitError("all x values are identical; slope is undetermined",
                               row=int(np.argmax(flat)))
    x_mean = np.mean(xs, axis=1)
    y_mean = np.mean(ys, axis=1)
    dx = xs - x_mean[:, None]
    sxx = _row_dots(dx, dx)
    if (sxx == 0.0).any():
        raise SingularFitError("x has zero variance; slope is undetermined",
                               row=int(np.argmax(sxx == 0.0)))
    slope = _row_dots(dx, ys - y_mean[:, None]) / sxx
    intercept = y_mean - slope * x_mean
    residuals = ys - intercept[:, None] - slope[:, None] * xs
    s = np.sqrt(_row_dots(residuals, residuals) / (n - 2)) if n > 2 else np.zeros(len(xs))
    return LineFits(slope, intercept, s, x_mean, sxx)


@dataclass(eq=False)
class LinearRegression:
    """Ordinary least squares fit of ``y = intercept + slope * x``.

    Beyond the coefficients, the fit records the classical inference
    quantities of the homoskedastic linear model: coefficient standard
    errors, the residual standard error ``s`` (with the n-2 denominator),
    and the design statistics ``x_mean`` and ``sxx`` needed for
    analytical prediction bands.

    Attributes (after ``fit``)
    --------------------------
    intercept_, slope_ : float
        Least squares coefficient estimates.
    intercept_se_, slope_se_ : float
        Standard errors: ``slope_se = s / sqrt(sxx)`` and
        ``intercept_se = s * sqrt(1/n + x_mean**2 / sxx)``.
    residual_se_ : float
        ``s = sqrt(sum(r**2) / (n - 2))``; reported as 0 when n == 2.
    n_ : int
    x_mean_ : float
    sxx_ : float
        ``sum((x - x_mean)**2)``.
    """

    def fit(self, x, y) -> "LinearRegression":
        xs, ys = check_xy(x, y)
        line = LineFits(*(float(v[0]) for v in fit_lines(xs[None], ys[None])))
        s, sxx = line.residual_se, line.sxx
        self.intercept_ = line.intercept
        self.slope_ = line.slope
        self.residual_se_ = s
        self.slope_se_ = s / np.sqrt(sxx)
        self.intercept_se_ = s * np.sqrt(1.0 / len(xs) + line.x_mean ** 2 / sxx)
        self.n_ = len(xs)
        self.x_mean_ = line.x_mean
        self.sxx_ = sxx
        return self

    def predict(self, x) -> np.ndarray:
        check_fitted(self, "slope_")
        xs = as_float_vector(x, "x")
        return self.intercept_ + self.slope_ * xs

    def prediction_band(self, x, level: float = 0.95,
                        kind: str = "mean") -> tuple[np.ndarray, np.ndarray]:
        """Analytical confidence band around the fitted line.

        ``kind="mean"`` bounds the mean response, with half-width
        ``z * s * sqrt(1/n + (x - x_mean)**2 / sxx)``; ``kind="observation"``
        bounds a new observation, adding 1 under the square root.  ``z``
        is the two-sided standard normal critical value for ``level``.
        """
        check_fitted(self, "slope_")
        if self.n_ <= 2:
            raise ValueError("prediction bands need n > 2 (no residual variance estimate)")
        if not 0.0 < level < 1.0:
            raise ValueError(f"level must be in (0, 1), got {level}")
        if kind not in ("mean", "observation"):
            raise ValueError(f"kind must be 'mean' or 'observation', got {kind!r}")
        # imported here, not at module level: no other command pays for it
        from statistics import NormalDist

        xs = as_float_vector(x, "x")
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        extra = 1.0 if kind == "observation" else 0.0
        half = z * self.residual_se_ * np.sqrt(
            extra + 1.0 / self.n_ + (xs - self.x_mean_) ** 2 / self.sxx_)
        center = self.intercept_ + self.slope_ * xs
        return center - half, center + half

    def summary(self) -> str:
        """One-line fit report: coefficients with standard errors in parentheses."""
        check_fitted(self, "slope_")
        return (f"y = {self.intercept_:.6g} ({self.intercept_se_:.3g}) "
                f"+ {self.slope_:.6g} ({self.slope_se_:.3g})·x")
