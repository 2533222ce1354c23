"""Synthetic training data: a noisy line sampled over a uniform interval.

The data generating process is ``y = intercept + slope * x + e`` with
``x ~ U[x_low, x_high)`` and ``e ~ N(0, noise_sigma**2)``.  The draw
order is frozen: all x values first, then all noise values, so a given
(config, seed) always yields the identical dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import check_xy
from .rng import Streams
from .table import read_table


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GenConfig:
    """Parameters of the data generating process."""

    intercept: float = -100.0
    slope: float = 1.0
    x_low: float = 150.0
    x_high: float = 200.0
    noise_sigma: float = 10.0
    n_samples: int = 100
    seed: int = 0

    def __post_init__(self):
        for name in ("intercept", "slope", "x_low", "x_high", "noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not math.isfinite(self.x_high - self.x_low):
            raise ValueError(f"x_high - x_low must be finite, got [{self.x_low}, {self.x_high}]")
        if not self.x_low < self.x_high:
            raise ValueError(f"x_low must be < x_high, got [{self.x_low}, {self.x_high}]")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class Dataset:
    """Paired observations (xs[i], ys[i]); immutable after construction."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs, ys = check_xy(self.xs, self.ys)
        object.__setattr__(self, "xs", _frozen_array(xs))
        object.__setattr__(self, "ys", _frozen_array(ys))

    def __len__(self) -> int:
        return len(self.xs)

    def table(self) -> tuple[list[str], np.ndarray]:
        """Header ``x,y`` and one row per observation."""
        return ["x", "y"], np.column_stack([self.xs, self.ys])

    @classmethod
    def from_csv(cls, source) -> "Dataset":
        """Read a dataset CSV table (header ``x,y``)."""
        names, rows = read_table(source)
        if names != ["x", "y"]:
            raise ValueError("line 1: expected header 'x,y'")
        return cls(rows[:, 0], rows[:, 1])


@dataclass(frozen=True)
class Grid:
    """Strictly increasing, uniformly spaced prediction points."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) < 2:
            raise ValueError("grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid contains NaN or Inf")
        # compared, not subtracted, as a difference may overflow
        if np.any(pts[1:] <= pts[:-1]):
            raise ValueError("grid points must be strictly increasing")
        span = float(pts[-1]) - float(pts[0])
        if not math.isfinite(span):
            raise ValueError(f"grid span must be finite, got [{pts[0]}, {pts[-1]}]")
        step = span / (len(pts) - 1)
        tol = 1e-12 * max(abs(pts[0]), abs(pts[-1]), step)
        if np.max(np.abs(np.diff(pts) - step)) > tol:
            raise ValueError("grid spacing is not uniform")
        object.__setattr__(self, "points", _frozen_array(pts))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def low(self) -> float:
        return float(self.points[0])

    @property
    def high(self) -> float:
        return float(self.points[-1])

    def index(self, x: float) -> int:
        """Position of the grid point within a relative 1e-9 of x."""
        # a distance that overflows only means x is far from every point
        with np.errstate(over="ignore"):
            hits = np.nonzero(np.isclose(self.points, x, rtol=1e-9, atol=0.0))[0]
        if not len(hits):
            raise ValueError(
                f"x={x} is not on the grid [{self.low}, {self.high}] ({len(self)} points)")
        return int(hits[0])


def make_grid(low: float, high: float, count: int) -> Grid:
    """count equally spaced points from low to high, endpoints inclusive."""
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if not math.isfinite(high - low):  # also rejects NaN and infinite bounds
        raise ValueError(f"grid bounds and their span must be finite, got [{low}, {high}]")
    if not low < high:
        raise ValueError(f"low must be < high, got [{low}, {high}]")
    return Grid(np.linspace(low, high, count))


def generate_rows(config: GenConfig, seeds) -> tuple[np.ndarray, np.ndarray]:
    """(rows, n_samples) x and y draws; row i is the dataset of seed ``seeds[i]``."""
    streams = Streams(seeds)
    xs = streams.uniform(config.x_low, config.x_high, config.n_samples)
    noise = streams.normals(config.n_samples) * config.noise_sigma
    ys = config.intercept + config.slope * xs + noise
    return xs, ys


def generate_dataset(config: GenConfig) -> Dataset:
    """Draw one dataset from the configured process, deterministically."""
    # Dataset rejects a y that overflowed, so the overflow need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = generate_rows(config, [config.seed])
    return Dataset(xs[0], ys[0])


def split_rows(xs: np.ndarray, ys: np.ndarray, test_fraction: float, seeds):
    """Train/test partition of each row of (rows, n) arrays, shuffled by ``seeds[i]``.

    Returns ``(train_xs, train_ys), (test_xs, test_ys)``; the first
    ``round(n * test_fraction)`` shuffled columns are the test part.
    Fractions that leave either part empty are rejected.
    """
    n = xs.shape[1]
    # nan and inf leave a part empty too, without reaching round()
    n_test = int(round(n * test_fraction)) if 0.0 < test_fraction < 1.0 else 0
    if n_test < 1 or n_test > n - 1:
        raise ValueError(
            f"test_fraction {test_fraction} leaves an empty part for n={n}")
    perm = Streams(seeds).permutations(n)
    xs, ys = np.take_along_axis(xs, perm, 1), np.take_along_axis(ys, perm, 1)
    return (xs[:, n_test:], ys[:, n_test:]), (xs[:, :n_test], ys[:, :n_test])
