"""Replicated generate / fit / predict studies over a fixed grid.

Each replication r draws a fresh training set, fits the chosen model,
and predicts over the shared grid; the rows are stacked into an R x G
prediction matrix.  All randomness is scheduled from the master seed
(``config.gen.seed``) so results are independent of execution order:

* data seed  = derive_seed(master, r)
* model seed = derive_seed(master, R + r)
* split seed = derive_seed(master, 2 * R + r)   (only with a test split)

Replications run in blocks of consecutive indices.  A block draws,
splits, fits and predicts all its replications with array operations
(all trees of a block's forests grow together, level by level), and
every row is bit-identical to the same replication run alone.  Blocks are
embarrassingly parallel; ``n_jobs > 1`` fans them out to worker
processes and merges rows by index, which keeps the output
byte-identical to a sequential run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .base import ForestParams
from .dataset import GenConfig, Grid, generate_rows, make_grid, split_rows
from .linear import fit_lines
from .metrics import row_mse
from .rng import stream_seeds
from .table import read_table

MODELS = ("linear", "forest")


@dataclass(frozen=True)
class StudyConfig:
    """Full description of one study; gen.seed acts as the master seed."""

    gen: GenConfig = field(default_factory=GenConfig)
    grid: Grid | None = None  # None: 101 points over gen's [x_low, x_high]
    replications: int = 1000
    model: str = "linear"
    forest: ForestParams = field(default_factory=ForestParams)
    test_fraction: float | None = None

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError(f"replications must be >= 2, got {self.replications}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.test_fraction is not None and not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.grid is None:
            object.__setattr__(self, "grid", make_grid(self.gen.x_low, self.gen.x_high, 101))
        span = self.gen.x_high - self.gen.x_low
        if (self.grid.low < self.gen.x_low - 1e-9 * span
                or self.grid.high > self.gen.x_high + 1e-9 * span):
            raise ValueError(
                f"grid [{self.grid.low}, {self.grid.high}] extends beyond the "
                f"training range [{self.gen.x_low}, {self.gen.x_high}]")


@dataclass(frozen=True)
class PredictionMatrix:
    """R x G predictions: one row per replication, one column per grid point."""

    grid: Grid
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.grid.points) or not len(rows):
            raise ValueError(f"rows must be 2-D with {len(self.grid.points)} columns "
                             f"and at least one row, got {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("prediction matrix contains NaN or Inf")
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n_replications(self) -> int:
        return self.rows.shape[0]

    def column_at(self, x: float) -> np.ndarray:
        """Predictions at grid point x (must lie on the grid)."""
        hits = np.nonzero(np.isclose(self.grid.points, x, rtol=1e-9, atol=0.0))[0]
        if len(hits) == 0:
            raise ValueError(
                f"x={x} is not on the grid [{self.grid.low}, {self.grid.high}] "
                f"({len(self.grid.points)} points)")
        return self.rows[:, hits[0]]

    def table(self) -> tuple[list[str], np.ndarray]:
        """Header of grid values and the prediction rows."""
        return [repr(x) for x in self.grid.points.tolist()], self.rows

    @classmethod
    def from_csv(cls, source) -> "PredictionMatrix":
        """Read a prediction matrix CSV table (header of grid values)."""
        names, rows = read_table(source)
        try:
            grid = Grid(np.array([float(c) for c in names]))
        except ValueError as exc:
            raise ValueError(f"line 1: {exc}") from None
        return cls(grid=grid, rows=rows)


@dataclass(frozen=True)
class CoefficientSamples:
    """Per-replication linear coefficients (nan for forest studies)."""

    slopes: np.ndarray
    intercepts: np.ndarray
    test_mse: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "slopes", np.asarray(self.slopes, dtype=float))
        object.__setattr__(self, "intercepts", np.asarray(self.intercepts, dtype=float))
        if len(self.slopes) != len(self.intercepts):
            raise ValueError("slopes and intercepts must have equal length")
        if self.test_mse is not None:
            object.__setattr__(self, "test_mse", np.asarray(self.test_mse, dtype=float))

    def table(self) -> tuple[list[str], np.ndarray]:
        """Header ``slope,intercept[,test_mse]`` and one row per replication."""
        columns = {"slope": self.slopes, "intercept": self.intercepts}
        if self.test_mse is not None:
            columns["test_mse"] = self.test_mse
        return list(columns), np.column_stack(list(columns.values()))


class ReplicationError(RuntimeError):
    """A replication failed to fit; carries the replication index."""

    def __init__(self, replication: int, message: str):
        super().__init__(f"replication {replication}: {message}")
        self.replication = replication
        self._message = message

    def __reduce__(self):
        return (type(self), (self.replication, self._message))


class WorkerError(RuntimeError):
    """A worker process of a parallel study died before returning its rows."""


class StudyResult(NamedTuple):
    matrix: PredictionMatrix
    coefficients: CoefficientSamples


# A block holds at most BLOCK replications and BLOCK_VALUES data values,
# and a forest block at most forests_per_block forests, which bounds the
# memory of its arrays.
BLOCK = 64
BLOCK_VALUES = 2 ** 13


def _replicate(config: StudyConfig, reps: range):
    """Rows ``reps`` of the study: (predictions, slopes, intercepts, holdout mses).

    The datasets, splits, fits and predictions of the whole block are
    computed in (len(reps), ...) arrays.  Forest slopes and intercepts
    are nan, and holdout mses None without a test split.
    """
    master, big_r = config.gen.seed, config.replications
    try:
        xs, ys = generate_rows(config.gen, stream_seeds(master, reps))
        test_xs = test_ys = holdout = None
        if config.test_fraction is not None:
            split_seeds = stream_seeds(master, range(reps.start + 2 * big_r,
                                                     reps.stop + 2 * big_r))
            (xs, ys), (test_xs, test_ys) = split_rows(xs, ys, config.test_fraction, split_seeds)
        if config.model == "linear":
            fits = fit_lines(xs, ys)
            slopes, intercepts = fits.slope, fits.intercept
        else:
            from .forest import fit_forests
            model_seeds = stream_seeds(master, range(reps.start + big_r, reps.stop + big_r))
            fits = fit_forests(xs, ys, config.forest, model_seeds)
            slopes = intercepts = np.full(len(reps), np.nan)
        rows = fits.predict(config.grid.points)
        if test_xs is not None:
            holdout = row_mse(test_ys, fits.predict(test_xs))
        return rows, slopes, intercepts, holdout
    except Exception as exc:
        raise ReplicationError(reps[getattr(exc, "row", 0)], str(exc)) from exc


def run_study(config: StudyConfig, n_jobs: int = 1) -> StudyResult:
    """Run all replications and assemble the matrix and coefficient samples.

    The output is a pure function of ``config``; ``n_jobs`` only changes
    how the work is scheduled.  Any replication failure aborts the whole
    study (a silently dropped row would bias the bands).
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    big_r = config.replications
    size = max(1, min(BLOCK, BLOCK_VALUES // config.gen.n_samples))
    if config.model == "forest":
        # imported here, so a linear study never loads the forest code
        from .forest import forests_per_block
        size = min(size, forests_per_block(config.gen.n_samples, config.forest))
    if n_jobs > 1:
        size = min(size, max(1, big_r // (n_jobs * 8)))
    blocks = [range(a, min(a + size, big_r)) for a in range(0, big_r, size)]
    # Blocks are copied into place as they arrive and then dropped: no
    # list of blocks and no concatenated copy of the matrix is held.
    rows = np.empty((big_r, len(config.grid)))
    slopes, intercepts = np.empty(big_r), np.empty(big_r)
    holdout = None if config.test_fraction is None else np.empty(big_r)

    def collect(parts):
        for reps, part in zip(blocks, parts):
            at = slice(reps.start, reps.stop)
            rows[at], slopes[at], intercepts[at] = part[:3]
            if holdout is not None:
                holdout[at] = part[3]

    work = partial(_replicate, config)
    if n_jobs == 1:
        collect(map(work, blocks))
    else:
        # imported here, so a study on one process never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            with ProcessPoolExecutor(max_workers=min(n_jobs, len(blocks))) as pool:
                collect(pool.map(work, blocks))
        except BrokenProcessPool as exc:
            raise WorkerError(f"a worker process died ({n_jobs} workers)") from exc
    coeffs = CoefficientSamples(slopes=slopes, intercepts=intercepts, test_mse=holdout)
    return StudyResult(matrix=PredictionMatrix(grid=config.grid, rows=rows),
                       coefficients=coeffs)


def single_sample_curve(config: StudyConfig, replication: int) -> np.ndarray:
    """Grid predictions of one replication, identical to its study row."""
    if not 0 <= replication < config.replications:
        raise IndexError(
            f"replication must be in [0, {config.replications}), got {replication}")
    return _replicate(config, range(replication, replication + 1))[0][0]
