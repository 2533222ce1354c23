"""Replicated generate / fit / predict studies over a fixed grid.

Each replication r draws a fresh training set, fits the chosen model,
and predicts over the shared grid; the rows make an R x G prediction
matrix.  All randomness is scheduled from the master seed (``config.gen.seed``)
so results are independent of execution order:

* data seed  = stream_seeds(master, range(R))[r]
* model seed = stream_seeds(master, range(R, 2 * R))[r]
* split seed = stream_seeds(master, range(2 * R, 3 * R))[r]   (only with a test split)

Replications run in blocks of consecutive indices.  A block draws,
splits, fits and predicts all its replications with array operations
(all trees of a block's forests grow together, level by level), and
every row is bit-identical to the same replication run alone.  Blocks are
embarrassingly parallel; ``n_jobs > 1`` fans them out to forked worker
processes and merges rows by index, which keeps the output
byte-identical to a sequential run.  Where ``os.fork`` is missing
(Windows), every block runs in the calling process.
"""

from __future__ import annotations

import os
import pickle
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .base import ForestParams, chunk_slices
from .dataset import GenConfig, Grid, _frozen_array, generate_rows, make_grid, split_rows
from .linear import SingularFitError, fit_lines
from .rng import stream_seeds

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


def check_rows(rows: np.ndarray, width: int) -> None:
    """ValueError unless ``rows`` is a 2-D float array of ``width`` columns,
    at least one row and only finite values.
    """
    if rows.ndim != 2 or rows.shape[1] != width or not len(rows):
        raise ValueError(f"rows must be 2-D with {width} columns "
                         f"and at least one row, got {rows.shape}")
    for at in chunk_slices(len(rows), width):  # so no R x G mask is made
        if not np.isfinite(rows[at]).all():
            raise ValueError("prediction matrix contains NaN or Inf")


class PredictionMatrix:
    """R x G predictions: one row per replication, one column per grid point.

    It holds its ``rows``, read-only, or read-only copies of R fitted ``lines``
    (slopes, intercepts) alone, whose row r is ``intercepts[r] + slopes[r] * x``
    as ``LineFits.predict`` computes it: a block at a time whenever it is read,
    and all R x G values at each read of ``rows``.
    """

    def __init__(self, grid: Grid, rows=None, lines=None):
        self.grid, self._rows, self._lines = grid, None, None
        if lines is not None:
            slopes, intercepts = self._lines = tuple(map(_frozen_array, lines))
            if slopes.ndim != 1 or slopes.shape != intercepts.shape or not len(slopes):
                raise ValueError(f"lines must be two vectors of one nonzero length, "
                                 f"got shapes {slopes.shape} and {intercepts.shape}")
            with np.errstate(over="ignore", invalid="ignore"):
                for block in self.row_blocks():
                    check_rows(block, len(grid))
            return
        rows = np.asarray(rows, dtype=float)
        check_rows(rows, len(grid.points))
        # The rows are C-ordered and nothing else can write them: a read-only
        # C-ordered array that owns its data is held as it is, any other copied.
        if rows.flags.writeable or not (rows.flags.owndata and rows.flags.c_contiguous):
            rows = rows.copy()
            rows.flags.writeable = False
        self._rows = rows

    @property
    def rows(self) -> np.ndarray:
        """The R x G predictions, read-only."""
        rows = self._rows if self._lines is None else self._line_rows(slice(None))
        rows.flags.writeable = False
        return rows

    @property
    def n_replications(self) -> int:
        return len(self._rows if self._lines is None else self._lines[0])

    def _line_rows(self, at: slice) -> np.ndarray:
        slopes, intercepts = self._lines
        return intercepts[at, None] + slopes[at, None] * self.grid.points

    def row_blocks(self):
        """The rows in order, in blocks of about CHUNK_VALUES values."""
        for at in chunk_slices(self.n_replications, len(self.grid)):
            yield self._rows[at] if self._lines is None else self._line_rows(at)

    def column_blocks(self):
        """(columns, block) pairs: block is a new array whose row j is column columns[j]."""
        for at in chunk_slices(len(self.grid), self.n_replications):
            yield at, (self._rows[:, at].T.copy() if self._lines is None else
                       self._lines[1] + self._lines[0] * self.grid.points[at, None])

    def table(self):
        """Header of grid values and the prediction rows, as row blocks."""
        return [repr(x) for x in self.grid.points.tolist()], self.row_blocks()


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
        super().__init__(replication, message)
        self.replication = replication

    def __str__(self):
        return f"replication {self.args[0]}: {self.args[1]}"


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
    """Rows ``reps`` of the study: (forest predictions, slopes, intercepts, holdout mses)."""
    xs, ys = generate_rows(config.gen, stream_seeds(config.gen.seed, reps))
    try:
        return _fit_rows(config, reps, xs, ys)
    except Exception as exc:
        # Each row alone is bit-identical to its row of the block, so the first row
        # that fails alone is the lowest failing replication at any worker count.
        for i in range(len(reps)):
            try:
                _fit_rows(config, reps[i:i + 1], xs[i:i + 1], ys[i:i + 1])
            except Exception as row_exc:
                raise ReplicationError(reps[i], str(row_exc)) from row_exc
        raise ReplicationError(reps[0], str(exc)) from exc


def _fit_rows(config: StudyConfig, reps: range, xs: np.ndarray, ys: np.ndarray):
    """Split, fit and predict the drawn rows of ``reps``; returns what ``_replicate`` does.

    The whole block is computed in (len(reps), ...) arrays.  Linear predictions
    are None, forest slopes and intercepts nan, and holdout mses None without a split.
    """
    master, big_r = config.gen.seed, config.replications
    test_xs = test_ys = holdout = rows = None
    if config.test_fraction is not None:
        split_seeds = stream_seeds(master, range(reps.start + 2 * big_r, reps.stop + 2 * big_r))
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
        diff = test_ys - fits.predict(test_xs)
        holdout = np.mean(diff * diff, axis=-1)
        if not np.isfinite(holdout).all():
            raise SingularFitError("the holdout mse overflows a float")
    return rows, slopes, intercepts, holdout


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
    # Blocks are copied into place as they arrive and then dropped.  A forest's
    # PredictionMatrix keeps the filled rows, read-only, without a copy.
    rows = np.empty((big_r, len(config.grid))) if config.model == "forest" else None
    slopes, intercepts = np.empty(big_r), np.empty(big_r)
    holdout = None if config.test_fraction is None else np.empty(big_r)

    def collect(parts):
        for reps, part in zip(blocks, parts):
            for column, values in zip((rows, slopes, intercepts, holdout), part):
                if column is not None:
                    column[reps.start:reps.stop] = values

    work = partial(_replicate, config)
    # No block warns of overflow: the fit kernels and the holdout check reject
    # a row whose values are no longer finite.  Forked workers inherit this.
    with np.errstate(over="ignore", invalid="ignore"):
        if n_jobs == 1 or not hasattr(os, "fork"):
            collect(map(work, blocks))
        else:
            with closing(_forked(work, blocks, n_jobs)) as parts:
                collect(parts)
    if rows is not None:
        rows.flags.writeable = False
    lines = (slopes, intercepts) if rows is None else None
    coeffs = CoefficientSamples(slopes=slopes, intercepts=intercepts, test_mse=holdout)
    return StudyResult(matrix=PredictionMatrix(config.grid, rows, lines), coefficients=coeffs)


def _forked(work, blocks: list, n_jobs: int):
    """Yield ``work(block)`` of each block in order, from forked children.

    Child w runs blocks w, w + n_jobs, ... and pickles each result, or the
    exception that stops it, into its own pipe, so reading in block order
    raises the lowest failing block's error at any worker count.  However
    the reading ends, every child is killed and reaped.
    """
    from signal import SIGKILL  # here, so a study on one process does not load it
    n_jobs = min(n_jobs, len(blocks))
    pipes, pids = [], []
    try:
        for w in range(n_jobs):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            # the parent closes its copy, so the pipe ends when the child does
            with open(write_end, "wb") as out:
                if (pid := os.fork()) == 0:
                    _child(work, blocks[w::n_jobs], out, pipes)
                pids.append(pid)
        for i in range(len(blocks)):
            try:
                part = pickle.load(pipes[i % n_jobs])
            except (EOFError, pickle.UnpicklingError) as exc:
                raise WorkerError(f"a worker process died ({n_jobs} workers)") from exc
            if isinstance(part, Exception):
                raise part
            yield part
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _child(work, blocks: list, out, pipes: list):
    """The whole life of a forked worker: it never returns."""
    try:
        for pipe in pipes:  # so a write fails once the parent is gone
            pipe.close()
        for reps in blocks:
            try:
                part = work(reps)
            except Exception as exc:
                pickle.dump(exc, out, pickle.HIGHEST_PROTOCOL)
                break
            pickle.dump(part, out, pickle.HIGHEST_PROTOCOL)
        out.close()
    finally:
        os._exit(0)  # so no atexit handler runs and no inherited buffer is flushed
