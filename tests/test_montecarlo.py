import io
import os
import pickle
import tracemalloc
import warnings
from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest

from predbands import montecarlo
from predbands.dataset import GenConfig, make_grid
from predbands.forest import ForestParams
from predbands.linear import LineFits
from predbands.montecarlo import (
    CoefficientSamples,
    PredictionMatrix,
    ReplicationError,
    StudyConfig,
    WorkerError,
    run_study,
)
from predbands.stats import band_curve
from predbands.table import read_table, write_table

TEST_PID = os.getpid()


def small_config(**overrides):
    defaults = dict(
        gen=GenConfig(seed=100),
        grid=make_grid(150.0, 200.0, 5),
        replications=8,
        model="linear",
    )
    defaults.update(overrides)
    return StudyConfig(**defaults)


class TestStudyConfig:
    def test_defaults_mirror_experiment(self):
        config = StudyConfig()
        assert config.replications == 1000
        assert config.model == "linear"
        assert len(config.grid.points) == 101
        assert config.test_fraction is None

    def test_default_grid_spans_the_generator_range(self):
        config = StudyConfig(gen=GenConfig(x_low=0.0, x_high=10.0))
        np.testing.assert_array_equal(config.grid.points, np.linspace(0.0, 10.0, 101))
        assert StudyConfig().grid.points.tolist() == make_grid(150.0, 200.0, 101).points.tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(replications=1)
        with pytest.raises(ValueError):
            small_config(model="boost")
        for fraction in (0.0, 1.0, 1.2, 1.5, float("nan")):  # the only range check
            with pytest.raises(ValueError, match="test_fraction"):
                small_config(test_fraction=fraction)
        with pytest.raises(ValueError):
            small_config(grid=make_grid(100.0, 250.0, 5))  # beyond training range


class TestRunStudy:
    def test_matrix_shape(self):
        result = run_study(small_config(replications=3))
        assert result.matrix.rows.shape == (3, 5)

    def test_holds_the_matrix_once(self):
        config = small_config(replications=2000, grid=make_grid(150.0, 200.0, 501))
        band_curve(run_study(small_config()).matrix)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            matrix = run_study(config).matrix
            study_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            band_curve(matrix)
            band_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert study_peak < 1.25 * matrix.rows.nbytes
        assert band_peak < 0.25 * matrix.rows.nbytes

    def test_checks_the_matrix_without_a_mask(self):
        # an R x G bool mask of the finiteness check would add 0.125 matrices
        config = small_config(replications=10_000, grid=make_grid(150.0, 200.0, 101))
        run_study(small_config())  # imports and caches outside the trace
        tracemalloc.start()
        try:
            matrix = run_study(config).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.10 * matrix.rows.nbytes, peak / matrix.rows.nbytes

    def test_linear_study_holds_no_matrix(self):
        # its finiteness check and its bands read row and column blocks computed
        # from the lines; only the study's own blocks and the lines are held
        config = small_config(replications=10_000, grid=make_grid(150.0, 200.0, 101))
        matrix_bytes = 10_000 * 101 * 8
        band_curve(run_study(small_config()).matrix)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = run_study(config)
            study_peak = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            band_curve(result.matrix)
            band_peak = tracemalloc.get_traced_memory()[1] - start  # the result held, too
        finally:
            tracemalloc.stop()
        assert study_peak <= 0.15 * matrix_bytes, study_peak / matrix_bytes
        assert band_peak <= 0.10 * matrix_bytes, band_peak / matrix_bytes

    def test_forest_study_holds_its_matrix_once(self):
        # forest rows are predicted, not derived from lines, so the study keeps them
        forest = dict(model="forest", forest=ForestParams(n_trees=2))
        config = small_config(replications=2000, grid=make_grid(150.0, 200.0, 501), **forest)
        band_curve(run_study(small_config(**forest)).matrix)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            matrix = run_study(config).matrix
            study_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            band_curve(matrix)
            band_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert held >= matrix.rows.nbytes
        assert study_peak < 1.25 * matrix.rows.nbytes, study_peak / matrix.rows.nbytes
        assert band_peak < 0.25 * matrix.rows.nbytes, band_peak / matrix.rows.nbytes

    def test_zero_noise_linear_recovers_the_line(self):
        config = small_config(gen=GenConfig(noise_sigma=0.0, seed=5))
        result = run_study(config)
        line = config.grid.points - 100.0
        for row in result.matrix.rows:
            assert np.allclose(row, line, rtol=0, atol=1e-9)
        assert np.allclose(result.coefficients.slopes, 1.0, rtol=0, atol=1e-12)
        assert np.allclose(result.coefficients.intercepts, -100.0, rtol=0, atol=1e-9)

    def test_deterministic_rerun(self):
        a = run_study(small_config())
        b = run_study(small_config())
        assert np.array_equal(a.matrix.rows, b.matrix.rows)
        assert np.array_equal(a.coefficients.slopes, b.coefficients.slopes)

    def test_parallel_equals_sequential(self):
        config = small_config(replications=6)
        seq = run_study(config, n_jobs=1)
        par = run_study(config, n_jobs=2)
        assert np.array_equal(seq.matrix.rows, par.matrix.rows)
        assert np.array_equal(seq.coefficients.slopes, par.coefficients.slopes)
        assert np.array_equal(seq.coefficients.intercepts, par.coefficients.intercepts)

    def test_pool_starts_no_more_workers_than_blocks(self, monkeypatch):
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        config = small_config(replications=2)  # two blocks of one replication
        par = run_study(config, n_jobs=4)
        assert len(forks) == 2
        assert np.array_equal(par.matrix.rows, run_study(config).matrix.rows)

    def test_slope_distribution_at_moderate_scale(self):
        result = run_study(small_config(replications=300))
        slopes = result.coefficients.slopes
        assert abs(slopes.mean() - 1.0) < 0.02
        assert 0.05 < slopes.std(ddof=1) < 0.09

    def test_forest_study_has_no_coefficients(self):
        config = small_config(model="forest",
                              forest=ForestParams(n_trees=5), replications=3)
        result = run_study(config)
        assert np.isnan(result.coefficients.slopes).all()
        assert np.isnan(result.coefficients.intercepts).all()
        assert len(result.coefficients.slopes) == 3
        assert result.matrix.rows.shape == (3, 5)

    def test_holdout_mse_recorded_when_split_enabled(self):
        config = small_config(test_fraction=0.25, replications=4)
        result = run_study(config)
        assert result.coefficients.test_mse is not None
        assert len(result.coefficients.test_mse) == 4
        assert np.all(result.coefficients.test_mse >= 0.0)
        assert np.all(np.isfinite(result.coefficients.test_mse))

    def test_split_changes_the_fit(self):
        whole = run_study(small_config())
        split = run_study(small_config(test_fraction=0.25))
        assert not np.array_equal(whole.coefficients.slopes, split.coefficients.slopes)

    def test_fit_failure_names_the_replication(self):
        # 2 samples with a 0.5 split leaves a single training row
        config = small_config(gen=GenConfig(n_samples=2, seed=1),
                              test_fraction=0.5, replications=3)
        with pytest.raises(ReplicationError, match="replication 0") as info:
            run_study(config)
        assert info.value.replication == 0

    def test_fit_failure_inside_a_block_names_its_replication(self, monkeypatch):
        real = montecarlo.generate_rows

        def flat_x_in_replication_5(config, seeds):
            xs, ys = real(config, seeds)
            xs[5] = 160.0
            return xs, ys

        monkeypatch.setattr(montecarlo, "generate_rows", flat_x_in_replication_5)
        with pytest.raises(ReplicationError, match="replication 5: all x values"):
            run_study(small_config())

    def test_rejects_bad_n_jobs(self):
        with pytest.raises(ValueError):
            run_study(small_config(), n_jobs=0)


def _fail_from_replication_5(real, config, reps):
    if reps.stop > 5:
        raise ReplicationError(max(reps.start, 5), "injected")
    return real(config, reps)


def _die_in_worker(config, reps):
    if os.getpid() == TEST_PID:
        raise AssertionError("expected to run in a worker process")
    os._exit(1)


def _interrupt(handle):
    raise KeyboardInterrupt


class TestForkedWorkers:
    @pytest.mark.parametrize("config", [
        small_config(test_fraction=0.25, replications=7),
        small_config(model="forest", forest=ForestParams(n_trees=5), replications=7),
    ], ids=["linear-holdout", "forest"])
    def test_rows_and_coefficients_equal_at_any_worker_count(self, config):
        # at n_jobs > 1 the 7 replications are 7 blocks, which 2 and 3 workers do not divide
        results = [run_study(config, n_jobs=n_jobs) for n_jobs in (1, 2, 3)]
        for result in results[1:]:
            assert result.matrix.rows.tobytes() == results[0].matrix.rows.tobytes()
            assert (result.coefficients.table()[1].tobytes()
                    == results[0].coefficients.table()[1].tobytes())

    def test_without_fork_every_block_runs_in_the_caller(self, monkeypatch):
        config = small_config(replications=7)
        want = run_study(config).matrix.rows
        monkeypatch.delattr(os, "fork")
        assert run_study(config, n_jobs=2).matrix.rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_jobs", [1, 2, 3])
    def test_failure_names_the_lowest_failing_replication(self, monkeypatch, n_jobs):
        # every block from replication 5 on fails, in whichever worker runs it
        monkeypatch.setattr(montecarlo, "_replicate",
                            partial(_fail_from_replication_5, montecarlo._replicate))
        with pytest.raises(ReplicationError, match="^replication 5: injected$") as info:
            run_study(small_config(), n_jobs=n_jobs)
        assert info.value.replication == 5

    @pytest.mark.parametrize("module, name, fake, expected", [
        (None, None, None, None),
        (montecarlo, "_replicate", partial(_fail_from_replication_5, montecarlo._replicate),
         ReplicationError),
        (montecarlo, "_replicate", _die_in_worker, WorkerError),
        (pickle, "load", _interrupt, KeyboardInterrupt),  # Ctrl-C while the parent waits
    ], ids=["success", "failure", "dead-worker", "interrupt"])
    def test_no_child_is_left(self, monkeypatch, module, name, fake, expected):
        if fake is not None:
            monkeypatch.setattr(module, name, fake)
        with pytest.raises(expected) if expected else nullcontext():
            run_study(small_config(), n_jobs=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_child_is_left_by_a_reader_that_stops_early(self):
        config = small_config()
        parts = montecarlo._forked(partial(montecarlo._replicate, config),
                                   [range(0, 4), range(4, 8)], 2)
        rows, slopes, intercepts, _ = next(parts)
        assert rows is None  # a linear block sends its lines
        rows = intercepts[:, None] + slopes[:, None] * config.grid.points
        assert np.array_equal(rows, run_study(config).matrix.rows[:4])
        parts.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSingleSampleCurve:
    """One replication run alone, as a block of one."""

    @staticmethod
    def curve(config, r):
        rows, slopes, intercepts, _ = montecarlo._replicate(config, range(r, r + 1))
        if rows is None:  # a linear block gives its lines, which give its rows
            rows = intercepts[:, None] + slopes[:, None] * config.grid.points
        return rows[0]

    def test_reproduces_study_rows_exactly(self):
        config = small_config(replications=5)
        result = run_study(config)
        for r in range(5):
            assert np.array_equal(self.curve(config, r), result.matrix.rows[r])

    def test_forest_rows_match_too(self):
        config = small_config(model="forest", forest=ForestParams(n_trees=4),
                              replications=3, grid=make_grid(150.0, 200.0, 41))
        result = run_study(config)
        assert np.array_equal(self.curve(config, 2), result.matrix.rows[2])

    def test_zero_noise_gives_true_line(self):
        config = small_config(gen=GenConfig(noise_sigma=0.0, seed=2))
        curve = self.curve(config, 0)
        assert np.allclose(curve, config.grid.points - 100.0, rtol=0, atol=1e-9)

    def test_forest_curve_is_piecewise_constant(self):
        config = small_config(model="forest", forest=ForestParams(n_trees=3),
                              replications=2, grid=make_grid(150.0, 200.0, 201))
        curve = self.curve(config, 0)
        assert np.any(np.diff(curve) == 0.0)


class TestPredictionMatrix:
    def test_validates_shape_and_finiteness(self):
        grid = make_grid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            PredictionMatrix(grid=grid, rows=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            PredictionMatrix(grid=grid, rows=np.array([[1.0, np.inf, 2.0]]))

    def test_holds_its_own_read_only_rows(self):
        grid = make_grid(0.0, 1.0, 3)
        rows = np.zeros((2, 3))
        view = rows.view()
        view.flags.writeable = False
        for given in (rows, view):
            matrix = PredictionMatrix(grid=grid, rows=given)
            rows[0, 0] = 1.0
            assert matrix.rows[0, 0] == 0.0
            assert not matrix.rows.flags.writeable
            rows[0, 0] = 0.0
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        fortran.flags.writeable = False
        assert PredictionMatrix(grid=grid, rows=fortran).rows.flags.c_contiguous

    def test_lines_give_the_rows_their_fits_predict(self):
        grid = make_grid(150.0, 200.0, 7)
        slopes, intercepts = np.array([1.0, -0.0, 2.5]), np.array([-100.0, -0.0, 3.0])
        want = LineFits(slopes, intercepts, *np.zeros((3, 3))).predict(grid.points)
        matrix = PredictionMatrix(grid, lines=(slopes, intercepts))
        slopes[0] = 9.0  # the matrix holds copies of the lines
        assert matrix.n_replications == 3
        assert matrix.rows.tobytes() == want.tobytes()
        assert not matrix.rows.flags.writeable
        assert np.concatenate(list(matrix.row_blocks())).tobytes() == want.tobytes()
        for at, block in matrix.column_blocks():
            assert block.tobytes() == want[:, at].T.copy().tobytes()
        names, blocks = matrix.table()
        assert np.concatenate(list(blocks)).tobytes() == want.tobytes()
        for fmt in ("csv", "json"):  # the writer takes the blocks as the array
            by_blocks, by_array = io.StringIO(), io.StringIO()
            write_table(by_blocks, *matrix.table(), fmt)
            write_table(by_array, names, want, fmt)
            assert by_blocks.getvalue() == by_array.getvalue()

    def test_validates_lines_and_their_predictions(self):
        grid = make_grid(0.0, 1e300, 3)
        for lines in ((np.zeros(2), np.zeros(3)), (np.zeros(0), np.zeros(0)),
                      (np.zeros((2, 2)), np.zeros((2, 2)))):
            with pytest.raises(ValueError, match="lines must be"):
                PredictionMatrix(grid, lines=lines)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and the overflow warns of nothing
            with pytest.raises(ValueError, match="NaN or Inf"):
                PredictionMatrix(grid, lines=(np.array([0.0, 1e10]), np.zeros(2)))

    def test_column_at_exact_and_missing(self):
        grid = make_grid(150.0, 200.0, 6)
        rows = np.arange(12, dtype=float).reshape(2, 6)
        matrix = PredictionMatrix(grid=grid, rows=rows)
        assert matrix.rows[:, matrix.grid.index(160.0)].tolist() == [1.0, 7.0]
        with pytest.raises(ValueError, match="not on the grid"):
            matrix.grid.index(155.0)

    def test_csv_round_trip_bit_exact(self):
        config = small_config(replications=3)
        matrix = run_study(config).matrix
        buf = io.StringIO()
        write_table(buf, *matrix.table())
        names, rows = read_table(io.StringIO(buf.getvalue()))
        assert np.array_equal(matrix.grid.points, [float(c) for c in names])
        assert np.array_equal(matrix.rows, rows)

    def test_csv_header_holds_grid_values(self):
        grid = make_grid(150.0, 200.0, 3)
        matrix = PredictionMatrix(grid=grid, rows=np.zeros((2, 3)))
        buf = io.StringIO()
        write_table(buf, *matrix.table())
        header = buf.getvalue().splitlines()[0]
        assert [float(c) for c in header.split(",")] == [150.0, 175.0, 200.0]

    def test_csv_errors_name_lines(self):
        with pytest.raises(ValueError, match="line 2"):
            read_table(io.StringIO("150.0,175.0,200.0\n1.0,2.0\n"))


class TestCoefficientSamples:
    def test_linear_csv_layout(self):
        samples = CoefficientSamples(slopes=np.array([1.0, 1.1]),
                                     intercepts=np.array([-100.0, -99.0]))
        buf = io.StringIO()
        write_table(buf, *samples.table())
        lines = buf.getvalue().splitlines()
        assert lines[0] == "slope,intercept"
        assert len(lines) == 3
        assert lines[1] == "1.0,-100.0"

    def test_forest_rows_are_nan_padded(self):
        config = small_config(model="forest", forest=ForestParams(n_trees=2),
                              replications=3)
        buf = io.StringIO()
        write_table(buf, *run_study(config).coefficients.table())
        lines = buf.getvalue().splitlines()
        assert lines == ["slope,intercept"] + ["nan,nan"] * 3

    def test_test_mse_column(self):
        samples = CoefficientSamples(slopes=np.array([1.0]),
                                     intercepts=np.array([2.0]),
                                     test_mse=np.array([0.5]))
        buf = io.StringIO()
        write_table(buf, *samples.table())
        lines = buf.getvalue().splitlines()
        assert lines[0] == "slope,intercept,test_mse"
        assert lines[1].endswith(",0.5")

    def test_length_validation(self):
        with pytest.raises(ValueError):
            CoefficientSamples(slopes=np.array([1.0]), intercepts=np.empty(0))
