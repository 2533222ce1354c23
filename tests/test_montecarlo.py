import concurrent.futures
import io

import numpy as np
import pytest

from predbands import montecarlo
from predbands.dataset import GenConfig, make_grid
from predbands.forest import ForestParams
from predbands.montecarlo import (
    CoefficientSamples,
    PredictionMatrix,
    ReplicationError,
    StudyConfig,
    run_study,
    single_sample_curve,
)
from predbands.table import write_table


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
        with pytest.raises(ValueError):
            small_config(test_fraction=1.2)
        with pytest.raises(ValueError):
            small_config(grid=make_grid(100.0, 250.0, 5))  # beyond training range


class TestRunStudy:
    def test_matrix_shape(self):
        result = run_study(small_config(replications=3))
        assert result.matrix.rows.shape == (3, 5)

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
        # run_study imports the pool class at call time, so this one is used
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        config = small_config(replications=2)  # two blocks of one replication
        par = run_study(config, n_jobs=4)
        assert sizes == [2]
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


class TestSingleSampleCurve:
    def test_reproduces_study_rows_exactly(self):
        config = small_config(replications=5)
        result = run_study(config)
        for r in range(5):
            assert np.array_equal(single_sample_curve(config, r), result.matrix.rows[r])

    def test_forest_rows_match_too(self):
        config = small_config(model="forest", forest=ForestParams(n_trees=4),
                              replications=3, grid=make_grid(150.0, 200.0, 41))
        result = run_study(config)
        assert np.array_equal(single_sample_curve(config, 2), result.matrix.rows[2])

    def test_zero_noise_gives_true_line(self):
        config = small_config(gen=GenConfig(noise_sigma=0.0, seed=2))
        curve = single_sample_curve(config, 0)
        assert np.allclose(curve, config.grid.points - 100.0, rtol=0, atol=1e-9)

    def test_forest_curve_is_piecewise_constant(self):
        config = small_config(model="forest", forest=ForestParams(n_trees=3),
                              replications=2, grid=make_grid(150.0, 200.0, 201))
        curve = single_sample_curve(config, 0)
        assert np.any(np.diff(curve) == 0.0)

    def test_index_validation(self):
        config = small_config(replications=3)
        with pytest.raises(IndexError):
            single_sample_curve(config, 3)
        with pytest.raises(IndexError):
            single_sample_curve(config, -1)


class TestPredictionMatrix:
    def test_validates_shape_and_finiteness(self):
        grid = make_grid(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            PredictionMatrix(grid=grid, rows=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            PredictionMatrix(grid=grid, rows=np.array([[1.0, np.inf, 2.0]]))

    def test_column_at_exact_and_missing(self):
        grid = make_grid(150.0, 200.0, 6)
        rows = np.arange(12, dtype=float).reshape(2, 6)
        matrix = PredictionMatrix(grid=grid, rows=rows)
        assert matrix.column_at(160.0).tolist() == [1.0, 7.0]
        with pytest.raises(ValueError, match="not on the grid"):
            matrix.column_at(155.0)

    def test_csv_round_trip_bit_exact(self):
        config = small_config(replications=3)
        matrix = run_study(config).matrix
        buf = io.StringIO()
        write_table(buf, *matrix.table())
        back = PredictionMatrix.from_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(matrix.grid.points, back.grid.points)
        assert np.array_equal(matrix.rows, back.rows)

    def test_csv_header_holds_grid_values(self):
        grid = make_grid(150.0, 200.0, 3)
        matrix = PredictionMatrix(grid=grid, rows=np.zeros((2, 3)))
        buf = io.StringIO()
        write_table(buf, *matrix.table())
        header = buf.getvalue().splitlines()[0]
        assert [float(c) for c in header.split(",")] == [150.0, 175.0, 200.0]

    def test_csv_errors_name_lines(self):
        with pytest.raises(ValueError, match="line 2"):
            PredictionMatrix.from_csv(io.StringIO("150.0,175.0,200.0\n1.0,2.0\n"))


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
