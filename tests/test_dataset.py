import io

import numpy as np
import pytest

from predbands.dataset import (
    Dataset,
    GenConfig,
    Grid,
    generate_dataset,
    make_grid,
    split_rows,
)
from predbands.table import write_table

DEFAULTS = GenConfig()  # intercept -100, slope 1, x in [150, 200), sigma 10, n 100


class TestGenConfig:
    def test_defaults_match_experiment(self):
        assert (DEFAULTS.intercept, DEFAULTS.slope) == (-100.0, 1.0)
        assert (DEFAULTS.x_low, DEFAULTS.x_high) == (150.0, 200.0)
        assert (DEFAULTS.noise_sigma, DEFAULTS.n_samples) == (10.0, 100)

    @pytest.mark.parametrize("kwargs", [
        dict(x_low=200.0, x_high=150.0),
        dict(x_low=1.0, x_high=1.0),
        dict(noise_sigma=-0.5),
        dict(n_samples=1),
        dict(seed=-1),
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)


class TestGenerateDataset:
    def test_zero_noise_is_exactly_collinear(self):
        data = generate_dataset(GenConfig(noise_sigma=0.0, seed=3))
        assert np.max(np.abs(data.ys - (data.xs - 100.0))) == 0.0

    def test_xs_within_half_open_support(self):
        data = generate_dataset(GenConfig(n_samples=5000, seed=8))
        assert data.xs.min() >= 150.0
        assert data.xs.max() < 200.0

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_x_mean_near_uniform_mean(self, seed):
        data = generate_dataset(GenConfig(seed=seed))
        # uniform mean 175, se = 50/sqrt(12)/10 ~ 1.44; 2.2 is 1.5 se
        assert abs(data.xs.mean() - 175.0) < 2.2

    def test_deterministic(self):
        a = generate_dataset(GenConfig(seed=41))
        b = generate_dataset(GenConfig(seed=41))
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)
        c = generate_dataset(GenConfig(seed=42))
        assert not np.array_equal(a.ys, c.ys)

    def test_noise_moments_at_scale(self):
        data = generate_dataset(GenConfig(n_samples=10000, seed=17))
        resid = data.ys - (data.xs - 100.0)
        assert -0.3 < resid.mean() < 0.3
        assert 9.5 < resid.std(ddof=1) < 10.5

    def test_line_parameters_enter_generation(self):
        data = generate_dataset(GenConfig(intercept=5.0, slope=-2.0, noise_sigma=0.0,
                                          x_low=0.0, x_high=1.0, seed=1))
        assert np.allclose(data.ys, 5.0 - 2.0 * data.xs, rtol=0, atol=1e-12)


class TestDataset:
    def test_validates_lengths_and_finiteness(self):
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([1.0, np.nan]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Dataset(np.array([]), np.array([]))

    def test_immutable_arrays(self):
        data = Dataset(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        with pytest.raises(ValueError):
            data.xs[0] = 9.0

    def test_csv_round_trip_is_lossless(self):
        data = generate_dataset(GenConfig(n_samples=25, seed=5))
        buf = io.StringIO()
        write_table(buf, *data.table())
        back = Dataset.from_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(data.xs, back.xs)
        assert np.array_equal(data.ys, back.ys)

    def test_csv_header_and_line_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            Dataset.from_csv(io.StringIO("a,b\n1,2\n"))
        with pytest.raises(ValueError, match="line 3"):
            Dataset.from_csv(io.StringIO("x,y\n1,2\n1,2,3\n"))
        with pytest.raises(ValueError, match="line 2"):
            Dataset.from_csv(io.StringIO("x,y\noops,2\n"))


class TestGrid:
    def test_six_point_grid(self):
        grid = make_grid(150.0, 200.0, 6)
        assert np.array_equal(grid.points, [150.0, 160.0, 170.0, 180.0, 190.0, 200.0])

    def test_two_point_grid(self):
        assert make_grid(0.0, 1.0, 2).points.tolist() == [0.0, 1.0]

    def test_default_resolution(self):
        grid = make_grid(150.0, 200.0, 101)
        assert grid.points[1] - grid.points[0] == 0.5
        assert grid.points[50] == 175.0
        assert (grid.low, grid.high) == (150.0, 200.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            make_grid(1.0, 0.0, 5)

    def test_rejects_nonuniform_points(self):
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 1.0, 3.0]))
        with pytest.raises(ValueError):
            Grid(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            Grid(np.array([1.0, 0.5, 0.0]))

    def test_rejects_a_span_that_overflows(self):
        for points in ([-1e308, 1e308], [-1e308, 0.0, 1e308]):
            with pytest.raises(ValueError, match="grid span must be finite"):
                Grid(np.array(points))
        with pytest.raises(ValueError, match="strictly increasing"):
            Grid(np.array([1e308, -1e308, 1e308]))

    def test_index_matches_within_a_relative_1e_9(self):
        grid = make_grid(150.0, 200.0, 101)
        assert grid.index(175.0) == 50
        assert grid.index(175.0 * (1 + 5e-10)) == 50
        with pytest.raises(ValueError, match=r"x=175.00035 is not on the grid \[150.0, 200.0\]"):
            grid.index(175.00035)
        with pytest.raises(ValueError, match="not on the grid"):
            make_grid(0.0, 1e308, 2).index(-1e308)  # the distance overflows


class TestSplitTrainTest:
    """``split_rows`` on one-row blocks, and on one block of many rows."""

    def test_counts_and_completeness(self):
        data = generate_dataset(GenConfig(n_samples=10, seed=2))
        (train_xs, _), (test_xs, _) = split_rows(data.xs[None], data.ys[None], 0.2, [7])
        assert (train_xs.shape, test_xs.shape) == ((1, 8), (1, 2))
        merged = sorted(np.concatenate([train_xs[0], test_xs[0]]).tolist())
        assert merged == sorted(data.xs.tolist())

    def test_deterministic(self):
        data = generate_dataset(GenConfig(n_samples=20, seed=2))
        a = split_rows(data.xs[None], data.ys[None], 0.25, [3])
        b = split_rows(data.xs[None], data.ys[None], 0.25, [3])
        assert np.array_equal(a[0][0], b[0][0])
        assert np.array_equal(a[1][1], b[1][1])

    def test_rejects_empty_parts(self):
        data = generate_dataset(GenConfig(n_samples=10, seed=2))
        xs, ys = data.xs[None], data.ys[None]
        with pytest.raises(ValueError):
            split_rows(xs, ys, 0.01, [1])   # rounds to zero test rows
        with pytest.raises(ValueError):
            split_rows(xs, ys, 0.99, [1])   # rounds to zero train rows
        with pytest.raises(ValueError):
            split_rows(xs, ys, 1.5, [1])
        for fraction in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="leaves an empty part"):
                split_rows(xs, ys, fraction, [1])

    def test_each_row_lands_in_test_at_the_right_rate(self):
        data = generate_dataset(GenConfig(n_samples=100, seed=4))
        hits = np.zeros(100)
        x_to_row = {float(x): i for i, x in enumerate(data.xs)}
        # row i of the block is split as a one-row block of seed i would be
        block = np.tile(data.xs, (1000, 1))
        _, (test_xs, _) = split_rows(block, block, 0.3, range(1000))
        for x in test_xs.ravel().tolist():
            hits[x_to_row[x]] += 1
        rates = hits / 1000.0
        assert np.all(rates > 0.25)
        assert np.all(rates < 0.35)
