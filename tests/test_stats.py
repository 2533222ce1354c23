import io

import numpy as np
import pytest

from predbands.dataset import Grid, make_grid
from predbands.linear import LinearRegression, LineFits
from predbands.montecarlo import PredictionMatrix
from predbands.rng import Rng
from predbands.stats import _column_quantile, _fences, band_curve, distribution_report
from predbands.table import write_table


def quantile(values, p):
    """The type-7 quantile of a sample, through the kernel band_curve uses."""
    return float(_column_quantile(np.sort(np.asarray(values, dtype=float)), p))


def fences(values):
    """q1, median, q3, iqr, low and high of a sample, as band_curve computes them."""
    return tuple(float(f) for f in _fences(np.sort(np.asarray(values, dtype=float))))


class TestQuantile:
    def test_median_of_five(self):
        assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0

    def test_first_quartile_of_five(self):
        assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0

    def test_interpolates_between_order_statistics(self):
        assert quantile([2.0, 4.0], 0.25) == 2.5

    def test_endpoints_are_min_and_max(self):
        v = Rng(1).normals(37)
        assert quantile(v, 0.0) == v.min()
        assert quantile(v, 1.0) == v.max()

    def test_monotone_in_p(self):
        v = Rng(2).normals(45)
        qs = [quantile(v, p) for p in np.linspace(0.0, 1.0, 21)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))

    def test_affine_equivariance(self):
        v = Rng(3).normals(30)
        for p in (0.1, 0.25, 0.5, 0.9):
            q = quantile(v, p)
            assert quantile(2.5 * v + 7.0, p) == pytest.approx(2.5 * q + 7.0, rel=1e-12)

    def test_matches_numpy_linear_method(self):
        rng = Rng(4)
        for trial in range(200):
            n = 1 + int(rng.uniforms(1)[0] * 50)
            v = rng.normals(n) * 10.0
            p = float(rng.uniforms(1)[0])
            want = float(np.quantile(v, p))
            got = quantile(v, p)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestQuartileBand:
    def test_five_point_example(self):
        q1, median, q3, iqr, low, high = fences([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (q1, median, q3) == (2.0, 3.0, 4.0)
        assert iqr == 2.0
        assert low == -1.0
        assert high == 7.0

    def test_constant_sample_collapses(self):
        q1, median, q3, iqr, low, high = fences([4.0] * 9)
        assert q1 == median == q3 == low == high == 4.0
        assert iqr == 0.0

    def test_fence_identities_are_exact(self):
        rng = Rng(5)
        for trial in range(50):
            v = rng.normals(3 + trial) * 5.0 + trial
            q1, _, q3, iqr, low, high = fences(v)
            assert iqr == q3 - q1
            assert low == q1 - 1.5 * iqr
            assert high == q3 + 1.5 * iqr

    def test_gaussian_fences_sit_near_2_7_sigma(self):
        z = Rng(6).normals(100000)
        *_, low, high = fences(z)
        assert low == pytest.approx(-2.698, abs=0.1)
        assert high == pytest.approx(2.698, abs=0.1)


class TestBandCurve:
    def test_identical_rows_collapse(self):
        grid = make_grid(0.0, 1.0, 3)
        row = np.array([1.0, 2.0, 3.0])
        matrix = PredictionMatrix(grid=grid, rows=np.tile(row, (5, 1)))
        curve = band_curve(matrix)
        assert np.array_equal(curve.median, row)
        assert np.array_equal(curve.iqr, np.zeros(3))
        assert np.array_equal(curve.low, row)
        assert np.array_equal(curve.high, row)

    def test_two_row_interpolation(self):
        grid = make_grid(0.0, 1.0, 2)
        matrix = PredictionMatrix(grid=grid, rows=np.array([[0.0, 0.0], [10.0, 10.0]]))
        curve = band_curve(matrix)
        assert curve.median.tolist() == [5.0, 5.0]
        assert curve.q1.tolist() == [2.5, 2.5]
        assert curve.q3.tolist() == [7.5, 7.5]

    def test_row_permutation_invariance(self):
        rng = Rng(7)
        grid = make_grid(0.0, 1.0, 4)
        rows = rng.normals(80).reshape(20, 4)
        curve = band_curve(PredictionMatrix(grid=grid, rows=rows))
        shuffled = rows[rng.permutation(20)]
        curve2 = band_curve(PredictionMatrix(grid=grid, rows=shuffled))
        for name in ("q1", "median", "q3", "iqr", "low", "high"):
            assert np.array_equal(getattr(curve, name), getattr(curve2, name)), name
        assert np.allclose(curve.mean, curve2.mean, rtol=1e-12)
        assert np.allclose(curve.sd, curve2.sd, rtol=1e-12)

    def test_column_invariants_hold(self):
        rng = Rng(8)
        grid = make_grid(0.0, 1.0, 5)
        rows = rng.normals(250).reshape(50, 5)
        curve = band_curve(PredictionMatrix(grid=grid, rows=rows))
        assert np.all(curve.q1 <= curve.median)
        assert np.all(curve.median <= curve.q3)
        assert np.array_equal(curve.iqr, curve.q3 - curve.q1)
        for i in range(5):
            q1, median, q3, iqr, low, high = (float(getattr(curve, name)[i])
                                              for name in ("q1", "median", "q3", "iqr", "low", "high"))
            assert iqr == q3 - q1
            assert low == q1 - 1.5 * iqr
            assert high == q3 + 1.5 * iqr
            for got, p in ((q1, 0.25), (median, 0.5), (q3, 0.75)):
                want = float(np.quantile(rows[:, i], p, method="linear"))
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    # G = 129 leaves a last chunk of 1 row at R = 64, and G = 17 and 129 a last
    # block of 1 column at R = 1000 and 64
    @pytest.mark.parametrize("n", [2, 3, 64, 1000, 10000])
    @pytest.mark.parametrize("g", [2, 3, 5, 17, 101, 129, 1001])
    def test_pieces_match_the_whole_matrix_bit_for_bit(self, n, g):
        grid, rng = make_grid(0.0, 1.0, g), np.random.default_rng(n * g)
        rows = 50.0 + 10.0 * rng.standard_normal((n, g))
        self.assert_pieces_match(PredictionMatrix(grid=grid, rows=rows), rows)
        # a matrix of lines, the first of slope -0.0 and intercept -0.0
        slopes, intercepts = rng.standard_normal(n), 50.0 + 10.0 * rng.standard_normal(n)
        slopes[0] = intercepts[0] = -0.0
        rows = LineFits(slopes, intercepts, *np.zeros((3, n))).predict(grid.points)
        self.assert_pieces_match(PredictionMatrix(grid, lines=(slopes, intercepts)), rows)

    @staticmethod
    def assert_pieces_match(matrix, rows):
        """band_curve of the matrix, whose rows are ``rows``, is numpy's over the whole."""
        assert np.array_equal(matrix.rows.view(np.uint64), rows.view(np.uint64))
        curve = band_curve(matrix)
        want = (np.mean(rows, axis=0), np.std(rows, axis=0, ddof=1),
                *_fences(np.sort(rows, axis=0)))
        names = ("mean", "sd", "q1", "median", "q3", "iqr", "low", "high")
        for name, column in zip(names, want):
            assert getattr(curve, name).tobytes() == column.tobytes(), name

    @pytest.mark.parametrize("source", ["rows", "lines"])
    def test_a_column_of_negative_zeros_sums_as_numpys(self, source):
        # the sign of a sum of -0.0 is where numpy's sum starts, which the
        # first block's sum, carrying no earlier one, keeps
        zeros, grid = np.full(10_000, -0.0), make_grid(0.0, 1.0, 2)  # 3 blocks of rows
        if source == "rows":
            matrix = PredictionMatrix(grid=grid, rows=np.column_stack([zeros, zeros]))
        else:
            matrix = PredictionMatrix(grid, lines=(zeros, zeros))
        curve = band_curve(matrix)
        assert curve.mean.tobytes() == np.mean(matrix.rows, axis=0).tobytes()
        assert curve.sd.tobytes() == np.std(matrix.rows, axis=0, ddof=1).tobytes()

    def test_requires_two_rows(self):
        grid = make_grid(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            band_curve(PredictionMatrix(grid=grid, rows=np.array([[1.0, 2.0]])))

    def test_csv_layout(self):
        grid = make_grid(0.0, 1.0, 2)
        matrix = PredictionMatrix(grid=grid, rows=np.array([[0.0, 0.0], [10.0, 10.0]]))
        buf = io.StringIO()
        write_table(buf, *band_curve(matrix).table())
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,mean,sd,q1,median,q3,iqr,low,high"
        assert len(lines) == 3
        first = [float(c) for c in lines[1].split(",")]
        assert first[0] == 0.0 and first[4] == 5.0


class TestBandSlope:
    """The median curve's least squares slope, as the quick start takes it."""

    def test_exact_line_recovers_slope(self):
        grid = make_grid(150.0, 200.0, 11)
        rows = np.tile(grid.points - 100.0, (3, 1))
        curve = band_curve(PredictionMatrix(grid=grid, rows=rows))
        slope = LinearRegression().fit(curve.grid.points, curve.median).slope_
        assert slope == pytest.approx(1.0, rel=1e-12)

    def test_flat_curve_has_zero_slope(self):
        grid = make_grid(150.0, 200.0, 11)
        rows = np.full((3, 11), 42.0)
        curve = band_curve(PredictionMatrix(grid=grid, rows=rows))
        slope = LinearRegression().fit(curve.grid.points, curve.median).slope_
        assert slope == pytest.approx(0.0, abs=1e-12)


class TestHistogram:
    def test_two_bin_example(self):
        doc = distribution_report([0.0, 1.0, 2.0, 3.0], bins=2)
        assert doc["bin_edges"] == [0.0, 1.5, 3.0]
        assert doc["counts"] == [2, 2]

    def test_right_open_except_last(self):
        doc = distribution_report([0.0, 1.0, 2.0], bins=2)
        # 1.0 sits exactly on the middle edge and belongs to the right bin
        assert doc["counts"] == [1, 2]

    def test_constant_sample_gets_one_bin(self):
        doc = distribution_report([5.0] * 12)
        assert doc["counts"] == [12]
        assert doc["bin_edges"] == [4.5, 5.5]

    def test_default_bin_count_is_sqrt_rule(self):
        doc = distribution_report(Rng(9).normals(100))
        assert len(doc["counts"]) == 10
        doc = distribution_report(Rng(9).normals(50))
        assert len(doc["counts"]) == 8  # ceil(sqrt(50))

    def test_counts_always_sum_to_n(self):
        rng = Rng(10)
        for trial in range(20):
            v = rng.normals(5 + 13 * trial)
            doc = distribution_report(v)
            assert sum(doc["counts"]) == doc["n"] == len(v)

    def test_validation(self):
        with pytest.raises(ValueError):
            distribution_report([1.0, 2.0], bins=0)
        with pytest.raises(ValueError):
            distribution_report([])
        # two adjacent doubles have no room for a middle edge
        with pytest.raises(ValueError, match="too narrow for 2 bins"):
            distribution_report([1.0, np.nextafter(1.0, 2.0)])


class TestGaussianOverlay:
    def test_peak_ordinate_at_mean(self):
        doc = distribution_report([-1.0, 1.0])
        assert (doc["mean"], doc["bin_edges"]) == (0.0, [-1.0, 0.0, 1.0])
        assert doc["sd"] == pytest.approx(np.sqrt(2.0), rel=1e-12)
        xs, ys = doc["overlay"]["x"], doc["overlay"]["y"]
        assert xs[16] == 0.0
        expected = 2 * 1.0 / (np.sqrt(2.0) * np.sqrt(2.0 * np.pi))
        assert ys[16] == pytest.approx(expected, rel=1e-12)

    def test_unit_mass_peak_value(self):
        # sd 10, and n * bin_width = 3 * 20 / 60 = 1, give 1 / (10 sqrt(2 pi))
        doc = distribution_report([-10.0, 0.0, 10.0], bins=60)
        assert doc["sd"] == 10.0
        xs, ys = doc["overlay"]["x"], doc["overlay"]["y"]
        assert xs[480] == pytest.approx(0.0, abs=1e-12)
        assert ys[480] == pytest.approx(0.03989422804014327, rel=1e-9)

    def test_symmetry(self):
        doc = distribution_report([-2.0, -0.5, 0.5, 2.0], bins=2)
        assert doc["bin_edges"] == [-2.0, 0.0, 2.0]
        ys = np.array(doc["overlay"]["y"])
        assert np.allclose(ys, ys[::-1], rtol=1e-12)

    def test_span_and_density(self):
        doc = distribution_report(Rng(11).normals(64))
        xs = doc["overlay"]["x"]
        assert xs[0] == doc["bin_edges"][0]
        assert xs[-1] == doc["bin_edges"][-1]
        assert len(xs) == len(doc["counts"]) * 16 + 1


class TestBoxplotSummary:
    def test_no_outliers(self):
        box = distribution_report([1.0, 2.0, 3.0, 4.0, 5.0])["box"]
        assert box["outliers"] == []
        assert (box["whisker_low"], box["whisker_high"]) == (1.0, 5.0)

    def test_detects_far_point(self):
        box = distribution_report([1.0, 2.0, 3.0, 4.0, 100.0])["box"]
        assert box["outliers"] == [100.0]
        assert box["whisker_high"] == 4.0
        assert box["whisker_low"] == 1.0

    def test_constant_sample(self):
        box = distribution_report([3.0, 3.0, 3.0])["box"]
        assert box["whisker_low"] == box["whisker_high"] == 3.0
        assert box["outliers"] == []

    def test_outliers_sorted_and_strictly_outside(self):
        v = np.concatenate([Rng(12).normals(200), [-50.0, 60.0, 55.0]])
        box = distribution_report(v)["box"]
        outliers = np.array(box["outliers"])
        assert box["outliers"] == sorted(box["outliers"])
        assert np.all((outliers < box["q1"] - 1.5 * (box["q3"] - box["q1"]))
                      | (outliers > box["q3"] + 1.5 * (box["q3"] - box["q1"])))


class TestMeanSd:
    def test_single_value(self):
        doc = distribution_report([5.0])
        assert (doc["mean"], doc["sd"]) == (5.0, 0.0)

    def test_two_values_use_n_minus_one(self):
        doc = distribution_report([0.0, 2.0])
        assert doc["mean"] == 1.0
        assert doc["sd"] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_constant(self):
        doc = distribution_report([1.0, 1.0, 1.0, 1.0])
        assert (doc["mean"], doc["sd"]) == (1.0, 0.0)


class TestDistributionReport:
    def test_document_fields(self):
        doc = distribution_report(Rng(13).normals(100))
        assert set(doc) == {"n", "mean", "sd", "bin_edges", "counts", "overlay", "box"}
        assert doc["n"] == 100
        assert len(doc["bin_edges"]) == len(doc["counts"]) + 1
        assert set(doc["box"]) == {"q1", "median", "q3", "whisker_low",
                                   "whisker_high", "outliers"}
        assert len(doc["overlay"]["x"]) == len(doc["overlay"]["y"])

    def test_constant_sample_has_no_overlay(self):
        doc = distribution_report([2.0] * 10)
        assert doc["counts"] == [10]
        assert doc["overlay"] is None
        assert doc["box"]["q1"] == doc["box"]["q3"] == 2.0
