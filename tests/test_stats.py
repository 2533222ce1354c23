import io

import numpy as np
import pytest

from predbands.dataset import Grid, make_grid
from predbands.montecarlo import PredictionMatrix
from predbands.rng import Rng
from predbands.stats import (
    Histogram,
    band_curve,
    band_slope,
    boxplot_summary,
    distribution_report,
    gaussian_overlay,
    histogram,
    mean_sd,
    quantile,
    quartile_band,
)
from predbands.table import write_table


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

    def test_validation(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)
        with pytest.raises(ValueError):
            quantile([1.0], -0.1)


class TestQuartileBand:
    def test_five_point_example(self):
        band = quartile_band([1.0, 2.0, 3.0, 4.0, 5.0])
        assert (band.q1, band.median, band.q3) == (2.0, 3.0, 4.0)
        assert band.iqr == 2.0
        assert band.low == -1.0
        assert band.high == 7.0

    def test_constant_sample_collapses(self):
        band = quartile_band([4.0] * 9)
        assert band.q1 == band.median == band.q3 == band.low == band.high == 4.0
        assert band.iqr == 0.0

    def test_fence_identities_are_exact(self):
        rng = Rng(5)
        for trial in range(50):
            v = rng.normals(3 + trial) * 5.0 + trial
            band = quartile_band(v)
            assert band.iqr == band.q3 - band.q1
            assert band.low == band.q1 - 1.5 * band.iqr
            assert band.high == band.q3 + 1.5 * band.iqr

    def test_gaussian_fences_sit_near_2_7_sigma(self):
        z = Rng(6).normals(100000)
        band = quartile_band(z)
        assert band.low == pytest.approx(-2.698, abs=0.1)
        assert band.high == pytest.approx(2.698, abs=0.1)


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
            band = curve.band_at(i)
            assert band.low == band.q1 - 1.5 * band.iqr
            assert band == quartile_band(rows[:, i])

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
    def test_exact_line_recovers_slope(self):
        grid = make_grid(150.0, 200.0, 11)
        rows = np.tile(grid.points - 100.0, (3, 1))
        curve = band_curve(PredictionMatrix(grid=grid, rows=rows))
        assert band_slope(curve) == pytest.approx(1.0, rel=1e-12)

    def test_flat_curve_has_zero_slope(self):
        grid = make_grid(150.0, 200.0, 11)
        rows = np.full((3, 11), 42.0)
        curve = band_curve(PredictionMatrix(grid=grid, rows=rows))
        assert band_slope(curve) == pytest.approx(0.0, abs=1e-12)


class TestHistogram:
    def test_two_bin_example(self):
        hist = histogram([0.0, 1.0, 2.0, 3.0], bins=2)
        assert hist.bin_edges.tolist() == [0.0, 1.5, 3.0]
        assert hist.counts.tolist() == [2, 2]

    def test_right_open_except_last(self):
        hist = histogram([0.0, 1.0, 2.0], bins=2)
        # 1.0 sits exactly on the middle edge and belongs to the right bin
        assert hist.counts.tolist() == [1, 2]

    def test_constant_sample_gets_one_bin(self):
        hist = histogram([5.0] * 12)
        assert hist.counts.tolist() == [12]
        assert hist.bin_edges.tolist() == [4.5, 5.5]

    def test_default_bin_count_is_sqrt_rule(self):
        hist = histogram(Rng(9).normals(100))
        assert len(hist.counts) == 10
        hist = histogram(Rng(9).normals(50))
        assert len(hist.counts) == 8  # ceil(sqrt(50))

    def test_counts_always_sum_to_n(self):
        rng = Rng(10)
        for trial in range(20):
            v = rng.normals(5 + 13 * trial)
            hist = histogram(v)
            assert hist.counts.sum() == len(v)

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([1.0, 2.0], bins=0)
        with pytest.raises(ValueError):
            histogram([])
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0, 1.0]), counts=np.array([3]), n=4)


class TestGaussianOverlay:
    def test_peak_ordinate_at_mean(self):
        hist = Histogram(bin_edges=np.array([-1.0, 0.0, 1.0]),
                         counts=np.array([3, 5]), n=8)
        xs, ys = gaussian_overlay(0.0, 1.0, hist, points_per_bin=8)
        at_mean = ys[xs == 0.0]
        expected = 8 * 1.0 / (1.0 * np.sqrt(2.0 * np.pi))
        assert at_mean[0] == pytest.approx(expected, rel=1e-12)

    def test_unit_mass_peak_value(self):
        # n * bin_width = 1 with sd 10 gives 1 / (10 sqrt(2 pi))
        hist = Histogram(bin_edges=np.array([-0.5, 0.5]), counts=np.array([1]), n=1)
        xs, ys = gaussian_overlay(0.0, 10.0, hist, points_per_bin=2)
        assert ys[xs == 0.0][0] == pytest.approx(0.03989422804014327, rel=1e-9)

    def test_symmetry(self):
        hist = Histogram(bin_edges=np.array([-2.0, 0.0, 2.0]),
                         counts=np.array([1, 1]), n=2)
        xs, ys = gaussian_overlay(0.0, 1.3, hist, points_per_bin=10)
        assert np.allclose(ys, ys[::-1], rtol=1e-12)

    def test_span_and_density(self):
        hist = histogram(Rng(11).normals(64))
        xs, ys = gaussian_overlay(0.0, 1.0, hist, points_per_bin=16)
        assert xs[0] == hist.bin_edges[0]
        assert xs[-1] == hist.bin_edges[-1]
        assert len(xs) == len(hist.counts) * 16 + 1

    def test_validation(self):
        hist = histogram([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            gaussian_overlay(0.0, 0.0, hist)
        with pytest.raises(ValueError):
            gaussian_overlay(0.0, 1.0, hist, points_per_bin=0)


class TestBoxplotSummary:
    def test_no_outliers(self):
        box = boxplot_summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert box.outliers.tolist() == []
        assert (box.whisker_low, box.whisker_high) == (1.0, 5.0)

    def test_detects_far_point(self):
        box = boxplot_summary([1.0, 2.0, 3.0, 4.0, 100.0])
        assert box.outliers.tolist() == [100.0]
        assert box.whisker_high == 4.0
        assert box.whisker_low == 1.0

    def test_constant_sample(self):
        box = boxplot_summary([3.0, 3.0, 3.0])
        assert box.whisker_low == box.whisker_high == 3.0
        assert box.outliers.tolist() == []

    def test_outliers_sorted_and_strictly_outside(self):
        v = np.concatenate([Rng(12).normals(200), [-50.0, 60.0, 55.0]])
        box = boxplot_summary(v)
        assert box.outliers.tolist() == sorted(box.outliers.tolist())
        assert np.all((box.outliers < box.q1 - 1.5 * (box.q3 - box.q1))
                      | (box.outliers > box.q3 + 1.5 * (box.q3 - box.q1)))


class TestMeanSd:
    def test_single_value(self):
        assert mean_sd([5.0]) == (5.0, 0.0)

    def test_two_values_use_n_minus_one(self):
        m, s = mean_sd([0.0, 2.0])
        assert m == 1.0
        assert s == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_constant(self):
        assert mean_sd([1.0, 1.0, 1.0, 1.0]) == (1.0, 0.0)


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
