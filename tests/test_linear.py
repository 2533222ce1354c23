import math
from statistics import NormalDist

import numpy as np
import pytest

from predbands import montecarlo
from predbands.dataset import GenConfig, generate_dataset, make_grid
from predbands.linear import LinearRegression, SingularFitError, fit_lines
from predbands.montecarlo import ReplicationError, StudyConfig, run_study
from predbands.rng import Rng

normal_quantile = NormalDist().inv_cdf


def normal_equations_oracle(xs, ys):
    """Independent route: solve the 2x2 normal equations directly."""
    n = len(xs)
    lhs = np.array([[n, np.sum(xs)], [np.sum(xs), np.sum(xs * xs)]])
    rhs = np.array([np.sum(ys), np.sum(xs * ys)])
    a, b = np.linalg.solve(lhs, rhs)
    return a, b


def random_dataset(seed, n=None):
    rng = Rng(seed)
    n = n or 10 + int(rng.uniforms(1)[0] * 40)
    xs = rng.uniform(-5.0, 15.0, n)
    slope = 0.5 + 2.5 * rng.uniforms(1)[0]
    intercept = 2.0 + 8.0 * rng.uniforms(1)[0]
    ys = intercept + slope * xs + rng.normals(n)
    return xs, ys


class TestFit:
    def test_exact_line(self):
        fit = LinearRegression().fit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert fit.intercept_ == pytest.approx(1.0, abs=1e-12)
        assert fit.slope_ == pytest.approx(2.0, abs=1e-12)
        assert fit.residual_se_ == pytest.approx(0.0, abs=1e-12)

    def test_small_example_matches_normal_equations(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        ys = np.array([2.0, 4.0, 5.0, 8.0])
        fit = LinearRegression().fit(xs, ys)
        a, b = normal_equations_oracle(xs, ys)
        assert fit.intercept_ == pytest.approx(a, rel=1e-10)
        assert fit.slope_ == pytest.approx(b, rel=1e-10)
        # hand-derived values for this dataset
        assert fit.slope_ == pytest.approx(1.9, rel=1e-12)
        assert fit.intercept_ == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_on_random_data(self):
        for seed in range(20):
            xs, ys = random_dataset(seed)
            fit = LinearRegression().fit(xs, ys)
            a, b = normal_equations_oracle(xs, ys)
            assert abs(fit.intercept_ - a) <= 1e-10 * max(1.0, abs(a))
            assert abs(fit.slope_ - b) <= 1e-10 * max(1.0, abs(b))

    def test_matches_grid_refinement_oracle(self):
        # derivative-free route: zoom a 2-D grid onto the SSE minimum
        def zoom_oracle(xs, ys):
            sse = lambda a, b: np.sum((ys - a - b * xs) ** 2)
            a0, b0, span_a, span_b = 0.0, 0.0, 30.0, 8.0
            for _ in range(8):
                grid_a = np.linspace(a0 - span_a, a0 + span_a, 41)
                grid_b = np.linspace(b0 - span_b, b0 + span_b, 41)
                costs = [(sse(a, b), a, b) for a in grid_a for b in grid_b]
                _, a0, b0 = min(costs)
                span_a /= 15.0
                span_b /= 15.0
            return a0, b0

        for seed in range(20):
            xs, ys = random_dataset(seed, n=12)
            fit = LinearRegression().fit(xs, ys)
            a, b = zoom_oracle(xs, ys)
            assert fit.intercept_ == pytest.approx(a, abs=1e-6)
            assert fit.slope_ == pytest.approx(b, abs=1e-6)

    def test_residual_identities(self):
        for seed in (3, 17, 99):
            xs, ys = random_dataset(seed)
            fit = LinearRegression().fit(xs, ys)
            r = ys - fit.predict(xs)
            scale = np.abs(ys).max()
            assert abs(np.sum(r)) < 1e-9 * len(xs) * scale
            assert abs(np.sum(r * xs)) < 1e-9 * len(xs) * scale * np.abs(xs).max()

    def test_standard_error_identities(self):
        xs, ys = random_dataset(7, n=30)
        fit = LinearRegression().fit(xs, ys)
        assert fit.slope_se_ == pytest.approx(fit.residual_se_ / math.sqrt(fit.sxx_),
                                              rel=1e-12)
        expected_a = fit.residual_se_ * math.sqrt(1.0 / fit.n_ + fit.x_mean_ ** 2 / fit.sxx_)
        assert fit.intercept_se_ == pytest.approx(expected_a, rel=1e-12)

    def test_recovers_generating_line_at_scale(self):
        data = generate_dataset(GenConfig(n_samples=20000, seed=6))
        fit = LinearRegression().fit(data.xs, data.ys)
        # 4 standard errors: se_b ~ 0.005, se_a ~ 0.9
        assert abs(fit.slope_ - 1.0) < 0.02
        assert abs(fit.intercept_ + 100.0) < 3.5

    def test_shifting_targets_shifts_intercept_only(self):
        xs, ys = random_dataset(11)
        base = LinearRegression().fit(xs, ys)
        moved = LinearRegression().fit(xs, ys + 64.0)
        assert moved.intercept_ == pytest.approx(base.intercept_ + 64.0, rel=1e-10)
        assert moved.slope_ == pytest.approx(base.slope_, rel=1e-10)

    def test_two_points_have_zero_residual_scale(self):
        fit = LinearRegression().fit([0.0, 1.0], [0.0, 3.0])
        assert fit.residual_se_ == 0.0
        assert fit.slope_se_ == 0.0

    def test_degenerate_design_raises(self):
        with pytest.raises(SingularFitError):
            LinearRegression().fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            LinearRegression().fit([1.0], [1.0])

    def test_variance_that_underflows_to_zero_raises(self):
        # the x values differ, but their squared deviations underflow
        with pytest.raises(SingularFitError, match="x has zero variance"):
            fit_lines(np.array([[0.0, 5e-324, 0.0]]), np.ones((1, 3)))

    def test_batched_fit_names_its_first_overflowing_row(self, monkeypatch):
        xs = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 1e200, -1e200]])
        ys = np.array([[1.0, 2.0, 3.0], [1.0, 1e308, -1e308], [1.0, 2.0, 3.0]])
        with pytest.raises(SingularFitError, match="overflow"), \
                np.errstate(over="ignore", invalid="ignore"):
            fit_lines(xs, ys)
        # rows 1 and 2 fail; a study of these rows names replication 1
        monkeypatch.setattr(montecarlo, "generate_rows", lambda config, seeds: (xs, ys))
        with pytest.raises(ReplicationError, match="replication 1: the least squares sums"):
            run_study(StudyConfig(gen=GenConfig(n_samples=3), replications=3))

    def test_single_column_x_equals_a_vector_and_two_columns_are_rejected(self):
        xs, ys = random_dataset(5)
        column = LinearRegression().fit(xs[:, None], ys)
        vector = LinearRegression().fit(xs, ys)
        assert vars(column) == vars(vector)
        with pytest.raises(ValueError, match="x must be 1-D"):
            LinearRegression().fit(np.column_stack([xs, xs]), ys)

    def test_batched_fit_names_its_first_degenerate_row(self, monkeypatch):
        xs = np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0], [5.0, 5.0, 5.0]])
        with pytest.raises(SingularFitError, match="all x values are identical"):
            fit_lines(xs, np.ones_like(xs))
        # rows 1 and 2 fail; a study of these rows names replication 1
        monkeypatch.setattr(montecarlo, "generate_rows",
                            lambda config, seeds: (xs, np.ones_like(xs)))
        with pytest.raises(ReplicationError, match="replication 1: all x values are identical"):
            run_study(StudyConfig(gen=GenConfig(n_samples=3), replications=3))

    def test_unfitted_predict_raises(self):
        with pytest.raises(ValueError, match="not fitted"):
            LinearRegression().predict([1.0])


class TestPredict:
    def test_direct_evaluation(self):
        fit = LinearRegression().fit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert np.allclose(fit.predict([0.0, 1.0, 2.0]), [1.0, 3.0, 5.0],
                           rtol=0, atol=1e-12)

    def test_flat_model(self):
        fit = LinearRegression().fit([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
        assert np.allclose(fit.predict([10.0, -3.0]), [4.0, 4.0], rtol=0, atol=1e-12)

    def test_noiseless_generating_line(self):
        data = generate_dataset(GenConfig(noise_sigma=0.0, seed=9))
        fit = LinearRegression().fit(data.xs, data.ys)
        assert np.allclose(fit.predict([150.0, 200.0]), [50.0, 100.0],
                           rtol=0, atol=1e-9)


class TestPredictionBand:
    @pytest.fixture()
    def reference_fit(self):
        data = generate_dataset(GenConfig(seed=12))
        return LinearRegression().fit(data.xs, data.ys)

    def test_half_width_at_x_mean(self, reference_fit):
        fit = reference_fit
        lo, hi = fit.prediction_band([fit.x_mean_], level=0.95)
        z = normal_quantile(0.975)
        expected = z * fit.residual_se_ / math.sqrt(fit.n_)
        assert (hi[0] - lo[0]) / 2.0 == pytest.approx(expected, rel=1e-12)

    def test_width_grows_away_from_mean(self, reference_fit):
        xs = np.array([175.0, 180.0, 190.0, 200.0])
        lo, hi = reference_fit.prediction_band(xs)
        widths = hi - lo
        assert np.all(np.diff(widths) > 0)

    def test_edge_to_center_ratio_near_two(self, reference_fit):
        lo, hi = reference_fit.prediction_band([150.0, 175.0])
        ratio = (hi[0] - lo[0]) / (hi[1] - lo[1])
        assert 1.8 < ratio < 2.2

    def test_observation_band_is_wider(self, reference_fit):
        xs = np.array([160.0, 175.0, 190.0])
        lo_m, hi_m = reference_fit.prediction_band(xs, kind="mean")
        lo_o, hi_o = reference_fit.prediction_band(xs, kind="observation")
        assert np.all(hi_o > hi_m)
        assert np.all(lo_o < lo_m)

    def test_band_is_symmetric_about_prediction(self, reference_fit):
        xs = np.array([150.0, 175.0, 200.0])
        lo, hi = reference_fit.prediction_band(xs)
        assert np.allclose((lo + hi) / 2.0, reference_fit.predict(xs), rtol=1e-12)

    def test_validation(self, reference_fit):
        with pytest.raises(ValueError):
            reference_fit.prediction_band([175.0], level=1.5)
        with pytest.raises(ValueError):
            reference_fit.prediction_band([175.0], kind="bogus")
        two = LinearRegression().fit([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            two.prediction_band([0.5])


class TestSummary:
    def test_layout(self):
        fit = LinearRegression().fit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        text = fit.summary()
        assert text.startswith("y = ")
        assert "·x" in text
        assert "(" in text and ")" in text


class TestNormalQuantile:
    def test_known_values(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
        assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)
        assert normal_quantile(0.025) == pytest.approx(-1.959963984540054, abs=1e-9)

    def test_round_trip_against_erfc(self):
        for p in (0.001, 0.01, 0.2, 0.5, 0.7, 0.99, 0.9999):
            z = normal_quantile(p)
            cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
            assert cdf == pytest.approx(p, abs=1e-12)

    def test_rejects_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                normal_quantile(p)
