"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight
studies (linear and forest, 1000 replications each) are shared
module-scoped fixtures; the whole module finishes in a couple of
minutes on a laptop.
"""

import io
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

from predbands.cli import main as cli_main
from predbands.dataset import GenConfig, generate_dataset
from predbands.forest import DecisionTreeRegressor, ForestParams
from predbands.linear import LinearRegression
from predbands.montecarlo import StudyConfig, run_study
from predbands.rng import Rng
from predbands.stats import _column_quantile, _fences, band_curve, distribution_report

from test_forest import exhaustive_tree_oracle
from test_linear import normal_equations_oracle


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"criterion {num} FAIL: {description}")
        raise
    print(f"criterion {num} PASS: {description}")


@pytest.fixture(scope="module")
def linear_study():
    config = StudyConfig()  # linear, R=1000, n=100, grid 101 over [150, 200]
    start = time.perf_counter()
    result = run_study(config)
    return config, result, time.perf_counter() - start


@pytest.fixture(scope="module")
def forest_study_full():
    config = StudyConfig(model="forest")  # R=1000, 100 trees each
    start = time.perf_counter()
    result = run_study(config)
    return config, result, time.perf_counter() - start


def test_criterion_1_slope_sampling_distribution(linear_study):
    config, result, seconds = linear_study
    with criterion(1, "slope sampling distribution (mean, sd, normal coverage)"):
        slopes = result.coefficients.slopes
        mean = slopes.mean()
        sd = slopes.std(ddof=1)
        assert 0.99 <= mean <= 1.01, f"mean(slopes)={mean}"
        assert 0.055 <= sd <= 0.085, f"sd(slopes)={sd}"
        frac = np.mean((slopes >= mean - 1.96 * sd) & (slopes <= mean + 1.96 * sd))
        assert 0.93 <= frac <= 0.97, f"1.96-sd coverage={frac}"
        assert seconds < 5.0, f"linear study took {seconds:.2f}s"


def test_criterion_2_boundary_variance_growth(linear_study):
    config, result, _ = linear_study
    with criterion(2, "prediction sd grows toward the support boundary"):
        curve = band_curve(result.matrix)
        pts = config.grid.points.tolist()
        sd_150 = curve.sd[pts.index(150.0)]
        sd_175 = curve.sd[pts.index(175.0)]
        sd_200 = curve.sd[pts.index(200.0)]
        assert sd_150 > sd_175 and sd_200 > sd_175
        for edge_sd in (sd_150, sd_200):
            ratio = edge_sd / sd_175
            assert 1.6 <= ratio <= 2.4, f"edge/center ratio={ratio}"


def test_criterion_3_median_band_centering(linear_study):
    config, result, _ = linear_study
    with criterion(3, "median band centered on the generating line"):
        curve = band_curve(result.matrix)
        pts = config.grid.points.tolist()
        median_175 = curve.median[pts.index(175.0)]
        assert 74.5 <= median_175 <= 75.5, f"median@175={median_175}"
        true_line = config.grid.points - 100.0
        assert np.all(true_line >= curve.low)
        assert np.all(true_line <= curve.high)


def sort_based_quantile_oracle(values, p):
    """Plain-Python oracle: sort the list, interpolate between neighbors."""
    v = sorted(float(x) for x in values)
    h = (len(v) - 1) * p
    j = int(h)
    if j >= len(v) - 1:
        return v[-1]
    return v[j] + (h - j) * (v[j + 1] - v[j])


def test_criterion_4_fence_identities_and_quantile_oracle():
    with criterion(4, "fence identities exact; quantiles match sort-based oracle"):
        rng = Rng(2024)
        for trial in range(1000):
            n = 1 + int(rng.uniforms(1)[0] * 60)
            values = rng.normals(n) * (1.0 + trial % 7) + (trial % 11)
            ordered = np.sort(values)
            q1, _, q3, iqr, low, high = _fences(ordered)
            assert iqr == q3 - q1
            assert low == q1 - 1.5 * iqr
            assert high == q3 + 1.5 * iqr
            p = float(rng.uniforms(1)[0])
            for prob in (p, 0.25, 0.5, 0.75):
                got = float(_column_quantile(ordered, prob))
                for want in (sort_based_quantile_oracle(values, prob),
                             float(np.quantile(values, prob))):
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_criterion_5_forest_attenuation(forest_study_full):
    config, result, seconds = forest_study_full
    with criterion(5, "forest median curve slope attenuated (full and CI profile)"):
        curve = band_curve(result.matrix)
        slope_full = LinearRegression().fit(curve.grid.points, curve.median).slope_
        assert 0.7 <= slope_full < 1.0, f"full-study band slope={slope_full}"
        assert seconds < 600.0, f"full forest study took {seconds:.1f}s"

        reduced = StudyConfig(model="forest", replications=100,
                              forest=ForestParams(n_trees=25))
        start = time.perf_counter()
        reduced_result = run_study(reduced)
        reduced_seconds = time.perf_counter() - start
        curve = band_curve(reduced_result.matrix)
        slope_reduced = LinearRegression().fit(curve.grid.points, curve.median).slope_
        assert 0.7 <= slope_reduced < 1.0, f"CI-profile band slope={slope_reduced}"
        assert reduced_seconds < 30.0, f"CI profile took {reduced_seconds:.2f}s"


def test_criterion_6_long_tails_at_the_edges(forest_study_full):
    config, result, _ = forest_study_full
    with criterion(6, "forest prediction columns at 150 and 200 have outliers"):
        for x in (150.0, 200.0):
            box = distribution_report(result.matrix.rows[:, result.matrix.grid.index(x)])["box"]
            assert len(box["outliers"]) >= 1, f"no outliers at x={x}"


def test_criterion_7_oracle_equivalence():
    with criterion(7, "closed-form fits match brute-force oracles"):
        rng = Rng(77)
        for trial in range(20):
            n = 10 + int(rng.uniforms(1)[0] * 40)
            xs = rng.uniform(-5.0, 15.0, n)
            ys = 4.0 + 2.0 * xs + rng.normals(n) * 3.0
            fit = LinearRegression().fit(xs, ys)
            a, b = normal_equations_oracle(xs, ys)
            assert abs(fit.intercept_ - a) <= 1e-10 * max(1.0, abs(a))
            assert abs(fit.slope_ - b) <= 1e-10 * max(1.0, abs(b))
        for n in range(2, 31):
            trees_rng = Rng(3000 + n)
            xs = trees_rng.uniform(0.0, 10.0, n)
            ys = 1.5 * xs + 4.0 * trees_rng.normals(n)
            for min_leaf, min_split in ((1, 2), (3, 6)):
                if n < min_leaf:
                    continue
                tree = DecisionTreeRegressor(min_samples_leaf=min_leaf,
                                             min_samples_split=min_split).fit(xs, ys)
                want_t, want_v = exhaustive_tree_oracle(
                    xs, ys, None, min_leaf, min_split)
                assert np.allclose(tree.thresholds_, want_t, rtol=1e-12, atol=1e-12)
                assert np.allclose(tree.leaf_values_, want_v, rtol=1e-12, atol=1e-12)


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "study command byte-identical across reruns and thread counts"):
        flags = ["study", "--replications", "40", "--grid-points", "11",
                 "--emit-matrix"]
        outputs = {}
        for name, extra in (("a", ["--threads", "1"]),
                            ("b", ["--threads", "1"]),
                            ("c", ["--threads", "3"])):
            prefix = str(tmp_path / name)
            with io.StringIO() as sink, redirect_stdout(sink):
                assert cli_main(flags + extra + ["--output", prefix]) == 0
            outputs[name] = [
                (tmp_path / f"{name}_bands.csv").read_bytes(),
                (tmp_path / f"{name}_coefficients.csv").read_bytes(),
                (tmp_path / f"{name}_matrix.csv").read_bytes(),
            ]
        assert outputs["a"] == outputs["b"], "rerun with identical flags differs"
        assert outputs["a"] == outputs["c"], "thread count changed the output"


def test_criterion_9_gaussian_fence_calibration():
    with criterion(9, "1.5*IQR fences sit near 2.70 sigma with ~99.3% coverage"):
        draws = Rng(9090).normals(100000)
        *_, low, high = (float(f) for f in _fences(np.sort(draws)))
        assert abs(low + 2.70) <= 0.1, f"low fence={low}"
        assert abs(high - 2.70) <= 0.1, f"high fence={high}"
        contained = np.mean((draws >= low) & (draws <= high))
        assert 0.985 <= contained <= 0.997, f"contained fraction={contained}"
