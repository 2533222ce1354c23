import json
import multiprocessing
import os

import numpy as np
import pytest

from predbands import montecarlo
from predbands.cli import main
from predbands.dataset import Dataset, GenConfig, generate_dataset
from predbands.linear import LinearRegression


def _die_in_worker(config, r):
    if multiprocessing.parent_process() is None:
        raise AssertionError("expected to run in a worker process")
    os._exit(1)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_defaults_write_100_rows_in_range(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        code, out, err = run_cli(capsys, "generate", "--output", str(path))
        assert code == 0
        assert out.strip() == str(path)
        assert "100 rows (seed 0)" in err
        data = Dataset.from_csv(str(path))
        assert len(data) == 100
        assert data.xs.min() >= 150.0 and data.xs.max() < 200.0

    def test_matches_library_generation(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        run_cli(capsys, "generate", "--seed", "9", "--output", str(path))
        data = Dataset.from_csv(str(path))
        want = generate_dataset(GenConfig(seed=9))
        assert np.array_equal(data.xs, want.xs)
        assert np.array_equal(data.ys, want.ys)

    def test_zero_noise_collinear(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        run_cli(capsys, "generate", "--noise-sigma", "0", "--output", str(path))
        data = Dataset.from_csv(str(path))
        assert np.max(np.abs(data.ys - (data.xs - 100.0))) == 0.0

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "generate", "--seed", "4", "--output", str(p1))
        run_cli(capsys, "generate", "--seed", "4", "--output", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_stdout_output(self, capsys):
        code, out, err = run_cli(capsys, "generate", "--samples", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 6

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "--samples", "4", "--format", "json")
        doc = json.loads(out)
        assert set(doc) == {"x", "y"}
        assert len(doc["x"]) == 4

    def test_bad_flag_value_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--samples", "1")
        assert code == 1
        assert "error" in err


class TestFit:
    @pytest.fixture()
    def data_file(self, tmp_path):
        path = tmp_path / "data.csv"
        generate_dataset(GenConfig(seed=3)).to_csv(str(path))
        return str(path)

    def test_linear_report_matches_library(self, capsys, data_file):
        code, out, _ = run_cli(capsys, "fit", data_file)
        assert code == 0
        data = Dataset.from_csv(data_file)
        fit = LinearRegression().fit(data.xs, data.ys)
        fields = dict(line.split(": ") for line in out.splitlines()[1:])
        assert float(fields["intercept"]) == fit.intercept_
        assert float(fields["slope"]) == fit.slope_
        assert float(fields["intercept_se"]) == fit.intercept_se_
        assert float(fields["slope_se"]) == fit.slope_se_
        assert float(fields["residual_se"]) == fit.residual_se_
        assert int(fields["n"]) == 100
        assert out.splitlines()[0].startswith("y = ")

    def test_exact_line_report(self, capsys, tmp_path):
        path = tmp_path / "line.csv"
        Dataset(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 5.0])).to_csv(str(path))
        code, out, _ = run_cli(capsys, "fit", str(path))
        fields = dict(line.split(": ") for line in out.splitlines()[1:])
        assert float(fields["slope"]) == 2.0
        assert float(fields["residual_se"]) == 0.0

    def test_linear_band_csv(self, capsys, data_file, tmp_path):
        out_path = tmp_path / "band.csv"
        code, out, _ = run_cli(capsys, "fit", data_file, "--grid-points", "11",
                               "--x-min", "150", "--x-max", "200",
                               "--output", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "x,predicted,lower,upper"
        assert len(lines) == 12
        row = [float(c) for c in lines[1].split(",")]
        assert row[2] < row[1] < row[3]

    def test_observation_band_is_wider(self, capsys, data_file, tmp_path):
        mean_path = tmp_path / "mean.csv"
        obs_path = tmp_path / "obs.csv"
        run_cli(capsys, "fit", data_file, "--band", "mean", "--output", str(mean_path))
        run_cli(capsys, "fit", data_file, "--band", "observation",
                "--output", str(obs_path))
        take = lambda p: np.array([[float(c) for c in ln.split(",")]
                                   for ln in p.read_text().splitlines()[1:]])
        m, o = take(mean_path), take(obs_path)
        assert np.all(o[:, 3] > m[:, 3])

    def test_forest_predictions_piecewise_constant(self, capsys, data_file):
        code, out, err = run_cli(capsys, "fit", data_file, "--model", "forest",
                                 "--trees", "10", "--grid-points", "201")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,predicted"
        preds = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        assert np.any(np.diff(preds) == 0.0)
        assert "RandomForestRegressor" in err

    def test_singular_data_is_fit_failure(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        Dataset(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0])).to_csv(str(path))
        code, _, err = run_cli(capsys, "fit", str(path))
        assert code == 2
        assert "identical" in err

    def test_malformed_csv_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1.0,2.0\n3.0\n")
        code, _, err = run_cli(capsys, "fit", str(path))
        assert code == 1
        assert "line 3" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "no-such-file.csv")
        assert code == 1
        assert "error" in err


class TestStudy:
    def test_small_study_file_shapes(self, capsys, tmp_path):
        prefix = str(tmp_path / "s")
        code, out, _ = run_cli(capsys, "study", "--replications", "2",
                               "--grid-points", "3", "--output", prefix)
        assert code == 0
        paths = out.splitlines()
        assert paths == [prefix + "_bands.csv", prefix + "_coefficients.csv"]
        bands = (tmp_path / "s_bands.csv").read_text().splitlines()
        assert bands[0] == "x,mean,sd,q1,median,q3,iqr,low,high"
        assert len(bands) == 4
        coeffs = (tmp_path / "s_coefficients.csv").read_text().splitlines()
        assert coeffs[0] == "slope,intercept"
        assert len(coeffs) == 3

    def test_default_study_writes_1000_coefficient_rows(self, capsys, tmp_path):
        prefix = str(tmp_path / "full")
        code, out, _ = run_cli(capsys, "study", "--output", prefix)
        assert code == 0
        coeffs = (tmp_path / "full_coefficients.csv").read_text().splitlines()
        assert coeffs[0] == "slope,intercept"
        assert len(coeffs) == 1001
        bands = (tmp_path / "full_bands.csv").read_text().splitlines()
        assert len(bands) == 102

    def test_emit_matrix(self, capsys, tmp_path):
        prefix = str(tmp_path / "m")
        code, out, _ = run_cli(capsys, "study", "--replications", "4",
                               "--grid-points", "5", "--emit-matrix",
                               "--output", prefix)
        assert code == 0
        assert out.splitlines()[-1] == prefix + "_matrix.csv"
        matrix = (tmp_path / "m_matrix.csv").read_text().splitlines()
        assert len(matrix) == 5
        assert [float(c) for c in matrix[0].split(",")][0] == 150.0

    def test_identical_flags_are_byte_identical(self, capsys, tmp_path):
        args = ["study", "--replications", "6", "--grid-points", "4", "--emit-matrix"]
        run_cli(capsys, *args, "--output", str(tmp_path / "one"))
        run_cli(capsys, *args, "--output", str(tmp_path / "two"))
        for suffix in ("_bands.csv", "_coefficients.csv", "_matrix.csv"):
            assert ((tmp_path / f"one{suffix}").read_bytes()
                    == (tmp_path / f"two{suffix}").read_bytes()), suffix

    def test_thread_count_does_not_change_output(self, capsys, tmp_path):
        args = ["study", "--replications", "6", "--grid-points", "4", "--emit-matrix"]
        run_cli(capsys, *args, "--threads", "1", "--output", str(tmp_path / "t1"))
        run_cli(capsys, *args, "--threads", "3", "--output", str(tmp_path / "t3"))
        for suffix in ("_bands.csv", "_coefficients.csv", "_matrix.csv"):
            assert ((tmp_path / f"t1{suffix}").read_bytes()
                    == (tmp_path / f"t3{suffix}").read_bytes()), suffix

    def test_forest_study_and_test_fraction(self, capsys, tmp_path):
        prefix = str(tmp_path / "f")
        code, out, _ = run_cli(capsys, "study", "--model", "forest", "--trees", "4",
                               "--replications", "3", "--grid-points", "3",
                               "--test-fraction", "0.2", "--output", prefix)
        assert code == 0
        coeffs = (tmp_path / "f_coefficients.csv").read_text().splitlines()
        assert coeffs[0] == "slope,intercept,test_mse"
        assert len(coeffs) == 4
        assert coeffs[1].startswith("nan,nan,")

    def test_json_format(self, capsys, tmp_path):
        prefix = str(tmp_path / "j")
        code, out, _ = run_cli(capsys, "study", "--replications", "2",
                               "--grid-points", "3", "--format", "json",
                               "--output", prefix)
        assert code == 0
        bands = json.loads((tmp_path / "j_bands.json").read_text())
        assert set(bands) == {"x", "mean", "sd", "q1", "median", "q3",
                              "iqr", "low", "high"}

    def test_replication_failure_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "study", "--samples", "2",
                               "--test-fraction", "0.5", "--replications", "2",
                               "--grid-points", "3",
                               "--output", str(tmp_path / "x"))
        assert code == 2
        assert "replication 0" in err

    def test_dead_worker_exit_code(self, capfd, monkeypatch, tmp_path):
        monkeypatch.setattr(montecarlo, "_replicate", _die_in_worker)
        code = main(["study", "--replications", "4", "--threads", "2",
                     "--output", str(tmp_path / "d")])
        err = capfd.readouterr().err
        assert code == 2
        assert err.count("\n") == 1, err
        assert "--threads 2" in err and "--threads 1" in err
        assert "Traceback" not in err


class TestReport:
    @pytest.fixture()
    def study_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "r")
        run_cli(capsys, "study", "--replications", "40", "--grid-points", "11",
                "--emit-matrix", "--output", prefix)
        return prefix

    def test_coefficients_default_column(self, capsys, study_files):
        code, out, _ = run_cli(capsys, "report", study_files + "_coefficients.csv")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 40
        assert 0.5 < doc["mean"] < 1.5  # slope samples

    def test_select_intercept_column(self, capsys, study_files):
        code, out, _ = run_cli(capsys, "report", study_files + "_coefficients.csv",
                               "--column", "intercept")
        assert code == 0
        doc = json.loads(out)
        assert -130.0 < doc["mean"] < -70.0

    def test_unknown_column_lists_choices(self, capsys, study_files):
        code, _, err = run_cli(capsys, "report", study_files + "_coefficients.csv",
                               "--column", "bogus")
        assert code == 1
        assert "slope" in err and "intercept" in err

    def test_matrix_column_reports(self, capsys, study_files):
        for x in ("150", "200"):
            code, out, _ = run_cli(capsys, "report", study_files + "_matrix.csv",
                                   "--at-x", x)
            assert code == 0
            doc = json.loads(out)
            assert doc["n"] == 40

    def test_off_grid_x_is_rejected(self, capsys, study_files):
        code, _, err = run_cli(capsys, "report", study_files + "_matrix.csv",
                               "--at-x", "151.7")
        assert code == 1
        assert "not on the grid" in err

    def test_constant_column(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("value\n" + "7.5\n" * 12)
        code, out, _ = run_cli(capsys, "report", str(path), "--output", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == [12]
        assert doc["overlay"] is None
        assert doc["box"]["q1"] == doc["box"]["q3"] == 7.5

    def test_headerless_single_column(self, capsys, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0\n2.0\n3.0\n4.0\n")
        code, out, _ = run_cli(capsys, "report", str(path))
        assert code == 0
        assert json.loads(out)["n"] == 4

    def test_report_to_file(self, capsys, tmp_path, study_files):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "report", study_files + "_coefficients.csv",
                               "--output", str(out_path))
        assert code == 0
        assert out.strip() == str(out_path)
        assert json.loads(out_path.read_text())["n"] == 40


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--bogus"])
        assert info.value.code == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 1

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1
