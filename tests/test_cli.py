import importlib
import json
import multiprocessing
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import predbands
from predbands import cli, montecarlo, table
from predbands.cli import main
from predbands.dataset import Dataset, GenConfig, generate_dataset
from predbands.linear import LinearRegression
from predbands.table import write_table


def _die_in_worker(config, r):
    if multiprocessing.parent_process() is None:
        raise AssertionError("expected to run in a worker process")
    os._exit(1)


ROOT = hasattr(os, "geteuid") and os.geteuid() == 0


def write_csv(path, data):
    with open(path, "w", newline="") as out:
        write_table(out, *data.table())


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

    def test_negative_value_in_exponent_form(self, capsys):
        code, spaced, _ = run_cli(capsys, "generate", "--intercept", "-1e5", "--output", "-")
        assert code == 0
        assert spaced == run_cli(capsys, "generate", "--intercept=-1e5", "--output", "-")[1]

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


class TestOutputPaths:
    def test_symlink_is_written_through(self, capsys, tmp_path):
        target = tmp_path / "real.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, _, _ = run_cli(capsys, "generate", "--samples", "3", "--output", str(link))
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text().splitlines()[0] == "x,y"
        assert len(target.read_text().splitlines()) == 4

    def test_fifo_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open
        try:
            code, _, _ = run_cli(capsys, "generate", "--samples", "3", "--output", str(fifo))
            received = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert code == 0
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received.splitlines()[0] == "x,y" and len(received.splitlines()) == 4
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    @pytest.mark.skipif(ROOT, reason="a regression would replace the device node")
    def test_devnull_is_written_in_place(self, capsys):
        code, _, _ = run_cli(capsys, "generate", "--output", os.devnull)
        assert code == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_replaced_file_keeps_its_mode(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        code, _, _ = run_cli(capsys, "generate", "--output", str(path))
        assert code == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert path.read_text().splitlines()[0] == "x,y"

    @pytest.mark.skipif(ROOT, reason="root may create files in a read-only directory")
    def test_file_in_read_only_directory_is_overwritten(self, capsys, tmp_path):
        path = tmp_path / "ro" / "data.csv"
        path.parent.mkdir()
        path.write_text("old\n")
        path.parent.chmod(0o500)
        try:
            code, _, _ = run_cli(capsys, "generate", "--output", str(path))
        finally:
            path.parent.chmod(0o700)
        assert code == 0
        assert path.read_text().splitlines()[0] == "x,y"
        assert [p.name for p in path.parent.iterdir()] == ["data.csv"]


class TestFit:
    @pytest.fixture()
    def data_file(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, generate_dataset(GenConfig(seed=3)))
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
        write_csv(path, Dataset(np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 5.0])))
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
        write_csv(path, Dataset(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0])))
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

    @pytest.mark.parametrize("flags", [["--x-max", "inf"], ["--level", "1.5"]])
    def test_bad_grid_or_level_prints_no_report(self, capsys, data_file, tmp_path, flags):
        code, out, err = run_cli(capsys, "fit", data_file, *flags,
                                 "--output", str(tmp_path / "band.csv"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert out == ""
        assert os.listdir(tmp_path) == ["data.csv"]


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

    def test_forest_json_coefficients_are_null(self, capsys, tmp_path):
        prefix = str(tmp_path / "fj")
        code, _, _ = run_cli(capsys, "study", "--model", "forest", "--trees", "3",
                             "--replications", "3", "--grid-points", "3",
                             "--test-fraction", "0.3", "--format", "json",
                             "--output", prefix)
        assert code == 0
        coeffs = json.loads((tmp_path / "fj_coefficients.json").read_text())
        assert coeffs["slope"] == coeffs["intercept"] == [None] * 3
        assert len(coeffs["test_mse"]) == 3

    def test_failed_write_leaves_no_partial_output(self, capsys, monkeypatch, tmp_path):
        def write_table(dest, header, rows, fmt="csv"):
            if header[0] == "slope":
                raise OSError("disk full")
            table.write_table(dest, header, rows, fmt)

        monkeypatch.setattr(cli, "write_table", write_table)
        code, out, err = run_cli(capsys, "study", "--replications", "4", "--emit-matrix",
                                 "--output", str(tmp_path / "p"))
        assert code in (1, 2)
        assert "disk full" in err and out == ""
        assert list(tmp_path.iterdir()) == []

    def test_directory_in_the_way_leaves_no_output(self, capsys, tmp_path):
        (tmp_path / "p_coefficients.csv").mkdir()
        code, out, err = run_cli(capsys, "study", "--replications", "4", "--emit-matrix",
                                 "--output", str(tmp_path / "p"))
        assert code == 1
        assert "p_coefficients.csv" in err and out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["p_coefficients.csv"]

    def test_replication_failure_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "study", "--samples", "2",
                               "--test-fraction", "0.5", "--replications", "2",
                               "--grid-points", "3",
                               "--output", str(tmp_path / "x"))
        assert code == 2
        assert "replication 0" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_forest_replication_failure_exit_code(self, capsys, tmp_path, threads):
        # 3 rows cannot fill a leaf of the default 5
        code, out, err = run_cli(capsys, "study", "--model", "forest", "--samples", "3",
                                 "--replications", "4", "--threads", threads,
                                 "--output", str(tmp_path / "x"))
        assert code == 2
        assert "replication 0" in err
        assert out == "" and not list(tmp_path.iterdir())

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

    def test_matrix_header_is_the_grid(self, capsys, study_files):
        code, out, _ = run_cli(capsys, "report", study_files + "_matrix.csv")
        assert code == 0
        assert json.loads(out)["n"] == 40

    def test_matrix_column_by_grid_name(self, capsys, study_files):
        docs = [run_cli(capsys, "report", study_files + "_matrix.csv", *args)
                for args in (["--column", "150.0"], ["--at-x", "150"])]
        assert docs[0][0] == 0
        assert docs[0] == docs[1]

    def test_column_and_at_x_are_exclusive(self, capsys, study_files):
        with pytest.raises(SystemExit) as exc:
            main(["report", study_files + "_matrix.csv", "--column", "175.0", "--at-x", "175"])
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("usage: ") and "not allowed with argument" in err

    def test_off_grid_x_is_rejected(self, capsys, study_files):
        code, _, err = run_cli(capsys, "report", study_files + "_matrix.csv",
                               "--at-x", "151.7")
        assert code == 1
        assert "not on the grid" in err

    def test_bad_cell_outside_selected_column_names_line(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("150.0,175.0,200.0\n1.0,2.0,3.0\n\n4.0,5.0,oops\n")
        code, _, err = run_cli(capsys, "report", str(path), "--at-x", "150")
        assert code == 1
        assert "line 4: could not parse 'oops'" in err

    def test_ragged_row_names_line(self, capsys, tmp_path):
        for args in ([], ["--at-x", "150"]):
            path = tmp_path / "m.csv"
            path.write_text("150.0,175.0,200.0\n1.0,2.0,3.0\n  \n4.0,5.0\n7.0,8.0,9.0\n")
            code, _, err = run_cli(capsys, "report", str(path), *args)
            assert code == 1
            assert "line 4: expected 3 fields, got 2" in err

    def test_crlf_and_blank_lines_are_accepted(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\r\n150.0,200.0\r\n1.0,2.0\r\n \t\r\n\r\n3.0,4.0\r\n")
        code, out, _ = run_cli(capsys, "report", str(path), "--at-x", "200")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2 and doc["mean"] == 3.0

    def test_header_only_matrix(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("150.0,175.0,200.0\n")
        code, _, err = run_cli(capsys, "report", str(path), "--at-x", "150")
        assert code == 1
        assert "rows must be 2-D with 3 columns" in err

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

    @pytest.mark.parametrize("argv, field", [
        (["study", "--noise-sigma", "nan"], "noise_sigma"),
        (["study", "--slope", "nan"], "slope"),
        (["study", "--noise-sigma", "inf"], "noise_sigma"),
        (["study", "--x-max", "inf"], "x_high"),
        (["study", "--x-min=-inf"], "x_low"),
        (["generate", "--intercept", "inf"], "intercept"),
        (["fit", "{data}", "--x-max", "inf"], "grid bounds"),
        (["fit", "{data}", "--x-min=-1e308", "--x-max", "1e308"], "grid bounds"),
        (["generate", "--x-min=-1e308", "--x-max", "1e308"], "x_high - x_low"),
        (["generate", "--x-min", "-inf"], "x_low"),
        (["generate", "--x-min", "-NaN"], "x_low"),
    ])
    def test_non_finite_value_is_a_one_line_error(self, capsys, tmp_path, argv, field):
        data = tmp_path / "data.csv"
        write_csv(data, generate_dataset(GenConfig(seed=3)))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = [str(data) if arg == "{data}" else arg for arg in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, *argv, "--output", str(out_dir / "o"))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:") and field in err
        assert not caught and "Warning" not in err
        assert os.listdir(out_dir) == []


def run_fresh(args, **env_changes):
    """Run ``python *args`` in a fresh interpreter that imports this predbands.

    Each keyword sets an environment variable; ``None`` removes it.
    """
    src = os.path.dirname(os.path.dirname(predbands.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for key, value in env_changes.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def test_importing_the_cli_loads_no_process_pool():
    # a fresh interpreter: this one has imported multiprocessing already
    probe = "import predbands.cli, sys; print('multiprocessing' in sys.modules)"
    assert run_fresh(["-c", probe]).stdout.strip() == "False"


def test_small_outputs_never_load_orjson(tmp_path):
    prefix = str(tmp_path / "s")
    probe = ("import sys; from predbands.cli import main; "
             f"assert main(['study', '--output', {prefix!r}]) == 0; "
             f"assert main(['report', {prefix + '_coefficients.csv'!r}]) == 0; "
             "print('orjson' in sys.modules)")
    assert run_fresh(["-c", probe]).stdout.splitlines()[-1] == "False"


def test_importing_the_package_loads_nothing_until_used():
    probe = ("import predbands, sys; print(sorted("
             "m for m in sys.modules if m == 'numpy' or m.startswith('predbands.')))")
    assert run_fresh(["-c", probe]).stdout.strip() == "[]"
    star = {}
    exec("from predbands import *", star)
    assert set(star) - {"__builtins__"} == set(predbands.__all__)
    for name in predbands.__all__:
        value = getattr(predbands, name)
        assert value.__module__.startswith("predbands.")
        assert getattr(importlib.import_module(value.__module__), name) is value
        assert star[name] is value
    assert set(predbands.__all__) <= set(dir(predbands))
    with pytest.raises(AttributeError, match="no_such_name"):
        predbands.no_such_name


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits a dot product this long over its threads, and the
    # split changes the rounding; the CLI runs one thread unless told otherwise
    argv = ["-m", "predbands.cli", "study", "--samples", "200000", "--replications", "2"]
    outputs = {}
    for label, value in (("unset", None), ("one", "1")):
        run_fresh([*argv, "--output", str(tmp_path / label)], OPENBLAS_NUM_THREADS=value)
        outputs[label] = [p.read_bytes() for p in sorted(tmp_path.glob(f"{label}_*"))]
    assert len(outputs["unset"]) == 2 and outputs["unset"] == outputs["one"]
    probe = "import os, predbands.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_fresh(["-c", probe], OPENBLAS_NUM_THREADS="3").stdout.strip() == "3"


def test_linear_study_and_report_never_load_the_forest(tmp_path):
    prefix = str(tmp_path / "s")
    probe = ("import sys; from predbands.cli import main; "
             f"assert main(['study', '--emit-matrix', '--output', {prefix!r}]) == 0; "
             f"assert main(['report', {prefix + '_coefficients.csv'!r}]) == 0; "
             f"assert main(['report', {prefix + '_matrix.csv'!r}, '--at-x', '175']) == 0; "
             "print('predbands.forest' in sys.modules)")
    assert run_fresh(["-c", probe]).stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [["report", "{matrix}"], ["generate", "--samples", "100000"]])
def test_a_closed_stdout_is_no_failure(tmp_path, argv):
    # `predbands ... | head -1`, with head gone before the command writes
    assert main(["study", "--replications", "20", "--emit-matrix",
                 "--output", str(tmp_path / "s")]) == 0
    argv = [arg.format(matrix=tmp_path / "s_matrix.csv") for arg in argv]
    src = os.path.dirname(os.path.dirname(predbands.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "predbands.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")
