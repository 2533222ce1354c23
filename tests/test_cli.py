import ast
import errno
import gc
import importlib
import io
import json
import os
import pathlib
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import predbands
from predbands import cli, montecarlo, table
from predbands.cli import main
from predbands.dataset import Dataset, GenConfig, generate_dataset, make_grid
from predbands.linear import LinearRegression
from predbands.table import write_table

from test_properties import PROPERTY


TEST_PID = os.getpid()


def _die_in_worker(config, r):
    if os.getpid() == TEST_PID:
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

    def test_emit_matrix_holds_the_matrix_once(self, capsys, tmp_path):
        # the writer's plain-row mask is made a row block at a time, not R x G at once
        flags = ["study", "--grid-points", "501", "--emit-matrix"]
        # 20 x 501 values reach the orjson writer: imports and caches outside the trace
        assert main([*flags, "--replications", "20", "--output", str(tmp_path / "w")]) == 0
        tracemalloc.start()
        try:
            assert main([*flags, "--replications", "2000", "--output", str(tmp_path / "p")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 1.2 * 2000 * 501 * 8, peak / (2000 * 501 * 8)

    def test_emit_matrix_of_a_linear_study_holds_no_matrix(self, capsys, tmp_path):
        # the file is written from row blocks computed from the lines as they come
        flags = ["study", "--grid-points", "501", "--emit-matrix"]
        assert main([*flags, "--replications", "20", "--output", str(tmp_path / "w")]) == 0
        tracemalloc.start()
        try:
            assert main([*flags, "--replications", "2000", "--output", str(tmp_path / "p")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 0.25 * 2000 * 501 * 8, peak / (2000 * 501 * 8)

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
        monkeypatch.undo()

        # The first or last write of any file a command writes fails, mid-file.
        data = str(tmp_path / "d.csv")
        assert run_cli(capsys, "generate", "--output", data)[0] == 0
        commands = {"study": ["study", "--replications", "4", "--emit-matrix", "--output", "p"],
                    "generate": ["generate", "--output", "g.csv"],
                    "fit": ["fit", data, "--output", "b.csv"],
                    "report": ["report", data, "--column", "y", "--output", "r.json"]}
        real_open_out, writes, failing = cli._open_out, {}, None

        class Handle:
            def __init__(self, handle, name):
                self.handle, self.name = handle, name

            def write(self, text):
                writes[self.name] = writes.get(self.name, 0) + 1
                if (self.name, writes[self.name]) == failing:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.handle.write(text)

        @contextmanager
        def open_out(path):
            with real_open_out(path) as handle:
                yield Handle(handle, os.path.basename(path))

        monkeypatch.setattr(cli, "_open_out", open_out)
        for command, argv in commands.items():
            ran = tmp_path / command
            ran.mkdir()
            writes.clear()
            assert run_cli(capsys, *argv[:-1], str(ran / argv[-1]))[0] == 0
            counts = dict(writes)
            assert len(counts) == (3 if command == "study" else 1), counts
            for name, count in counts.items():
                for k in sorted({1, count}):
                    dest = tmp_path / f"{command}-{name}-{k}"
                    dest.mkdir()
                    writes.clear()
                    failing = (name, k)
                    code, out, err = run_cli(capsys, *argv[:-1], str(dest / argv[-1]))
                    failing = None
                    assert (code, out, err) == (
                        1, "", "error: [Errno 28] No space left on device\n"), (command, name, k)
                    assert os.listdir(dest) == [], (command, name, k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_failed_rename_is_a_one_line_error(self, capsys, monkeypatch, tmp_path, k):
        real_replace, calls = os.replace, []

        def replace(src, dst):
            calls.append(dst)
            if len(calls) == k:
                raise OSError(f"rename {k} failed")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        code, out, err = run_cli(capsys, "study", "--replications", "4", "--emit-matrix",
                                 "--output", str(tmp_path / "p"))
        assert (code, out, err) == (1, "", f"error: rename {k} failed\n")
        names = os.listdir(tmp_path)
        assert not [name for name in names if name.endswith(".tmp")]
        # The files moved into place before the failed rename stay: a failure
        # between two renames leaves a partial set, so only k = 1 leaves none.
        if k == 1:
            assert names == []

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

    def test_x_far_off_the_grid_is_one_line_without_a_warning(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1e308\n1.0,2.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "report", str(path), "--at-x", "-1e308")
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: x=-1e+308 is not on the grid [0.0, 1e+308] (2 points)"]
        assert not caught

    def test_both_modes_hold_the_matrix_once(self, capsys, tmp_path):
        grid = make_grid(150.0, 200.0, 501)
        rows = np.random.default_rng(0).normal(75.0, 10.0, (2000, len(grid)))
        small, path, doc = (str(tmp_path / name) for name in ("s.csv", "m.csv", "r.json"))
        for dest, block in ((small, rows[:20]), (path, rows)):
            with open(dest, "w", newline="") as out:
                write_table(out, *montecarlo.PredictionMatrix(grid, block).table())
        for flags, bound in ((["--at-x", "175"], 1.15), (["--column", "175.0"], 1.15)):
            # 20 x 501 values reach the orjson reader: imports and caches outside the trace
            assert main(["report", small, *flags, "--output", doc]) == 0
            tracemalloc.start()
            try:
                assert main(["report", path, *flags, "--output", doc]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * rows.nbytes, (flags, peak / rows.nbytes)
        capsys.readouterr()

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

    @pytest.mark.parametrize("text, flags, message", [
        ("150.0\n1.0\n", ["--at-x", "150"], "line 1: grid needs at least 2 points"),
        ("150.0,inf\n1.0,2.0\n", ["--at-x", "150"], "line 1: grid contains NaN or Inf"),
        ("a,b\n1.0,2.0\n", ["--at-x", "150"], "line 1: could not convert"),
        ("\n \n", [], "empty table: expected a header line"),
        ("slope,intercept\n1.0,2.0\n", ["--at-x", "150"],
         "line 1: could not convert string to float: 'slope'; --at-x needs a prediction "
         "matrix whose header holds its grid values"),
        ("-1e308,1e308\n1.0,2.0\n", ["--at-x", "1e308"], "line 1: grid span must be finite"),
        ("-1e308,0,1e308\n1.0,2.0,3.0\n", ["--at-x", "1e308"],
         "line 1: grid span must be finite"),
        ("1e308,-1e308,1e308\n1.0,2.0,3.0\n", ["--at-x", "1e308"],
         "line 1: grid points must be strictly increasing"),
    ], ids=["one grid point", "infinite grid point", "names", "blank file", "coefficients",
            "overflowing span", "overflowing span, 3 points", "overflowing step back"])
    def test_bad_header_is_a_one_line_error(self, capsys, tmp_path, text, flags, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        code, out, err = run_cli(capsys, "report", str(path), *flags)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1

    def test_constant_column(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("value\n" + "7.5\n" * 12)
        code, out, _ = run_cli(capsys, "report", str(path), "--output", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["counts"] == [12]
        assert doc["overlay"] is None
        assert doc["box"]["q1"] == doc["box"]["q3"] == 7.5

    def test_huge_constant_column(self, capsys, tmp_path):
        # the column's sum overflows a float; its mean and sd do not
        path = tmp_path / "huge.csv"
        path.write_text("v\n" + "1e308\n" * 3)
        code, out, _ = run_cli(capsys, "report", str(path))
        assert code == 0
        doc = json.loads(out)
        assert (doc["mean"], doc["sd"], doc["counts"], doc["overlay"]) == (1e308, 0.0, [3], None)

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
        (["fit", "{data}", "--x-max", "1e308"], "mean band"),  # (x - x_mean)**2 overflows
        # y overflows; numpy's warnings came first
        (["generate", "--intercept", "1e308", "--slope", "1e308"], "y contains NaN or Inf"),
        (["generate", "--noise-sigma", "1e308"], "y contains NaN or Inf"),
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

    @staticmethod
    def run_and_check_one_line_error(capsys, tmp_path, *argv, naming=""):
        """Run argv with an output path; check one error line, no warning, no file.

        The line names overflow, and ``naming`` too.
        """
        out_dir = tmp_path / "out"
        out_dir.mkdir(exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--output", str(out_dir / "o"))
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:") and "overflow" in err
        assert naming in err
        assert not caught and "Warning" not in err
        assert os.listdir(out_dir) == []
        return code

    FOREST = ["--model", "forest", "--trees", "5"]

    @pytest.mark.parametrize("data, flags", [
        (GenConfig(x_low=0.0, x_high=1e200), []),  # sxx overflows
        ([(1.0, 1e308), (2.0, -1e308), (3.0, 1e308)], []),  # the squared residuals overflow
        ([(1e200, 1.0), (-1e200, 2.0), (0.0, 3.0)], []),  # sxx overflows, leaving slope -0.0
        ([(1e160 * (1 + i * 1e-9), float(i)) for i in range(10)], []),  # x_mean ** 2 overflows
        # the grower's prefix sums and scores overflow, then it indexed an empty array
        ([(float(i), (-1) ** i * 1e308) for i in range(10)], FOREST),
        # the scores overflow, and splits were chosen among them
        (GenConfig(x_low=0.0, x_high=1e200), FOREST),
        # the row's sums are finite, but a bootstrap sample that draws the spike
        # twice squares 2e154
        ([(float(i), 1e154 if i == 9 else 0.0) for i in range(10)], FOREST),
    ], ids=["generated", "huge y", "huge x", "x_mean squared",
            "forest huge y", "forest generated", "forest drawn twice"])
    def test_overflowing_fit_is_a_one_line_error(self, capsys, tmp_path, data, flags):
        path = tmp_path / "data.csv"
        if isinstance(data, GenConfig):
            write_csv(path, generate_dataset(data))
        else:
            path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in data))
        assert self.run_and_check_one_line_error(capsys, tmp_path, "fit", str(path),
                                                 *flags) == 2
        # without --output the fit used to print its report and exit 0
        code, out, err = run_cli(capsys, "fit", str(path), *flags)
        assert (code, out, len(err.splitlines())) == (2, "", 1)

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    @pytest.mark.parametrize("flags, replication", [
        # these two printed numpy warnings, then a matrix of NaN or Inf (exit 1)
        (["--intercept", "1e308", "--slope", "1e308", "--replications", "5"], 0),
        (["--noise-sigma", "1e308", "--replications", "5"], 0),
        # sxx overflowed and the study wrote slopes of -0.0
        (["--x-min", "0", "--x-max", "1e200", "--slope", "0", "--replications", "5"], 0),
        # s overflows; the study wrote inf in test_mse
        (["--intercept", "1e200", "--noise-sigma", "1e160", "--test-fraction", "0.2",
          "--replications", "5"], 0),
        # every band row had sd = inf
        (["--x-min", "0", "--x-max", "1e200", "--replications", "4", *FOREST], 0),
        # replication 1's trees fit, but its holdout mse overflows
        (["--samples", "4", "--test-fraction", "0.5", "--min-leaf", "1", "--slope", "6e152",
          "--replications", "2", "--model", "forest", "--trees", "1"], 1),
        # replication 1's targets overflow and replication 0's holdout mse does; one
        # worker named replication 1, which fails the earlier stage
        (["--samples", "4", "--test-fraction", "0.5", "--min-leaf", "1", "--slope", "6e152",
          "--replications", "2", "--seed", "33", "--model", "forest", "--trees", "1"], 0),
    ], ids=["huge line", "huge noise", "huge x", "huge holdout", "forest huge x",
            "forest holdout", "forest holdout first"])
    def test_overflowing_study_is_a_one_line_error(self, capsys, tmp_path, flags,
                                                   replication, threads):
        assert self.run_and_check_one_line_error(
            capsys, tmp_path, "study", *flags, "--threads", threads,
            naming=f"error: replication {replication}: ") == 2

    def test_overflowing_band_is_a_one_line_error(self, capsys, tmp_path):
        # every fit is finite, but the spread of 1000 predictions at a grid
        # point squares past a float; the band file had sd = inf
        assert self.run_and_check_one_line_error(
            capsys, tmp_path, "study", "--samples", "3", "--noise-sigma", "1e153",
            naming="the predictions' mean or sd") == 1

    def test_overflow_in_a_forked_worker_warns_nowhere(self, tmp_path):
        # a worker's warnings go to the real stderr, which only a fresh process shows
        with pytest.raises(subprocess.CalledProcessError) as info:
            run_fresh(["-m", "predbands.cli", "study", "--noise-sigma", "1e308",
                       "--replications", "5", "--threads", "2",
                       "--output", str(tmp_path / "o")])
        assert info.value.returncode == 2
        assert info.value.stderr == (
            "error: replication 0: the least squares sums overflow a float\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("values", [[1e308, -1e308], [1e308, 1e308, 9e307]],
                             ids=["range", "mean"])
    def test_overflowing_report_is_a_one_line_error(self, capsys, tmp_path, values):
        path = tmp_path / "values.csv"
        path.write_text("v\n" + "".join(f"{v!r}\n" for v in values))
        assert self.run_and_check_one_line_error(capsys, tmp_path, "report", str(path)) == 1


# flag values at the edges of what the parsers and the numeric code accept
FLOAT_EDGES = ("nan", "-nan", "inf", "-inf", "1e308", "-1e308", "0", "-0", "5e-324",
               "-5e-324", "-1", "-2.5")
INT_EDGES = ("nan", "inf", "1e308", "5e-324", "1.5", "-1", "0", "-0", "1", "2")


def float_flag(low, high):
    """A finite value in [low, high] as text, or one of FLOAT_EDGES."""
    return st.floats(low, high).map(repr), FLOAT_EDGES


def int_flag(low, high):
    """An int in [low, high] as text, or one of INT_EDGES."""
    return st.integers(low, high).map(str), INT_EDGES


def choice(*values):
    """One of the values, with no edge values."""
    return st.sampled_from(values), ()


SEED_FLAG = st.integers(0, 2**64 - 1).map(str), INT_EDGES + (str(2**64), str(-(2**63) - 1))


@st.composite
def cli_arguments(draw, command, inputs):
    """argv for one command; every size flag is given and bounded, so each run is small."""
    argv = [command]

    def add(flags, always=False):
        for flag, (values, edges) in flags.items():
            if always or draw(st.integers(0, 2)) == 0:
                # one value in eight is an edge, so most commands get past validation
                edge = edges and draw(st.integers(0, 7)) == 7
                argv.extend([flag, draw(st.sampled_from(edges) if edge else values)])

    gen = {"--slope": float_flag(-10, 10), "--intercept": float_flag(-1e3, 1e3),
           "--noise-sigma": float_flag(0, 100), "--x-min": float_flag(-1e3, 170),
           "--x-max": float_flag(180, 1e3), "--seed": SEED_FLAG, "--format": choice("csv", "json")}
    forest = {"--model": choice("linear", "forest"), "--max-depth": int_flag(0, 8),
              "--min-leaf": int_flag(1, 10)}
    if command == "generate":
        add({"--samples": int_flag(2, 200)}, always=True)
        add(gen)
    elif command == "fit":
        argv.append(draw(st.sampled_from(inputs["fit"])))
        add({"--trees": int_flag(1, 5)}, always=True)
        add({**forest, "--band": choice("mean", "observation"), "--level": float_flag(0, 1),
             "--grid-points": int_flag(2, 101), "--x-min": gen["--x-min"],
             "--x-max": gen["--x-max"], "--seed": gen["--seed"], "--format": gen["--format"]})
    elif command == "study":
        add({"--samples": int_flag(2, 200), "--replications": int_flag(2, 50),
             "--trees": int_flag(1, 5)}, always=True)
        add({**gen, **forest, "--grid-points": int_flag(2, 101),
             "--test-fraction": float_flag(0, 1), "--threads": int_flag(1, 2)})
        if draw(st.booleans()):
            argv.append("--emit-matrix")
    else:
        argv.append(draw(st.sampled_from(inputs["report"])))
        pick = draw(st.sampled_from(["", "column", "at-x", "both"]))
        if pick in ("column", "both"):
            argv += ["--column", draw(st.sampled_from(
                ["slope", "intercept", "test_mse", "150.0", "v", "nope"]))]
        if pick in ("at-x", "both"):
            add({"--at-x": (st.sampled_from(["150", "175.0", "200"]), FLOAT_EDGES)}, always=True)
        add({"--bins": int_flag(1, 1000)})
    return argv


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Input files for fit and report: good ones, and ones every command must refuse."""
    folder = tmp_path_factory.mktemp("inputs")
    texts = {
        "collinear.csv": "x,y\n1,1\n1,2\n1,3\n",
        "header_only.csv": "x,y\n",
        "huge_x.csv": "x,y\n" + "".join(f"{i * 1e200!r},{i}\n" for i in range(-3, 4)),
        "huge_values.csv": "v\n1e308\n-1e308\n",
        "huge_constant.csv": "v\n1e308\n1e308\n1e308\n",
    }
    for name, text in texts.items():
        (folder / name).write_text(text)
    write_csv(folder / "data.csv", generate_dataset(GenConfig(seed=3, n_samples=40)))
    result = montecarlo.run_study(montecarlo.StudyConfig(
        gen=GenConfig(seed=5), grid=make_grid(150.0, 200.0, 11), replications=20,
        test_fraction=0.2))
    for name, data in (("coefficients.csv", result.coefficients), ("matrix.csv", result.matrix)):
        with open(folder / name, "w", newline="") as out:
            write_table(out, *data.table())
    fit = ["data.csv", "collinear.csv", "header_only.csv", "huge_x.csv"]
    report = ["coefficients.csv", "matrix.csv", "huge_values.csv", "huge_constant.csv", "data.csv"]
    return {"fit": [str(folder / name) for name in fit],
            "report": [str(folder / name) for name in report]}


@pytest.mark.parametrize("command", ["generate", "fit", "study", "report"])
@PROPERTY
@given(data=st.data())
def test_every_command_keeps_the_exit_contract(cli_inputs, command, data):
    """Exit 0, 1 or 2; a failure is one error line, no warning, no file; argparse exits 1."""
    argv = data.draw(cli_arguments(command, cli_inputs), label="argv")
    with tempfile.TemporaryDirectory() as out_dir:
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main([*argv, "--output", os.path.join(out_dir, "o")])
            except SystemExit as exc:
                code = "usage"
                assert exc.code == 1
        out, err, written = out.getvalue(), err.getvalue(), os.listdir(out_dir)
    assert not caught and "Traceback" not in err and "Warning" not in err
    if code == "usage":
        assert err.startswith("usage: predbands") and ": error: " in err.splitlines()[-1]
        assert written == []
    elif code == 0:
        assert written and not any(name.startswith(".") for name in written)
    else:
        assert code in (1, 2)
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert out == "" and written == []


def fresh_env(**env_changes):
    """The environment of a fresh interpreter that imports this predbands.

    Each keyword sets an environment variable; ``None`` removes it.
    """
    src = os.path.dirname(os.path.dirname(predbands.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for key, value in env_changes.items():
        env.pop(key, None)
        if value is not None:
            env[key] = value
    return env


def run_fresh(args, **env_changes):
    """Run ``python *args`` in a fresh interpreter with ``fresh_env(**env_changes)``."""
    return subprocess.run([sys.executable, *args], env=fresh_env(**env_changes),
                          capture_output=True, text=True, timeout=120, check=True)


def test_importing_the_cli_loads_no_process_pool():
    # a fresh interpreter, as another test may have imported multiprocessing in this one
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


def code_references(source):
    """Names that code uses: ast names, attributes and imports, each outside
    the def or class of the same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        else:
            names = []
        found.update(name for name in names if name not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


# exported although nothing in src/ or the quick start uses it, with the reason
EXPORTED_UNUSED = {"Rng": "read by perfbench's traced mode"}


def test_every_exported_name_is_used():
    """The API rule: an exported name is used by the pipeline, the CLI or the quick start."""
    repo = pathlib.Path(__file__).resolve().parents[1]
    used = set()
    for path in (repo / "src" / "predbands").glob("*.py"):
        if path.name != "__init__.py":
            used |= code_references(path.read_text())
    readme = (repo / "README.md").read_text()
    quick_start = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S)
    used |= code_references(quick_start.group(1))
    unused = set(predbands.__all__) - used
    assert unused == set(EXPORTED_UNUSED), sorted(unused ^ set(EXPORTED_UNUSED))


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


def test_forest_commands_never_load_numpy_ma_or_a_process_pool(tmp_path):
    # np.median imports numpy.ma; the workers are forked directly
    data, prefix = str(tmp_path / "d.csv"), str(tmp_path / "s")
    probe = ("import sys; from predbands.cli import main; "
             "from predbands.montecarlo import StudyConfig, run_study; "
             "run_study(StudyConfig(model='forest', replications=4)); "
             "in_process = 'numpy.ma' in sys.modules; "
             "assert main(['study', '--model', 'forest', '--replications', '20', "
             f"'--threads', '2', '--output', {prefix!r}]) == 0; "
             f"assert main(['generate', '--output', {data!r}]) == 0; "
             f"assert main(['fit', {data!r}, '--model', 'forest', "
             f"'--output', {str(tmp_path / 'f.csv')!r}]) == 0; "
             "print(in_process, [m for m in ('numpy.ma', 'concurrent.futures', "
             "'multiprocessing') if m in sys.modules])")
    assert run_fresh(["-c", probe]).stdout.splitlines()[-1] == "False []"


@pytest.mark.parametrize("argv", [["report", "{matrix}"], ["generate", "--samples", "100000"]])
def test_a_closed_stdout_is_no_failure(tmp_path, argv):
    # `predbands ... | head -1`, with head gone before the command writes
    assert main(["study", "--replications", "20", "--emit-matrix",
                 "--output", str(tmp_path / "s")]) == 0
    argv = [arg.format(matrix=tmp_path / "s_matrix.csv") for arg in argv]
    env = fresh_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "predbands.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, "")


def test_importing_the_cli_leaves_the_environment_alone():
    # only the launcher sets the CLI's one BLAS thread
    probe = "import os, predbands.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_fresh(["-c", probe], OPENBLAS_NUM_THREADS=None).stdout.strip() == "None"


def test_a_csv_study_never_loads_json(tmp_path):
    probe = ("import sys; from predbands.cli import main; "
             f"assert main(['study', '--output', {str(tmp_path / 's')!r}]) == 0; "
             "print('json' in sys.modules)")
    assert run_fresh(["-c", probe]).stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_callers_collector_alone(capsys, tmp_path, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        code, _, _ = run_cli(capsys, "study", "--replications", "20",
                             "--output", str(tmp_path / "s"))
        assert (code, gc.isenabled(), gc.get_freeze_count()) == (0, enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_the_launcher_freezes_the_imports_and_collects_after(tmp_path):
    # the hook runs at exit, after the command: the collector is back on and
    # the imports sit in the permanent generation; stdout is block-buffered,
    # as by default, so the hook's line needs the launcher's last flush
    probe = ("import atexit, gc, runpy, sys; "
             "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0)); "
             "sys.argv = ['predbands', 'study', '--replications', '20', "
             f"'--output', {str(tmp_path / 's')!r}]; "
             "runpy.run_module('predbands.cli', run_name='__main__')")
    assert run_fresh(["-c", probe], PYTHONUNBUFFERED=None).stdout.splitlines()[-1] == "True True"


@pytest.mark.parametrize("launcher", [["-c", "from predbands.__main__ import run; run()"],
                                      ["-m", "predbands"]], ids=["console-script", "python-m"])
def test_every_entry_point_keeps_the_exit_codes_and_bytes(tmp_path, launcher):
    flat = tmp_path / "flat.csv"
    flat.write_text("x,y\n1,2\n1,3\n1,4\n")
    for argv, code in ((["study", "--replications", "1"], 1), (["fit", str(flat)], 2)):
        with pytest.raises(subprocess.CalledProcessError) as failed:
            run_fresh([*launcher, *argv])
        err = failed.value.stderr
        assert failed.value.returncode == code
        assert err.startswith("error:") and len(err.splitlines()) == 1
    for label, argv in (("run", launcher), ("cli", ["-m", "predbands.cli"])):
        run_fresh([*argv, "study", "--replications", "20", "--output", str(tmp_path / label)])
    outputs = {label: [p.read_bytes() for p in sorted(tmp_path.glob(f"{label}_*"))]
               for label in ("run", "cli")}
    assert len(outputs["run"]) == 2 and outputs["run"] == outputs["cli"]
    # the launcher leaves by os._exit: a pipe still gets every byte stdout
    # buffered, and a reader that leaves early (`| head -1`) is no failure
    generate = [sys.executable, *launcher, "generate", "--samples", "20000", "--output"]
    run_fresh([*generate[1:], str(tmp_path / "d.csv")])
    env = fresh_env(PYTHONUNBUFFERED=None)
    piped = subprocess.run([*generate, "-"], env=env, capture_output=True, timeout=120)
    assert (piped.returncode, piped.stderr) == (0, b"20000 rows (seed 0)\n")
    assert piped.stdout == (tmp_path / "d.csv").read_bytes()
    with subprocess.Popen([*generate, "-"], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as head:
        first = head.stdout.readline()
        head.stdout.close()
        assert (first, head.wait(timeout=120)) == (b"x,y\n", 0)
        assert head.stderr.read() == b""
