"""Command-line front end: generate, fit, study, report.

Every flag has a deterministic default; running ``predbands study`` with
no flags reproduces the default experiment end to end (linear model,
1000 replications of 100 samples, grid of 101 points over [150, 200]).

Exit codes: 0 success, 1 usage or input validation error, 2 fit or
replication failure.  Error messages go to stderr; stdout carries only
data and written file paths.  Where a command produces a single file,
``--output -`` streams it to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import numpy as np

from .dataset import Dataset, GenConfig, generate_dataset, make_grid
from .forest import ForestParams, RandomForestRegressor
from .linear import LinearRegression, SingularFitError
from .montecarlo import ReplicationError, StudyConfig, run_study
from .stats import band_curve, distribution_report


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the documented contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        handle = open(path, "w", newline="")
        try:
            yield handle
        finally:
            handle.close()


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_columns(dest, columns: dict, fmt: str) -> None:
    """Write named, equal-length columns as CSV or JSON."""
    if fmt == "json":
        json.dump({k: [float(v) for v in vals] for k, vals in columns.items()},
                  dest, indent=2)
        dest.write("\n")
        return
    names = list(columns)
    dest.write(",".join(names) + "\n")
    for row in zip(*columns.values()):
        dest.write(",".join(_fmt(v) for v in row) + "\n")


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=100, help="training rows per dataset")
    p.add_argument("--slope", type=float, default=1.0, help="true slope")
    p.add_argument("--intercept", type=float, default=-100.0, help="true intercept")
    p.add_argument("--noise-sigma", type=float, default=10.0,
                   help="sd of the additive Gaussian noise")
    p.add_argument("--x-min", type=float, default=150.0, help="lower bound of x")
    p.add_argument("--x-max", type=float, default=200.0, help="upper bound of x")


def _add_forest_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trees", type=int, default=100, help="trees in the forest")
    p.add_argument("--max-depth", type=int, default=None, help="tree depth cap")
    p.add_argument("--min-leaf", type=int, default=5, help="min training rows per leaf")


def _gen_config(args) -> GenConfig:
    return GenConfig(intercept=args.intercept, slope=args.slope,
                     x_low=args.x_min, x_high=args.x_max,
                     noise_sigma=args.noise_sigma, n_samples=args.samples,
                     seed=args.seed)


def _forest_params(args) -> ForestParams:
    return ForestParams(n_trees=args.trees, max_depth=args.max_depth,
                        min_samples_leaf=args.min_leaf)


def cmd_generate(args) -> int:
    data = generate_dataset(_gen_config(args))
    with _open_out(args.output) as out:
        if args.format == "json":
            _write_columns(out, {"x": data.xs, "y": data.ys}, "json")
        else:
            data.to_csv(out)
    print(f"{len(data)} rows (seed {args.seed})", file=sys.stderr)
    if args.output != "-":
        print(args.output)
    return 0


def cmd_fit(args) -> int:
    data = Dataset.from_csv(args.dataset)
    output = args.output
    if args.model == "forest" and output is None:
        output = "-"  # the fitted curve is the whole point of a forest fit
    # keep stdout clean CSV/JSON when it is the data sink
    info = sys.stderr if output == "-" else sys.stdout

    def fit_grid():
        lo = args.x_min if args.x_min is not None else float(data.xs.min())
        hi = args.x_max if args.x_max is not None else float(data.xs.max())
        return make_grid(lo, hi, args.grid_points)

    if args.model == "linear":
        model = LinearRegression().fit(data.xs, data.ys)
        print(model.summary(), file=info)
        for name in ("intercept", "slope", "intercept_se", "slope_se", "residual_se"):
            print(f"{name}: {_fmt(getattr(model, name + '_'))}", file=info)
        print(f"n: {model.n_}", file=info)
        if output is not None:
            grid = fit_grid()
            lower, upper = model.prediction_band(grid.points, level=args.level,
                                                 kind=args.band)
            cols = {"x": grid.points, "predicted": model.predict(grid.points),
                    "lower": lower, "upper": upper}
            with _open_out(output) as out:
                _write_columns(out, cols, args.format)
            if output != "-":
                print(output)
    else:
        model = RandomForestRegressor.from_params(_forest_params(args), seed=args.seed)
        model.fit(data.xs, data.ys)
        print(model, file=info)
        grid = fit_grid()
        cols = {"x": grid.points, "predicted": model.predict(grid.points)}
        with _open_out(output) as out:
            _write_columns(out, cols, args.format)
        if output != "-":
            print(output)
    return 0


def cmd_study(args) -> int:
    config = StudyConfig(
        gen=_gen_config(args),
        grid=make_grid(args.x_min, args.x_max, args.grid_points),
        replications=args.replications,
        model=args.model,
        forest=_forest_params(args),
        test_fraction=args.test_fraction,
    )
    result = run_study(config, n_jobs=args.threads)
    curve = band_curve(result.matrix)
    ext = "json" if args.format == "json" else "csv"
    bands_path = f"{args.output}_bands.{ext}"
    coeffs_path = f"{args.output}_coefficients.{ext}"
    if args.format == "json":
        with open(bands_path, "w") as out:
            _write_columns(out, {
                "x": curve.grid.points, "mean": curve.mean, "sd": curve.sd,
                "q1": curve.q1, "median": curve.median, "q3": curve.q3,
                "iqr": curve.iqr, "low": curve.low, "high": curve.high}, "json")
        coeff_cols = {"slope": result.coefficients.slopes,
                      "intercept": result.coefficients.intercepts}
        if result.coefficients.test_mse is not None:
            coeff_cols["test_mse"] = result.coefficients.test_mse
        with open(coeffs_path, "w") as out:
            _write_columns(out, coeff_cols, "json")
    else:
        curve.to_csv(bands_path)
        result.coefficients.to_csv(coeffs_path, n_rows=config.replications)
    print(bands_path)
    print(coeffs_path)
    if args.emit_matrix:
        matrix_path = f"{args.output}_matrix.csv"
        result.matrix.to_csv(matrix_path)
        print(matrix_path)
    return 0


def _read_named_columns(path: str) -> dict[str, list[float]]:
    """Parse a CSV of named columns; headerless numeric files get
    positional names "0", "1", ..."""
    with open(path, "r", newline="") as handle:
        lines = [ln for ln in handle.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    first = lines[0].split(",")
    try:
        [float(c) for c in first]
        names = [str(i) for i in range(len(first))]
        start = 0
    except ValueError:
        names = [c.strip() for c in first]
        start = 1
    columns: dict[str, list[float]] = {name: [] for name in names}
    for lineno, line in enumerate(lines[start:], start=start + 1):
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"line {lineno}: expected {len(names)} fields, got {len(cells)}")
        for name, cell in zip(names, cells):
            try:
                columns[name].append(float(cell))
            except ValueError:
                raise ValueError(f"line {lineno}: could not parse {cell!r}") from None
    return columns


def cmd_report(args) -> int:
    if args.at_x is not None:
        from .montecarlo import PredictionMatrix

        matrix = PredictionMatrix.from_csv(args.samples)
        values = matrix.column_at(args.at_x)
    else:
        columns = _read_named_columns(args.samples)
        name = args.column if args.column is not None else next(iter(columns))
        if name not in columns:
            raise ValueError(
                f"unknown column {name!r}; available: {', '.join(columns)}")
        values = np.array(columns[name])
    doc = distribution_report(values, bins=args.bins)
    with _open_out(args.output) as out:
        json.dump(doc, out, indent=2)
        out.write("\n")
    if args.output != "-":
        print(args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="predbands",
                     description="Monte Carlo uncertainty bands for regression predictions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic training set as CSV")
    _add_gen_flags(p_gen)
    p_gen.add_argument("--seed", type=int, default=0, help="generator seed")
    p_gen.add_argument("--format", choices=("csv", "json"), default="csv")
    p_gen.add_argument("--output", default="-", help="output path, - for stdout")
    p_gen.set_defaults(func=cmd_generate)

    p_fit = sub.add_parser("fit", help="fit one model to a dataset CSV")
    p_fit.add_argument("dataset", help="CSV file with header x,y")
    p_fit.add_argument("--model", choices=("linear", "forest"), default="linear")
    p_fit.add_argument("--band", choices=("mean", "observation"), default="mean",
                       help="analytical band type (linear model)")
    p_fit.add_argument("--level", type=float, default=0.95, help="band confidence level")
    p_fit.add_argument("--grid-points", type=int, default=101)
    p_fit.add_argument("--x-min", type=float, default=None,
                       help="grid start (default: min x of the data)")
    p_fit.add_argument("--x-max", type=float, default=None,
                       help="grid end (default: max x of the data)")
    _add_forest_flags(p_fit)
    p_fit.add_argument("--seed", type=int, default=0, help="forest bootstrap seed")
    p_fit.add_argument("--format", choices=("csv", "json"), default="csv")
    p_fit.add_argument("--output", default=None,
                       help="where to write the band/prediction table "
                            "(linear: omit to skip; forest: default -)")
    p_fit.set_defaults(func=cmd_fit)

    p_study = sub.add_parser("study",
                             help="run a replicated generate/fit/predict study")
    _add_gen_flags(p_study)
    p_study.add_argument("--seed", type=int, default=0, help="master seed")
    p_study.add_argument("--replications", type=int, default=1000)
    p_study.add_argument("--grid-points", type=int, default=101)
    p_study.add_argument("--model", choices=("linear", "forest"), default="linear")
    _add_forest_flags(p_study)
    p_study.add_argument("--test-fraction", type=float, default=None,
                         help="per-replication holdout fraction (default: off)")
    p_study.add_argument("--threads", type=int, default=1,
                         help="worker processes; does not affect results")
    p_study.add_argument("--emit-matrix", action="store_true",
                         help="also write the full prediction matrix CSV")
    p_study.add_argument("--format", choices=("csv", "json"), default="csv")
    p_study.add_argument("--output", default="study",
                         help="output prefix: <prefix>_bands.csv, "
                              "<prefix>_coefficients.csv, <prefix>_matrix.csv")
    p_study.set_defaults(func=cmd_study)

    p_rep = sub.add_parser("report",
                           help="histogram/boxplot/Gaussian-overlay JSON for a sample")
    p_rep.add_argument("samples", help="CSV of named columns, or a matrix CSV with --at-x")
    p_rep.add_argument("--column", default=None,
                       help="column to summarize (default: first column)")
    p_rep.add_argument("--at-x", type=float, default=None,
                       help="select the matrix column at this grid value")
    p_rep.add_argument("--bins", type=int, default=None,
                       help="histogram bin count (default: ceil(sqrt(n)))")
    p_rep.add_argument("--output", default="-", help="output path, - for stdout")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingularFitError, ReplicationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool:
        # only `study --threads N` starts workers
        print(f"error: a worker process died (--threads {args.threads}); "
              f"rerun with --threads 1", file=sys.stderr)
        return 2
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
