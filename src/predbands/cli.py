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
import os
import re
import shutil
import sys
from contextlib import ExitStack, contextmanager

# The CLI runs numpy's BLAS on one thread unless the caller chose a count.
# predbands' only BLAS calls are short row dots and its parallelism is
# worker processes (--threads), which inherit this setting.  A threaded dot
# over 100,000+ values rounds differently with the core count, and starting
# the thread pool costs each process about 0.1 s of CPU on 2 cores.  This
# must run before numpy loads, which the lazy package guarantees.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .base import ForestParams
from .dataset import Dataset, GenConfig, generate_dataset, make_grid
from .linear import LinearRegression, SingularFitError
from .montecarlo import PredictionMatrix, ReplicationError, StudyConfig, WorkerError, run_study
from .stats import band_curve, distribution_report
from .table import read_table, write_table


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e5" and "-inf" as options: its own pattern has
        # no exponent and none of the words that float() reads
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    # argparse exits 2 on usage errors; the documented contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@contextmanager
def _open_out(path: str):
    """Text handle for an output path; ``-`` is stdout.

    A new file, or a regular file it replaces, is written under a
    temporary name beside ``path`` and moved into place, with the old
    file's permission bits, only when the block succeeds, so a failed
    command leaves no partial file.  Any other path (a symlink, a device
    such as /dev/null, a FIFO), or one whose directory takes no new
    file, is opened and written in place.
    """
    if path == "-":
        yield sys.stdout
        return
    temp = None
    if not os.path.lexists(path) or (os.path.isfile(path) and not os.path.islink(path)):
        head, tail = os.path.split(path)
        temp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
        try:
            handle = open(temp, "x", newline="")
        except OSError:
            temp = None
    if temp is None:
        with open(path, "w", newline="") as handle:
            yield handle
        return
    try:
        with handle:
            yield handle
        if os.path.exists(path):
            shutil.copymode(path, temp)
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise


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
        write_table(out, *data.table(), args.format)
    print(f"{len(data)} rows (seed {args.seed})", file=sys.stderr)
    if args.output != "-":
        print(args.output)
    return 0


def cmd_fit(args) -> int:
    data = Dataset.from_csv(args.dataset)
    output = args.output
    if args.model == "forest" and output is None:
        output = "-"  # the fitted curve is the whole point of a forest fit
    if args.model == "linear":
        model = LinearRegression().fit(data.xs, data.ys)
        report = [model.summary()]
        for name in ("intercept", "slope", "intercept_se", "slope_se", "residual_se"):
            report.append(f"{name}: {float(getattr(model, name + '_'))!r}")
        report.append(f"n: {model.n_}")
    else:
        from .forest import RandomForestRegressor
        model = RandomForestRegressor.from_params(_forest_params(args), seed=args.seed)
        model.fit(data.xs, data.ys)
        report = [str(model)]
    if output is not None:
        lo = args.x_min if args.x_min is not None else float(data.xs.min())
        hi = args.x_max if args.x_max is not None else float(data.xs.max())
        grid = make_grid(lo, hi, args.grid_points)
        cols = {"x": grid.points, "predicted": model.predict(grid.points)}
        if args.model == "linear":
            cols["lower"], cols["upper"] = model.prediction_band(
                grid.points, level=args.level, kind=args.band)
        with _open_out(output) as out:
            write_table(out, list(cols), np.column_stack(list(cols.values())), args.format)
    # printed only once everything succeeded, so a failed fit prints no data;
    # stderr keeps stdout clean CSV/JSON when it is the data sink
    print("\n".join(report), file=sys.stderr if output == "-" else sys.stdout)
    if output not in (None, "-"):
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
    ext = "json" if args.format == "json" else "csv"
    outputs = [(f"{args.output}_bands.{ext}", band_curve(result.matrix), args.format),
               (f"{args.output}_coefficients.{ext}", result.coefficients, args.format)]
    if args.emit_matrix:
        outputs.append((f"{args.output}_matrix.csv", result.matrix, "csv"))
    # every file is opened and written before any is moved into place, so a
    # failed write, or a directory in the way of one, leaves none of them
    with ExitStack() as stack:
        for path, data, fmt in outputs:
            write_table(stack.enter_context(_open_out(path)), *data.table(), fmt)
    for path, _, _ in outputs:
        print(path)
    return 0


def cmd_report(args) -> int:
    if args.at_x is not None:
        values = PredictionMatrix.from_csv(args.samples).column_at(args.at_x)
    else:
        names, rows = read_table(args.samples)
        # Only a one-column file may lack a header, as its column is then
        # named "0"; a numeric header of several cells is a matrix's grid.
        if len(names) == 1:
            try:
                rows = np.vstack([[float(names[0])], rows])
                names = ["0"]
            except ValueError:
                pass
        name = args.column if args.column is not None else names[0]
        if name not in names:
            raise ValueError(
                f"unknown column {name!r}; available: {', '.join(names)}")
        values = rows[:, names.index(name)]
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
                         help="worker processes; does not affect results. Linear "
                              "studies run fastest on 1; forest studies gain from more")
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
    pick = p_rep.add_mutually_exclusive_group()
    pick.add_argument("--column", default=None,
                      help="column to summarize (default: first column)")
    pick.add_argument("--at-x", type=float, default=None,
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
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader left early (`predbands ... | head`), which is no
        # failure; devnull takes what stdout still buffers at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (SingularFitError, ReplicationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerError:
        # only `study --threads N` starts workers
        print(f"error: a worker process died (--threads {args.threads}); "
              f"rerun with --threads 1", file=sys.stderr)
        return 2
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
