"""Benchmark of the predbands CLI: end-to-end study timings and a traced per-layer run.

Usage, from the root of a source checkout (predbands is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload linear_default --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` drives fresh ``python -m predbands.cli`` processes in a
closed loop with one client and reports the end-to-end metrics.
``--trace 1`` calls ``predbands.cli.main`` in-process with one worker,
wraps the public functions of each layer (see spans.py) and reports the
per-layer metrics.  Either way every operation's outputs are checked
(see checks.py) and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Per-operation
samples, machine fields and (traced) spans go to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from checks import CheckFailed, OutputChecker
from spans import Tracer, median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 9  # fresh-interpreter imports per run; setup_s is their median
TAIL_BEYOND = 10   # samples that must lie beyond the reported tail percentile
OVERRUN_S = 120.0  # a command still running this long after its run should have ended is killed


class OpFailed(Exception):
    """A command exited nonzero, printed a traceback or was killed."""


def load_json(name: str) -> dict:
    with open(HERE / name) as handle:
        return json.load(handle)


# Metric names and units as BENCHMARK.json declares them.
DECLARED = load_json("../BENCHMARK.json")
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def expand(commands: list[list[str]], out: Path, seed: int, threads: int) -> list[list[str]]:
    values = {"out": str(out), "seed": str(seed), "threads": str(threads)}
    return [[arg.format(**values) for arg in argv] for argv in commands]


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], env: dict, log: Path, deadline: float) -> tuple[float, float, float]:
    """Run ``python argv``; return (wall s, user+sys CPU s, peak RSS MB).

    ``os.wait4`` reaps the process and reports its own and its reaped
    workers' resource use, which is what RUSAGE_CHILDREN accumulates.
    """
    budget = max(1.0, deadline - perf_counter())
    with open(log, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        killer = threading.Timer(budget, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = log.read_text(errors="replace")
    if code != 0 or "Traceback" in stderr:
        lines = stderr.strip().splitlines()
        raise OpFailed(f"`{' '.join(argv[:3])} ...` exited {code}: "
                       f"{lines[-1] if lines else 'no message'}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def check_import(run: "Run", env: dict) -> None:
    """Warm-up import, which also proves predbands resolves to this checkout's src/."""
    probe = run.work / "import.txt"
    spawn(["-c", f"import predbands; open({str(probe)!r}, 'w').write(predbands.__file__)"],
          env, run.work / "setup.log", run.deadline)
    where = Path(probe.read_text()).resolve()
    if SRC.resolve() not in where.parents:
        raise OpFailed(f"predbands imported from {where}, not from {SRC}")


def time_import(run: "Run", env: dict) -> float:
    """Wall seconds for a fresh interpreter to run ``import predbands``."""
    return spawn(["-c", "import predbands"], env, run.work / "setup.log", run.deadline)[0]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def machine_fields() -> dict:
    """Where and on what code the numbers were measured."""
    fields = {"nproc": os.cpu_count(), "cpu_model": None, "python": platform.python_version(),
              "numpy": importlib.metadata.version("numpy"), "git_commit": None,
              "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))}
    try:
        with open("/proc/cpuinfo") as handle:
            fields["cpu_model"] = next((line.split(":", 1)[1].strip() for line in handle
                                        if line.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                fields[f"l{level}_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            fields["git_commit"] = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return fields


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at least
    TAIL_BEYOND samples above it.  With no more than 2 * TAIL_BEYOND samples
    that percentile would lie at or below the median, so the maximum is
    reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n


def pinned_entry(workload: str, seed: int) -> dict | None:
    pins = load_json("pinned.json")
    entry = pins["seeds"].get(workload, {}).get(str(seed))
    if entry is not None and "bands" in entry:
        entry = dict(entry, tolerance=pins["forest_tolerance"])
    return entry


class Run:
    """One workload, one seed: operations, their outcomes and the first failure."""

    def __init__(self, name: str, spec: dict, seed: int, work: Path, seconds: float):
        self.name, self.spec, self.seed, self.work = name, spec, seed, work
        self.ops: list[dict] = []
        self.first_failure: str | None = None
        self.deadline = perf_counter() + seconds + OVERRUN_S

    def record(self, op: dict, error: str | None) -> None:
        op["ok"] = error is None
        self.ops.append(op)
        if error and self.first_failure is None:
            self.first_failure = f"operation {len(self.ops)}: {error}"
            print(f"FAILED {self.name} seed {self.seed} {self.first_failure}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(not op["ok"] for op in self.ops)


def run_subprocess_op(run: Run, checker: OutputChecker, env: dict, threads: int) -> dict:
    """One closed-loop operation: the workload's commands back to back."""
    prefix = fresh_dir(run.work / "op") / "out"
    op = {"cpu_s": 0.0, "peak_rss_mb": 0.0}
    error = None
    t0 = perf_counter()
    try:
        for argv in expand(run.spec["commands"], prefix, run.seed, threads):
            _, cpu, rss = spawn(["-m", "predbands.cli", *argv], env, run.work / "stderr.log",
                                run.deadline)
            op["cpu_s"] += cpu
            op["peak_rss_mb"] = max(op["peak_rss_mb"], rss)
    except OpFailed as exc:
        error = str(exc)
    op["wall_s"] = perf_counter() - t0
    if error is None:
        try:
            checker.check(prefix)
        except CheckFailed as exc:
            error = str(exc)
    run.record(op, error)
    return op


def end_to_end(run: Run, truth: dict, seconds: float) -> dict:
    env = cli_env()
    check_import(run, env)
    threads = run.spec.get("threads", 1)
    pinned = pinned_entry(run.name, run.seed)
    reference = None
    if threads > 1:
        # The determinism contract: every operation must reproduce the
        # bytes of a 1-worker run of the same study.
        ref_checker = OutputChecker(run.spec, truth, pinned)
        ref = run_subprocess_op(run, ref_checker, env, threads=1)
        ref["reference"] = True
        if ref["ok"]:
            reference = ref_checker.digests(run.work / "op" / "out")
    checker = OutputChecker(run.spec, truth, pinned, reference)
    started = len(run.ops)
    setup: list[float] = []
    begin = perf_counter()
    while len(run.ops) == started or perf_counter() < begin + seconds:
        # Set-up samples are spread evenly over the run, so that setup_s
        # sees the same machine conditions as the operations.
        if perf_counter() >= begin + len(setup) * seconds / SETUP_SAMPLES:
            setup.append(time_import(run, env))
        run_subprocess_op(run, checker, env, threads)
    while len(setup) < SETUP_SAMPLES:
        setup.append(time_import(run, env))
    timed = run.ops[started:]
    walls = [op["wall_s"] for op in timed]
    cpus = [op["cpu_s"] for op in timed]
    tail_value, tail_pct = tail(walls)
    # wall_s and cpu_s are the fastest operation of the run, as timeit
    # reports: interference from other tenants of a shared machine only
    # adds time, in phases of several seconds, so the median and the mean
    # move with the share of the run spent in slow phases and the minimum
    # hardly does.  On a 2-vCPU VM, the run-to-run spread over 14 runs of
    # linear_default's wall time was 0.07 for the minimum, 0.15 for the
    # lower quartile and 0.19 for the median.  The median is in the notes.
    metrics = {
        "wall_s": min(walls),
        "wall_s_tail": tail_value,
        "reps_per_s": run.spec["replications"] / min(walls),
        "cpu_s": min(cpus),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in timed),
        "setup_s": statistics.median(setup),
    }
    notes = {
        "wall_s": f"fastest of {len(walls)} operations; median {statistics.median(walls):.4f} s",
        "wall_s_tail": f"p{tail_pct:.1f} of {len(walls)} operations"
                       + ("" if len(walls) > 2 * TAIL_BEYOND else
                          f" (the maximum: {2 * TAIL_BEYOND} operations or fewer)"),
        "reps_per_s": f"R={run.spec['replications']} in the fastest operation, "
                      f"n={truth['n_samples']}, G={run.spec['grid_points']}, "
                      f"{threads} worker(s); over the whole run "
                      f"{run.spec['replications'] * len(timed) / sum(walls):.4g}/s",
        "cpu_s": f"least user+sys of an operation's processes and their workers; "
                 f"median {statistics.median(cpus):.4f} s",
        "peak_rss_mb": "median over operations of the largest process RSS",
        "setup_s": f"median of {len(setup)} fresh `import predbands`",
    }
    return {"metrics": metrics, "units": END_TO_END, "notes": notes,
            "samples": {"setup_s": setup, "ops": timed}}


def import_predbands() -> dict:
    sys.path.insert(0, str(SRC))
    names = ("rng", "dataset", "linear", "forest", "montecarlo", "stats", "cli")
    pb = {name: importlib.import_module(f"predbands.{name}") for name in names}
    where = Path(pb["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise OpFailed(f"predbands imported from {where}, not from {SRC}")
    return pb


def inprocess_op(run: Run, checker: OutputChecker, pb: dict, tracer: Tracer | None) -> dict:
    """One operation through ``cli.main`` in this process, one worker."""
    prefix = fresh_dir(run.work / "op") / "out"
    commands = expand(run.spec["commands"], prefix, run.seed, threads=1)
    op = {"traced": tracer is not None, "bytes_read": 0}
    main = pb["cli"].main
    error = None
    t0 = perf_counter()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            for argv in commands:
                op["bytes_read"] += sum(os.path.getsize(a) for a in argv if os.path.isfile(a))
                code = tracer.call("cli.main", main, (argv,)) if tracer else main(argv)
                if code != 0:
                    raise OpFailed(f"`{argv[0]}` returned {code}: {err.getvalue().strip()}")
    except OpFailed as exc:
        error = str(exc)
    except (Exception, SystemExit) as exc:  # the program under test raised
        error = f"{type(exc).__name__}: {exc}"
    op["wall_s"] = perf_counter() - t0
    op["bytes_written"] = sum(p.stat().st_size for p in prefix.parent.iterdir())
    if error is None:
        try:
            checker.check(prefix)
        except CheckFailed as exc:
            error = str(exc)
    run.record(op, error)
    return op


def traced(run: Run, truth: dict, seconds: float) -> dict:
    pb = import_predbands()
    checker = OutputChecker(run.spec, truth, pinned_entry(run.name, run.seed))
    tracer = Tracer()
    deadline = perf_counter() + seconds
    # Alternate untraced and traced operations so both see the same warm state.
    while len(run.ops) < 2 or perf_counter() < deadline:
        tracing = len(run.ops) % 2 == 1
        if tracing:
            tracer.op_id = len(run.ops)
            with tracer.patched(pb):
                inprocess_op(run, checker, pb, tracer)
        else:
            inprocess_op(run, checker, pb, None)
    if run.failed:
        return {"metrics": dict.fromkeys(PER_LAYER, 0.0), "units": PER_LAYER,
                "notes": {}, "samples": {"ops": run.ops}}
    per_op = tracer.op_metrics()
    for op_id, m in per_op.items():
        op = run.ops[op_id]
        m["cli.bytes_written"], m["cli.bytes_read"] = op["bytes_written"], op["bytes_read"]
    metrics = median_metrics(list(per_op.values()), PER_LAYER)
    walls = {flag: statistics.median(op["wall_s"] for op in run.ops if op["traced"] == flag)
             for flag in (False, True)}
    metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    # Pool overhead: the same study once more at 1 and at 2 workers, untraced.
    config = tracer.last_args["montecarlo.run_study"][0]
    run_study = pb["montecarlo"].run_study
    t0 = perf_counter()
    run_study(config, n_jobs=1)
    t1 = perf_counter()
    run_study(config, n_jobs=2)
    t2 = perf_counter()
    metrics["montecarlo.pool_overhead_s"] = (t2 - t1) - (t1 - t0) / 2
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / "results" / f"{run.name}-seed{run.seed}-spans.csv.gz")
    n_traced = len(per_op)
    notes = {name: f"median over {n_traced} traced operations" for name in PER_LAYER}
    notes["montecarlo.pool_overhead_s"] = (
        f"2-worker {t2 - t1:.4f} s minus half of 1-worker {t1 - t0:.4f} s")
    notes["trace.overhead_frac"] = (f"traced median {walls[True]:.4f} s / untraced median "
                                    f"{walls[False]:.4f} s - 1, in-process")
    return {"metrics": metrics, "units": PER_LAYER, "notes": notes,
            "samples": {"ops": run.ops, "per_op": per_op}}


def run_workload(name: str, spec: dict, truth: dict, seed: int, seconds: float, trace: bool,
                 machine: dict) -> dict:
    work = fresh_dir(OUT / f"work-{name}-{os.getpid()}")
    run = Run(name, spec, seed, work, seconds)
    try:
        result = (traced if trace else end_to_end)(run, truth, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.update(workload=name, seed=seed, trace=trace, machine=machine,
                  attempted=len(run.ops), failed=run.failed, first_failure=run.first_failure)
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(OUT / "results" / f"{name}-seed{seed}-trace{int(trace)}-{stamp}.json", "w") as f:
        json.dump(result, f, indent=1)
    return result


def print_result(result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
          f"operations {attempted}  failed {failed}")
    for name, value in result["metrics"].items():
        note = result["notes"].get(name, "")
        print(f"  {name:28s} {value:14.6g} {result['units'][name]:13s} {note}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g} {'ratio':13s} "
          f"{failed}/{attempted} operations"
          + (f"; first: {result['first_failure']}" if result["first_failure"] else ""))


def main(argv=None) -> int:
    config = load_json("workloads.json")
    workloads = config["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed, passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float,
                        default=DECLARED["run_seconds"],
                        help="measurement time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "predbands" / "__init__.py").is_file():
        print(f"error: no predbands source at {SRC / 'predbands'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("error: --seed must be in [0, 2**64)", file=sys.stderr)
        return 2
    machine = machine_fields()
    print("machine " + json.dumps(machine))
    names = list(workloads) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(name, workloads[name], config["truth"], args.seed, args.seconds,
                                bool(args.trace), machine) for name in names]
    except OpFailed as exc:  # set-up failed: there is nothing to measure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_result(result)
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": results[0]["units"][k]}
                   for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": r["units"][k]}
                   for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
