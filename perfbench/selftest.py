"""Self-test of the benchmark at a tiny size (R=5), from the checkout root:

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted (each
per-layer one nonzero on some workload), that no span's children cover
more time than the span, that a corrupted output counts as a failed
operation, and that the benchmark refuses to run in a directory without
the predbands source.  Exit code 0 means all hold.
"""

from __future__ import annotations

import copy
import csv
import gzip
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench
from checks import CheckFailed, OutputChecker

SEED = 10 ** 6  # not pinned: pins hold for the full-size workloads only
TINY_R = 5


def tiny(spec: dict) -> dict:
    spec = copy.deepcopy(spec)
    spec["replications"] = TINY_R
    spec["commands"][0] += ["--replications", str(TINY_R)]
    return spec


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok  {message}")


def check_spans(path: Path) -> None:
    with gzip.open(path, "rt") as handle:
        spans = list(csv.DictReader(handle))
    covered: dict[str, float] = {}
    duration = {s["id"]: float(s["end"]) - float(s["start"]) for s in spans}
    for s in spans:
        if s["parent"] != "-1":
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + duration[s["id"]]
    worst = max((covered[i] - duration[i] for i in covered), default=0.0)
    expect(bool(spans) and worst <= 1e-9,
           f"{path.name}: children never cover more than their parent span")


def main() -> int:
    config = bench.load_json("workloads.json")
    end_to_end, per_layer = set(bench.END_TO_END), set(bench.PER_LAYER)
    nonzero: set[str] = set()
    machine = bench.machine_fields()
    expect(bench.tail([float(i) for i in range(1, 31)]) == (20.0, 200 / 3),
           "tail of 30 samples is p66.7, the 20th, with 10 beyond it")
    expect(bench.tail([1.0, 3.0, 2.0]) == (3.0, 100.0), "tail of 3 samples is the maximum")
    for name, spec in config["workloads"].items():
        spec = tiny(spec)
        for trace, want in ((False, end_to_end), (True, per_layer)):
            result = bench.run_workload(name, spec, config["truth"], SEED, 0.1, trace, machine)
            metrics = result["metrics"]
            expect(result["failed"] == 0, f"{name} trace={trace}: no failed operation")
            expect(set(metrics) == want, f"{name} trace={trace}: emits every declared metric")
            expect(all(math.isfinite(v) for v in metrics.values()),
                   f"{name} trace={trace}: every value is finite")
            if not trace:
                expect(all(v > 0 for v in metrics.values()),
                       f"{name}: every end-to-end value is positive")
            nonzero.update(k for k, v in metrics.items() if v != 0)
        check_spans(bench.OUT / "results" / f"{name}-seed{SEED}-spans.csv.gz")
    expect(per_layer <= nonzero, "every per-layer metric is nonzero on some workload "
           f"(zero everywhere: {sorted(per_layer - nonzero)})")

    # A command that overwrites the bands file must fail every operation.
    spec = tiny(config["workloads"]["linear_default"])
    spec["commands"].append(["report", "{out}_coefficients.csv", "--column", "slope",
                             "--output", "{out}_bands.csv"])
    result = bench.run_workload("linear_default", spec, config["truth"], SEED, 0.1, False,
                                machine)
    expect(result["attempted"] >= 1 and result["failed"] == result["attempted"],
           "an overwritten bands file counts every operation as failed")

    # One changed digit in a band value must be caught by the oracle.
    spec = tiny(config["workloads"]["linear_default"])
    work = bench.fresh_dir(bench.OUT / "selftest")
    run = bench.Run("linear_default", spec, SEED, work, seconds=0.0)
    bench.run_subprocess_op(run, OutputChecker(spec, config["truth"]), bench.cli_env(), 1)
    bands = work / "op" / "out_bands.csv"
    lines = bands.read_text().splitlines()
    cells = lines[5].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)  # the median column
    lines[5] = ",".join(cells)
    bands.write_text("\n".join(lines) + "\n")
    try:
        OutputChecker(spec, config["truth"]).check(work / "op" / "out")
        caught = None
    except CheckFailed as exc:
        caught = str(exc)
    expect(caught is not None and "median" in caught,
           f"a band median moved by 1e-6 is caught ({caught})")

    # Without the predbands source the benchmark must fail without a result.
    bare = bench.fresh_dir(bench.OUT / "bare")
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(bench.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "linear_default",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           "a directory without src/predbands exits nonzero and prints no result")
    shutil.rmtree(bare)
    shutil.rmtree(work)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
