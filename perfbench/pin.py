"""Regenerate pinned.json from the code in this checkout.

    python3 perfbench/pin.py

For seeds 0..PINNED_SEEDS-1 it runs one operation of every workload
with one worker, checks its outputs (checks.py) and pins:

* linear workloads: the sha256 of every output file, which run.py then
  requires byte for byte;
* the forest workload: the q1, median and q3 band columns, which run.py
  compares within FOREST_TOLERANCE, because a faster tree engine may
  round leaf means differently and flip near-tie splits.

Only re-pin when an output change is intended and recorded as such.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run as bench
from checks import BAND_HEADER, OutputChecker, read_csv

# A flipped split moves one tree of 100 by at most a leaf-mean difference
# (a few noise sigmas), so a band quantile moves by well under 0.5;
# a wrong model or wrong data moves it by more.
FOREST_TOLERANCE = 0.5
PINNED_SEEDS = 20


def main() -> int:
    config = bench.load_json("workloads.json")
    env = bench.cli_env()
    pins = {"forest_tolerance": FOREST_TOLERANCE, "seeds": {}}
    work = bench.fresh_dir(bench.OUT / "pin")
    for name, spec in config["workloads"].items():
        for seed in range(PINNED_SEEDS):
            run = bench.Run(name, spec, seed, work, seconds=0.0)
            checker = OutputChecker(spec, config["truth"])
            bench.run_subprocess_op(run, checker, env, threads=1)
            if run.failed:
                print(f"{name} seed {seed}: {run.first_failure}", file=sys.stderr)
                return 1
            prefix = work / "op" / "out"
            if spec["check"] == "forest":
                _, rows = read_csv(Path(f"{prefix}_bands.csv"))
                entry = {"bands": {col: [round(row[BAND_HEADER.index(col)], 6) for row in rows]
                                   for col in ("q1", "median", "q3")}}
            else:
                entry = {"sha256": checker.digests(prefix)}
            pins["seeds"].setdefault(name, {})[str(seed)] = entry
            print(f"pinned {name} seed {seed}", flush=True)
    with open(bench.HERE / "pinned.json", "w") as handle:
        json.dump(pins, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
