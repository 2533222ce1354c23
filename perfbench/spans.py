"""In-process spans around the public functions of each predbands layer.

The tracer wraps functions where callers look them up (``montecarlo``
imports ``generate_dataset`` by name, so the copy in ``montecarlo`` is
the one patched) and estimator methods on their class.  Each span keeps
its name, start, end, parent span, operation id and a quantity (values
drawn, leaves grown, replications run).  Spans stay in memory until the
run ends; only single-process runs can be traced, because spans
recorded inside forked workers are lost.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _length(args, kwargs, result):
    return len(result)


def targets(pb) -> list[tuple]:
    """(owner, attribute, span name, quantity) for every traced call site.

    ``pb`` maps module names (``rng``, ``dataset``, ...) to the imported
    predbands modules.
    """
    rng, mc, cli = pb["rng"], pb["montecarlo"], pb["cli"]
    linear, forest = pb["linear"].LinearRegression, pb["forest"]
    return [
        (rng.Rng, "uniforms", "rng.uniforms", _length),
        (rng.Rng, "uniform", "rng.uniform", _length),
        (rng.Rng, "normals", "rng.normals", _length),
        (rng.Rng, "integers", "rng.integers", _length),
        (rng.Rng, "permutation", "rng.permutation", _length),
        (mc, "derive_seed", "rng.derive_seed", None),
        (forest, "derive_seed", "rng.derive_seed", None),
        (mc, "generate_dataset", "dataset.generate_dataset", None),
        (mc, "split_train_test", "dataset.split_train_test", None),
        (linear, "fit", "linear.fit", None),
        (linear, "predict", "linear.predict", None),
        (forest.RandomForestRegressor, "fit", "forest.fit", None),
        (forest.RandomForestRegressor, "predict", "forest.predict", None),
        (forest.DecisionTreeRegressor, "fit", "forest.tree_fit",
         lambda args, kwargs, tree: tree.n_leaves_),
        (cli, "run_study", "montecarlo.run_study",
         lambda args, kwargs, result: result.matrix.n_replications),
        (cli, "band_curve", "stats.band_curve", None),
        (cli, "distribution_report", "stats.distribution_report", None),
    ]


class Tracer:
    """Span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.qty = array("q")
        self.op_id = -1
        self.last_args: dict[str, tuple] = {}
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, quantity=None):
        """Run fn(*args, **kwargs) inside a span named name."""
        stack = self._stack
        i = len(self.names)
        self.names.append(name)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.op_id)
        self.qty.append(0)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            self.end[i] = perf_counter()
            stack.pop()
        if quantity is not None:
            self.qty[i] = quantity(args, kwargs, result)
        self.last_args[name] = args
        return result

    def wrap(self, name, fn, quantity):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, quantity)
        return traced

    @contextmanager
    def patched(self, pb):
        """Install the wrappers from targets(pb); restore the originals on exit.

        Call sites missing from the code under test are skipped, so a
        refactor that removes one leaves its metrics at zero.
        """
        saved = []
        try:
            for owner, attr, name, quantity in targets(pb):
                original = owner.__dict__.get(attr)
                if original is None:
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, quantity))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.names))]

    def op_metrics(self) -> dict[int, dict[str, float]]:
        """Per-operation layer totals derived from the spans."""
        self_t = self.self_times()
        out: dict[int, dict[str, float]] = {}
        pairs_in_normals: dict[int, int] = {}
        for i, name in enumerate(self.names):
            m = out.setdefault(self.op[i], defaultdict(float))
            dur = self.end[i] - self.start[i]
            layer = name.split(".", 1)[0]
            p = self.parent[i]
            parent_name = self.names[p] if p >= 0 else ""
            if layer == "rng" and not parent_name.startswith("rng."):
                m["rng.busy_s"] += dur
                m["rng.calls"] += 1
            if name == "rng.uniforms":
                m["rng.uniforms_drawn"] += self.qty[i]
                if parent_name == "rng.normals":
                    pairs_in_normals[self.op[i]] = (
                        pairs_in_normals.get(self.op[i], 0) + self.qty[i] // 2)
            elif name == "rng.normals":
                m["rng.polar_yield"] += self.qty[i]  # normals returned; divided below
            elif name == "dataset.generate_dataset":
                m["dataset.generate_s"] += dur
                m["dataset.generate_calls"] += 1
            elif name == "dataset.split_train_test":
                m["dataset.split_s"] += dur
            elif name == "linear.fit":
                m["linear.fit_s"] += dur
                m["linear.fits"] += 1
            elif name == "linear.predict":
                m["linear.predict_s"] += dur
            elif name == "forest.fit":
                m["forest.fit_s"] += dur
            elif name == "forest.tree_fit":
                m["forest.tree_fit_s"] += dur
                m["forest.trees"] += 1
                m["forest.leaves"] += self.qty[i]
            elif name == "forest.predict":
                m["forest.predict_s"] += dur
            elif name == "montecarlo.run_study":
                m["montecarlo.study_s"] += dur
                m["montecarlo.self_s"] += self_t[i]
                m["montecarlo.replications"] += self.qty[i]
            elif name == "stats.band_curve":
                m["stats.band_curve_s"] += dur
            elif name == "stats.distribution_report":
                m["stats.report_s"] += dur
            elif name == "cli.main":
                m["cli.self_s"] += self_t[i]
        for op, m in out.items():
            pairs = pairs_in_normals.get(op, 0)
            m["rng.polar_yield"] = m["rng.polar_yield"] / pairs if pairs else 0.0
        return out

    def write(self, path) -> None:
        """Dump every span as CSV: op,id,parent,name,start,end,qty."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("op,id,parent,name,start,end,qty\n")
            for i, name in enumerate(self.names):
                out.write(f"{self.op[i]},{i},{self.parent[i]},{name},"
                          f"{self.start[i]!r},{self.end[i]!r},{self.qty[i]}\n")


def median_metrics(per_op: list[dict[str, float]], names) -> dict[str, float]:
    """Median over operations of each named metric; one an operation lacks counts as 0."""
    unknown = set().union(*per_op) - set(names)
    if unknown:
        raise KeyError(f"per-layer metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {name: statistics.median(m.get(name, 0.0) for m in per_op) for name in names}
