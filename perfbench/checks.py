"""Correctness checks on the files one benchmark operation wrote.

Every check is pure Python and independent of predbands: band rows are
recomputed from the coefficient samples with the type-7 quantile rule,
matrix rows from the fitted lines, and report JSON from the matrix
column it summarizes.  The first failing condition raises CheckFailed
with a one-line reason.

Outputs whose sha256 set was already verified in this run are accepted
without re-parsing: identical bytes pass identical checks.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

BAND_HEADER = ["x", "mean", "sd", "q1", "median", "q3", "iqr", "low", "high"]
REL = 1e-9  # agreement required between an oracle and the program's doubles


class CheckFailed(Exception):
    """An output file is missing, malformed or numerically wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def quantile(sorted_values: list[float], p: float) -> float:
    """Type-7 quantile: linear interpolation at rank (n - 1) * p."""
    h = (len(sorted_values) - 1) * p
    lo = int(h)
    if lo >= len(sorted_values) - 1:
        return sorted_values[-1]
    return sorted_values[lo] + (h - lo) * (sorted_values[lo + 1] - sorted_values[lo])


def mean_sd(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
    return mean, sd


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    """Header cells and float rows; every row must match the header width."""
    with open(path, newline="") as handle:
        lines = handle.read().splitlines()
    _require(bool(lines), f"{path.name}: empty file")
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        _require(len(cells) == len(header),
                 f"{path.name} line {lineno}: {len(cells)} fields, header has {len(header)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise CheckFailed(f"{path.name} line {lineno}: unparsable number") from None
    return header, rows


def _grid(spec: dict, truth: dict) -> list[float]:
    g = spec["grid_points"]
    lo, hi = truth["x_low"], truth["x_high"]
    return [lo + (hi - lo) * i / (g - 1) for i in range(g)]


def check_bands(path: Path, spec: dict, truth: dict) -> list[list[float]]:
    header, rows = read_csv(path)
    _require(header == BAND_HEADER, f"{path.name}: header {header}")
    grid = _grid(spec, truth)
    _require(len(rows) == len(grid), f"{path.name}: {len(rows)} rows, expected {len(grid)}")
    for i, (row, x) in enumerate(zip(rows, grid)):
        where = f"{path.name} row {i + 1}"
        _require(all(math.isfinite(v) for v in row), f"{where}: non-finite value")
        bx, _, sd, q1, median, q3, iqr, low, high = row
        _require(_close(bx, x), f"{where}: x={bx!r}, expected {x!r}")
        _require(low <= q1 <= median <= q3 <= high,
                 f"{where}: not ordered low <= q1 <= median <= q3 <= high")
        _require(sd >= 0.0 and _close(iqr, q3 - q1), f"{where}: sd or iqr inconsistent")
    return rows


def check_coefficients(path: Path, spec: dict) -> dict[str, list[float]]:
    header, rows = read_csv(path)
    want = ["slope", "intercept"] + (["test_mse"] if spec["test_fraction"] else [])
    _require(header == want, f"{path.name}: header {header}, expected {want}")
    _require(len(rows) == spec["replications"],
             f"{path.name}: {len(rows)} rows, expected R={spec['replications']}")
    columns = {name: [row[j] for row in rows] for j, name in enumerate(header)}
    for name, values in columns.items():
        if spec["model"] == "forest" and name in ("slope", "intercept"):
            _require(all(math.isnan(v) for v in values), f"{path.name}: forest {name} not nan")
        else:
            _require(all(math.isfinite(v) for v in values), f"{path.name}: non-finite {name}")
    return columns


def _band_oracle(bands: list[list[float]], column_at) -> None:
    """Compare each band row with quantiles of the predictions at its x."""
    for i, row in enumerate(bands):
        values = sorted(column_at(row[0]))
        q1, median, q3 = (quantile(values, p) for p in (0.25, 0.5, 0.75))
        mean, sd = mean_sd(values)
        iqr = q3 - q1
        want = [mean, sd, q1, median, q3, iqr, q1 - 1.5 * iqr, q3 + 1.5 * iqr]
        for name, got, expected in zip(BAND_HEADER[1:], row[1:], want):
            _require(_close(got, expected),
                     f"bands row {i + 1}: {name}={got!r}, oracle gives {expected!r}")


def _truth_at(truth: dict, x: float) -> float:
    return truth["intercept"] + truth["slope"] * x


def check_linear(prefix: Path, spec: dict, truth: dict):
    bands = check_bands(Path(f"{prefix}_bands.csv"), spec, truth)
    coeffs = check_coefficients(Path(f"{prefix}_coefficients.csv"), spec)
    slopes, intercepts = coeffs["slope"], coeffs["intercept"]
    _band_oracle(bands, lambda x: [a + b * x for a, b in zip(intercepts, slopes)])
    # Eight standard errors of the median of R fitted lines at the grid
    # point where a single fit varies most (sd <= 2 sigma / sqrt(n)).
    r, n = spec["replications"], truth["n_samples"]
    tol = 8 * 1.2533 * 2 * truth["noise_sigma"] / math.sqrt(n * r)
    for row in bands:
        _require(abs(row[4] - _truth_at(truth, row[0])) <= tol,
                 f"bands: median at x={row[0]!r} is {row[4]!r}, "
                 f"more than {tol:.3g} from the true line")
    return bands, coeffs


def check_forest(prefix: Path, spec: dict, truth: dict, pinned_bands=None,
                 tolerance: float = 0.0) -> None:
    bands = check_bands(Path(f"{prefix}_bands.csv"), spec, truth)
    check_coefficients(Path(f"{prefix}_coefficients.csv"), spec)
    # Edge attenuation of the forest moves its median by up to 0.28 sigma
    # over 20 seeds at R=100; allow 0.5 sigma for it plus eight standard
    # errors of a median of R predictions whose sd stays below 0.6 sigma.
    sigma, r = truth["noise_sigma"], spec["replications"]
    tol = sigma * (0.5 + 8 * 1.2533 * 0.6 / math.sqrt(r))
    for row in bands:
        _require(abs(row[4] - _truth_at(truth, row[0])) <= tol,
                 f"bands: forest median at x={row[0]!r} is {row[4]!r}, "
                 f"more than {tol:.3g} from the true line")
    if pinned_bands is None:
        return
    for name in ("q1", "median", "q3"):
        j = BAND_HEADER.index(name)
        for i, (row, want) in enumerate(zip(bands, pinned_bands[name])):
            _require(abs(row[j] - want) <= tolerance,
                     f"bands row {i + 1}: {name}={row[j]!r}, pinned {want!r} "
                     f"(tolerance {tolerance})")


def _check_report(path: Path, values: list[float]) -> None:
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"{path.name}: not JSON ({exc})") from None
    _require(isinstance(doc, dict) and doc.get("n") == len(values),
             f"{path.name}: n is not {len(values)}")
    mean, sd = mean_sd(values)
    _require(_close(doc["mean"], mean) and _close(doc["sd"], sd),
             f"{path.name}: mean/sd {doc['mean']!r}/{doc['sd']!r}, oracle {mean!r}/{sd!r}")
    ordered = sorted(values)
    for name, p in (("q1", 0.25), ("median", 0.5), ("q3", 0.75)):
        _require(_close(doc["box"][name], quantile(ordered, p)),
                 f"{path.name}: box {name} differs from the type-7 quantile")
    edges, counts = doc["bin_edges"], doc["counts"]
    _require(len(edges) == len(counts) + 1 and sum(counts) == len(values)
             and all(a < b for a, b in zip(edges, edges[1:])),
             f"{path.name}: histogram edges/counts inconsistent")


def check_grid_io(prefix: Path, spec: dict, truth: dict, bands, coeffs) -> None:
    header, rows = read_csv(Path(f"{prefix}_matrix.csv"))
    grid = [float(c) for c in header]
    _require(len(grid) == len(bands) and all(_close(a, b[0]) for a, b in zip(grid, bands)),
             "matrix: header is not the band grid")
    _require(len(rows) == spec["replications"],
             f"matrix: {len(rows)} rows, expected R={spec['replications']}")
    for r, (row, a, b) in enumerate(zip(rows, coeffs["intercept"], coeffs["slope"])):
        _require(all(_close(v, a + b * x) for v, x in zip(row, grid)),
                 f"matrix row {r + 2}: not the fitted line of coefficients row {r + 2}")
    col = min(range(len(grid)), key=lambda j: abs(grid[j] - spec["at_x"]))
    _check_report(Path(f"{prefix}_at_x.json"), [row[col] for row in rows])
    mse = coeffs["test_mse"]
    _check_report(Path(f"{prefix}_test_mse.json"), mse)
    # Holdout MSE of a least squares line is about sigma^2 (1 + 2/n_train);
    # allow 10% plus eight standard errors of the mean of R holdout MSEs.
    sigma2 = truth["noise_sigma"] ** 2
    n_test = round(truth["n_samples"] * spec["test_fraction"])
    tol = sigma2 * (0.1 + 8 * math.sqrt(2 / (len(mse) * n_test)))
    _require(abs(math.fsum(mse) / len(mse) - sigma2) <= tol,
             f"test_mse: mean {math.fsum(mse) / len(mse):.4g} is not near sigma^2={sigma2:g}")


class OutputChecker:
    """Checks the outputs of each operation of one workload run.

    ``reference`` maps output suffix to the sha256 every operation must
    reproduce (the 1-worker run, for the determinism contract);
    ``pinned`` is the workload's entry for this seed in pinned.json.
    """

    def __init__(self, spec: dict, truth: dict, pinned: dict | None = None,
                 reference: dict | None = None):
        self.spec, self.truth = spec, truth
        self.pinned = pinned or {}
        self.reference = reference
        self._verified: set[tuple] = set()

    def digests(self, prefix: Path) -> dict[str, str]:
        found = {}
        for suffix in self.spec["outputs"]:
            path = Path(f"{prefix}{suffix}")
            _require(path.is_file() and path.stat().st_size > 0, f"missing output {path.name}")
            found[suffix] = sha256(path)
        return found

    def check(self, prefix: Path) -> None:
        """Raise CheckFailed on the first wrong output of the operation at prefix."""
        found = self.digests(prefix)
        for what, want in (("the 1-worker reference", self.reference),
                           ("the pinned sha256", self.pinned.get("sha256"))):
            if want is None:
                continue
            for suffix, digest in want.items():
                _require(found.get(suffix) == digest, f"{suffix} differs from {what}")
        key = tuple(sorted(found.items()))
        if key in self._verified:
            return
        kind = self.spec["check"]
        try:
            if kind == "forest":
                check_forest(prefix, self.spec, self.truth, self.pinned.get("bands"),
                             self.pinned.get("tolerance", 0.0))
            else:
                bands, coeffs = check_linear(prefix, self.spec, self.truth)
                if kind == "grid_io":
                    check_grid_io(prefix, self.spec, self.truth, bands, coeffs)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckFailed(f"malformed output: {type(exc).__name__}: {exc}") from None
        self._verified.add(key)
