"""The one table reader and writer.

A table is a header line of comma-separated names followed by rows of
comma-separated doubles.  Numbers are written with ``repr``, the
shortest decimal that parses back to the same double, so a table reads
back bit for bit; nan is written ``nan``.  The JSON form maps each name
to its column, with nan written as ``null``.

A CSV table of 10,000 values or more writes each plain row (every value
zero, or finite with magnitude in [1e-4, 1e16)) with orjson, whose
shortest digits are ``repr``'s exact text there, at about a tenth of
the cost.  Other rows keep ``repr``, which writes ``nan``, ``inf`` and
exponents (``1e+16``, ``1e-05``) where orjson writes none of them.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from itertools import chain, repeat

import numpy as np

# Below this many values, repr costs less than importing orjson (about
# 3.7 ms of CPU, as it loads uuid and zoneinfo).
_ORJSON_MIN_VALUES = 10_000


def write_table(out, header, rows: np.ndarray, fmt: str = "csv") -> None:
    """Write ``header`` names and the rows of a 2-D float array to a text handle.

    ``fmt`` is ``"csv"`` or ``"json"``.  Rows are formatted one at a time,
    so a large table is never held as Python floats all at once.
    """
    if fmt == "json":
        json.dump({name: [None if v != v else v for v in rows[:, j].tolist()]
                   for j, name in enumerate(header)}, out, indent=2)
        out.write("\n")
        return
    out.write(",".join(header) + "\n")
    plain = repeat(False)
    if rows.size >= _ORJSON_MIN_VALUES:
        import orjson
        plain = ((rows == 0) | (rows >= 1e-4) & (rows < 1e16)
                 | (rows <= -1e-4) & (rows > -1e16)).all(axis=1)
    for row, fast in zip(rows, plain):
        values = row.tolist()
        line = orjson.dumps(values)[1:-1].decode() if fast else ",".join(map(repr, values))
        out.write(line + "\n")


def read_table(source) -> tuple[list[str], np.ndarray]:
    """Header cells and the (rows, len(header)) doubles of a CSV table.

    ``source`` is a path or a seekable text handle.  Blank and
    whitespace-only lines are skipped; the first other line is the
    header, and every later line must hold one number per header cell.
    The rows stream through numpy's C tokenizer, which parses each cell
    to the same double as ``float``.  A malformed line raises ValueError
    naming its line number.
    """
    with nullcontext(source) if hasattr(source, "read") else open(source) as handle:
        header, lineno = "", 0
        while not header.strip():
            header = handle.readline()
            lineno += 1
            if not header:
                raise ValueError("empty table: expected a header line")
        names = [cell.strip() for cell in header.split(",")]
        start = handle.tell()
        lines = (line for line in handle if not line.isspace())
        first = next(lines, None)  # loadtxt would warn on no rows
        if first is None:
            return names, np.empty((0, len(names)))
        try:
            rows = np.loadtxt(chain([first], lines), delimiter=",", comments=None, ndmin=2)
            if rows.shape[1] != len(names):
                raise ValueError(f"{rows.shape[1]} fields under a header of {len(names)}")
        except ValueError:
            handle.seek(start)
            _raise_first_bad_line(handle, lineno, len(names))
            raise
    return names, rows


def _raise_first_bad_line(lines, lineno: int, width: int) -> None:
    # Diagnostic rescan, run only after the fast parse failed.
    for lineno, line in enumerate(lines, start=lineno + 1):
        if line.isspace():
            continue
        cells = line.rstrip("\r\n").split(",")
        if len(cells) != width:
            raise ValueError(f"line {lineno}: expected {width} fields, got {len(cells)}")
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                raise ValueError(f"line {lineno}: could not parse {cell!r}") from None
