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

A CSV table of 10,000 values or more is also read with orjson, each
line as a JSON array, at about a third of the cost of numpy's
``loadtxt``.  If a line is not ``len(header)`` JSON floats, ``loadtxt``
reads the whole table again; it reads every other table and gives every
error message.
"""

from __future__ import annotations

import json
from array import array
from contextlib import nullcontext
from itertools import chain, islice, repeat

import numpy as np

# Below this many values, repr and loadtxt cost less than importing orjson
# (about 3.7 ms of CPU, as it loads uuid and zoneinfo).
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
    The rows stream through orjson (large tables) or numpy's C tokenizer,
    which both parse each cell to the same double as ``float``.  A
    malformed line raises ValueError naming its line number.
    """
    with nullcontext(source) if hasattr(source, "read") else open(source) as handle:
        header, lineno = "", 0
        while not header.strip():
            header = handle.readline()
            lineno += 1
            if not header:
                raise ValueError("empty table: expected a header line")
        names = [cell.strip() for cell in header.split(",")]
        width, start = len(names), handle.tell()
        lines = (line for line in handle if not line.isspace())
        # every row of a small table, or enough rows to tell it is large
        head = list(islice(lines, max(1, -(-_ORJSON_MIN_VALUES // width))))
        if not head:  # loadtxt would warn on no rows
            return names, np.empty((0, width))
        if len(head) * width >= _ORJSON_MIN_VALUES:
            rows = _json_rows(chain(head, lines), width)
            if rows is not None:
                return names, rows
            handle.seek(start)
            head, lines = [], (line for line in handle if not line.isspace())
        try:
            rows = np.loadtxt(chain(head, lines), delimiter=",", comments=None, ndmin=2)
            if rows.shape[1] != width:
                raise ValueError(f"{rows.shape[1]} fields under a header of {width}")
        except ValueError:
            handle.seek(start)
            _raise_first_bad_line(handle, lineno, width)
            raise
    return names, rows


def _json_rows(lines, width: int) -> np.ndarray | None:
    """The lines as rows of ``width`` doubles, or None at the first line that is not.

    ``[line]`` must read as a JSON array of exactly ``width`` floats.  So
    orjson takes no cell that loadtxt reads differently or refuses: it
    refuses ``nan``, ``inf``, overflow (``1e999``) and the spellings
    ``01``, ``1.`` and ``.5``, and the float rule refuses the ints,
    bools, nulls, strings and lists it reads (``-0`` is the int 0).
    orjson rounds every other number to the double ``float`` gives.
    """
    import orjson
    values = array("d")
    for line in lines:
        try:
            row = orjson.loads("[" + line + "]")
        except orjson.JSONDecodeError:
            return None
        if len(row) != width or set(map(type, row)) != {float}:
            return None
        values.fromlist(row)
    return np.frombuffer(values).reshape(-1, width)


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
