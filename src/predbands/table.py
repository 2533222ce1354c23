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

A table is read in one pass, each row once.  In a CSV table of 10,000
values or more, a row that orjson reads as a JSON array of
``len(header)`` floats is taken from orjson, at under half the cost
of ``float`` per cell.  ``float`` reads every other row and names
the line of every error.
"""

from __future__ import annotations

from array import array
from contextlib import nullcontext
from itertools import chain, islice, repeat

import numpy as np

from .base import chunk_slices

# Below this many values, repr and float cost less than importing orjson
# (about 3.7 ms of CPU, as it loads uuid and zoneinfo).
_ORJSON_MIN_VALUES = 10_000


def write_table(out, header, rows, fmt: str = "csv") -> None:
    """Write ``header`` names and rows of doubles to a text handle.

    ``rows`` is a 2-D float array or an iterable of 2-D blocks of rows, each
    written as it comes, and ``fmt`` is ``"csv"`` or ``"json"``.  Rows are
    formatted one at a time, so a table is never held as Python floats.
    """
    if fmt == "json":
        import json
        rows = rows if isinstance(rows, np.ndarray) else np.concatenate(list(rows))
        json.dump({name: [None if v != v else v for v in rows[:, j].tolist()]
                   for j, name in enumerate(header)}, out, indent=2)
        out.write("\n")
        return
    if isinstance(rows, np.ndarray):
        rows = [rows[at] for at in chunk_slices(len(rows), len(header))]
    out.write(",".join(header) + "\n")
    rows, head, size = iter(rows), [], 0
    for block in rows:  # read ahead until the table is known to reach _ORJSON_MIN_VALUES
        head.append(block)
        size += block.size
        if size >= _ORJSON_MIN_VALUES:
            import orjson
            break
    for block in chain(head, rows):
        plain = repeat(False)
        if size >= _ORJSON_MIN_VALUES:
            block = np.ascontiguousarray(block)  # orjson serializes C-contiguous arrays only
            plain = ((block == 0) | (block >= 1e-4) & (block < 1e16)
                     | (block <= -1e-4) & (block > -1e16)).all(axis=1).tolist()
        for row, fast in zip(block, plain):
            if fast:
                line = orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
            else:
                line = ",".join(map(repr, row.tolist()))
            out.write(line + "\n")


def read_table(source) -> tuple[list[str], np.ndarray]:
    """Header cells and the (rows, len(header)) doubles of a CSV table.

    ``source`` is a path or a text handle, read once from start to end.
    Blank and whitespace-only lines are skipped; the first other line is
    the header, and every later line must hold one number per header
    cell.  A cell is any text ``float`` reads.  A malformed line raises
    ValueError naming its line number.
    """
    with nullcontext(source) if hasattr(source, "read") else open(source) as handle:
        lines = ((n, line) for n, line in enumerate(handle, start=1) if not line.isspace())
        _, header = next(lines, (0, ""))
        if not header:
            raise ValueError("empty table: expected a header line")
        names = [cell.strip() for cell in header.split(",")]
        width, values = len(names), array("d")
        # every row of a small table, or enough rows to tell it is large
        head = list(islice(lines, -(-_ORJSON_MIN_VALUES // width)))
        large = len(head) * width >= _ORJSON_MIN_VALUES
        for lineno, line in chain(head, lines):
            row = large and _json_row(line, width)
            values.fromlist(row or _float_row(line, lineno, width))
    return names, np.frombuffer(values).reshape(-1, width)


def _json_row(line: str, width: int) -> list[float] | None:
    """The line as ``width`` doubles if ``[line]`` is a JSON array of that many floats.

    So orjson takes no cell that ``float`` reads differently or refuses:
    it refuses ``nan``, ``inf``, overflow (``1e999``) and the spellings
    ``01``, ``1.`` and ``.5``, and the float rule refuses the ints,
    bools, nulls, strings and lists it reads (``-0`` is the int 0).
    orjson rounds every other number to the double ``float`` gives.
    """
    import orjson
    try:
        row = orjson.loads("[" + line + "]")
    except orjson.JSONDecodeError:
        return None
    return row if len(row) == width and set(map(type, row)) == {float} else None


def _float_row(line: str, lineno: int, width: int) -> list[float]:
    cells = line.rstrip("\r\n").split(",")
    if len(cells) != width:
        raise ValueError(f"line {lineno}: expected {width} fields, got {len(cells)}")
    row = []
    for cell in cells:
        try:
            row.append(float(cell))
        except ValueError:
            raise ValueError(f"line {lineno}: could not parse {cell!r}") from None
    return row
