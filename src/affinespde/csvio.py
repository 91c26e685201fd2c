"""The numeric CSV tables of the path artifacts: a header line, then one
`t,v_1,..,v_k` row per time.  Numbers are written as `%.17g`, which
round-trips every float64 and, being CPython's float formatting, gives
stable bytes.  Rows are formatted one at a time from one format string, so
writing a stream of rows holds one row in memory however long the table."""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .errors import GridMismatch


@contextlib.contextmanager
def _opened(file, mode: str):
    """`file` itself if it is an open text file, else the path opened."""
    if isinstance(file, (str, os.PathLike)):
        with open(file, mode, newline="\n" if mode == "w" else None) as fh:
            yield fh
    else:
        yield file


def write_rows(file, header: str, t_grid, rows) -> None:
    """Write `header`, then `t_grid[n],rows[n][0],..` for each row n.  rows is
    any iterable of 1-D rows (a 2-D array, or a generator formatted as it
    yields); the table is as wide as its first row."""
    fmt = None
    with _opened(file, "w") as fh:
        fh.write(header + "\n")
        for t, row in zip(t_grid, rows):
            values = np.asarray(row).tolist()
            if fmt is None:
                fmt = "%.17g" + ",%.17g" * len(values) + "\n"
            fh.write(fmt % (t, *values))


def read_rows(file, label: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a `write_rows` table whose header starts with `label`: the other
    header fields, the first column and the (rows, fields) block of the rest.
    Blank lines are skipped; a wrong header, a row whose length differs from
    the header's or a field that is not a number raise GridMismatch."""
    with _opened(file, "r") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != label:
            raise GridMismatch(f"file must start with a {label!r} header row")
        k = len(header) - 1
        t_list, rows = [], []
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != k + 1:
                raise GridMismatch(f"line {lineno} has {len(parts) - 1} values, "
                                   f"the header has {k}")
            try:
                t_list.append(float(parts[0]))
                rows.append([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise GridMismatch(f"line {lineno}: {exc}") from None
    return header[1:], np.array(t_list), np.array(rows).reshape(len(rows), k)
