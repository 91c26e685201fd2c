"""The numeric CSV tables of the path artifacts: a header line, then one
`t,v_1,..,v_k` row per time.  Every number is written exactly as CPython's
`'%.17g' % v`, which round-trips every float64 and gives stable bytes.

The bytes come from a numpy kernel, `_encode`, that formats a block of
rows at once.  It scales each |v| by a power of ten so that its 17
significant digits are the integer N = round-half-even(|v| 10^(16-k)),
with k the decimal exponent.  The product is exact (Dekker's two-product)
for the exact powers 10^0..10^22 and good to about 2^-106 with a
double-double power otherwise, so N is correctly rounded whenever the
product is not within 1e-6 of a tie.  The digits of N, split off by
integer division, are then laid out as `%g` does in a fixed-width byte
grid whose unused cells are NUL and dropped.  Non-finite values, |v|
outside (1e-280, 1e280) and the rare near-ties of an inexact power are
formatted one at a time by `%`.

Rows are written in blocks of at most _BLOCK values (at least one row), so
writing a stream of rows holds one block in memory however long the
table."""

from __future__ import annotations

import contextlib
import functools
import os

import numpy as np

from .errors import GridMismatch

_BLOCK = 4096  # values formatted per call of _encode (at least one row)
_TINY, _HUGE = 1e-280, 1e280  # |v| outside these goes to per-value `%`
_S_MIN, _S_MAX = -270, 300  # range of the scale exponent s = 16 - k
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_TIE_GUARD = 1e-6  # an inexact product this near a tie goes to `%`
_E16, _E17 = 10 ** 16, 10 ** 17
_WIDTH = 29  # grid cells per value: sign, 22 mantissa, 5 exponent, separator
_COLS = np.arange(22, dtype=np.int8)[:, None]  # the 22 mantissa places
_PLACES = np.arange(1, 18, dtype=np.int8)[:, None]  # 1-based digit places


def _split(v):
    """Dekker's split of v into high and low halves of 26 bits each."""
    t = _SPLIT * v
    high = t - (t - v)
    return high, v - high


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """10^s for s in [_S_MIN, _S_MAX] (index s - _S_MIN) as hi + lo, hi the
    correctly rounded double and lo the rounded remainder (0 for the exact
    powers 10^0..10^22), together with the split halves of hi."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            h = float(10 ** s)
            hi.append(h)
            lo.append(float(10 ** s - int(h)))
        else:  # int / int is correctly rounded; remainder 1/m - num/den
            m = 10 ** -s
            h = 1 / m
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * m) / (den * m))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, ...]:
    """For 1e-280 < a < 1e280 and y = a 10^(16-k): round-half-even(y) as
    int64, whether y < 10^16, and whether an inexact power left y within
    _TIE_GUARD of a tie.  y = prod + err, prod = fl(y); the rounding is
    right once y >= 10^16 - 1/2, where prod is an even integer."""
    i = 16 - k - _S_MIN
    hi, hi_h, hi_l, lo = _powers()
    prod = a * hi[i]
    a_h, a_l = _split(a)
    err = a_h * hi_h[i]  # ((a_h hi_h - prod) + a_h hi_l + a_l hi_h) + a_l hi_l
    err -= prod
    err += a_h * hi_l[i]
    err += a_l * hi_h[i]
    err += a_l * hi_l[i]
    lo = lo[i]
    err += a * lo
    step = np.rint(err)
    n = prod.astype(np.int64)
    n += step.astype(np.int64)
    below = (prod < 1e16) | ((prod == 1e16) & (err < 0.0))
    near = (np.abs(np.abs(err - step) - 0.5) < _TIE_GUARD) & (lo != 0.0)
    return n, below, near


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, k, near): |v| = N 10^(k-16) to 17 significant digits, N in
    [10^16, 10^17), and the near-tie flags of `_scaled`."""
    k = np.floor(np.log10(a)).astype(np.int64)
    n, below, near = _scaled(a, k)
    # log10 a decade off.  A y just below 10^16 still rounds to 10^16, and
    # one that rounds to 10^17 is a carry, so both are told apart from y
    off = below.astype(np.int64) - (n > _E17)
    redo = np.flatnonzero(off)
    if redo.size:
        k[redo] -= off[redo]
        n[redo], _below, near[redo] = _scaled(a[redo], k[redo])
    carry = n == _E17
    n[carry] = _E16
    k += carry
    return n, k, near


def _halves(v: np.ndarray, unit: int, dtype) -> np.ndarray:
    """v // unit and v % unit as dtype, stacked on a new axis before the
    last.  Numpy divides fast by a scalar with // (not with % or divmod)."""
    out = np.empty(v.shape[:-1] + (2,) + v.shape[-1:], dtype)
    high = v // unit
    out[..., 0, :] = high
    out[..., 1, :] = v - high * unit
    return out


def _spelled(n: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """The (23, size) ASCII table NUL, "0000", the 17 digits of each n, NUL:
    one column per value, so every numpy loop runs along the values.  A
    zero (formatted as 1) gets the digit 0."""
    digits = np.empty((23, n.size), np.uint8)
    digits[0] = digits[22] = 0
    digits[1:5] = ord("0")
    lead = n // 10 ** 16
    digits[5] = lead + ord("0")
    eight = _halves(n - lead * 10 ** 16, 10 ** 8, np.int32)
    two = _halves(_halves(eight, 10 ** 4, np.int16), 100, np.int8)
    digits[6:22] = _halves(two, 10, np.uint8).reshape(16, -1) + ord("0")
    digits[5, zero] = ord("0")
    return digits


def _grid(x: np.ndarray, k: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """The (_WIDTH, size) byte grid of `%.17g` of x from its exponents and
    spelled digits: sign, 22 mantissa cells and 5 exponent cells, unused
    cells NUL; the last (separator) row is left NUL."""
    # `%.17g` is fixed notation for -4 <= k < 17.  Over the places
    # "0000" + digits, the point follows place pa (4 + k, or 4 in
    # e-notation) and places min(pa, 4)..end are shown, end being pa or
    # the last significant digit; each column after the point shows the
    # place before it.  A zero has no significant digit; pa = 4 shows one.
    fixed = (k >= -4) & (k < 17)
    pa = np.where(fixed, 4 + k, 4).astype(np.int8)
    nd = (_PLACES * (digits[5:22] != ord("0"))).max(axis=0)  # significant
    end = np.maximum(pa, 3 + nd)
    point = np.where(end > pa, pa + 1, 99).astype(np.int8)  # 99: none
    grid = np.zeros((_WIDTH, x.size), np.uint8)
    grid[0] = np.signbit(x) * np.uint8(ord("-"))
    mantissa = grid[1:23]
    shown = _COLS >= np.minimum(pa, 4)
    shown &= _COLS <= pa
    np.multiply(digits[1:23], shown, out=mantissa)
    np.greater(_COLS, point, out=shown)
    shown &= _COLS <= end + 1
    mantissa += digits[0:22] * shown
    np.equal(_COLS, point, out=shown)
    mantissa += shown * np.uint8(ord("."))
    sci = np.flatnonzero(~fixed)
    if sci.size:
        e = np.abs(k[sci])
        grid[23, sci] = ord("e")
        grid[24, sci] = np.where(k[sci] < 0, ord("-"), ord("+"))
        grid[25, sci] = np.where(e >= 100, e // 100 + ord("0"), 0)
        grid[26, sci] = e // 10 % 10 + ord("0")
        grid[27, sci] = e % 10 + ord("0")
    return grid


def _encode(block: np.ndarray) -> bytes:
    """`'%.17g' % v` of every value of the 2-D float block, joined by ','
    within a row and ended by '\\n' after each row."""
    x = block.ravel()
    a = np.abs(x)
    special = ~((a > _TINY) & (a < _HUGE))  # 0, subnormal, huge, inf, nan
    zero = x == 0.0
    a[special] = 1.0
    n, k, near = _digits(a)
    grid = _grid(x, k, _spelled(n, zero))
    for i in np.flatnonzero((special & ~zero) | near):
        text = b"%.17g" % x[i]
        grid[:-1, i] = 0
        grid[:len(text), i] = np.frombuffer(text, np.uint8)
    sep = grid[-1].reshape(block.shape)
    sep[:, :-1] = ord(",")
    sep[:, -1] = ord("\n")
    return grid.T.tobytes().translate(None, b"\0")


def comma_fields(values) -> str:
    """`,v_1,..,v_k` for the 1-D values, each as `%.17g` ('' when empty)."""
    values = np.asarray(values, dtype=float).reshape(1, -1)
    return "," + _encode(values)[:-1].decode() if values.size else ""


@contextlib.contextmanager
def _opened(file):
    """`file` itself if it is an open text file, else the path opened."""
    if isinstance(file, (str, os.PathLike)):
        with open(file) as fh:
            yield fh
    else:
        yield file


@contextlib.contextmanager
def _writer(file):
    """A function writing bytes to `file`: the path opened in binary mode,
    or an open text file, which is given the decoded ASCII."""
    if isinstance(file, (str, os.PathLike)):
        with open(file, "wb") as fh:
            yield fh.write
    else:
        yield lambda data: file.write(data.decode("ascii"))


def write_rows(file, header: str, t_grid, rows) -> None:
    """Write `header`, then `t_grid[n],rows[n][0],..` for each row n.  rows is
    any iterable of 1-D rows (a 2-D array, or a generator formatted as it
    yields), one per time of t_grid and each with one value per field of
    the header after its label; anything else raises GridMismatch."""
    n_t, width = len(t_grid), header.count(",")
    if hasattr(rows, "__len__") and len(rows) != n_t:
        raise GridMismatch(f"{len(rows)} rows for {n_t} times")
    block = np.empty((max(1, _BLOCK // (width + 1)), width + 1))
    with _writer(file) as write:
        write(header.encode("ascii") + b"\n")
        filled = n = 0
        for n, row in enumerate(rows, start=1):
            row = np.asarray(row)
            if n > n_t:
                raise GridMismatch(f"more rows than the {n_t} times")
            if row.shape != (width,):
                raise GridMismatch(f"row {n} has shape {row.shape}, the "
                                   f"header {width} fields")
            block[filled, 0] = t_grid[n - 1]
            block[filled, 1:] = row
            filled += 1
            if filled == len(block):
                write(_encode(block))
                filled = 0
        if filled:
            write(_encode(block[:filled]))
    if n != n_t:
        raise GridMismatch(f"{n} rows for {n_t} times")


def read_rows(file, label: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse a `write_rows` table whose header starts with `label`: the other
    header fields, the first column and the (rows, fields) block of the rest.
    Blank lines are skipped; a wrong header, a row whose length differs from
    the header's or a field that is not a number raise GridMismatch."""
    with _opened(file) as fh:
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
