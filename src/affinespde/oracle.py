"""Independent full-resolution SPDE solvers and comparison diagnostics.

Nothing here knows about realizations: the grid solver steps the original
equation with a theta scheme on the sampled state, the modal solver steps
every retained eigen-amplitude directly.  Verification drives both sides
with the same increments and compares the resulting paths, so agreement is
evidence that the reduced model reproduces the weak solution.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import csvio, levy, operators
from .errors import GridMismatch, LinearSolveFailure, frozen
from .grids import Grid1D, long_dot
from .operators import OperatorSpec


def _normalize_field(f, grid: Grid1D):
    """Drift/volatility input, a vector on the grid (or a (k, n) block of k
    rows) or a callable on vectors, checked against the grid."""
    if callable(f):
        return f
    arr = np.asarray(f, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != grid.n:
        raise GridMismatch(f"field of shape {arr.shape} on a {grid.n}-point grid")
    return arr


def _field_at(f, r: np.ndarray) -> np.ndarray:
    return f(r) if callable(f) else f


def _pinned_rows(stencil) -> np.ndarray:
    """The all-zero rows of a (lower, main, upper) stencil: the rows held
    at their initial values while stepping."""
    lower, main, upper = stencil
    live = main != 0.0
    live[1:] |= lower != 0.0
    live[:-1] |= upper != 0.0
    return np.flatnonzero(~live)


def _theta_halves(op: OperatorSpec, stencil, dt: float):
    """(explicit, implicit) halves of one theta step, both along the last
    axis: explicit(r, terms) returns (I + (1-theta) dt A) r plus each of
    terms in turn, implicit(rhs) solves (I - theta dt A) y = rhs into a new
    array.  Theta is the operator's: Crank-Nicolson (0.5) for the cable,
    backward Euler (1) for transport, whose explicit half is then r plus
    the terms: r itself, not a copy, when there are none."""
    implicit = operators.implicit_solver(stencil, op.theta * dt)
    if op.theta == 1.0:
        def explicit(r, terms):
            if not terms:
                return r
            out = r + terms[0]
            for t in terms[1:]:
                out += t
            return out

        return explicit, implicit
    lower, main, upper = ((1.0 - op.theta) * dt * d for d in stencil)
    main += 1.0

    def explicit(r, terms):
        out = main * r
        out[..., 1:] += lower * r[..., :-1]
        out[..., :-1] += upper * r[..., 1:]
        for t in terms:
            out += t
        return out

    return explicit, implicit


def spde_grid_rows(op: OperatorSpec, grid: Grid1D, alpha, sigma: Sequence,
                   h0, increments: levy.IncrementMatrix) -> Iterator[np.ndarray]:
    """Theta-scheme reference solution of dr = (A r + alpha(r)) dt
    + sum_k sigma^k(r) dX^k on the sampled grid, yielded one state per time:

        (I - theta dt A) r_{n+1}
            = (I + (1-theta) dt A) r_n + dt alpha(r_n) + sum_k sigma^k(r_n) dXk

    with theta = 0.5 for the cable and 1 for transport, and the
    Dirichlet/far-field rows re-pinned to the initial samples after every
    step.  Noise and drift enter at the left endpoint, matching the
    left-limit convention of the jump integral; a zero drift (None) adds
    no term.  A (k, n) initial block (with (k, n) or absent drift and
    volatility blocks) steps k independent states together, one row each,
    and each row takes the bits of its own single-state run.  Set-up checks
    and the factorization happen here, before the first row."""
    dt = increments.dt
    stencil = operators.operator_matrix(op, grid)
    pins = _pinned_rows(stencil)
    explicit, implicit = _theta_halves(op, stencil, dt)

    h0_vec = _normalize_field(h0, grid)
    if callable(h0_vec):
        raise GridMismatch("initial curve must be a vector, not a callable")
    alpha_f = None if alpha is None else _normalize_field(alpha, grid)
    sigma_f = [_normalize_field(s, grid) for s in sigma]
    if len(sigma_f) != increments.m:
        raise GridMismatch(f"{len(sigma_f)} volatility components vs "
                           f"{increments.m} driver columns")

    dt_alpha = (None if alpha_f is None or callable(alpha_f)
                else dt * alpha_f)

    def rows():
        r = h0_vec.copy()
        pin_vals = h0_vec[..., pins]
        yield r
        for dx in increments.values:
            terms = [] if alpha_f is None else [
                dt * alpha_f(r) if dt_alpha is None else dt_alpha]
            terms += [_field_at(s, r) * dx[k] for k, s in enumerate(sigma_f)]
            r = implicit(explicit(r, terms))
            r[..., pins] = pin_vals
            yield r

    return rows()


def solve_spde_modal(op: OperatorSpec, indices: Sequence, alpha, sigma: Sequence,
                     a0: np.ndarray, increments: levy.IncrementMatrix) -> np.ndarray:
    """Eigen-amplitude reference solution: every retained mode steps with the
    exact exponential flow for its linear part,

        a_{n+1,i} = e^{g_i dt} a_{n,i} + (e^{g_i dt} - 1)/g_i alpha_i
                    + sum_k sigma_{k,i} dXk_n,

    noise entering at the left endpoint.  alpha and sigma rows are amplitude
    vectors over the given indices.  Returns amplitudes (steps+1, len(indices))."""
    indices = [op.canonical_index(i) for i in indices]
    gvals = np.array([op.generator_eigenvalue(i) for i in indices])
    n_modes = len(indices)
    a0 = np.asarray(a0, dtype=float)
    if a0.shape != (n_modes,):
        raise GridMismatch(f"initial amplitudes shape {a0.shape} for {n_modes} modes")
    alpha_vec = np.zeros(n_modes) if alpha is None else np.asarray(alpha, dtype=float)
    if alpha_vec.shape != (n_modes,):
        raise GridMismatch(f"drift amplitudes shape {alpha_vec.shape} for {n_modes} modes")
    sig = np.zeros((increments.m, n_modes))
    for k, s in enumerate(sigma):
        sig[k] = np.asarray(s, dtype=float)
    dt = increments.dt
    grow = np.exp(gvals * dt)
    drift = np.where(np.abs(gvals) < 1e-14, dt * alpha_vec,
                     (grow - 1.0) / np.where(np.abs(gvals) < 1e-14, 1.0, gvals)
                     * alpha_vec)
    amps = np.zeros((increments.n_steps + 1, n_modes))
    a = a0.copy()
    amps[0] = a
    for n in range(increments.n_steps):
        a = grow * a + drift + increments.values[n] @ sig
        amps[n + 1] = a
    return amps


def modal_rows(op: OperatorSpec, indices: Sequence, amps: np.ndarray,
               grid: Grid1D) -> Iterator[np.ndarray]:
    """Amplitude rows mapped onto grid samples of the eigenfunctions, one
    time at a time."""
    phi = np.vstack([op.values(i, grid.points()) for i in indices])
    return (a @ phi for a in amps)


# ---------------------------------------------------------------------------
# comparison metrics


@frozen
class PathMetrics:
    """The distance between two paths: sup over time, that sup over the
    path scale, the per-time distances and the largest magnitude."""

    sup_error: float
    relative: float
    per_time: np.ndarray
    scale: float
    foliation: np.ndarray | None = None  # per-time leaf distance, if asked


def _path_metrics(per_time, mag_a, mag_b, fol) -> PathMetrics:
    """PathMetrics from per-time squared distances and squared magnitudes;
    a NaN anywhere reaches the sup error."""
    per_time = np.sqrt(np.maximum(np.array(per_time), 0.0))
    mag = np.sqrt(np.maximum(np.array(mag_a), 0.0))
    mag_b = np.sqrt(np.maximum(np.array(mag_b), 0.0))
    scale = max(float(mag.max(initial=0.0)), float(mag_b.max(initial=0.0)))
    sup = float(per_time.max(initial=0.0))
    return PathMetrics(sup, sup / max(scale, 1e-300), per_time, scale,
                       None if fol is None else np.array(fol))


# a block of reduced states in compare_coordinates holds at most
# BLOCK_VALUES float64 (256 KB, so it stays in cache while the reference
# rows stream past) and at most BLOCK_ROWS times
BLOCK_VALUES = 2 ** 15
BLOCK_ROWS = 256


def _square_norm(x: np.ndarray) -> float:
    return long_dot(x, x)


def compare_coordinates(reference: Iterable[np.ndarray],
                        parts: Sequence[tuple[Iterable[np.ndarray], np.ndarray]],
                        weights: np.ndarray,
                        sampled: Iterable[np.ndarray] | None = None,
                        leaf: bool = False) -> PathMetrics:
    """Sup over time of the weighted-L2 distance between a reference path,
    given one state at a time, and a reduced path given in coordinates,
    without building the reduced states one by one; its relative version
    (normalized by the larger path magnitude, hence symmetric) and the
    per-time series.  Each part is (coordinate stream, samples): the stream
    yields (k,) rows over the (k, n_x) sampled span.  The reduced state at
    t_n is the sum over parts of coords_n @ samples, plus the row sampled_n
    when sampled is given.  With leaf, the last part spans the leaf
    directions and .foliation records the distance of each reference state
    from its reduced state's leaf: the reduced state minus its last part,
    plus that part's span.

    Everything runs in sqrt(w)-scaled coordinates, where the weighted norm
    is the Euclidean one.  The parts are stacked once into S' = S sqrt(w)
    with G = S' S'^T.  For a block of K = BLOCK_VALUES // n_x times
    (at most BLOCK_ROWS) the coordinates fill Z (K, dim S), and one
    product R' = Z S' gives the K reduced states, plus sqrt(w) times the
    sampled rows.  Their squared magnitudes are the Gram forms z G z^T, or
    ||R'_j||^2 with a sampled term.  Each reference row o then takes four
    vector passes: o' = o sqrt(w), ||o'||^2, o' -= R'_j and ||o'||^2.  The
    leaf distance of a row is the norm of the part of o' - R'_j outside
    the last part's span, whose solve by its Gram block takes the block's
    K rows at once.  O(K n_x + n_t) memory is held."""
    S = np.vstack([np.asarray(s, dtype=float) for _c, s in parts])
    dim, n = S.shape
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise GridMismatch(f"weight vector shape {w.shape} for {n} spatial "
                           f"nodes")
    sw = np.sqrt(w)
    S *= sw
    gram = S @ S.T
    widths = [np.shape(s)[0] for _c, s in parts]
    offsets = np.cumsum([0, *widths])
    size = max(1, min(BLOCK_ROWS, BLOCK_VALUES // max(n, 1)))
    z = np.empty((size, dim))
    red = np.empty((size, n))
    # the scaled reference rows, then their differences: a block of them
    # for the leaf distances, else one row
    own = np.empty((size if leaf else 1, n))
    streams = [iter(c) for c, _s in parts]
    if sampled is not None:
        streams.append(iter(sampled))
    ref = iter(reference)
    per_time, mag_red, mag_ref, fol = [], [], [], []
    while True:
        blocks = [list(itertools.islice(it, size)) for it in streams]
        k = len(blocks[0])
        if any(len(b) != k for b in blocks):
            raise GridMismatch("coordinate streams of different lengths")
        if not k:
            break
        zk, rk = z[:k], red[:k]
        for lo, hi, rows in zip(offsets, offsets[1:], blocks):
            rows = np.asarray(rows, dtype=float)
            if rows.shape != (k, hi - lo):
                raise GridMismatch(f"coordinate rows of shape {rows.shape[1:]} "
                                   f"over {hi - lo} span rows")
            zk[:, lo:hi] = rows
        np.matmul(zk, S, out=rk)
        if sampled is None:
            mag_red.extend(np.einsum("ij,jk,ik->i", zk, gram, zk))
        else:
            for r, s in zip(rk, blocks[-1]):
                if np.shape(s) != (n,):
                    raise GridMismatch(f"sampled row of shape {np.shape(s)} "
                                       f"for {n} nodes")
                r += np.multiply(s, sw, out=own[0])
            mag_red.extend(np.einsum("ij,ij->i", rk, rk))
        for j, o in enumerate(itertools.islice(ref, k)):
            if np.shape(o) != (n,):
                raise GridMismatch(f"states of shape {np.shape(o)} vs ({n},)")
            o_s = np.multiply(o, sw, out=own[j if leaf else 0])
            mag_ref.append(_square_norm(o_s))
            o_s -= rk[j]
            per_time.append(_square_norm(o_s))
        if leaf:
            fol.extend(_outside_norms(own[:k], S[offsets[-2]:],
                                      gram[offsets[-2]:, offsets[-2]:]))
    if len(per_time) != len(mag_red) or next(ref, None) is not None:
        raise GridMismatch("reference and reduced paths of different lengths")
    return _path_metrics(per_time, mag_red, mag_ref, fol if leaf else None)


def reference_blocks(rows: Iterator[np.ndarray], n_rows: int, size: int):
    """(fill, shapes) for `forked.ahead`: n_rows reference rows of size
    values each, in blocks of BLOCK_VALUES values (at least one row),
    fill(b, out) copying the next rows of the stream into block b.  A row
    of another shape, or a stream of another length, raises GridMismatch,
    as compare_coordinates does."""
    per = max(1, BLOCK_VALUES // size)
    shapes = [(min(per, n_rows - i), size) for i in range(0, n_rows, per)]

    def fill(b, out):
        got = 0
        for got, row in enumerate(itertools.islice(rows, len(out)), 1):
            if np.shape(row) != (size,):
                raise GridMismatch(f"states of shape {np.shape(row)} vs "
                                   f"({size},)")
            out[got - 1] = row
        if got < len(out) or (b == len(shapes) - 1
                              and next(rows, None) is not None):
            raise GridMismatch("reference and reduced paths of different "
                               "lengths")

    return fill, shapes


def _outside_norms(x: np.ndarray, span: np.ndarray,
                   gram: np.ndarray) -> np.ndarray:
    """Norms of the rows of x minus their orthogonal projections onto the
    rows of span (Gram matrix gram), all rows through one solve; x is
    overwritten."""
    if len(span):
        try:
            coef = np.linalg.solve(gram, span @ x.T)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(f"gram solve failed: {exc}") from exc
        x -= coef.T @ span
    return np.sqrt(np.maximum(np.einsum("ij,ij->i", x, x), 0.0))


# ---------------------------------------------------------------------------
# path CSV formats


def write_grid_path(rows: Iterable[np.ndarray], file, t_grid: np.ndarray,
                    x_grid: np.ndarray) -> None:
    """First row carries the spatial axis x_grid, each later row
    `t,value_1..` for one state of rows, written as it is produced."""
    csvio.write_rows(file, "x" + csvio.comma_fields(x_grid), t_grid, rows)


@frozen
class GridPath:
    """Sampled path: values[n] are the state samples at t_grid[n] over the
    axis labels in x_grid (grid points, mode ordinals, or profile x ray
    flattened positions)."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray


def read_grid_path(file) -> GridPath:
    axis, t_grid, values = csvio.read_rows(file, "x")
    try:
        x_grid = np.array([float(v) for v in axis])
    except ValueError as exc:
        raise GridMismatch(f"x row: {exc}") from None
    return GridPath(t_grid, x_grid, values)


def write_coordinate_csv(t_grid: np.ndarray, coords: np.ndarray, file) -> None:
    header = ",".join(["t"] + [f"Y_{i + 1}" for i in range(coords.shape[1])])
    csvio.write_rows(file, header, t_grid, coords)


def read_coordinate_csv(file) -> tuple[np.ndarray, np.ndarray]:
    return csvio.read_rows(file, "t")[1:]
