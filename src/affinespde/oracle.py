"""Independent full-resolution SPDE solvers and comparison diagnostics.

Nothing here knows about realizations: the grid solver steps the original
equation with a theta scheme on the sampled state, the modal solver steps
every retained eigen-amplitude directly.  Verification drives both sides
with the same increments and compares the resulting paths, so agreement is
evidence that the reduced model reproduces the weak solution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import csvio, funalg, levy, operators
from .errors import GridMismatch, LinearSolveFailure
from .funalg import QExpFunction
from .grids import Grid1D
from .operators import OperatorSpec
from .realization import GridPath, Subspace, space_norm


def _normalize_field(f, grid: Grid1D):
    """Drift/volatility input -> vector on the grid (or (n, k) block of k
    columns) or callable on vectors."""
    if f is None:
        return np.zeros(grid.n)
    if isinstance(f, QExpFunction):
        return funalg.evaluate(f, grid.points())
    if callable(f):
        return f
    arr = np.asarray(f, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[0] != grid.n:
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
    """(explicit, implicit) halves of one theta step: explicit(r, b) returns
    a new array (I + (1-theta) dt A) r + b, implicit(rhs) solves
    (I - theta dt A) y = rhs.  Theta follows the operator: Crank-Nicolson
    (0.5) for the cable, backward Euler (1) for transport, whose explicit
    half is then r + b."""
    if not isinstance(op, operators.Cable):
        return np.add, operators.implicit_solver(stencil, dt)
    lower, main, upper = (0.5 * dt * d for d in stencil)
    main += 1.0

    def explicit(r, b):
        out = main * r
        out[1:] += lower * r[:-1]
        out[:-1] += upper * r[1:]
        out += b
        return out

    return explicit, operators.implicit_solver(stencil, 0.5 * dt)


def spde_grid_rows(op: OperatorSpec, grid: Grid1D, alpha, sigma: Sequence,
                   h0, increments: levy.IncrementMatrix) -> Iterator[np.ndarray]:
    """Theta-scheme reference solution of dr = (A r + alpha(r)) dt
    + sum_k sigma^k(r) dX^k on the sampled grid, yielded one state per time:

        (I - theta dt A) r_{n+1}
            = (I + (1-theta) dt A) r_n + dt alpha(r_n) + sum_k sigma^k(r_n) dXk

    with theta = 0.5 for the cable and 1 for transport, and the
    Dirichlet/far-field rows re-pinned to the initial samples after every
    step.  Noise and drift enter at the left endpoint, matching the
    left-limit convention of the jump integral.  An (n, k) initial block
    (with (n, k) or absent drift and volatility blocks) steps k independent
    states together, one multi-column solve per step.  Set-up checks and
    the factorization happen here, before the first row."""
    dt = increments.dt
    stencil = operators.operator_matrix(op, grid)
    pins = _pinned_rows(stencil)
    explicit, implicit = _theta_halves(op, stencil, dt)

    h0_vec = _normalize_field(h0, grid)
    if callable(h0_vec):
        raise GridMismatch("initial curve must be a function or vector")
    alpha_f = (np.zeros(h0_vec.shape) if alpha is None
               else _normalize_field(alpha, grid))
    sigma_f = [_normalize_field(s, grid) for s in sigma]
    if len(sigma_f) != increments.m:
        raise GridMismatch(f"{len(sigma_f)} volatility components vs "
                           f"{increments.m} driver columns")

    dt_alpha = None if callable(alpha_f) else dt * alpha_f

    def rows():
        r = h0_vec.copy()
        pin_vals = h0_vec[pins]
        yield r
        for n in range(increments.n_steps):
            rhs = explicit(r, dt * alpha_f(r) if dt_alpha is None
                           else dt_alpha)
            for k, s in enumerate(sigma_f):
                rhs += _field_at(s, r) * increments.values[n, k]
            r = implicit(rhs)
            r[pins] = pin_vals
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
    indices = [operators._canonical_index(op, i) for i in indices]
    gvals = np.array([operators.generator_eigenvalue(op, i) for i in indices])
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
    phi = np.vstack([funalg.evaluate(operators.eigenfunction_qexp(op, i),
                                     grid.points()) for i in indices])
    return (a @ phi for a in amps)


# ---------------------------------------------------------------------------
# comparison metrics


@dataclass(frozen=True)
class PathMetrics:
    sup_error: float
    relative: float
    per_time: np.ndarray
    scale: float
    foliation: np.ndarray | None = None  # per-time leaf distance, if asked


def _leaf_distance(V: Subspace, state: np.ndarray, base: np.ndarray) -> float:
    """Distance of state from the affine leaf base + V: the norm of the
    component of state - base orthogonal to V in the working product."""
    return space_norm(V.space, V.complement_residual(state - base))


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


def compare_streams(steps: Iterable[tuple], weights: np.ndarray | None = None,
                    leaf: Subspace | None = None) -> PathMetrics:
    """Sup over time of the weighted-L2 spatial distance of two paths given
    one time at a time, its relative version (normalized by the larger path
    magnitude, hence symmetric), and the full per-time series.  steps yields
    (a_n, b_n) pairs, or (a_n, b_n, base_n) triples when leaf is given, and
    then the per-time distance of b_n from the leaf base_n + leaf is
    recorded as .foliation.  Only O(n_x + n_t) memory is held."""
    w = None if weights is None else np.asarray(weights, dtype=float)
    buf = None  # every step's products go through this one array
    per_time, mag_a, mag_b, fol = [], [], [], []
    for step in steps:
        a, b = step[0], step[1]
        if a.shape != b.shape:
            raise GridMismatch(f"states of shape {a.shape} vs {b.shape}")
        if w is None:
            w = np.ones(a.shape[0])
        if w.shape != a.shape:
            raise GridMismatch(f"weight vector shape {w.shape} for "
                               f"{a.shape[0]} spatial nodes")
        if buf is None:
            buf = np.empty(w.shape)
        np.subtract(a, b, out=buf)
        np.multiply(buf, buf, out=buf)
        per_time.append(np.multiply(buf, w, out=buf).sum())
        for x, sink in ((a, mag_a), (b, mag_b)):
            np.multiply(x, x, out=buf)
            sink.append(np.multiply(buf, w, out=buf).sum())
        if leaf is not None:
            fol.append(_leaf_distance(leaf, b, step[2]))
    return _path_metrics(per_time, mag_a, mag_b,
                         fol if leaf is not None else None)


# a block of reduced states in compare_coordinates holds at most
# BLOCK_VALUES float64 (256 KB, so it stays in cache while the reference
# rows stream past) and at most BLOCK_ROWS times
BLOCK_VALUES = 2 ** 15
BLOCK_ROWS = 256
# OpenBLAS spreads a dot product of more than 10000 values over its
# threads, whose hand-off costs more than the product at these sizes (three
# times the time at n_x = 10002 on two cores): longer vectors are dotted in
# pieces of at most DOT_PIECE values
DOT_PIECE = 8192


def _square_norm(x: np.ndarray) -> float:
    if len(x) <= DOT_PIECE:
        return np.dot(x, x)
    return sum(np.dot(x[i:i + DOT_PIECE], x[i:i + DOT_PIECE])
               for i in range(0, len(x), DOT_PIECE))


def compare_coordinates(reference: Iterable[np.ndarray],
                        parts: Sequence[tuple[Iterable[np.ndarray], np.ndarray]],
                        weights: np.ndarray | None = None,
                        sampled: Iterable[np.ndarray] | None = None,
                        leaf: bool = False) -> PathMetrics:
    """compare_streams of a reference path against a reduced path given in
    coordinates, without building the reduced states one by one.  Each part
    is (coordinate stream, samples): the stream yields (k,) rows over the
    (k, n_x) sampled span.  The reduced state at t_n is the sum over parts
    of coords_n @ samples, plus the row sampled_n when sampled is given;
    the metrics are those of compare_streams(zip(reduced, reference)), up
    to rounding.  With leaf, the last part spans the leaf directions and
    .foliation records the distance of each reference state from its
    reduced state's leaf: the reduced state minus its last part, plus that
    part's span.

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
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
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


def read_grid_path(file, seed: int = 0) -> GridPath:
    axis, t_grid, values = csvio.read_rows(file, "x")
    try:
        x_grid = np.array([float(v) for v in axis])
    except ValueError as exc:
        raise GridMismatch(f"x row: {exc}") from None
    return GridPath(t_grid, x_grid, values, seed)


def write_coordinate_csv(t_grid: np.ndarray, coords: np.ndarray, file) -> None:
    header = ",".join(["t"] + [f"Y_{i + 1}" for i in range(coords.shape[1])])
    csvio.write_rows(file, header, t_grid, coords)


def read_coordinate_csv(file) -> tuple[np.ndarray, np.ndarray]:
    return csvio.read_rows(file, "t")[1:]
