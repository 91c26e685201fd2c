"""Independent full-resolution SPDE solvers and comparison diagnostics.

Nothing here knows about realizations: the grid solver steps the original
equation with a theta scheme on the sampled state, the modal solver steps
every retained eigen-amplitude directly.  Verification drives both sides
with the same increments and compares the resulting paths, so agreement is
evidence that the reduced model reproduces the weak solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import csvio, funalg, levy, operators
from .errors import GridMismatch, LinearSolveFailure, UnstableConfig
from .funalg import QExpFunction
from .grids import Grid1D
from .operators import OperatorSpec
from .realization import Curve, GridPath, Subspace, space_norm


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


def pinned_nodes(op: OperatorSpec, grid: Grid1D) -> tuple[int, ...]:
    """Grid rows held at their initial values: Dirichlet ends for the
    second-order operators, the far-field end for transport."""
    if isinstance(op, (operators.Cable, operators.TermStructure2)):
        return (0, grid.n - 1)
    if isinstance(op, (operators.Translation, operators.Transport)):
        return (grid.n - 1,)
    raise UnstableConfig(f"no grid stepping for {type(op).__name__}; "
                         f"use the modal solver")


def _default_theta(op: OperatorSpec) -> float:
    if isinstance(op, (operators.Cable, operators.TermStructure2)):
        return 0.5
    return 1.0


def _check_stability(op: OperatorSpec, grid: Grid1D, dt: float, theta: float):
    if isinstance(op, operators.TermStructure2):
        # eigenvalues grow to +infinity: forward stepping amplifies every
        # resolved high mode regardless of theta
        raise UnstableConfig(
            "term-structure generator has unbounded growing spectrum; grid "
            "stepping is ill-posed, use the modal solver")
    if isinstance(op, operators.Cable):
        if theta < 0.5:
            nu = op.lambda_c ** 2 * dt / (op.tau * grid.dx ** 2)
            if 2.0 * (1.0 - 2.0 * theta) * nu > 1.0:
                raise UnstableConfig(
                    f"theta = {theta} needs lambda_c^2 dt / (tau dx^2) <= "
                    f"{0.5 / (1 - 2 * theta):.3g}, got {nu:.3g}")
    elif isinstance(op, (operators.Translation, operators.Transport)):
        if theta < 0.5 and (1.0 - 2.0 * theta) * dt / grid.dx > 1.0:
            raise UnstableConfig(
                f"upwind theta scheme with theta = {theta} violates the "
                f"step bound dt <= dx / {1 - 2 * theta:.3g}")


def spde_grid_rows(op: OperatorSpec, grid: Grid1D, alpha, sigma: Sequence,
                   h0, increments: levy.IncrementMatrix,
                   theta: float | None = None) -> Iterator[np.ndarray]:
    """Theta-scheme reference solution of dr = (A r + alpha(r)) dt
    + sum_k sigma^k(r) dX^k on the sampled grid, yielded one state per time:

        (I - theta dt A) r_{n+1}
            = (I + (1-theta) dt A) r_n + dt alpha(r_n) + sum_k sigma^k(r_n) dXk

    with Dirichlet/far-field rows re-pinned to the initial samples after
    every step.  Noise and drift enter at the left endpoint, matching the
    left-limit convention of the jump integral.  An (n, k) initial block
    (with (n, k) or absent drift and volatility blocks) steps k independent
    states through one factorization, one multi-column solve per step.
    Set-up checks and the factorization happen here, before the first row."""
    if theta is None:
        theta = _default_theta(op)
    if not 0.0 <= theta <= 1.0:
        raise UnstableConfig(f"theta must sit in [0, 1], got {theta}")
    dt = increments.dt
    _check_stability(op, grid, dt, theta)
    pins = pinned_nodes(op, grid)

    h0_vec = _normalize_field(h0, grid)
    if callable(h0_vec):
        raise GridMismatch("initial curve must be a function or vector")
    alpha_f = (np.zeros(h0_vec.shape) if alpha is None
               else _normalize_field(alpha, grid))
    sigma_f = [_normalize_field(s, grid) for s in sigma]
    if len(sigma_f) != increments.m:
        raise GridMismatch(f"{len(sigma_f)} volatility components vs "
                           f"{increments.m} driver columns")

    a_mat = operators.operator_matrix(op, grid, boundary="pinned").tocsc()
    eye = scipy.sparse.identity(grid.n, format="csc")
    rhs_mat = (eye + (1.0 - theta) * dt * a_mat).tocsr()
    solver = None
    if theta > 0.0:
        try:
            solver = scipy.sparse.linalg.splu(eye - theta * dt * a_mat)
        except RuntimeError as exc:
            raise LinearSolveFailure(f"theta-scheme factorization failed: {exc}") from exc
    pins_arr = np.array(pins, dtype=int)

    def rows():
        r = h0_vec.copy()
        pin_vals = h0_vec[pins_arr]
        yield r
        for n in range(increments.n_steps):
            rhs = rhs_mat @ r + dt * _field_at(alpha_f, r)
            for k, s in enumerate(sigma_f):
                rhs = rhs + _field_at(s, r) * increments.values[n, k]
            r = solver.solve(rhs) if solver is not None else rhs
            r[pins_arr] = pin_vals
            yield r

    return rows()


def solve_spde_grid(op: OperatorSpec, grid: Grid1D, alpha, sigma: Sequence,
                    h0, increments: levy.IncrementMatrix,
                    theta: float | None = None) -> GridPath:
    """The rows of spde_grid_rows, collected into one path."""
    rows = spde_grid_rows(op, grid, alpha, sigma, h0, increments, theta)
    values = np.zeros((increments.n_steps + 1, grid.n))
    for n, r in enumerate(rows):
        values[n] = r
    t_grid = np.arange(increments.n_steps + 1) * increments.dt
    return GridPath(t_grid, grid.points(), values, increments.seed)


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


def modal_path_to_grid(op: OperatorSpec, indices: Sequence, amps: np.ndarray,
                       dt: float, grid: Grid1D, seed: int = 0) -> GridPath:
    """The rows of modal_rows, collected into one path."""
    values = np.zeros((amps.shape[0], grid.n))
    for n, row in enumerate(modal_rows(op, indices, amps, grid)):
        values[n] = row
    t_grid = np.arange(amps.shape[0]) * dt
    return GridPath(t_grid, grid.points(), values, seed)


# ---------------------------------------------------------------------------
# comparison metrics


@dataclass(frozen=True)
class PathMetrics:
    sup_error: float
    relative: float
    per_time: np.ndarray
    scale: float
    foliation: np.ndarray | None = None  # per-time leaf distance, if asked


def _check_same_grids(a: GridPath, b: GridPath):
    if a.values.shape != b.values.shape:
        raise GridMismatch(f"paths of shape {a.values.shape} vs {b.values.shape}")
    if not np.allclose(a.t_grid, b.t_grid, rtol=1e-9, atol=1e-12):
        raise GridMismatch("paths sampled on different time grids")
    if not np.allclose(a.x_grid, b.x_grid, rtol=1e-9, atol=1e-12):
        raise GridMismatch("paths sampled on different spatial grids")


def _leaf_distance(V: Subspace, state: np.ndarray, base: np.ndarray) -> float:
    """Distance of state from the affine leaf base + V: the norm of the
    component of state - base orthogonal to V in the working product."""
    return space_norm(V.space, V.complement_residual(state - base))


def compare_streams(steps: Iterable[tuple], weights: np.ndarray | None = None,
                    leaf: Subspace | None = None) -> PathMetrics:
    """compare_paths over two paths given one time at a time: steps yields
    (a_n, b_n) pairs, or (a_n, b_n, base_n) triples when leaf is given, and
    then the per-time distance of b_n from the leaf base_n + leaf is
    recorded as .foliation.  Only O(n_x + n_t) memory is held."""
    w = None if weights is None else np.asarray(weights, dtype=float)
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
        diff = a - b
        per_time.append((diff * diff * w).sum())
        mag_a.append((a ** 2 * w).sum())
        mag_b.append((b ** 2 * w).sum())
        if leaf is not None:
            fol.append(_leaf_distance(leaf, b, step[2]))
    per_time = np.sqrt(np.maximum(np.array(per_time), 0.0))
    mag = np.sqrt(np.maximum(np.array(mag_a), 0.0))
    mag_b = np.sqrt(np.maximum(np.array(mag_b), 0.0))
    scale = max(float(mag.max(initial=0.0)), float(mag_b.max(initial=0.0)))
    sup = float(per_time.max(initial=0.0))
    return PathMetrics(sup, sup / max(scale, 1e-300), per_time, scale,
                       np.array(fol) if leaf is not None else None)


def compare_paths(a: GridPath, b: GridPath,
                  weights: np.ndarray | None = None) -> PathMetrics:
    """Sup over time of the weighted-L2 spatial distance, its relative
    version (normalized by the larger path magnitude, hence symmetric), and
    the full per-time series."""
    _check_same_grids(a, b)
    return compare_streams(zip(a.values, b.values), weights)


def foliation_distance(path: GridPath, psi: Curve, V: Subspace) -> np.ndarray:
    """Per-time distance of the path from the moving affine leaf: the
    component of path(t) - psi(t) orthogonal to V in the working product."""
    if path.values.shape != psi.values.shape:
        raise GridMismatch(f"path shape {path.values.shape} vs curve "
                           f"shape {psi.values.shape}")
    if not np.allclose(path.t_grid, psi.t_grid, rtol=1e-9, atol=1e-12):
        raise GridMismatch("path and curve time grids differ")
    out = np.zeros(len(path.t_grid))
    for n, (state, base) in enumerate(zip(path.values, psi.values)):
        out[n] = _leaf_distance(V, state, base)
    return out


def tangency_residual(op: OperatorSpec, alpha, psi: Curve, V: Subspace,
                      t_samples: Sequence[int], h_samples: Sequence[np.ndarray],
                      grid: Grid1D | None = None) -> float:
    """Max over sampled interior times and states of the component of
    A h + alpha(h) - dpsi/dt orthogonal to V: the leaf-tangency defect of the
    drift field.  Time derivative by central differences, A by the natural
    grid stencil (volatility plays no role here)."""
    from .realization import GridSpace
    if grid is None:
        if not isinstance(V.space, GridSpace):
            raise GridMismatch("tangency residual needs a grid space")
        grid = V.space.grid
    dt = float(psi.t_grid[1] - psi.t_grid[0])
    alpha_f = _normalize_field(alpha, grid)
    worst = 0.0
    for ti in t_samples:
        ti = int(ti)
        if not 0 < ti < len(psi.t_grid) - 1:
            raise GridMismatch(f"time index {ti} not interior")
        dpsi = (psi.values[ti + 1] - psi.values[ti - 1]) / (2.0 * dt)
        for h in h_samples:
            h = np.asarray(h, dtype=float)
            vec = operators.apply_grid(op, h, grid) + _field_at(alpha_f, h) - dpsi
            resid = V.complement_residual(vec)
            worst = max(worst, space_norm(V.space, resid))
    return worst


# ---------------------------------------------------------------------------
# path CSV formats


def write_grid_path(path: GridPath, file) -> None:
    """First row carries the spatial axis, each later row `t,value_1..`."""
    header = ("x" + ",%.17g" * len(path.x_grid)) % tuple(path.x_grid.tolist())
    csvio.write_rows(file, header, path.t_grid, path.values)


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
