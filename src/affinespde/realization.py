"""Affine realizations: detection, construction, curve and coordinate solvers.

The state r of the equation dr = (A r + alpha(r)) dt + sigma(r_-) dX is
represented either on a weighted 1-D grid, on a finite eigenbasis, or on a
profile x ray product space for the wedge transport.  A realization splits r
as psi(t) + sum_i Y_i(t) v_i where psi solves the deterministic PDE

    dpsi/dt = A psi + P_U alpha,    psi(0) = u0,

u0 + v0 is the splitting of the initial curve by the complement U of V
under the working inner product, and Y solves the d-dimensional SDE with
drift matrix B (A restricted to V) plus the V-components of alpha and sigma.
The drift alpha is a constant element of the state space (None for zero),
split once into its V-coordinates and its complement part.

Checks implemented before a realization is built:

  1. V is invariant under A (images stay in the span, checked at coefficient
     level);
  2. the complement projection of the drift is constant along h + V, which
     a constant drift satisfies by construction;
  3. every volatility component has range inside V.

All three are necessary and sufficient for the affine structure when V is
finite dimensional and the complement projection of A vanishes on V, which
clause 1 guarantees.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import forked, funalg, levy, operators
from .errors import (
    ConfigError,
    DomainError,
    GridMismatch,
    LinearSolveFailure,
    MethodUnsupported,
    NotInvariant,
    SigmaEscapesV,
    TruncationTailTooLarge,
    UnstableConfig,
    frozen,
)
from .funalg import QExpFunction, SpanBasis
from .grids import Grid1D, trapezoid_weights
from .operators import EigenExpansion, OperatorSpec, RayBundle

DIM_CAP = 50
TOL_PROJECT = 1e-10
# the tail that projecting sampled data onto the modes may drop, relative to
# the curve norm
TRUNCATION_BOUND = 1e-6


# ---------------------------------------------------------------------------
# state space descriptors: everything reduces to weighted vectors.  Each kind
# answers its scenario name, the field form it samples, verify's reference
# solver on it and the grid space its state lies along (None when modal)


@frozen
class GridSpace:
    """Weighted-L2 truncated grid: <f, g> = sum_i trap_i w(x_i) f_i g_i."""

    grid: Grid1D
    weight: QExpFunction | None = None
    kind, form, oracle = "grid", "qexp", "grid"
    grid_axis = property(lambda self: self)

    def refined(self, factor: int) -> GridSpace:
        """(n - 1) * factor + 1 points on the same interval and weight."""
        g = self.grid
        return GridSpace(Grid1D.from_interval(g.x0, g.x_max, (g.n - 1) * factor + 1),
                         self.weight)

    def axis(self) -> np.ndarray:
        return self.grid.points()

    @property
    def size(self) -> int:
        return self.grid.n

    def weights(self) -> np.ndarray:
        """The quadrature weights, read-only and computed once per space."""
        return self._weights

    @functools.cached_property
    def _weights(self) -> np.ndarray:
        w = trapezoid_weights(self.grid.n, self.grid.dx)
        if self.weight is not None:
            with np.errstate(over="ignore"):  # refused just below
                wv = funalg.evaluate(self.weight, self.grid.points())
            if not np.all((wv > 0) & (wv < np.inf)):  # nan fails both
                raise ConfigError("inner product weight must be finite and "
                                  "positive on the grid")
            w = w * wv
        w.flags.writeable = False
        return w

    def sample(self, f) -> np.ndarray:
        if isinstance(f, QExpFunction):
            return funalg.evaluate(f, self.grid.points())
        arr = np.asarray(f, dtype=float)
        if arr.shape != (self.grid.n,):
            raise GridMismatch(f"vector of shape {arr.shape} on a {self.grid.n}-point grid")
        return arr


@frozen
class ModalSpace:
    """Coefficient space over a fixed tuple of catalog eigen-indices.  The
    eigenfunctions are declared orthonormal, a legitimate working inner
    product since the realization checks do not depend on the complement."""

    op: OperatorSpec
    indices: tuple
    kind, form, oracle, grid_axis = "modal", "modal", "modal", None

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(
            self.op.canonical_index(i) for i in self.indices))

    def axis(self) -> np.ndarray:
        return np.arange(len(self.indices), dtype=float)

    @property
    def size(self) -> int:
        return len(self.indices)

    def weights(self) -> np.ndarray:
        return np.ones(len(self.indices))

    def sample(self, f) -> np.ndarray:
        if isinstance(f, EigenExpansion):
            if f.op != self.op:
                raise GridMismatch("expansion belongs to a different operator")
            pos = {idx: i for i, idx in enumerate(self.indices)}
            out = np.zeros(len(self.indices))
            for idx, c in f.items:
                if idx not in pos:
                    raise DomainError(f"mode {idx} outside the space's index set")
                out[pos[idx]] = c
            return out
        arr = np.asarray(f, dtype=float)
        if arr.shape != (len(self.indices),):
            raise GridMismatch(f"coefficient vector of shape {arr.shape} for "
                               f"{len(self.indices)} modes")
        return arr


@frozen
class ProfileRaySpace:
    """Product space for the wedge transport: boundary profiles (opaque
    orthonormal labels) times a weighted ray grid.  Vectors are profile-major
    blocks of ray samples."""

    profiles: tuple[str, ...]
    ray: GridSpace
    kind, form, oracle = "profile_ray", "rays", "ray_grid"
    grid_axis = property(lambda self: self.ray)

    def refined(self, factor: int) -> ProfileRaySpace:
        """The same profiles on the refined ray."""
        return ProfileRaySpace(self.profiles, self.ray.refined(factor))

    def axis(self) -> np.ndarray:
        return np.arange(len(self.profiles) * self.ray.size, dtype=float)

    @property
    def size(self) -> int:
        return len(self.profiles) * self.ray.size

    def weights(self) -> np.ndarray:
        return np.tile(self.ray.weights(), len(self.profiles))

    def sample(self, f) -> np.ndarray:
        if isinstance(f, RayBundle):
            out = np.zeros(self.size)
            n = self.ray.size
            pos = {lbl: i for i, lbl in enumerate(self.profiles)}
            for lbl, fn in f.parts:
                if lbl not in pos:
                    raise DomainError(f"profile {lbl!r} outside the space")
                i = pos[lbl]
                out[i * n:(i + 1) * n] += self.ray.sample(fn)
            return out
        arr = np.asarray(f, dtype=float)
        if arr.shape != (self.size,):
            raise GridMismatch(f"vector of shape {arr.shape} for product size {self.size}")
        return arr


SpaceSpec = GridSpace | ModalSpace | ProfileRaySpace


# OpenBLAS spreads a dot product of more than 10000 values over its
# threads, whose hand-off costs more than the product at these sizes (three
# times the time at n_x = 10002 on two cores, and more in a forked process,
# whose threads wait for a free core): longer vectors are dotted in pieces
# of at most DOT_PIECE values
DOT_PIECE = 8192


def long_dot(a: np.ndarray, b: np.ndarray) -> float:
    """np.dot of two vectors, bit for bit up to DOT_PIECE values, else the
    sum of the dots of their pieces of DOT_PIECE values in order."""
    if len(a) <= DOT_PIECE:
        return np.dot(a, b)
    total = 0
    for i in range(0, len(a), DOT_PIECE):
        total += np.dot(a[i:i + DOT_PIECE], b[i:i + DOT_PIECE])
    return total


def space_norm(space: SpaceSpec, vec: np.ndarray) -> float:
    """The weighted norm of vec, computed on vec scaled by one power of two,
    exactly, so that values near the double range square without overflow;
    it keeps its bits wherever no square underflows."""
    exp = np.frexp(np.max(np.abs(vec), initial=0.0))[1]
    vec = np.ldexp(vec, -exp)
    w = space.weights()
    return math.ldexp(math.sqrt(max(long_dot(w * vec, vec), 0.0)), int(exp))


# ---------------------------------------------------------------------------
# subspaces and projections


@frozen
class Subspace:
    """Finite-dimensional subspace with sampled basis and Gram matrix."""

    basis: tuple
    space: SpaceSpec
    samples: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, basis: Sequence, space: SpaceSpec) -> "Subspace":
        basis = tuple(basis)
        if basis:
            samples = np.vstack([space.sample(b) for b in basis])
        else:
            samples = np.zeros((0, space.size))
        w = space.weights()
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            gram = (samples * w) @ samples.T
        if not np.all(np.isfinite(gram)):
            raise LinearSolveFailure("Gram matrix of the basis of V overflows")
        if basis:
            eig = np.linalg.eigvalsh(gram)
            if eig[0] <= 1e-10 * max(eig[-1], 1e-300):
                raise LinearSolveFailure(
                    "basis of V is numerically dependent "
                    f"(gram eigenvalue ratio {eig[0]:.2e} / {eig[-1]:.2e})")
        return cls(basis, space, samples, gram)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, h: np.ndarray) -> np.ndarray:
        """Coordinates of the orthogonal projection of h onto the subspace."""
        if self.dim == 0:
            return np.zeros(0)
        rhs = self.samples @ (self.space.weights() * h)
        try:
            return np.linalg.solve(self.gram, rhs)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(f"gram solve failed: {exc}") from exc

    def project(self, h: np.ndarray) -> np.ndarray:
        if self.dim == 0:
            return np.zeros_like(h)
        return self.samples.T @ self.coords(h)

    def complement_residual(self, h: np.ndarray) -> np.ndarray:
        return h - self.project(h)

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        return self.samples.T @ np.asarray(c, dtype=float)


# ---------------------------------------------------------------------------
# span computations across representations


def _coeff_matrix_generic(funcs: Sequence):
    first = funcs[0]
    if isinstance(first, QExpFunction):
        return funalg.coefficient_matrix(funcs)
    if isinstance(first, EigenExpansion):
        return funalg.keyed_matrix(f.items for f in funcs)
    if isinstance(first, RayBundle):
        labels = sorted({lbl for b in funcs for lbl, _fn in b.parts})
        rays = [fn for b in funcs for _lbl, fn in b.parts]
        if not rays:
            return np.zeros((len(funcs), 1)), ()
        ray_mat, ray_keys = funalg.coefficient_matrix(rays)
        k = ray_mat.shape[1]
        mat = np.zeros((len(funcs), max(len(labels) * k, 1)))
        pos = 0
        for i, b in enumerate(funcs):
            for lbl, _fn in b.parts:
                j = labels.index(lbl)
                mat[i, j * k:(j + 1) * k] += ray_mat[pos]
                pos += 1
        keys = tuple((lbl, key) for lbl in labels for key in ray_keys)
        return mat, keys
    raise DomainError(f"span computations need symbolic functions, got {type(first).__name__}")


def span_basis(funcs: Sequence) -> SpanBasis:
    """Dimension of span(funcs) plus a reduced basis picked from the inputs.
    The functions are quasi-exponentials, eigen-expansions or ray bundles."""
    funcs = list(funcs)
    if not funcs:
        return SpanBasis((), 0, np.zeros((0, 0)))
    mat, keys = _coeff_matrix_generic(funcs)
    rank, piv = funalg.rank_and_pivots(mat)
    return SpanBasis(tuple(funcs[i] for i in piv), rank, mat[piv], keys)


def _synthesize(row: np.ndarray, keys: tuple) -> QExpFunction:
    return QExpFunction.from_terms(
        (c, k[0], k[1], k[2], k[3]) for c, k in zip(row, keys) if abs(c) > 1e-14)


def _project_out(kept: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return rows - (rows @ kept.T) @ kept


def _orthonormal_rows(kept: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """`count` orthonormal coefficient rows spanning the part of span(rows)
    orthogonal to the orthonormal rows `kept`, each signed so that its
    largest entry is positive.  With nothing kept this is the QR of `rows`."""
    # 2-norms over each row's max-abs entry: a subnormal row squares to 0
    top = np.max(np.abs(rows), axis=1, keepdims=True)
    scale = top * np.linalg.norm(rows / top, axis=1, keepdims=True)
    for _ in range(2):  # twice is enough against cancellation
        rows = _project_out(kept, rows)
    return _signed_qr(rows[funalg.qr_pivots((rows / scale).T, count)])


def _signed_qr(rows: np.ndarray) -> np.ndarray:
    """Orthonormal rows from the QR of rows.T, each signed so that its
    largest entry is positive."""
    q, _ = np.linalg.qr(rows.T)
    out = np.ascontiguousarray(q.T)
    for row in out:
        lead = np.argmax(np.abs(row))
        if row[lead] < 0.0:
            row *= -1.0
    return out


def _resynthesize(span: SpanBasis) -> SpanBasis:
    """Re-express a quasi-exponential span through coefficient-orthonormal
    combinations, which keep rank decisions on the same span well
    conditioned downstream.  A span given by its coefficient rows alone (no
    functions) is synthesized from them; one of other functions is returned
    as it is.  `invariant_span` calls it once, on the span it returns."""
    if span.dim == 0 or not all(isinstance(f, QExpFunction) for f in span.functions):
        return span
    rows = _orthonormal_rows(np.zeros((0, len(span.keys))),
                             span.coefficient_matrix, span.dim)
    return SpanBasis(tuple(_synthesize(row, span.keys) for row in rows),
                     span.dim, rows, span.keys)


def _key_closure(op: OperatorSpec, keys: tuple) -> tuple[tuple, np.ndarray]:
    """The term keys closed under A, and G, the matrix of A on them: row i
    holds the coefficients of A applied to the one-term function
    x^j e^{mu x} cos/sin(nu x) of keys[i], so a span's coefficient rows R
    have images R @ G.  The differential generators map a key into keys of
    its own rate and frequency with powers up to its own, in both trig
    kinds, so the list stays finite; those images carry the key's rate and
    frequency bit for bit, so new keys match old ones exactly."""
    keys = list(keys)
    index = {k: i for i, k in enumerate(keys)}
    images = []
    while len(images) < len(keys):  # each image may append keys
        j, mu, nu, kind = keys[len(images)]
        image = operators.apply_exact(op, QExpFunction.from_terms([(1.0, j, mu, nu, kind)]))
        cols = []
        for c, *key in image.terms:
            key = tuple(key)
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
            cols.append((index[key], c))
        images.append(cols)
    g = np.zeros((len(keys), len(keys)))
    for i, cols in enumerate(images):
        for col, c in cols:
            g[i, col] = c
    return tuple(keys), g


@frozen
class ClosureResult:
    """A closure sweep's outcome: its status, the span reached, the
    iterations taken and the span dimension after each."""

    status: str  # "quasi_exponential" or "not_detected"
    # a quasi-exponential not_detected basis holds its coefficient rows and
    # no functions: nothing is built on a span past the cap
    basis: SpanBasis
    iterations: int
    dims: tuple[int, ...]


def invariant_span(op: OperatorSpec, generators: Sequence) -> ClosureResult:
    """Smallest A-invariant span containing the generators: the closure
    sweep of a scenario's volatilities (config.volatility_closure); the
    carrier sweeps its curve data through the core, _closure_sweep, directly,
    so that what counts or times invariant_span (tests/test_one_sweep.py,
    perfbench's span) sees a command's volatility sweeps only."""
    return _closure_sweep(op, generators)


def _certain_growth(kept: np.ndarray, mat: np.ndarray) -> np.ndarray | None:
    """Whether rank_and_pivots would certainly give `mat`, the orthonormal
    rows `kept` stacked on one image row, full rank, decided without its
    SVD.  Returns `mat` with `kept` projected out once if so, else None.

    rank_and_pivots scales each row by its max-abs entry.  The scaled `kept`
    then has sigma_min >= 1, so an image b (scaled) with residual r against
    `kept` gives sigma_{k+1} >= |r| / sqrt(1 + |b|^2); the bound taken has
    2 |b|^2, a margin for round-off.  sigma_0 is at most sqrt(rows * keys).
    So a residual above TOL_RANK times both grows the span.  Below it lies
    a band, down to |r| = TOL_RANK, where only the SVD decides (below the
    band the image adds nothing, as sigma_{k+1} <= |r| and sigma_0 >= 1).
    Several image rows, and a zero, subnormal or non-finite image, give
    None too."""
    if len(mat) != len(kept) + 1:
        return None
    top = float(np.max(np.abs(mat[-1])))
    # a subnormal image has lost the bits its residual needs; a non-finite
    # one is rank_and_pivots's to refuse
    if not np.finfo(float).tiny <= top < math.inf:
        return None
    # every row, as _orthonormal_rows projects them: BLAS blocks by rows,
    # so the image row alone would round differently
    once = _project_out(kept, mat)
    r = float(np.linalg.norm(once[-1] / top))
    b = float(np.linalg.norm(mat[-1] / top))
    if funalg.TOL_RANK * math.sqrt(mat.size * (1.0 + 2.0 * b * b)) < r < math.inf:
        return once
    return None


# an overflowing coefficient is refused by rank_and_pivots, which every span
# the sweep returns passes through; a growth that skips it has finite rows
@np.errstate(over="ignore", invalid="ignore")
def _closure_sweep(op: OperatorSpec, generators: Sequence) -> ClosureResult:
    """Smallest A-invariant span containing the generators, as a Krylov
    sweep: span <- span + A(frontier), where the frontier holds the
    directions the previous iteration added (the generators at first), until
    the dimension stabilizes or exceeds DIM_CAP.  Each iteration decides the
    rank of the current span plus the frontier images.

    A quasi-exponential span is swept as coefficient rows on the key table
    of _key_closure: A runs once per term key, on that key's one-term
    function, and the frontier images are frontier rows @ G.  The first
    growth orthonormalises the whole span, each later one only the new
    directions; applying A to raw images instead loses directions to
    round-off.  Functions are synthesized once, from the rows of the span
    returned; a not_detected span carries its rows only.  Other spans keep
    the input functions and their images, as their returned basis does.

    Once the span's rows are orthonormal, a step with one image row (every
    step of a single generator's sweep after the second) first projects
    the image out of them.  When that residual certainly grows the span
    (_certain_growth), the step takes no SVD and its new direction is the
    residual made unit.  Every other step calls rank_and_pivots on the
    stacked rows: the first, one with several image rows, one whose
    residual lies in the band below the cutoff, one that does not grow
    (its basis is synthesized from the pivot rows) and one past the cap.
    Both routes give the same dimensions and the same bits.

    A stabilized sweep certifies quasi-exponential volatility; blowing
    through the cap reports not_detected (the closure may be infinite
    dimensional or merely larger than the cap)."""
    current = span_basis(generators)
    qexp = current.dim > 0 and all(isinstance(f, QExpFunction)
                                   for f in current.functions)
    if qexp:
        keys, g_mat = _key_closure(op, current.keys)
        rows = np.zeros((current.dim, len(keys)))
        rows[:, :len(current.keys)] = current.coefficient_matrix
        current = SpanBasis((), current.dim, rows, keys)
    n_ortho = 0  # leading rows of current that are orthonormal
    frontier = current.coefficient_matrix if qexp else current.functions
    dims = [current.dim]
    iterations = 0
    while True:
        iterations += 1
        if qexp:
            mat = np.vstack([current.coefficient_matrix, frontier @ g_mat])
            once = (_certain_growth(current.coefficient_matrix, mat)
                    if n_ortho and current.dim < DIM_CAP else None)
            if once is None:
                rank, piv = funalg.rank_and_pivots(mat)
                combined = SpanBasis((), rank, mat[piv], keys)
            else:  # full rank without an SVD, so every row is a pivot
                combined = SpanBasis((), len(mat), mat, keys)
        else:
            combined = span_basis(list(current.functions)
                                  + [operators.apply_exact(op, f) for f in frontier])
        dims.append(combined.dim)
        if combined.dim == current.dim:
            return ClosureResult("quasi_exponential", _resynthesize(combined),
                                 iterations, tuple(dims))
        if combined.dim > DIM_CAP:
            return ClosureResult("not_detected", combined, iterations, tuple(dims))
        if qexp:
            kept = current.coefficient_matrix[:n_ortho]
            if once is None:
                frontier = _orthonormal_rows(kept, combined.coefficient_matrix,
                                             combined.dim - n_ortho)
            else:  # _orthonormal_rows(kept, mat, 1): its pivot is the image,
                # whose relative residual is above the cutoff, while a kept
                # row's is round-off
                frontier = _signed_qr(_project_out(kept, once)[-1:])
            current = SpanBasis((), combined.dim, np.vstack([kept, frontier]), keys)
            n_ortho = combined.dim
        else:
            frontier = tuple(f for f in combined.functions
                             if not any(f is g for g in current.functions))
            current = combined


def span_coords(basis: Sequence, targets: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coordinates of each target in span(basis), solved at
    coefficient level: (coords, rel) with coords[:, j] the coordinates of
    targets[j] and rel[j] its residual relative to its own norm, so the
    verdict on one target does not depend on how the others are scaled."""
    mat, _keys = _coeff_matrix_generic(list(basis) + list(targets))
    b_mat, t_mat = mat[:len(basis)], mat[len(basis):]
    coords, *_ = np.linalg.lstsq(b_mat.T, t_mat.T, rcond=None)
    # each target and its residual scaled by one power of two, exactly, so
    # that coefficients near the double range square without overflow; rel
    # keeps its bits wherever no square underflows
    exp = np.frexp(np.abs(t_mat).max(axis=1, initial=0.0))[1]
    rel = np.linalg.norm(np.ldexp(b_mat.T @ coords - t_mat.T, -exp), axis=0) / \
        np.maximum(np.linalg.norm(np.ldexp(t_mat, -exp[:, None]), axis=1), 1e-300)
    return coords, rel


@frozen
class InvarianceCheck:
    """check_invariant's certificate: the verdict, the span dimension, the
    worst basis index, its residual and the coordinates of A on the span."""

    ok: bool
    dim: int
    offender: int
    residual: float
    coords: np.ndarray = field(repr=False)


def check_invariant(op: OperatorSpec, basis: Sequence) -> InvarianceCheck:
    """Does span(basis) absorb its image under A?  The certificate carries
    the basis index whose image leaves the span the most, that image's
    relative residual after projecting it back onto the span (coefficient
    level) and the coordinates of A on the span: column i of coords holds
    those of A basis[i].  It passes when the residual is within
    TOL_PROJECT."""
    basis = list(basis)
    images = tuple(operators.apply_exact(op, f) for f in basis)
    coords, rel = span_coords(basis, images)
    offender = int(np.argmax(rel))
    residual = float(rel[offender])
    return InvarianceCheck(residual <= TOL_PROJECT, len(basis), offender,
                           residual, coords)


# ---------------------------------------------------------------------------
# volatility specifications


@frozen
class StateVol:
    """sigma^k(h) = scale(coordinates of P_V h) * base with base in V.  The
    scale takes a (d,) state to a scalar and a (d, P) block of states, one
    column per path, to a (P,) row."""

    base: object
    scale_fn: Callable[[np.ndarray], float | np.ndarray]


# ---------------------------------------------------------------------------
# semi-invariance correction


@frozen
class CorrectionOperator:
    """T = -P_U A P_V stored in factored low-rank form T = left @ right."""

    left: np.ndarray
    right: np.ndarray
    space: SpaceSpec

    def apply(self, h: np.ndarray) -> np.ndarray:
        return self.left @ (self.right @ np.asarray(h, dtype=float))

    def operator_norm(self) -> float:
        """Largest singular value in the weighted metric."""
        w = self.space.weights()
        sq = np.sqrt(w)
        lw = self.left * sq[:, None]
        rw = self.right / np.maximum(sq[None, :], 1e-300)
        _q, rl = np.linalg.qr(lw)
        s = np.linalg.svd(rl @ rw, compute_uv=False)
        return float(s[0]) if s.size else 0.0


def semiinvariant_correction(op: OperatorSpec, V: Subspace) -> CorrectionOperator:
    """Correction making the complement projection of (A + T) vanish on V.
    The basis functions are assumed inside the generator's domain (true for
    every symbolic family here), so the extension of A used off the domain is
    immaterial: T acts through the projection onto V."""
    if V.dim == 0:
        n = V.space.size
        return CorrectionOperator(np.zeros((n, 0)), np.zeros((0, n)), V.space)
    images = np.vstack([V.space.sample(operators.apply_exact(op, b))
                        for b in V.basis])
    w = V.space.weights()
    phi_w = V.samples * w
    try:
        right = np.linalg.solve(V.gram, phi_w)                    # coords map
        inside = np.linalg.solve(V.gram, phi_w @ images.T)        # P_V images
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure(f"gram solve failed: {exc}") from exc
    left = -(images.T - V.samples.T @ inside)
    return CorrectionOperator(left, right, V.space)


# ---------------------------------------------------------------------------
# realizations


@frozen
class VolCoord:
    """A volatility's V-coordinates; scale_fn is None when it is constant."""

    coords: np.ndarray
    scale_fn: Callable[[np.ndarray], float | np.ndarray] | None = None


@frozen
class DriftSplit:
    """The drift split by the complement: v_coords, a (d,) array, are its
    V-coordinates and remainder its complement part, symbolic when the drift
    and the basis are, else sampled on the space, and None when negligible
    or for zero drift."""

    kind: str  # "zero" | "constant"
    v_coords: np.ndarray
    remainder: object = None


@frozen
class Realization:
    """The reduced model: the generator, the span V, A on V as B, the
    volatility and drift coordinates, and the certified clauses."""

    op: OperatorSpec
    V: Subspace
    B: np.ndarray
    vols: tuple[VolCoord, ...]
    drift: DriftSplit
    mode_indices: tuple | None = None
    clauses: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.V.dim

    @property
    def psi_method(self) -> str:
        """The curve method's label, which names the generator family:
        shift_exact for a transport generator, else spectral_truncation.
        carrier_coords steps both on the A-closure of the curve data."""
        if isinstance(self.op, operators.Translation):
            return "shift_exact"
        return "spectral_truncation"


def _linear_combination(basis: Sequence, coords: np.ndarray):
    out = None
    for b, c in zip(basis, coords):
        piece = b * float(c)
        out = piece if out is None else out + piece
    return out


def _is_symbolic(f) -> bool:
    return isinstance(f, (QExpFunction, EigenExpansion, RayBundle))


def build_realization(op: OperatorSpec, drift, vols: Sequence,
                      V: Subspace, mode_indices: Sequence | None = None
                      ) -> Realization:
    """Run the realization checks and assemble the reduced model.

    `drift` is the constant drift element, symbolic or sampled on V.space,
    and None means zero drift.  Raises NotInvariant / SigmaEscapesV when
    clause 1 / 3 fails, by a residual above TOL_PROJECT; clause 2 holds for
    a constant drift by construction.  The clause report lands in
    .clauses.  On the Dirichlet generators clause 1 also needs V inside the
    generator's domain: a basis element that does not vanish at a grid end
    raises NotInvariant.  mode_indices only serve to project sampled curve
    data (_band_limited)."""
    if V.dim and not all(_is_symbolic(b) for b in V.basis):
        raise DomainError("realization construction needs a symbolic basis")

    # clause 1: invariance, plus the coordinate matrix of A on V
    clauses: dict = {}
    if V.dim:
        inv = check_invariant(op, V.basis)
        if inv.residual > TOL_PROJECT:
            raise NotInvariant(
                f"A maps basis element {inv.offender} outside V "
                f"(coordinate matrix residual {inv.residual:.3e})")
        off = _off_domain(op, V.space, V.samples)
        if off is not None:
            raise NotInvariant(
                "V leaves the generator's domain: basis element "
                f"{off[0]} is {off[2]:.3e} of its max at the {off[1]} "
                f"Dirichlet end")
        B = inv.coords  # column i holds coordinates of A v_i
        clauses["invariant"] = {"ok": True, "dim": V.dim, "residual": inv.residual}
    else:
        B = np.zeros((0, 0))
        clauses["invariant"] = {"ok": True, "dim": 0, "residual": 0.0}

    # clause 3: volatility ranges inside V
    vol_coords = []
    for k, vol in enumerate(vols):
        scale_fn = None
        target = vol
        if isinstance(vol, StateVol):
            scale_fn, target = vol.scale_fn, vol.base
        if _is_symbolic(target) and V.dim:
            coords, resid = span_coords(V.basis, [target])
            coords, resid = coords[:, 0], resid[0]
        else:
            vec = V.space.sample(target)
            coords = V.coords(vec)
            scale = max(space_norm(V.space, vec), 1e-300)
            resid = space_norm(V.space, vec - V.from_coords(coords)) / scale
        if resid > TOL_PROJECT:
            raise SigmaEscapesV(
                f"volatility component {k} leaves V "
                f"(relative residual {resid:.3e})")
        vol_coords.append(VolCoord(np.asarray(coords, dtype=float), scale_fn))
    clauses["volatility_in_V"] = {"ok": True, "components": len(vol_coords)}

    # clause 2: a constant drift's complement part is the same on every
    # fiber; split it by the complement, dropping a negligible remainder
    clauses["drift_constant_on_fibers"] = {
        "ok": True, "max_deviation": 0.0, "sampled_evidence": False}
    if drift is None:
        split = DriftSplit("zero", np.zeros(V.dim))
    else:
        u, coords = _complement_split(V, drift)
        scale = max(1.0, space_norm(V.space, V.space.sample(drift)))
        if space_norm(V.space, V.space.sample(u)) <= 1e-12 * scale:
            u = None
        split = DriftSplit("constant", coords, u)

    return Realization(op=op, V=V, B=np.ascontiguousarray(B),
                       vols=tuple(vol_coords), drift=split,
                       mode_indices=tuple(mode_indices) if mode_indices else None,
                       clauses=clauses)


def _off_domain(op: OperatorSpec, space: SpaceSpec,
                samples: np.ndarray) -> tuple[int, str, float] | None:
    """Do the elements sampled as the rows of samples leave the domain of a
    Dirichlet generator (`op.dirichlet`) on a grid?  The (row,
    "left" | "right", ratio) of the largest end value relative to its
    row's max when that ratio exceeds 1e-10, else None (as for every other
    generator or space)."""
    if not (op.dirichlet and isinstance(space, GridSpace)):
        return None
    ends = (np.abs(samples[:, [0, -1]])
            / np.max(np.abs(samples), axis=1, keepdims=True))
    row, end = np.unravel_index(np.argmax(ends), ends.shape)
    if ends[row, end] <= 1e-10:
        return None
    return int(row), ("left", "right")[end], float(ends[row, end])


def _complement_split(V: Subspace, f) -> tuple[object, np.ndarray]:
    """(u, c) with f = u + sum c_i v_i and u in the complement of V: u is
    symbolic whenever f and the basis are, else sampled on V.space."""
    vec = V.space.sample(f)
    c = V.coords(vec)
    if _is_symbolic(f) and all(_is_symbolic(b) for b in V.basis):
        return (f - _linear_combination(V.basis, c) if V.dim else f), c
    return vec - V.from_coords(c), c


# ---------------------------------------------------------------------------
# the deterministic carrier curve psi


def _uniform_dt(t_grid: np.ndarray) -> float:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 2:
        raise GridMismatch("time grid needs at least two points")
    steps = np.diff(t_grid)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-14):
        raise GridMismatch("time grid must be uniform")
    return float(steps[0])


def _shift_interp(vec: np.ndarray, x: np.ndarray, s: float) -> np.ndarray:
    """Samples of h(. + s) from samples of h, zero beyond the right edge
    (truncation assumes decay).  A query that rounds at most a few ulps past
    the last node is that node: x + s for the node x_max - s can land one
    ulp beyond x_max."""
    q = x + s
    edge = x[-1]
    q[(q > edge) & (q - edge <= 4 * np.spacing(edge))] = edge
    return np.interp(q, x, vec, right=0.0)


def _band_limited(real: Realization, h0, u0, u):
    """(u0, u, meta) with sampled data made symbolic for the closure route.
    On a modal space a sampled vector is already a coefficient vector.  On a
    grid space it is projected onto the catalog modes of mode_indices in
    the space's inner product, by the Gram solve of V's coordinates, and
    the quasi-exponential sum of the projection replaces it (no
    mode_indices: ConfigError, before any row); the weighted norm of the
    tail that the projection drops, the least the modes allow, must stay
    within TRUNCATION_BOUND of the initial curve's norm (of 1 for the
    drift)."""
    space = real.V.space
    if isinstance(space, ModalSpace):
        u0, u = (EigenExpansion.make(real.op, zip(space.indices, f))
                 if isinstance(f, np.ndarray) else f for f in (u0, u))
        return u0, u, {}
    if not any(isinstance(f, np.ndarray) for f in (u0, u)):
        return u0, u, {}
    if not isinstance(space, GridSpace) or not real.mode_indices:
        raise ConfigError("curve data known only as samples need `modes` "
                          "to project onto")
    try:  # a mode listed twice spans nothing new
        modes = Subspace.build([real.op.eigenfunction(n)
                                for n in dict.fromkeys(real.mode_indices)], space)
    except LinearSolveFailure as exc:
        raise ConfigError(f"`modes` cannot be told apart on the {space.size}-point "
                          f"grid: {exc}") from exc
    scale = max(space_norm(space, space.sample(h0)), 1e-300)
    out, tails = [], []
    for f, what, bound in ((u0, "initial curve", scale),
                           (u, "drift remainder", max(1.0, scale))):
        if isinstance(f, np.ndarray):
            c = modes.coords(f)
            f_sym = _linear_combination(modes.basis, c)
            tail = space_norm(space, f - modes.from_coords(c))
            if tail > TRUNCATION_BOUND * bound:
                raise TruncationTailTooLarge(
                    f"{what} tail {tail:.3e} above bound "
                    f"{TRUNCATION_BOUND:.1e} * {bound:.3e}")
            f = f_sym
            tails.append(tail)
        out.append(f)
    return (*out, {"truncation_tail": float(max(tails)), "modes": modes.dim})


def _closure_rows(real: Realization, u0, u, t_grid: np.ndarray, dt: float):
    """The exact flow of symbolic data: psi(t) = S_t u0 + int_0^t S_s u ds
    on W, the smallest A-invariant span of (u0, u), where None or zero data
    drop out.  With B_W the coordinates of A on W and (c0, a) those of
    (u0, u), the coordinates c of psi take the noise-free step of
    _affine_rows, c <- E c + J a with (E, J) = _expm_with_integral(B_W, dt),
    so psi and Y share one kernel.  Returns (the (n_t+1, dim W) table of
    c_n, W sampled as (dim W, space.size) rows); no data give dim W = 0.

    On the Dirichlet generators the flow on W is the semigroup only when W
    lies in the domain of A, so every element of W must vanish at both grid
    ends; else DomainError, before the first row."""
    space = real.V.space
    given = [f is not None and not f.is_zero for f in (u0, u)]
    data = [f for f, g in zip((u0, u), given) if g]
    if not data:
        return np.zeros((len(t_grid), 0)), np.zeros((0, space.size))
    closure = _closure_sweep(real.op, data)
    if closure.status != "quasi_exponential":
        raise MethodUnsupported(
            f"curve data span no invariant span below cap {DIM_CAP} "
            f"(dims {closure.dims})")
    W = closure.basis.functions
    samples = np.vstack([space.sample(w) for w in W])
    off = _off_domain(real.op, space, samples)
    if off is not None:
        raise DomainError(
            f"the curve data leave the generator's domain: an element of "
            f"their closure is {off[2]:.3e} of its max at the {off[1]} "
            f"Dirichlet end")
    coords = iter(span_coords(W, data)[0].T)
    c0, a = (next(coords) if g else np.zeros(len(W)) for g in given)
    e_mat, j_mat = _expm_with_integral(check_invariant(real.op, W).coords, dt)
    c_rows = _affine_rows(c0, (e_mat, j_mat @ a, None, None),
                          itertools.repeat(None, len(t_grid) - 1))
    return np.fromiter(c_rows, (float, len(W)), len(t_grid)), samples


def _shifted_samples(space: SpaceSpec, u0_vec, u_vec, t_grid: np.ndarray,
                     dt: float):
    """The transport flow of data known only as samples: a sampled u0
    shifted by _shift_interp row by row, plus int_0^t u(. + s) ds of a
    sampled drift remainder accumulated by the trapezoid rule, as a function
    whose every call starts a fresh stream."""
    if not isinstance(space, GridSpace):
        raise MethodUnsupported("shifting sampled data needs a grid space")
    x = space.grid.points()

    def rows():
        acc = np.zeros(space.size)
        a_prev = u_vec
        for i, t in enumerate(t_grid):
            if u_vec is not None and i:
                a_cur = _shift_interp(u_vec, x, float(t))
                acc = acc + 0.5 * dt * (a_prev + a_cur)
                a_prev = a_cur
            yield acc if u0_vec is None else acc + _shift_interp(u0_vec, x, float(t))

    return rows


@frozen
class Carrier:
    """What a reduced path is built from: the realization, the uniform time
    grid, v0 = Y_0 and the carrier curve psi(t_n) = coords[n] @ samples +
    sampled_n.  coords is the (n_t+1, dim W) table of psi's coordinates
    over W, the A-closure of the symbolic curve data, sampled as the
    (dim W, space.size) rows of samples; sampled, None or a function that
    starts a stream of (space.size,) rows, is the part known only as
    samples (on a transport generator).  meta is the curve metadata."""

    real: Realization
    t_grid: np.ndarray
    v0: np.ndarray
    coords: np.ndarray
    samples: np.ndarray
    sampled: Callable[[], Iterator[np.ndarray]] | None
    meta: dict

    def rows(self) -> Iterator[np.ndarray]:
        """A fresh stream of psi(t_n), one (space.size,) row per time: each
        is one vector-matrix product c_n @ samples (a block product would
        round unlike it for dim W >= 2), plus the sampled row; with W empty
        the sampled rows are psi as they are."""
        if self.sampled is None:
            return (c @ self.samples for c in self.coords)
        if not len(self.samples):
            return self.sampled()
        return (c @ self.samples + s
                for c, s in zip(self.coords, self.sampled(), strict=True))


def carrier_coords(real: Realization, h0, t_grid: np.ndarray) -> Carrier:
    """The Carrier of the initial curve h0 on the uniform time grid.  Set-up
    checks raise here; a psi stream holds O(space.size) memory.

    h0 = u0 + v0 . V splits by the complement (u0 symbolic whenever h0 and
    the basis are), and psi solves dpsi/dt = A psi + u, psi(0) = u0, for u
    the drift's remainder.  Symbolic data step exactly on
    their A-closure (_closure_rows, meta {"closure_dim": dim W}), whatever
    the generator.  Data known only as samples keep a sampled route: on a
    transport generator they shift by interpolation into the sampled term;
    otherwise they are projected onto mode_indices first (meta adds
    "truncation_tail" and "modes"), and without mode_indices on a grid
    space they are refused (ConfigError)."""
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _uniform_dt(t_grid)
    u0, v0 = _complement_split(real.V, h0)
    u = real.drift.remainder
    sampled = None
    if isinstance(real.op, operators.Translation):
        u0_vec, u_vec = (f if isinstance(f, np.ndarray) else None for f in (u0, u))
        if u0_vec is not None or u_vec is not None:
            sampled = _shifted_samples(real.V.space, u0_vec, u_vec, t_grid, dt)
        u0, u = (None if isinstance(f, np.ndarray) else f for f in (u0, u))
        meta = {}
    else:
        u0, u, meta = _band_limited(real, h0, u0, u)
    coords, samples = _closure_rows(real, u0, u, t_grid, dt)
    return Carrier(real, t_grid, v0, coords, samples, sampled,
                   {"closure_dim": len(samples), **meta})


# ---------------------------------------------------------------------------
# the V-coordinate process Y


# the degree-13 Padé approximant p(x) / p(-x) of e^x: the coefficients of
# p, and the 1-norm theta_13 up to which it needs no scaling (Higham 2005,
# "The scaling and squaring method for the matrix exponential revisited")
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by the degree-13 Padé approximant with scaling and squaring."""
    norm = np.linalg.norm(a, 1)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    eye = np.eye(a.shape[0])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    out = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        out = out @ out
    return out


def _expm_with_integral(B: np.ndarray, dt: float):
    """(e^{B dt}, int_0^dt e^{B s} ds) from one augmented matrix exponential."""
    d = B.shape[0]
    if d == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    # a python float product: inf without numpy's overflow warning
    if not math.isfinite(float(np.abs(B).max()) * float(dt)):
        raise UnstableConfig(f"the exponent B dt of the exact step is not "
                             f"finite (dt = {dt:.3g})")
    aug = np.zeros((2 * d, 2 * d))
    aug[:d, :d] = B * dt
    aug[:d, d:] = np.eye(d) * dt
    full = _expm(aug)
    return full[:d, :d], full[:d, d:]


def _coordinate_step(carrier: Carrier, dt: float):
    """(E, c, S, scales) of step n, y -> E y + c + S.T (scales(y, n) dX).
    With constant coefficients it is the exact affine step, E = e^{B dt}
    and c = int_0^dt e^{B s} ds a, and scales is None.  A state-scaled
    volatility takes the left-point euler step instead, E = I + dt B and
    c = dt a, and scales(y, n) gives each volatility's scale at a (d,)
    state or a (d, P) block, shaped (m,) or (m, P), read at the whole state
    psi_n + y . V: at y + V.coords(psi_n), whose (n_t+1, d) table is the
    carrier's times P, V.coords of W's rows, plus V.coords of its sampled
    rows.  A constant volatility's scale is 1."""
    real = carrier.real
    sig = (np.vstack([v.coords for v in real.vols])
           if real.vols else np.zeros((0, real.dim)))
    fns = [v.scale_fn for v in real.vols]
    if all(f is None for f in fns):
        e_mat, j_mat = _expm_with_integral(real.B, dt)
        return e_mat, j_mat @ real.drift.v_coords, sig, None
    psi_v = carrier.coords @ np.reshape(
        [real.V.coords(w) for w in carrier.samples], (-1, real.dim))
    if carrier.sampled is not None:
        psi_v += [real.V.coords(s) for s in carrier.sampled()]

    def scales(y, n):
        at = (y.T + psi_v[n]).T
        out = np.ones((len(fns), *y.shape[1:]))
        for k, f in enumerate(fns):
            if f is not None:
                out[k] = f(at)
        return out

    return (np.eye(real.dim) + dt * real.B, dt * real.drift.v_coords, sig,
            scales)


def _affine_rows(y: np.ndarray, step, increments: Iterable[np.ndarray | None]):
    """The one stepping kernel, y <- E y + c + S.T dX, with dX scaled by
    scales(y, n) at the left point of step n when the step has scales (see
    _coordinate_step): y is a (d,) state or a (d, P) block of states, one
    column per path, and each increment a (m,) row or an (m, P) block, or
    None for a step without noise (the carrier curve's coordinates).  In a
    block every elementwise op runs along the paths, and E y is one matrix
    product on a contiguous operand."""
    e_mat, drift_term, sig, scales = step
    if y.ndim == 2:
        drift_term = drift_term[:, None]
    sig_t = None if sig is None else sig.T
    yield y
    for n, dx in enumerate(increments):
        if scales is not None:
            dx = scales(y, n) * dx
        y = e_mat @ y
        y += drift_term
        if dx is not None:
            y += sig_t @ dx
        yield y


def _check_driver(real: Realization, m: int) -> None:
    if len(real.vols) != m:
        raise GridMismatch(
            f"{len(real.vols)} volatility components vs {m} driver columns")


def coordinate_rows(carrier: Carrier,
                    increments: levy.IncrementMatrix) -> Iterator[np.ndarray]:
    """Integrate dY = (B Y + alpha_V) dt + sum_k sigma_V^k(r_-) dX^k from
    Y_0 = v0 against the provided increments (noise enters at the left
    endpoint), yielding Y at every time of the carrier's grid; r = psi +
    Y . V is the whole state.  Set-up checks raise here.

    Both schemes step through the kernel of ensemble_moments: additive
    noise takes the exact affine update, state-scaled volatility the
    explicit first-order euler step (_coordinate_step).  For d >= 2 the
    rows agree with path s of ensemble_moments over the same seed to
    rounding, not always bit for bit: numpy steps this (d,) state by a
    matrix-vector product and a (d, P) block of paths by a matrix
    product, which can round differently."""
    n_steps = len(carrier.t_grid) - 1
    dt = _uniform_dt(carrier.t_grid)
    if increments.n_steps != n_steps:
        raise GridMismatch(
            f"{increments.n_steps} increments for {n_steps} time steps")
    if not math.isclose(increments.dt, dt, rel_tol=1e-9, abs_tol=1e-14):
        raise GridMismatch(f"increment dt {increments.dt} vs time grid dt {dt}")
    _check_driver(carrier.real, increments.m)
    return _affine_rows(carrier.v0.copy(), _coordinate_step(carrier, dt),
                        increments.values)


# seeds per path block of ensemble_moments: BLOCK_VALUES // (n_t m), about
# 2 MB of float64 increments
BLOCK_VALUES = 2 ** 18

# times per reduction: one thin (paths, d) row alone reduces about four
# times slower per value
_WINDOW = 8


def ensemble_moments(carrier: Carrier, spec: levy.LevySpec,
                     seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo over per-seed driver streams, in either scheme: the
    sample mean and variance (ddof=1) of the coordinates at every time
    of the carrier's grid, each (n_t+1, dim).  Path p is driven by the same
    increments as seed seeds[p].  Paths are drawn, stepped and reduced one
    block of seeds at a time, so memory does not grow with their number:
    with two or more blocks a forked child draws block b + 1 into shared
    memory while this process steps and reduces block b (`forked.ahead`),
    with the same bits as drawing them here.  Set-up checks raise before
    the first draw.

    A block of P paths steps as one (d, P) state, one column per path, over
    the (m, P) increments of each step.  Every _WINDOW states are copied
    into one (P, _WINDOW, d) buffer and reduced over its path axis, in path
    order.  The mean sums over paths one path at a time, as numpy reduces
    the whole (paths, n_t+1, dim) array, so its bits are that array's
    mean(axis=0).  Block variances merge by the pairwise update of Chan,
    Golub & LeVeque (1979): within one block the bits are var(axis=0,
    ddof=1), beyond it they differ by rounding."""
    real = carrier.real
    dt = _uniform_dt(carrier.t_grid)
    _check_driver(real, spec.m)
    step = _coordinate_step(carrier, dt)
    n_steps = len(carrier.t_grid) - 1
    per_block = max(2, BLOCK_VALUES // (n_steps * spec.m))
    # a lone last path joins the block before it: numpy steps a (d, 1)
    # block by a matrix-vector product, which rounds unlike the matrix
    # product that steps the columns of a wider block
    stops = [*range(per_block, len(seeds) - 1, per_block), len(seeds)]
    y0 = carrier.v0.reshape(real.dim, 1)
    total = np.zeros((n_steps + 1, real.dim))
    m2 = np.zeros_like(total)
    bounds = list(zip([0, *stops], stops))
    window = np.empty((max(b - a for a, b in bounds), _WINDOW, real.dim))
    count = 0

    def draw(b, out):
        start, stop = bounds[b]
        levy.sample_increment_ensemble(spec, dt, n_steps, seeds[start:stop],
                                       out=out)

    shapes = [(spec.m, stop - start, n_steps) for start, stop in bounds]
    with forked.ahead(draw, shapes) as blocks:
        for inc in blocks:  # (m, paths, n_steps)
            size = inc.shape[1]
            rows = _affine_rows(np.repeat(y0, size, axis=1), step,
                                inc.transpose(2, 0, 1))
            for first in range(0, n_steps + 1, _WINDOW):
                at = slice(first, min(first + _WINDOW, n_steps + 1))
                for j, y in enumerate(itertools.islice(rows, _WINDOW)):
                    window[:size, j] = y.T
                ys = window[:size, :at.stop - first]  # (paths, times, d)
                block_sum = np.add.reduce(ys, axis=0)
                mean = block_sum / size
                dev = ys - mean
                block_m2 = np.add.reduce(dev * dev, axis=0)
                if count:
                    delta = mean - total[at] / count
                    m2[at] += block_m2 + delta * delta * (count * size
                                                          / (count + size))
                    total[at] = np.add.reduce(
                        np.concatenate([total[at][None], ys]), axis=0)
                else:
                    m2[at] = block_m2
                    total[at] = block_sum
            count += size
    return total / count, m2 / max(count - 1, 0)


# ---------------------------------------------------------------------------
# sampled paths


@frozen
class GridPath:
    """Sampled path: values[n] are the state samples at t_grid[n] over the
    axis labels in x_grid (grid points, mode ordinals, or profile x ray
    flattened positions)."""

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
