"""Operator catalog: generators, eigenpairs, exact and grid actions.

Catalog (state space, generator A, boundary):

  Translation        d/dx on quasi-exponential curves over [0, inf)
  Transport          <v, grad> : 1-D half line (v = 1) on quasi-exponential
                     curves, or the 2-D wedge C = {(s, y) : y >= -s} with
                     v = (1, -1) on bundles profile x ray-function (RayBundle)
  Cable              (lambda_c^2 d^2/dx^2 - 1)/tau, Dirichlet on (0, pi)
  HeatDisk           a * Laplacian on the unit disk, Dirichlet boundary
  Hermite            -Laplacian/2 + <x, grad> on R^d, Gaussian weight
  Laguerre           -sum_i (x_i d_i^2 + (1 - x_i) d_i) on (0, inf)^d
  TermStructure2     -(kappa/2) d^2/dx^2 - d/dx, Dirichlet on (0, 1)

Eigen data carries two numbers per mode.  `eigenvalue` is the classical
Sturm-Liouville value of the separated problem (n^2 for the cable problem
u'' + lambda u = 0, the q-th positive zero of J_p for the disk, n for the
Hermite and Laguerre ladders, (1 + n^2 pi^2 kappa^2)/(2 kappa) for the term
structure family).  `generator_eigenvalue` is the factor A actually applies
to the eigenfunction:

  Cable            -(lambda_c^2 n^2 + 1)/tau        on sin(n x)
  HeatDisk         -a * zero^2                      on trig(p phi) J_p(zero r)
  Hermite          +n                               on products of H_beta
  Laguerre         +n                               on products of L_beta
  TermStructure2   +(1 + n^2 pi^2 kappa^2)/(2 kappa) on e^{-x/kappa} sin(n pi x)

Translation and Transport have continuous spectrum; eigenpairs refuses them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import (
    BracketFailure,
    DomainError,
    GridMismatch,
    GridTooSmall,
    UnstableConfig,
    UnsupportedOperator,
)
from .funalg import QExpFunction, differentiate
from .grids import Grid1D


# ---------------------------------------------------------------------------
# operator specifications


@dataclass(frozen=True)
class Translation:
    pass


@dataclass(frozen=True)
class Transport(Translation):
    """The unit-speed transport <v, grad>, v = 1: on the half line and on
    each ray it is Translation's d/dx, with its own name in reports."""


@dataclass(frozen=True)
class Cable:
    tau: float = 1.0
    lambda_c: float = 1.0

    def __post_init__(self):
        if not (0 < self.tau < math.inf and 0 < self.lambda_c < math.inf):
            raise UnsupportedOperator("cable parameters must be finite and positive")


@dataclass(frozen=True)
class HeatDisk:
    a: float = 1.0

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise UnsupportedOperator("diffusivity must be finite and positive")


@dataclass(frozen=True)
class Hermite:
    d: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise UnsupportedOperator("dimension must be >= 1")


@dataclass(frozen=True)
class Laguerre:
    d: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise UnsupportedOperator("dimension must be >= 1")


@dataclass(frozen=True)
class TermStructure2:
    kappa: float = 1.0

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise UnsupportedOperator("kappa must be finite and positive")


OperatorSpec = Union[Translation, Transport, Cable, HeatDisk, Hermite,
                     Laguerre, TermStructure2]


# ---------------------------------------------------------------------------
# function representations beyond plain QExpFunction


@dataclass(frozen=True)
class RayBundle:
    """Function on the transport wedge written as sum_i profile_i (x) ray_i(t)
    along characteristics: value at boundary point + t * v is
    profile weight times ray(t).  Profiles are opaque labels; distinct labels
    are treated as orthonormal directions of the boundary factor."""

    parts: tuple[tuple[str, QExpFunction], ...] = ()

    @classmethod
    def make(cls, parts: Iterable[tuple[str, QExpFunction]]) -> "RayBundle":
        merged: dict[str, QExpFunction] = {}
        for label, fn in parts:
            merged[label] = merged.get(label, QExpFunction()) + fn
        return cls(tuple(sorted(
            (lbl, fn) for lbl, fn in merged.items() if not fn.is_zero)))

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def __add__(self, other):
        if not isinstance(other, RayBundle):
            return NotImplemented
        return RayBundle.make(self.parts + other.parts)

    def __mul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        return RayBundle.make((lbl, fn * c) for lbl, fn in self.parts)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * (-1.0)


@dataclass(frozen=True)
class EigenExpansion:
    """Finite combination of catalog eigenfunctions, stored as coefficients."""

    op: OperatorSpec
    items: tuple[tuple[object, float], ...] = ()

    @classmethod
    def make(cls, op, items) -> "EigenExpansion":
        merged: dict = {}
        for idx, c in dict(items).items() if isinstance(items, dict) else items:
            idx = _canonical_index(op, idx)
            merged[idx] = merged.get(idx, 0.0) + float(c)
        kept = tuple(sorted(
            ((idx, c) for idx, c in merged.items() if c != 0.0),
            key=lambda t: repr(t[0])))
        return cls(op, kept)

    @property
    def is_zero(self) -> bool:
        return not self.items

    def coefficients(self) -> dict:
        return dict(self.items)

    def __add__(self, other):
        if not isinstance(other, EigenExpansion) or other.op != self.op:
            return NotImplemented
        return EigenExpansion.make(self.op, self.items + other.items)

    def __mul__(self, c):
        if not isinstance(c, (int, float)):
            return NotImplemented
        return EigenExpansion.make(self.op, tuple((i, v * c) for i, v in self.items))

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + other * (-1.0)


def _canonical_index(op, idx):
    if isinstance(op, (Cable, TermStructure2)):
        n = int(idx)
        if n < 1:
            raise DomainError(f"mode index must be >= 1, got {idx}")
        return n
    if isinstance(op, (Hermite, Laguerre)):
        beta = tuple(int(b) for b in idx)
        if len(beta) != op.d or any(b < 0 for b in beta):
            raise DomainError(f"bad multi-index {idx} for d = {op.d}")
        return beta
    if isinstance(op, HeatDisk):
        p, q, parity = idx
        p, q = int(p), int(q)
        if p < 0 or q < 1 or parity not in ("cos", "sin") or (p == 0 and parity == "sin"):
            raise DomainError(f"bad disk index {idx}")
        return (p, q, parity)
    raise UnsupportedOperator(f"{type(op).__name__} has no discrete eigenbasis")


# ---------------------------------------------------------------------------
# Bessel functions of the first kind, integer order

_SERIES_CUTOFF = 12.0


def _bessel_series(p: int, x: float) -> float:
    half = 0.5 * x
    term = half ** p / math.factorial(p)
    total = term
    k = 0
    while True:
        k += 1
        term *= -(half * half) / (k * (k + p))
        total += term
        if abs(term) < 1e-18 * max(1.0, abs(total)) and k > 4:
            return total


def _bessel_miller(p: int, x: float) -> float:
    """Downward three-term recurrence normalized by J_0 + 2 sum J_{2k} = 1."""
    m = int(max(x, p)) + 60
    jkp1 = 0.0
    jk = 1e-280
    captured = 0.0
    even_sum = 0.0
    if m == p:
        captured = jk
    for k in range(m, 0, -1):
        jkm1 = (2.0 * k / x) * jk - jkp1
        jkp1, jk = jk, jkm1
        if abs(jk) > 1e240:
            jk *= 1e-240
            jkp1 *= 1e-240
            captured *= 1e-240
            even_sum *= 1e-240
        if k - 1 == p:
            captured = jk
        if k - 1 >= 2 and (k - 1) % 2 == 0:
            even_sum += 2.0 * jk
    norm = even_sum + jk  # jk now holds J_0
    return captured / norm


def bessel_j(p: int, x) -> float | np.ndarray:
    """J_p for integer p >= 0: power series for |x| <= 12, downward
    recurrence beyond.  Absolute accuracy ~1e-13 through the catalog range."""
    if p < 0 or p != int(p):
        raise DomainError(f"order must be a nonnegative integer, got {p}")
    p = int(p)
    if isinstance(x, (list, tuple, np.ndarray)):
        arr = np.asarray(x, dtype=float)
        return np.array([bessel_j(p, float(v)) for v in arr.ravel()]).reshape(arr.shape)
    x = float(x)
    if x < 0:
        return (-1.0) ** p * bessel_j(p, -x)
    if x == 0.0:
        return 1.0 if p == 0 else 0.0
    if x <= _SERIES_CUTOFF:
        return _bessel_series(p, x)
    return _bessel_miller(p, x)


@functools.lru_cache(maxsize=16384)
def bessel_zero(p: int, q: int) -> float:
    """q-th positive zero of J_p via sign-change scan plus bisection."""
    if not (0 <= p <= 20):
        raise DomainError(f"order out of the supported range [0, 20]: {p}")
    if not (1 <= q <= 50):
        raise DomainError(f"zero index out of the supported range [1, 50]: {q}")
    step = 0.25
    x = max(0.5, float(p))
    fx = bessel_j(p, x)
    found = 0
    limit = p + (q + 3) * math.pi + 25.0
    while x < limit:
        x2 = x + step
        fx2 = bessel_j(p, x2)
        if fx == 0.0:
            found += 1
            if found == q:
                return x
        elif fx * fx2 < 0.0:
            found += 1
            if found == q:
                lo, hi, flo = x, x2, fx
                while hi - lo > 1e-14 * max(1.0, hi):
                    mid = 0.5 * (lo + hi)
                    fm = bessel_j(p, mid)
                    if fm == 0.0:
                        return mid
                    if flo * fm < 0.0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                return 0.5 * (lo + hi)
        x, fx = x2, fx2
    raise BracketFailure(f"did not locate zero ({p}, {q}) below x = {limit:.1f}")


# ---------------------------------------------------------------------------
# orthogonal polynomial ladders (recurrences; H_0 = L_0 = 1)


def hermite_value(n: int, x) -> np.ndarray:
    """H_n with recurrence H_{k+1} = 2 x H_k - 2 k H_{k-1}; this is the
    convention solving -H''/2 + x H' = n H."""
    x = np.asarray(x, dtype=float)
    hkm1 = np.zeros_like(x)
    hk = np.ones_like(x)
    for k in range(n):
        hkm1, hk = hk, 2.0 * x * hk - 2.0 * k * hkm1
    return hk


def laguerre_value(n: int, x) -> np.ndarray:
    """L_n with (k+1) L_{k+1} = (2k + 1 - x) L_k - k L_{k-1}; solves
    x L'' + (1 - x) L' + n L = 0."""
    x = np.asarray(x, dtype=float)
    lkm1 = np.zeros_like(x)
    lk = np.ones_like(x)
    for k in range(n):
        lkm1, lk = lk, ((2.0 * k + 1.0 - x) * lk - k * lkm1) / (k + 1.0)
    return lk


# ---------------------------------------------------------------------------
# eigen data


def proof_eigenvalue(op: OperatorSpec, index) -> float:
    """Classical Sturm-Liouville eigenvalue of the separated problem."""
    index = _canonical_index(op, index)
    if isinstance(op, Cable):
        return float(index ** 2)
    if isinstance(op, TermStructure2):
        n = index
        return (1.0 + n * n * math.pi ** 2 * op.kappa ** 2) / (2.0 * op.kappa)
    if isinstance(op, (Hermite, Laguerre)):
        return float(sum(index))
    if isinstance(op, HeatDisk):
        p, q, _parity = index
        return bessel_zero(p, q)
    raise UnsupportedOperator(f"{type(op).__name__} has no discrete eigenbasis")


def generator_eigenvalue(op: OperatorSpec, index) -> float:
    """Factor the catalog generator applies to the indexed eigenfunction."""
    index = _canonical_index(op, index)
    if isinstance(op, Cable):
        return -(op.lambda_c ** 2 * index ** 2 + 1.0) / op.tau
    if isinstance(op, TermStructure2):
        return proof_eigenvalue(op, index)
    if isinstance(op, (Hermite, Laguerre)):
        return float(sum(index))
    if isinstance(op, HeatDisk):
        p, q, _parity = index
        return -op.a * bessel_zero(p, q) ** 2
    raise UnsupportedOperator(f"{type(op).__name__} has no discrete eigenbasis")


def eigenfunction_qexp(op: OperatorSpec, index) -> QExpFunction:
    """Closed-form 1-D eigenfunctions (cable and term structure families)."""
    index = _canonical_index(op, index)
    if isinstance(op, Cable):
        return QExpFunction.trig("sin", float(index))
    if isinstance(op, TermStructure2):
        return QExpFunction.trig("sin", index * math.pi, rate=-1.0 / op.kappa)
    raise UnsupportedOperator(
        f"{type(op).__name__} eigenfunctions are not quasi-exponential")


@dataclass(frozen=True)
class SpectralFn:
    """Evaluatable eigenfunction for the multi-dimensional catalog entries."""

    op: OperatorSpec
    index: object

    def values(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if isinstance(self.op, (Cable, TermStructure2)):
            from .funalg import evaluate
            return evaluate(eigenfunction_qexp(self.op, self.index), pts)
        if isinstance(self.op, (Hermite, Laguerre)):
            if pts.ndim == 1:
                pts = pts[:, None]
            if pts.shape[1] != self.op.d:
                raise GridMismatch(
                    f"points have dimension {pts.shape[1]}, operator has d = {self.op.d}")
            fn = hermite_value if isinstance(self.op, Hermite) else laguerre_value
            out = np.ones(pts.shape[0])
            for i, b in enumerate(self.index):
                out = out * fn(b, pts[:, i])
            return out
        if isinstance(self.op, HeatDisk):
            if pts.ndim != 2 or pts.shape[1] != 2:
                raise GridMismatch("disk eigenfunctions expect (r, phi) pairs")
            p, q, parity = self.index
            r, phi = pts[:, 0], pts[:, 1]
            radial = bessel_j(p, bessel_zero(p, q) * r)
            angular = np.cos(p * phi) if parity == "cos" else np.sin(p * phi)
            return radial * angular
        raise UnsupportedOperator(f"{type(self.op).__name__} has no eigenfunctions")


@dataclass(frozen=True)
class EigenPair:
    index: object
    eigenvalue: float
    generator_eigenvalue: float
    eigenfunction: QExpFunction | SpectralFn


def _multi_indices(level: int, d: int) -> Iterator[tuple[int, ...]]:
    """The d-tuples of non-negative integers summing to level, in decreasing
    lexicographic order, generated one at a time."""
    index = [level] + [0] * (d - 1)
    while True:
        yield tuple(index)
        # the successor moves one unit from the last nonzero entry before
        # the end to its right neighbour, which takes the tail sum as well
        i = next((i for i in range(d - 2, -1, -1) if index[i]), None)
        if i is None:
            return
        tail, index[-1] = index[-1], 0
        index[i] -= 1
        index[i + 1] = tail + 1


def _enumerate_indices(op: OperatorSpec, count: int) -> list:
    if isinstance(op, (Cable, TermStructure2)):
        return list(range(1, count + 1))
    if isinstance(op, (Hermite, Laguerre)):
        by_degree = itertools.chain.from_iterable(
            _multi_indices(level, op.d) for level in itertools.count())
        return list(itertools.islice(by_degree, count))
    if isinstance(op, HeatDisk):
        cap = count + 2
        ranked = sorted(
            ((bessel_zero(p, q), p, q)
             for p in range(0, min(cap, 21)) for q in range(1, min(cap, 51))),
        )
        out = []
        for _z, p, q in ranked:
            out.append((p, q, "cos"))
            if p > 0:
                out.append((p, q, "sin"))
            if len(out) >= count:
                break
        return out[:count]
    raise UnsupportedOperator(f"{type(op).__name__} has no discrete eigenbasis")


def eigenpairs(op: OperatorSpec, count_or_indices) -> list[EigenPair]:
    """First `count` eigenpairs in increasing Sturm-Liouville order, or the
    pairs for an explicit index list."""
    if isinstance(op, Translation):
        raise UnsupportedOperator(
            "first-order transport has continuous spectrum; no eigenpair catalog")
    if isinstance(count_or_indices, int):
        indices = _enumerate_indices(op, count_or_indices)
    else:
        indices = [_canonical_index(op, i) for i in count_or_indices]
    out = []
    for idx in indices:
        if isinstance(op, (Cable, TermStructure2)):
            fn: QExpFunction | SpectralFn = eigenfunction_qexp(op, idx)
        else:
            fn = SpectralFn(op, idx)
        out.append(EigenPair(idx, proof_eigenvalue(op, idx),
                             generator_eigenvalue(op, idx), fn))
    return out


# ---------------------------------------------------------------------------
# exact action


def apply_exact(op: OperatorSpec, f):
    """Apply the generator symbolically.  QExpFunction inputs are accepted by
    the differential 1-D operators, RayBundle by the wedge transport, and
    EigenExpansion by every operator with a discrete eigenbasis."""
    if isinstance(f, QExpFunction):
        if isinstance(op, Translation):
            return differentiate(f)
        if isinstance(op, Cable):
            d2 = differentiate(differentiate(f))
            return (op.lambda_c ** 2 / op.tau) * d2 - (1.0 / op.tau) * f
        if isinstance(op, TermStructure2):
            d1 = differentiate(f)
            return (-0.5 * op.kappa) * differentiate(d1) - d1
        raise DomainError(
            f"{type(op).__name__} does not act on raw quasi-exponential input; "
            "pass an eigen-expansion")
    if isinstance(f, RayBundle):
        if not isinstance(op, Translation):
            raise DomainError("ray bundles only support transport generators")
        return RayBundle.make((lbl, differentiate(fn)) for lbl, fn in f.parts)
    if isinstance(f, EigenExpansion):
        if f.op != op:
            raise GridMismatch("expansion belongs to a different operator")
        return EigenExpansion.make(
            op, tuple((idx, c * generator_eigenvalue(op, idx)) for idx, c in f.items))
    raise DomainError(f"cannot apply generator to {type(f).__name__}")


# ---------------------------------------------------------------------------
# finite-difference action


def operator_matrix(op: OperatorSpec, grid: Grid1D
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pinned finite-difference generator on a uniform grid as its
    (lower, main, upper) diagonals, of lengths n-1, n and n-1: row i of A r
    is lower[i-1] r[i-1] + main[i] r[i] + upper[i] r[i+1].

    Translation and transport take the forward difference (their
    characteristics enter from the right), the cable the central second
    difference.  Pinned rows are zero: the Dirichlet ends of the cable and
    the far end of the truncated half line, held at their initial values
    while stepping.  The term-structure generator is refused: its spectrum
    grows without bound, so grid stepping amplifies every resolved high
    mode."""
    n, dx = grid.n, grid.dx
    if n < 5:
        raise GridTooSmall(f"stencils need at least 5 points, got {n}")
    if isinstance(op, Translation):
        main = np.full(n, -1.0 / dx)
        main[-1] = 0.0
        return np.zeros(n - 1), main, np.full(n - 1, 1.0 / dx)
    if isinstance(op, Cable):
        c2 = op.lambda_c ** 2 / (op.tau * dx * dx)
        lower, upper = np.full(n - 1, c2), np.full(n - 1, c2)
        main = np.full(n, -2.0 * c2 - 1.0 / op.tau)
        main[[0, -1]] = lower[-1] = upper[0] = 0.0
        return lower, main, upper
    if isinstance(op, TermStructure2):
        raise UnstableConfig(
            "term-structure generator has unbounded growing spectrum; grid "
            "stepping is ill-posed, use the modal solver")
    raise UnsupportedOperator(f"no 1-D grid stencil for {type(op).__name__}; "
                              f"use the spectral route")


# A scan pass whose coefficients all lie below this changes no state value
# beyond rounding, so the scan stops there.
_NEGLIGIBLE = 2.0 ** -60


def _scan_passes(a: np.ndarray) -> list:
    """(shift s, coefficient) of each pass of the doubling scan (Kogge &
    Stone 1973) that sums a first-order recurrence with link coefficients
    a, one per pair of neighbouring rows.  The pass with shift s adds to
    each row the state s rows away times the product of the s links
    between them; that product is a float when all links are equal, else
    an (n - s,) vector.  At most ceil(log2 n) passes."""
    n = a.size + 1
    bound = float(np.max(np.abs(a)))
    coef = float(a[0]) if np.all(a == a[0]) else a
    passes, s = [], 1
    while s < n and bound >= _NEGLIGIBLE:
        passes.append((s, coef))
        coef = coef * coef if isinstance(coef, float) else coef[:-s] * coef[s:]
        bound *= bound
        s *= 2
    return passes


def implicit_solver(diagonals: tuple[np.ndarray, np.ndarray, np.ndarray],
                    theta_dt: float):
    """Factor M = I - theta_dt A once, for A given by its (lower, main,
    upper) diagonals, and return solve(b), which solves M y = b along the
    last axis of a vector or a (k, n) block into a new array: each of the
    k rows takes the bits of its own solve.

    M is diagonally dominant for theta_dt >= 0, so LU without pivoting is
    stable: M = L U with L lower bidiagonal (diagonal p, M's subdiagonal
    l) and U unit upper bidiagonal (superdiagonal u / p, u M's
    superdiagonal).  A solve is the two recurrences
    z_i = (b_i - l_i z_{i-1}) / p_i and y_i = z_i - (u_i / p_i) y_{i+1},
    each summed by a doubling scan."""
    lower, main, upper = diagonals
    lo, up = theta_dt * lower, theta_dt * upper  # minus M's off-diagonals
    p = (1.0 - theta_dt * main).tolist()
    links = (lo * up).tolist()
    for i in range(1, len(p)):
        p[i] -= links[i - 1] / p[i - 1]
    p = np.array(p)
    forward = _scan_passes(lo / p[1:])
    backward = _scan_passes(up / p[:-1])

    def solve(b: np.ndarray) -> np.ndarray:
        y = b / p
        for s, c in forward:
            y[..., s:] += c * y[..., :-s]
        for s, c in backward:
            y[..., :-s] += c * y[..., s:]
        return y

    return solve
