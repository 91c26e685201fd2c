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

Each kind is a dataclass whose fields are its parameters and whose methods
are the one place for its facts (see OperatorSpec).  A mode has two
eigenvalues: `proof_eigenvalue`, the classical Sturm-Liouville value of the
separated problem (n^2 for the cable's u'' + lambda u = 0), and
`generator_eigenvalue`, the factor A applies to the eigenfunction
(-(lambda_c^2 n^2 + 1)/tau on sin(n x)).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import ClassVar, Iterable, Iterator

import numpy as np

from .errors import (
    BracketFailure,
    DomainError,
    GridMismatch,
    GridTooSmall,
    UnstableConfig,
    UnsupportedOperator,
)
from .funalg import QExpFunction, differentiate, evaluate
from .grids import Grid1D


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
    """q-th positive zero of J_p in the catalog's range p <= 20, q <= 50."""
    if not (0 <= p <= 20):
        raise DomainError(f"order out of the supported range [0, 20]: {p}")
    if not (1 <= q <= 50):
        raise DomainError(f"zero index out of the supported range [1, 50]: {q}")
    return _zero_scan(p, q)


def _zero_scan(p: int, q: int) -> float:
    """q-th positive zero of J_p via sign-change scan plus bisection."""
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
# operator specifications: each kind answers for itself


class OperatorSpec:
    """A generator kind.  The defaults refuse as the transport family, of
    continuous spectrum, does.  proof_eigenvalue(index), generator_eigenvalue
    (index) and values(index, points) take an index canonical_index(idx)
    returns; sample_points() are the nine points eigen.csv samples."""

    theta: ClassVar[float] = 1.0          # theta of the grid oracle's steps
    dirichlet: ClassVar[bool] = False     # a grid element must vanish at the ends
    modal_oracle: ClassVar[bool] = False  # grid stepping is refused
    bad_parameters: ClassVar[str] = ""    # the refusal of a field outside (0, inf)

    def __post_init__(self):
        if not all(0 < getattr(self, f.name) < math.inf for f in fields(self)):
            raise UnsupportedOperator(self.bad_parameters)

    def _no_eigenbasis(self, *_):
        raise UnsupportedOperator(f"{type(self).__name__} has no discrete eigenbasis")

    canonical_index = proof_eigenvalue = generator_eigenvalue = _no_eigenbasis
    values = sample_points = _no_eigenbasis

    def catalog(self, count: int) -> list:
        """The first count indices in increasing Sturm-Liouville order."""
        raise UnsupportedOperator(
            "first-order transport has continuous spectrum; no eigenpair catalog")

    def eigenfunction(self, index) -> QExpFunction:
        """The eigenfunction as a quasi-exponential (the 1-D Dirichlet pair)."""
        self.canonical_index(index)
        raise UnsupportedOperator(
            f"{type(self).__name__} eigenfunctions are not quasi-exponential")

    def apply_qexp(self, f: QExpFunction) -> QExpFunction:
        """A f, for the differential 1-D generators."""
        raise DomainError(
            f"{type(self).__name__} does not act on raw quasi-exponential input; "
            "pass an eigen-expansion")

    def diagonals(self, grid: Grid1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pinned stencil of operator_matrix on grid."""
        raise UnsupportedOperator(f"no 1-D grid stencil for {type(self).__name__}; "
                                  f"use the spectral route")


@dataclass(frozen=True)
class Translation(OperatorSpec):
    def apply_qexp(self, f):
        return differentiate(f)

    def diagonals(self, grid):
        """Forward differences (characteristics enter from the right), the
        far end of the truncated half line pinned."""
        n, dx = grid.n, grid.dx
        main = np.full(n, -1.0 / dx)
        main[-1] = 0.0
        return np.zeros(n - 1), main, np.full(n - 1, 1.0 / dx)


@dataclass(frozen=True)
class Transport(Translation):
    """The unit-speed transport <v, grad>, v = 1: on the half line and on
    each ray it is Translation's d/dx, with its own name in reports."""


class _Dirichlet1D(OperatorSpec):
    """A Sturm-Liouville generator on (0, length) with Dirichlet ends: modes
    n >= 1 with quasi-exponential eigenfunctions phi_n."""

    dirichlet = True

    def canonical_index(self, idx):
        n = int(idx)
        if n < 1:
            raise DomainError(f"mode index must be >= 1, got {idx}")
        return n

    def catalog(self, count):
        return list(range(1, count + 1))

    def values(self, index, points):
        return evaluate(self.eigenfunction(index), points)

    def sample_points(self):
        return np.linspace(0.0, self.length, 9)


@dataclass(frozen=True)
class Cable(_Dirichlet1D):
    tau: float = 1.0
    lambda_c: float = 1.0
    theta = 0.5  # Crank-Nicolson
    length = math.pi
    bad_parameters = "cable parameters must be finite and positive"

    def proof_eigenvalue(self, n):
        return float(n ** 2)

    def generator_eigenvalue(self, n):
        return -(self.lambda_c ** 2 * n ** 2 + 1.0) / self.tau

    def eigenfunction(self, n):
        return QExpFunction.trig("sin", float(n))

    def apply_qexp(self, f):
        d2 = differentiate(differentiate(f))
        return (self.lambda_c ** 2 / self.tau) * d2 - (1.0 / self.tau) * f

    def diagonals(self, grid):
        """The central second difference, both ends pinned."""
        n, dx = grid.n, grid.dx
        c2 = self.lambda_c ** 2 / (self.tau * dx * dx)
        lower, upper = np.full(n - 1, c2), np.full(n - 1, c2)
        main = np.full(n, -2.0 * c2 - 1.0 / self.tau)
        main[[0, -1]] = lower[-1] = upper[0] = 0.0
        return lower, main, upper


@dataclass(frozen=True)
class TermStructure2(_Dirichlet1D):
    kappa: float = 1.0
    modal_oracle = True
    length = 1.0
    bad_parameters = "kappa must be finite and positive"

    def proof_eigenvalue(self, n):
        return (1.0 + n * n * math.pi ** 2 * self.kappa ** 2) / (2.0 * self.kappa)

    generator_eigenvalue = proof_eigenvalue

    def eigenfunction(self, n):
        return QExpFunction.trig("sin", n * math.pi, rate=-1.0 / self.kappa)

    def apply_qexp(self, f):
        d1 = differentiate(f)
        return (-0.5 * self.kappa) * differentiate(d1) - d1

    def diagonals(self, grid):
        raise UnstableConfig(
            "term-structure generator has unbounded growing spectrum; grid "
            "stepping is ill-posed, use the modal solver")


class _Ladder(OperatorSpec):
    """Products over d coordinates of a polynomial ladder: A multiplies the
    product of degrees beta by |beta|; sample_range spans the sample axis."""

    def __post_init__(self):
        if self.d < 1:
            raise UnsupportedOperator("dimension must be >= 1")

    def canonical_index(self, idx):
        beta = tuple(int(b) for b in idx)
        if len(beta) != self.d or any(b < 0 for b in beta):
            raise DomainError(f"bad multi-index {idx} for d = {self.d}")
        return beta

    def proof_eigenvalue(self, beta):
        return float(sum(beta))

    generator_eigenvalue = proof_eigenvalue

    def catalog(self, count):
        by_degree = itertools.chain.from_iterable(
            _multi_indices(level, self.d) for level in itertools.count())
        return list(itertools.islice(by_degree, count))

    def values(self, index, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != self.d:
            raise GridMismatch(
                f"points have dimension {pts.shape[1]}, operator has d = {self.d}")
        out = np.ones(pts.shape[0])
        for i, b in enumerate(index):
            out = out * self.polynomial(b, pts[:, i])
        return out

    def sample_points(self):
        return np.tile(np.linspace(*self.sample_range, 9)[:, None], (1, self.d))


@dataclass(frozen=True)
class Hermite(_Ladder):
    d: int = 1
    polynomial = staticmethod(hermite_value)
    sample_range = (-2.0, 2.0)


@dataclass(frozen=True)
class Laguerre(_Ladder):
    d: int = 1
    polynomial = staticmethod(laguerre_value)
    sample_range = (0.0, 4.0)


@dataclass(frozen=True)
class HeatDisk(OperatorSpec):
    a: float = 1.0
    bad_parameters = "diffusivity must be finite and positive"

    def canonical_index(self, idx):
        p, q, parity = idx
        p, q = int(p), int(q)
        if p < 0 or q < 1 or parity not in ("cos", "sin") or (p == 0 and parity == "sin"):
            raise DomainError(f"bad disk index {idx}")
        return (p, q, parity)

    def proof_eigenvalue(self, index):
        return bessel_zero(*index[:2])

    def generator_eigenvalue(self, index):
        return -self.a * bessel_zero(*index[:2]) ** 2

    def catalog(self, count):
        """Refused once the count-th zero reaches j_{21,1}: bessel_zero stops at p = 20."""
        # every zero below j_{21,1} ~ 26.49 has q <= 8, as j_{0,9} ~ 27.49
        modes = disk_indices(min(count + 1, 20), min(count + 1, 8))[:count]
        if modes and bessel_zero(*modes[-1][:2]) >= _zero_scan(21, 1):
            raise DomainError(f"the first {count} disk modes reach order 21, "
                              "beyond bessel_zero's p <= 20")
        return modes

    def values(self, index, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise GridMismatch("disk eigenfunctions expect (r, phi) pairs")
        p, q, parity = index
        trig = np.cos if parity == "cos" else np.sin
        return bessel_j(p, bessel_zero(p, q) * pts[:, 0]) * trig(p * pts[:, 1])

    def sample_points(self):
        return [(r, phi) for r in (0.25, 0.5, 0.75)
                for phi in (0.0, math.pi / 4, math.pi / 2)]


# The catalog by its scenario and `eigen --operator` names: a class's fields
# are the kind's parameters, with their defaults.
KINDS = {"translation": Translation, "transport": Transport, "cable": Cable,
         "heat_disk": HeatDisk, "hermite": Hermite, "laguerre": Laguerre,
         "term_structure_2": TermStructure2}


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
        for idx, c in items:
            idx = op.canonical_index(idx)
            merged[idx] = merged.get(idx, 0.0) + float(c)
        kept = tuple(sorted(
            ((idx, c) for idx, c in merged.items() if c != 0.0),
            key=lambda t: repr(t[0])))
        return cls(op, kept)

    @property
    def is_zero(self) -> bool:
        return not self.items

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


# ---------------------------------------------------------------------------
# eigen data


@dataclass(frozen=True)
class EigenPair:
    index: object
    eigenvalue: float
    generator_eigenvalue: float


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


def disk_indices(p_max: int, q_max: int) -> list:
    """The disk indices (p, q, parity) with p <= p_max and q <= q_max, in
    increasing order of the Bessel zero, cos before sin."""
    out = [(p, q, parity) for p in range(p_max + 1) for q in range(1, q_max + 1)
           for parity in (("cos",) if p == 0 else ("cos", "sin"))]
    out.sort(key=lambda i: (bessel_zero(i[0], i[1]), i[2]))
    return out


def eigenpairs(op: OperatorSpec, count_or_indices) -> list[EigenPair]:
    """First `count` eigenpairs in increasing Sturm-Liouville order, or the
    pairs for an explicit index list; the kind's `values` evaluates their
    eigenfunctions."""
    if isinstance(count_or_indices, int):
        indices = op.catalog(count_or_indices)
    else:
        indices = [op.canonical_index(i) for i in count_or_indices]
    return [EigenPair(i, op.proof_eigenvalue(i), op.generator_eigenvalue(i))
            for i in indices]


# ---------------------------------------------------------------------------
# exact action


def apply_exact(op: OperatorSpec, f):
    """Apply the generator symbolically.  QExpFunction inputs are accepted by
    the differential 1-D operators, RayBundle by the wedge transport, and
    EigenExpansion by every operator with a discrete eigenbasis."""
    if isinstance(f, QExpFunction):
        return op.apply_qexp(f)
    if isinstance(f, RayBundle):
        if not isinstance(op, Translation):
            raise DomainError("ray bundles only support transport generators")
        return RayBundle.make((lbl, differentiate(fn)) for lbl, fn in f.parts)
    if isinstance(f, EigenExpansion):
        if f.op != op:
            raise GridMismatch("expansion belongs to a different operator")
        return EigenExpansion.make(
            op, tuple((idx, c * op.generator_eigenvalue(idx)) for idx, c in f.items))
    raise DomainError(f"cannot apply generator to {type(f).__name__}")


# ---------------------------------------------------------------------------
# finite-difference action


def operator_matrix(op: OperatorSpec, grid: Grid1D
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pinned finite-difference generator on a uniform grid as its
    (lower, main, upper) diagonals, of lengths n-1, n and n-1: row i of A r
    is lower[i-1] r[i-1] + main[i] r[i] + upper[i] r[i+1], as the kind's
    `diagonals` gives them.  Pinned rows are zero: they are held at their
    initial values while stepping."""
    if grid.n < 5:
        raise GridTooSmall(f"stencils need at least 5 points, got {grid.n}")
    return op.diagonals(grid)


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
