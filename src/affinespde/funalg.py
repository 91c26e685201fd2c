"""Exact algebra of quasi-exponential functions of one variable.

A quasi-exponential function is a finite sum of terms

    c * x^j * exp(mu*x) * cos(nu*x)        kind 'cos'
    c * x^j * exp(mu*x) * sin(nu*x)        kind 'sin'

with integer j >= 0 and nu >= 0.  The family is closed under d/dx, under the
running integral from zero, under pointwise products (product-to-sum trig
identities) and under argument shifts x -> x + t.  Every constructor and
operation returns canonical form: terms sorted by (rate, freq, kind, power),
like terms merged, zero coefficients dropped, and nu = 0 forcing kind 'cos'
(a sin term with zero frequency is identically zero).

Coefficients are floats.  Rates and frequencies that differ by at most
KEY_TOL are treated as the same key when merging, both inside one function
and across a family of functions in span computations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, LinearSolveFailure

KEY_TOL = 1e-12       # absolute tolerance for merging rate/frequency keys
TOL_RANK = 1e-9       # relative singular value cutoff for span dimension
_PRUNE_REL = 1e-14    # relative coefficient threshold dropped as roundoff dust


class Term(NamedTuple):
    coef: float
    power: int
    rate: float
    freq: float
    kind: str  # 'cos' or 'sin'


def _snap_values(values: Iterable[float]) -> dict[float, float]:
    """Map each value to a cluster representative; clusters are runs of
    sorted values with consecutive gaps <= KEY_TOL."""
    vals = sorted(set(values))
    out: dict[float, float] = {}
    if not vals:
        return out
    rep = vals[0]
    prev = vals[0]
    for v in vals:
        if v - prev > KEY_TOL:
            rep = v
        out[v] = rep
        prev = v
    return out


def _canonical(terms: Iterable[Term]) -> tuple[Term, ...]:
    raw = [t for t in terms if t.coef != 0.0]
    if not raw:
        return ()
    rate_map = _snap_values(t.rate for t in raw)
    freq_map = _snap_values(abs(t.freq) for t in raw)
    merged: dict[tuple, float] = {}
    for t in raw:
        coef, freq = t.coef, t.freq
        if freq < 0:
            # cos is even, sin is odd
            freq = -freq
            if t.kind == "sin":
                coef = -coef
        freq = freq_map[freq]
        if abs(freq) <= KEY_TOL:
            if t.kind == "sin":
                continue  # sin(0*x) == 0
            freq = 0.0
        key = (rate_map[t.rate], freq, t.kind, int(t.power))
        merged[key] = merged.get(key, 0.0) + coef
    if not merged:
        return ()
    cmax = max(abs(c) for c in merged.values())
    if cmax == 0.0:
        return ()
    out = [
        Term(c, p, r, f, k)
        for (r, f, k, p), c in merged.items()
        if abs(c) > _PRUNE_REL * cmax
    ]
    out.sort(key=lambda t: (t.rate, t.freq, t.kind, t.power))
    return tuple(out)


@dataclass(frozen=True)
class QExpFunction:
    """Canonical finite sum of quasi-exponential terms."""

    terms: tuple[Term, ...] = ()

    @classmethod
    def from_terms(cls, terms: Iterable) -> "QExpFunction":
        return cls(_canonical(Term(*t) for t in terms))

    @classmethod
    def constant(cls, c: float) -> "QExpFunction":
        return cls.from_terms([(float(c), 0, 0.0, 0.0, "cos")])

    @classmethod
    def exponential(cls, rate: float, coef: float = 1.0) -> "QExpFunction":
        return cls.from_terms([(float(coef), 0, float(rate), 0.0, "cos")])

    @classmethod
    def trig(cls, kind: str, freq: float, rate: float = 0.0,
             power: int = 0, coef: float = 1.0) -> "QExpFunction":
        if kind not in ("cos", "sin"):
            raise ValueError(f"kind must be 'cos' or 'sin', got {kind!r}")
        return cls.from_terms([(float(coef), int(power), float(rate), float(freq), kind)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = QExpFunction.constant(other)
        if not isinstance(other, QExpFunction):
            return NotImplemented
        return QExpFunction(_canonical(self.terms + other.terms))

    __radd__ = __add__

    def __neg__(self):
        return QExpFunction(tuple(t._replace(coef=-t.coef) for t in self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = QExpFunction.constant(other)
        if not isinstance(other, QExpFunction):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return QExpFunction(_canonical(
                t._replace(coef=t.coef * other) for t in self.terms))
        if isinstance(other, QExpFunction):
            return multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, x):
        return evaluate(self, x)

    def __repr__(self):
        return f"QExpFunction({serialize(self)!r})"


ZERO = QExpFunction()


def allclose(f: QExpFunction, g: QExpFunction, tol: float = 1e-12) -> bool:
    """Coefficient-level agreement after canonical key merge, relative to the
    largest coefficient in either function."""
    joined = _canonical(f.terms + tuple(t._replace(coef=-t.coef) for t in g.terms))
    if not joined:
        return True
    scale = max(
        [abs(t.coef) for t in f.terms] + [abs(t.coef) for t in g.terms] + [1.0]
    )
    return max(abs(t.coef) for t in joined) <= tol * scale


def evaluate(f: QExpFunction, x) -> np.ndarray:
    """Pointwise values on a scalar or array argument."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for c, j, mu, nu, kind in f.terms:
        term = c * np.exp(mu * x)
        if j:
            term = term * x ** j
        if nu:
            term = term * (np.cos(nu * x) if kind == "cos" else np.sin(nu * x))
        out = out + term
    return out


def differentiate(f: QExpFunction) -> QExpFunction:
    out: list[Term] = []
    for c, j, mu, nu, kind in f.terms:
        if j:
            out.append(Term(c * j, j - 1, mu, nu, kind))
        if mu:
            out.append(Term(c * mu, j, mu, nu, kind))
        if nu:
            if kind == "cos":
                out.append(Term(-c * nu, j, mu, nu, "sin"))
            else:
                out.append(Term(c * nu, j, mu, nu, "cos"))
    return QExpFunction(_canonical(out))


def _complex_coef_terms(w: complex, power: int, rate: float, freq: float,
                        part: str) -> list[Term]:
    """Terms of Re or Im of w * x^power * exp((rate + i*freq) x)."""
    a, b = w.real, w.imag
    if part == "re":
        cos_c, sin_c = a, -b
    else:
        cos_c, sin_c = b, a
    return [Term(cos_c, power, rate, freq, "cos"),
            Term(sin_c, power, rate, freq, "sin")]


def integrate_from_zero(f: QExpFunction) -> QExpFunction:
    """Antiderivative vanishing at zero: (Tf)(x) = int_0^x f(s) ds.

    Uses the closed form int x^j e^{zx} dx = e^{zx} * sum_i w_i x^i with
    w_i = (-1)^(j-i) (j!/i!) / z^(j+1-i) for z = rate + i*freq != 0, then
    subtracts the value at zero.
    """
    out: list[Term] = []
    for c, j, mu, nu, kind in f.terms:
        if mu == 0.0 and nu == 0.0:
            out.append(Term(c / (j + 1), j + 1, 0.0, 0.0, "cos"))
            continue
        z = complex(mu, nu)
        part = "re" if kind == "cos" else "im"
        fact = math.factorial(j)
        for i in range(j + 1):
            w = c * ((-1) ** (j - i)) * (fact / math.factorial(i)) / z ** (j + 1 - i)
            out.extend(_complex_coef_terms(w, i, mu, nu, part))
        w0 = c * ((-1) ** j) * fact / z ** (j + 1)
        const = w0.real if kind == "cos" else w0.imag
        out.append(Term(-const, 0, 0.0, 0.0, "cos"))
    return QExpFunction(_canonical(out))


def multiply(f: QExpFunction, g: QExpFunction) -> QExpFunction:
    """Pointwise product, expanded back into canonical terms."""
    out: list[Term] = []
    for c1, j1, m1, n1, k1 in f.terms:
        for c2, j2, m2, n2, k2 in g.terms:
            c = c1 * c2
            j = j1 + j2
            mu = m1 + m2
            dif, tot = n1 - n2, n1 + n2
            if k1 == "cos" and k2 == "cos":
                out.append(Term(0.5 * c, j, mu, dif, "cos"))
                out.append(Term(0.5 * c, j, mu, tot, "cos"))
            elif k1 == "sin" and k2 == "sin":
                out.append(Term(0.5 * c, j, mu, dif, "cos"))
                out.append(Term(-0.5 * c, j, mu, tot, "cos"))
            elif k1 == "sin" and k2 == "cos":
                out.append(Term(0.5 * c, j, mu, tot, "sin"))
                out.append(Term(0.5 * c, j, mu, dif, "sin"))
            else:  # cos * sin
                out.append(Term(0.5 * c, j, mu, tot, "sin"))
                out.append(Term(-0.5 * c, j, mu, dif, "sin"))
    return QExpFunction(_canonical(out))


def shift(f: QExpFunction, t: float) -> QExpFunction:
    """Exact argument shift: returns x -> f(x + t)."""
    if t == 0.0:
        return f
    out: list[Term] = []
    for c, j, mu, nu, kind in f.terms:
        amp = c * math.exp(mu * t)
        ct, st = math.cos(nu * t), math.sin(nu * t)
        for i in range(j + 1):
            binom = math.comb(j, i) * t ** (j - i)
            if nu == 0.0:
                out.append(Term(amp * binom, i, mu, 0.0, kind))
            elif kind == "cos":
                out.append(Term(amp * binom * ct, i, mu, nu, "cos"))
                out.append(Term(-amp * binom * st, i, mu, nu, "sin"))
            else:
                out.append(Term(amp * binom * st, i, mu, nu, "cos"))
                out.append(Term(amp * binom * ct, i, mu, nu, "sin"))
    return QExpFunction(_canonical(out))


# ---------------------------------------------------------------------------
# span computations


@dataclass(frozen=True)
class SpanBasis:
    """A linearly independent subset of the input functions together with
    their coefficient matrix over the merged term keys."""

    functions: tuple
    dim: int
    coefficient_matrix: np.ndarray
    keys: tuple = ()


def coefficient_matrix(funcs: Sequence[QExpFunction]):
    """Stack functions into a (n_funcs, n_keys) coefficient matrix with
    rates and frequencies merged across the whole family."""
    all_terms = [t for f in funcs for t in f.terms]
    rate_map = _snap_values(t.rate for t in all_terms)
    freq_map = _snap_values(t.freq for t in all_terms)
    return keyed_matrix([((j, rate_map[mu], freq_map[nu], kind), c)
                         for c, j, mu, nu, kind in f.terms] for f in funcs)


def keyed_matrix(items: Iterable[Iterable[tuple]]):
    """Stack rows of (key, coefficient) pairs into a (n_rows, n_keys)
    matrix, keys in order of first appearance and repeated keys summed."""
    keys: list = []
    index: dict = {}
    rows = []
    for pairs in items:
        row: dict[int, float] = {}
        for key, c in pairs:
            if key not in index:
                index[key] = len(keys)
                keys.append(key)
            k = index[key]
            row[k] = row.get(k, 0.0) + c
        rows.append(row)
    mat = np.zeros((len(rows), max(len(keys), 1)))
    for i, row in enumerate(rows):
        for k, c in row.items():
            mat[i, k] = c
    return mat, tuple(keys)


def rank_and_pivots(mat: np.ndarray):
    """Numerical rank (relative SVD cutoff) and a greedy choice of that many
    row indices via column-pivoted QR on the transpose.  Rows are normalized
    first: spans are scale-invariant, and without this a huge-coefficient
    function would mask independent small ones."""
    if mat.size == 0 or not np.any(mat):
        return 0, []
    scale = np.max(np.abs(mat), axis=1, keepdims=True)
    scaled = mat / np.where(scale == 0.0, 1.0, scale)
    try:
        s = np.linalg.svd(scaled, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure(f"rank decision failed: {exc}") from exc
    if not math.isfinite(s[0]):  # a coefficient overflowed
        raise LinearSolveFailure("rank decision failed: non-finite singular value")
    rank = int(np.sum(s > TOL_RANK * s[0]))
    if rank == 0:
        return 0, []
    return rank, qr_pivots(scaled.T, rank)


def qr_pivots(a: np.ndarray, count: int) -> list[int]:
    """Sorted column indices of the first `count` pivots of column-pivoted
    QR (Businger & Golub 1965).  Each step swaps in the remaining column of
    largest residual norm, the first one on a tie as LAPACK's idamax does,
    and projects it out of the rest by one rank-1 update; the norms are
    recomputed exactly rather than downdated.  With `count` at least the
    column count every column is a pivot and nothing is eliminated."""
    n = a.shape[1]
    if count >= n:
        return list(range(n))
    r = np.array(a, dtype=float)
    perm = np.arange(n)
    for i in range(count):
        norms = np.linalg.norm(r[:, i:], axis=0)
        p = i + int(np.argmax(norms))
        r[:, [i, p]] = r[:, [p, i]]
        perm[[i, p]] = perm[[p, i]]
        if norms[p - i] > 0.0:
            q = r[:, i] / norms[p - i]
            r[:, i + 1:] -= np.outer(q, q @ r[:, i + 1:])
    return sorted(int(j) for j in perm[:count])


# ---------------------------------------------------------------------------
# text grammar
#
#   function := term (('+' | '-') term)*
#   term     := factor ('*' factor)*
#   factor   := NUMBER | 'x' ['^' INT] | 'exp(' LIN ')' | 'cos(' LIN ')'
#             | 'sin(' LIN ')'
#   LIN      := [NUMBER '*'] 'x'           (e.g. "-0.5*x", "x", "-x")

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_FACTOR_RE = re.compile(
    rf"^(?:(?P<num>{_NUM})"
    rf"|(?P<x>x)(?:\^(?P<pow>\d+))?"
    rf"|(?P<fn>exp|cos|sin)\((?P<arg>[^)]*)\))$"
)
_LIN_RE = re.compile(rf"^(?P<sign>[-+])?(?:(?P<num>{_NUM})\*)?x$")


def _split_top(text: str, seps: str) -> list[str]:
    parts, depth, cur = [], 0, ""
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in seps and cur.strip() and i > 0 and text[i - 1] not in "eE+-*(^":
            parts.append(cur)
            cur = ch
        else:
            cur += ch
    if cur.strip():
        parts.append(cur)
    return parts


def _parse_linear(arg: str, where: str) -> float:
    m = _LIN_RE.match(arg.replace(" ", ""))
    if not m:
        raise ConfigError(f"cannot parse linear argument {arg!r} in {where}")
    coef = float(m.group("num")) if m.group("num") else 1.0
    if m.group("sign") == "-":
        coef = -coef
    return coef


def parse_qexp(text: str) -> QExpFunction:
    """Parse the textual grammar into a canonical function."""
    text = text.strip()
    if not text:
        raise ConfigError("empty function text")
    terms: list[Term] = []
    for chunk in _split_top(text, "+-"):
        chunk = chunk.strip()
        sign = 1.0
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:].strip()
        if not chunk:
            raise ConfigError(f"dangling sign in {text!r}")
        coef, power, rate, freq, kind = sign, 0, 0.0, 0.0, "cos"
        for factor in (p.strip() for p in _split_top(chunk, "*") if p.strip("* ")):
            factor = factor.lstrip("*").strip()
            m = _FACTOR_RE.match(factor.replace(" ", ""))
            if not m:
                raise ConfigError(f"cannot parse factor {factor!r} in {text!r}")
            if m.group("num") is not None:
                coef *= float(m.group("num"))
            elif m.group("x"):
                power += int(m.group("pow") or 1)
            else:
                fn, val = m.group("fn"), _parse_linear(m.group("arg"), factor)
                if fn == "exp":
                    rate += val
                else:
                    if freq != 0.0:
                        raise ConfigError(f"more than one trig factor in {chunk!r}")
                    freq, kind = val, fn
        terms.append(Term(coef, power, rate, freq, kind))
    return QExpFunction(_canonical(terms))


def _fmt(v: float) -> str:
    return repr(float(v))


def serialize(f: QExpFunction) -> str:
    """Render canonical text; parse(serialize(f)) reproduces f."""
    if f.is_zero:
        return "0"
    parts = []
    for i, (c, j, mu, nu, kind) in enumerate(f.terms):
        mag = abs(c)
        factors = []
        if mag != 1.0 or (j == 0 and mu == 0.0 and nu == 0.0):
            factors.append(_fmt(mag))
        if j == 1:
            factors.append("x")
        elif j > 1:
            factors.append(f"x^{j}")
        if mu != 0.0:
            factors.append(f"exp({_fmt(mu)}*x)")
        if nu != 0.0:
            factors.append(f"{kind}({_fmt(nu)}*x)")
        body = " * ".join(factors)
        if i == 0:
            parts.append(body if c >= 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c >= 0 else f"- {body}")
    return " ".join(parts)
