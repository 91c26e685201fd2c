"""Multi-component Levy driver: specification, cumulant, exact sampling.

Each component is an independent scalar Levy process

    X^k_t = vol_k * W^k_t + (compound Poisson jumps - compensation),

with finite jump activity.  All jump parts are compensated, so E[X^k_t] = 0.
Jump size laws: a finite atom list, or a two-sided exponential mixture
(up-move with probability p_up and rate rate_up, down-move with rate
rate_down).

Sampling is exact in distribution per step: Gaussian increments plus a
Poisson number of jump sizes per step, minus intensity * mean * dt.  Each
(path seed, component) pair owns an independent counter-based Philox stream
with key = seed * 2^64 + component, seed in [0, 2^64), so runs are
reproducible and no two seeds or components share draws.
"""

from __future__ import annotations

import math
from dataclasses import field
from typing import Sequence

import numpy as np
# numpy loads numpy.random on first use; simulate and verify always draw
# from it, so it loads with the package like every other dependency
import numpy.random

from . import csvio
from .errors import (
    BadProbabilities,
    ConfigError,
    GridMismatch,
    InfiniteVariance,
    MomentExplosion,
    ZeroComponent,
    frozen,
)

_PROB_TOL = 1e-12


@frozen
class AtomicJumps:
    """Finite discrete jump law: ((size, prob), ...)."""

    atoms: tuple[tuple[float, float], ...]

    def validate(self):
        if not self.atoms:
            raise BadProbabilities("atom list is empty")
        probs = [p for _s, p in self.atoms]
        if any(p < 0 for p in probs):
            raise BadProbabilities(f"negative atom probability in {self.atoms}")
        if abs(sum(probs) - 1.0) > _PROB_TOL:
            raise BadProbabilities(f"atom probabilities sum to {sum(probs)}, not 1")

    @property
    def mean(self) -> float:
        return sum(s * p for s, p in self.atoms)

    @property
    def second_moment(self) -> float:
        return sum(s * s * p for s, p in self.atoms)

    def exp_moment(self, z: float) -> float:
        """E[exp(z * size)]; always finite."""
        return sum(p * math.exp(z * s) for s, p in self.atoms)

    def exp_moment_prime(self, z):
        """E[size * exp(z * size)], elementwise for an array z."""
        return sum(p * s * np.exp(z * s) for s, p in self.atoms)

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        sizes = np.array([s for s, _p in self.atoms])
        probs = np.array([p for _s, p in self.atoms])
        probs = probs / probs.sum()
        return gen.choice(sizes, size=n, p=probs) if n else np.zeros(0)


@frozen
class TwoSidedExponentialJumps:
    """Up-jump Exp(rate_up) with probability p_up, down-jump -Exp(rate_down)
    otherwise."""

    p_up: float
    rate_up: float
    rate_down: float

    def validate(self):
        if not 0.0 <= self.p_up <= 1.0:
            raise BadProbabilities(f"p_up = {self.p_up} outside [0, 1]")
        if self.rate_up <= 0 or self.rate_down <= 0:
            raise InfiniteVariance(
                f"two-sided exponential rates must be positive, got "
                f"({self.rate_up}, {self.rate_down})")

    @property
    def mean(self) -> float:
        return self.p_up / self.rate_up - (1 - self.p_up) / self.rate_down

    @property
    def second_moment(self) -> float:
        return 2 * self.p_up / self.rate_up ** 2 + 2 * (1 - self.p_up) / self.rate_down ** 2

    def _check_region(self, z):
        inside = np.ravel((-self.rate_down < z) & (z < self.rate_up))
        if not inside.all():
            raise MomentExplosion(
                f"exp moment of two-sided exponential finite only on "
                f"({-self.rate_down}, {self.rate_up}), "
                f"got z = {np.ravel(z)[inside.argmin()]}")

    def exp_moment(self, z: float) -> float:
        self._check_region(z)
        up = self.p_up * self.rate_up / (self.rate_up - z)
        dn = (1 - self.p_up) * self.rate_down / (self.rate_down + z)
        return up + dn

    def exp_moment_prime(self, z):
        """E[size * exp(z * size)], elementwise for an array z."""
        self._check_region(z)
        # float_power squares by libm's pow, as the scalar ** of numpy
        # and Python does; an array's ** 2 multiplies, which can round
        # differently
        up = self.p_up * self.rate_up / np.float_power(self.rate_up - z, 2)
        dn = (1 - self.p_up) * self.rate_down / np.float_power(
            self.rate_down + z, 2)
        return up - dn

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        if not n:
            return np.zeros(0)
        up = gen.random(n) < self.p_up
        mags_up = gen.exponential(1.0 / self.rate_up, n)
        mags_dn = gen.exponential(1.0 / self.rate_down, n)
        return np.where(up, mags_up, -mags_dn)


JumpLaw = AtomicJumps | TwoSidedExponentialJumps


@frozen
class LevyComponent:
    """One scalar component: its Brownian volatility and its compound
    Poisson jumps, at jump_intensity with sizes drawn from jump_law."""

    brownian_vol: float = 0.0
    jump_intensity: float = 0.0
    jump_law: JumpLaw | None = None

    @property
    def compensation_rate(self) -> float:
        """Drift subtracted per unit time so the component is a martingale."""
        if self.jump_intensity and self.jump_law is not None:
            return self.jump_intensity * self.jump_law.mean
        return 0.0

    @property
    def variance_rate(self) -> float:
        """Var[X_t] / t."""
        out = self.brownian_vol ** 2
        if self.jump_intensity and self.jump_law is not None:
            out += self.jump_intensity * self.jump_law.second_moment
        return out


@frozen
class LevySpec:
    """The driver: m independent components, one per noise coordinate."""

    components: tuple[LevyComponent, ...]

    @property
    def m(self) -> int:
        return len(self.components)


def make_levy_spec(components: Sequence[LevyComponent | dict]) -> LevySpec:
    """Validate and freeze a driver specification.

    Dict entries take keys brownian_vol, jump_intensity and at most one of
    atoms = [[size, prob], ...] or two_sided_exp = {p_up, rate_up, rate_down}.
    A jump law and a positive jump intensity come together or not at all.
    """
    if not components:
        raise ConfigError("driver needs at least one component")
    out = []
    for i, comp in enumerate(components):
        if isinstance(comp, dict):
            if comp.get("atoms") is not None and comp.get("two_sided_exp") is not None:
                raise ConfigError(f"component {i}: one jump law, atoms or "
                                  f"two_sided_exp, not both")
            law = None
            if comp.get("atoms") is not None:
                law = AtomicJumps(tuple((float(s), float(p)) for s, p in comp["atoms"]))
            elif comp.get("two_sided_exp") is not None:
                tse = comp["two_sided_exp"]
                law = TwoSidedExponentialJumps(
                    float(tse["p_up"]), float(tse["rate_up"]), float(tse["rate_down"]))
            comp = LevyComponent(
                brownian_vol=float(comp.get("brownian_vol", 0.0)),
                jump_intensity=float(comp.get("jump_intensity", 0.0)),
                jump_law=law)
        if comp.brownian_vol < 0:
            raise ConfigError(f"component {i}: negative Brownian volatility")
        if not math.isfinite(comp.brownian_vol * comp.brownian_vol):
            raise ConfigError(f"component {i}: Brownian variance brownian_vol^2 "
                              f"is not a finite float")
        if comp.jump_intensity < 0:
            raise ConfigError(f"component {i}: negative jump intensity")
        if comp.jump_intensity > 0 and comp.jump_law is None:
            raise BadProbabilities(f"component {i}: jump intensity without a jump law")
        if comp.jump_law is not None:
            comp.jump_law.validate()
        if comp.brownian_vol == 0.0 and (
                comp.jump_intensity == 0.0 or comp.jump_law is None):
            raise ZeroComponent(f"component {i} has no Brownian and no jump part")
        if comp.jump_law is not None and comp.jump_intensity == 0:
            raise ConfigError(f"component {i}: a jump law needs a positive "
                              f"jump intensity")
        out.append(comp)
    return LevySpec(tuple(out))


def cumulant(spec: LevySpec, z) -> float:
    """Levy exponent Psi(z) = sum_k [vol_k^2 z_k^2 / 2
    + intensity_k (E[e^{z_k S}] - 1 - z_k E[S])], so that
    E[exp(<z, X_t>)] = exp(t Psi(z))."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (spec.m,):
        raise GridMismatch(f"cumulant argument has shape {z.shape}, driver has m = {spec.m}")
    total = 0.0
    for zk, comp in zip(z, spec.components):
        total += 0.5 * comp.brownian_vol ** 2 * zk ** 2
        if comp.jump_intensity and comp.jump_law is not None:
            law = comp.jump_law
            total += comp.jump_intensity * (law.exp_moment(zk) - 1.0 - zk * law.mean)
    return float(total)


def cumulant_gradient(spec: LevySpec, z) -> np.ndarray:
    """Componentwise derivative dPsi/dz_k at z (Psi is a sum over components),
    for z of shape (m,), or (m, n) for n points at once."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.ndim > 2 or z.shape[0] != spec.m:
        raise GridMismatch(f"gradient argument has shape {z.shape}, driver has m = {spec.m}")
    out = np.zeros(z.shape)
    for k, (zk, comp) in enumerate(zip(z, spec.components)):
        g = comp.brownian_vol ** 2 * zk
        if comp.jump_intensity and comp.jump_law is not None:
            law = comp.jump_law
            g += comp.jump_intensity * (law.exp_moment_prime(zk) - law.mean)
        out[k] = g
    return out


@frozen
class IncrementMatrix:
    """One path of driver increments: values[n, k] = X^k_{t_{n+1}} - X^k_{t_n}."""

    dt: float
    values: np.ndarray = field(repr=False)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


SEED_END = 2 ** 64  # seeds are the integers in [0, SEED_END)
# the largest rate Generator.poisson draws at (numpy's POISSON_LAM_MAX)
POISSON_RATE_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


def _stream_key(seed: int, component: int) -> int:
    if not 0 <= seed < SEED_END:
        raise ConfigError(f"seed {seed} is outside [0, 2^64)")
    return int(seed) * SEED_END + int(component)


def component_stream(seed: int, component: int) -> np.random.Generator:
    """The documented stream layout: Philox keyed by (seed, component)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, component)))


def _check_steps(dt: float, n_steps: int) -> None:
    if dt <= 0 or n_steps < 1:
        raise ConfigError(f"need dt > 0 and n_steps >= 1, got {dt}, {n_steps}")


def _fill_component(comp: LevyComponent, gen: np.random.Generator,
                    dt: float, row: np.ndarray) -> None:
    """One path of a component's increments, drawn in place into the
    contiguous row: the Brownian part, then the jump sums per step, then
    the compensation."""
    if comp.brownian_vol:
        gen.standard_normal(out=row)
        row *= comp.brownian_vol * math.sqrt(dt)
        row += 0.0  # as 0.0 + x: a -0.0 draw becomes +0.0
    else:
        row[:] = 0.0
    if comp.jump_intensity and comp.jump_law is not None:
        n_steps = len(row)
        counts = gen.poisson(comp.jump_intensity * dt, n_steps)
        total = int(counts.sum())
        if total:
            sizes = comp.jump_law.sample(gen, total)
            row += np.bincount(np.repeat(np.arange(n_steps), counts),
                               weights=sizes, minlength=n_steps)
        row -= comp.compensation_rate * dt


def sample_increments(spec: LevySpec, dt: float, n_steps: int, seed: int) -> IncrementMatrix:
    """Exact compensated increments over n_steps steps of length dt: the
    one-seed ensemble."""
    values = sample_increment_ensemble(spec, dt, n_steps, [seed])[0].copy()
    return IncrementMatrix(dt=dt, values=values)


def sample_increment_ensemble(spec: LevySpec, dt: float, n_steps: int,
                              seeds: Sequence[int],
                              out: np.ndarray | None = None) -> np.ndarray:
    """Exact compensated increments of n_paths paths, one per seed: shape
    (n_paths, n_steps, m).  Path p draws component k from the stream
    component_stream(seeds[p], k), and so does not depend on the other
    seeds: one Philox serves every path, and each (seed, component) resets
    its state to that stream's key with a zero counter and an empty buffer.

    The result is a transposed view of an (m, n_paths, n_steps) array,
    `out` when given (C-contiguous float), so each path's draws of one
    component fill a contiguous row in place.  A Brownian-only component
    draws every path's normals first and scales the whole block once.  The
    seeds and each component's jump rate per step are checked once per
    call, before any draw."""
    _check_steps(dt, n_steps)
    for k, comp in enumerate(spec.components):
        if comp.jump_law is not None and not comp.jump_intensity * dt <= POISSON_RATE_MAX:
            raise ConfigError(
                f"driver component {k}: jump_intensity x dt = "
                f"{comp.jump_intensity * dt:.3g} jumps per step is more than "
                f"numpy can draw ({POISSON_RATE_MAX:.3g})")
    shape = (spec.m, len(seeds), n_steps)
    if out is None:
        out = np.empty(shape)
    elif (out.shape != shape or out.dtype != float
          or not out.flags.c_contiguous):
        raise GridMismatch(f"out must be a C-contiguous float array of shape "
                           f"{shape}, got {out.dtype} {out.shape}")
    if len(seeds):
        for end in (min(seeds), max(seeds)):
            _stream_key(end, 0)  # ConfigError outside [0, 2^64)
    gen = component_stream(0, 0)
    # one state dict; the setter copies it, so only its key changes per stream
    key = np.zeros(2, np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": key},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for k, (comp, blk) in enumerate(zip(spec.components, out)):
        key[0] = k
        brownian_only = not (comp.jump_intensity and comp.jump_law is not None)
        for seed, row in zip(seeds, blk):
            key[1] = seed
            gen.bit_generator.state = state
            if brownian_only:
                gen.standard_normal(out=row)
            else:
                _fill_component(comp, gen, dt, row)
        if brownian_only:
            blk *= comp.brownian_vol * math.sqrt(dt)
            blk += 0.0
    return out.transpose(1, 2, 0)


def aggregate_increments(inc: IncrementMatrix, factor: int) -> IncrementMatrix:
    """Sum consecutive fine increments into coarse ones (noise coupling for
    refinement studies; never re-sample)."""
    if factor < 1 or inc.n_steps % factor:
        raise GridMismatch(
            f"cannot aggregate {inc.n_steps} steps by factor {factor}")
    coarse = inc.values.reshape(-1, factor, inc.m).sum(axis=1)
    return IncrementMatrix(dt=inc.dt * factor, values=coarse)


def write_increments_csv(inc: IncrementMatrix, path) -> None:
    header = ",".join(["t"] + [f"dX{k + 1}" for k in range(inc.m)])
    t = (np.arange(inc.n_steps) + 1) * inc.dt
    csvio.write_rows(path, header, t, inc.values)


def read_increments_csv(path) -> IncrementMatrix:
    _names, t, values = csvio.read_rows(path, "t")
    if not len(t):
        raise GridMismatch("no increment rows, dt undefined")
    dt = t[0] if len(t) == 1 else float(t[1] - t[0])
    return IncrementMatrix(dt=dt, values=values)
