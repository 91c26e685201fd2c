"""Forward-curve (HJM) drift construction and the realization subspace.

Under the risk-neutral measure the forward-rate equation carries the
no-arbitrage drift

    alpha(x) = d/dx Psi(-(T sigma)(x)),

where T is the running integral from 0 and Psi the driver's cumulant
generating function.  For a pure Wiener driver the chain rule collapses this
to the classical sum of sigma^k times its running integral, which stays
inside the quasi-exponential algebra; general jump drivers leave the algebra
and the drift is produced as grid samples instead.

The subspace that carries the realization is the d/dx-invariant span of the
volatilities (`config.volatility_closure`) enlarged by the pairwise products
with their running integrals (`product_closure`); its dimension is at most
dim V + (dim V)^2.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import funalg, levy, realization
from .errors import DomainError, MomentExplosion
from .funalg import QExpFunction, SpanBasis
from .grids import Grid1D


def hjm_drift_wiener(sigma: Sequence[QExpFunction],
                     vols: Sequence[float] | None = None) -> QExpFunction:
    """Closed-form drift sum_k vol_k^2 sigma^k (T sigma^k) for independent
    Brownian components (vols default to 1)."""
    if vols is None:
        vols = [1.0] * len(sigma)
    if len(vols) != len(sigma):
        raise DomainError(f"{len(sigma)} volatilities but {len(vols)} driver scales")
    total = QExpFunction()
    for s, v in zip(sigma, vols):
        if not isinstance(s, QExpFunction):
            raise DomainError("closed-form drift needs quasi-exponential volatility")
        total = total + funalg.multiply(s, funalg.integrate_from_zero(s)) * (v * v)
    return total


def hjm_drift_levy_grid(driver: levy.LevySpec, sigma: Sequence[QExpFunction],
                        grid: Grid1D) -> np.ndarray:
    """Drift samples alpha(x_i) = -sum_k sigma^k(x_i) dPsi_k(-(T sigma)(x_i)).

    The running integrals are exact (symbolic) before sampling; only the
    cumulant gradient is numeric.  Every grid point must keep -(T sigma)
    inside the driver's moment region."""
    if len(sigma) != driver.m:
        raise DomainError(f"{len(sigma)} volatility components for a driver "
                          f"with m = {driver.m}")
    x = grid.points()
    sig_vals = np.vstack([funalg.evaluate(s, x) for s in sigma]) if sigma else \
        np.zeros((0, grid.n))
    t_vals = np.vstack([funalg.evaluate(funalg.integrate_from_zero(s), x)
                        for s in sigma]) if sigma else np.zeros((0, grid.n))
    z = -t_vals
    try:
        grad = levy.cumulant_gradient(driver, z)
    except MomentExplosion:
        for i in range(grid.n):  # name the first grid point outside
            try:
                levy.cumulant_gradient(driver, z[:, i])
            except MomentExplosion as exc:
                raise MomentExplosion(
                    f"moment region violated at grid point x = {x[i]:.6g}: "
                    f"{exc}") from exc
        raise
    # one dot product per grid point, as np.dot rounds it
    return -(sig_vals.T[:, None, :] @ grad.T[:, :, None]).ravel()


def product_closure(V: SpanBasis) -> SpanBasis:
    """Basis of V + P(V) where P(V) is spanned by the pairwise products
    v_i (T v_j).  The result has dimension at most dim V + (dim V)^2 and
    stays d/dx-invariant whenever V is."""
    base = list(V.functions)
    if not all(isinstance(f, QExpFunction) for f in base):
        raise DomainError("product closure needs quasi-exponential functions")
    prods = [funalg.multiply(vi, funalg.integrate_from_zero(vj))
             for vi in base for vj in base]
    return realization.span_basis(base + prods)
