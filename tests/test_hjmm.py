"""Forward-curve drift identities and the product-closure subspace."""

import numpy as np
import pytest

from affinespde import funalg, hjmm, levy, operators
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.errors import DomainError, MomentExplosion
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D


def test_wiener_drift_exact_coefficients():
    drift = hjmm.hjm_drift_wiener([Q.exponential(-1.0)], [1.0])
    # e^{-x} * (1 - e^{-x}) = e^{-x} - e^{-2x}, exactly two terms
    got = {(t.power, t.rate, t.freq, t.kind): t.coef for t in drift.terms}
    assert got == {(0, -1.0, 0.0, "cos"): pytest.approx(1.0, abs=1e-15),
                   (0, -2.0, 0.0, "cos"): pytest.approx(-1.0, abs=1e-15)}


def test_wiener_drift_scales_and_adds_components():
    s1, s2 = Q.exponential(-1.0), Q.exponential(-0.5)
    combined = hjmm.hjm_drift_wiener([s1, s2], vols=[2.0, 3.0])
    separate = (hjmm.hjm_drift_wiener([s1], [1.0]) * 4.0
                + hjmm.hjm_drift_wiener([s2], [1.0]) * 9.0)
    assert funalg.allclose(combined, separate, tol=1e-13)
    with pytest.raises(DomainError):
        hjmm.hjm_drift_wiener([s1], vols=[1.0, 2.0])


def test_levy_grid_drift_reduces_to_wiener():
    grid = Grid1D.from_interval(0.0, 10.0, 501)
    sigma = [funalg.parse_qexp("0.5*exp(-1*x)"),
             funalg.parse_qexp("0.2*exp(-0.3*x)")]
    driver = levy.make_levy_spec([{"brownian_vol": 1.0}, {"brownian_vol": 1.0}])
    sampled = hjmm.hjm_drift_levy_grid(driver, sigma, grid)
    closed = funalg.evaluate(hjmm.hjm_drift_wiener(sigma, [1.0, 1.0]),
                             grid.points())
    assert np.max(np.abs(sampled - closed)) < 1e-10


def test_levy_grid_drift_matches_cumulant_difference_quotient():
    # independent check: alpha = d/dx Psi(-(T sigma)(x)) via central
    # differences in x on a fine auxiliary grid
    grid = Grid1D.from_interval(0.5, 5.0, 41)
    sigma = [funalg.parse_qexp("0.4*exp(-0.8*x)")]
    driver = levy.make_levy_spec([{
        "brownian_vol": 0.3, "jump_intensity": 2.0,
        "two_sided_exp": {"p_up": 0.5, "rate_up": 6.0, "rate_down": 7.0}}])
    sampled = hjmm.hjm_drift_levy_grid(driver, sigma, grid)
    t_sigma = funalg.integrate_from_zero(sigma[0])
    h = 1e-6
    for i, x in enumerate(grid.points()):
        up = levy.cumulant(driver, np.array([-funalg.evaluate(t_sigma, x + h)]))
        dn = levy.cumulant(driver, np.array([-funalg.evaluate(t_sigma, x - h)]))
        assert abs(sampled[i] - (up - dn) / (2 * h)) < 1e-6


def test_levy_grid_drift_flags_moment_explosion_with_location():
    grid = Grid1D.from_interval(0.0, 10.0, 101)
    sigma = [funalg.parse_qexp("10*exp(-1*x)")]  # T sigma -> 10 past rate_up 8
    driver = levy.make_levy_spec([{
        "jump_intensity": 1.0,
        "two_sided_exp": {"p_up": 0.5, "rate_up": 8.0, "rate_down": 9.0}}])
    with pytest.raises(MomentExplosion) as err:
        hjmm.hjm_drift_levy_grid(driver, sigma, grid)
    assert "x =" in str(err.value)


def _drift_point_by_point(driver, sigma, grid):
    """The drift as one cumulant gradient and one dot product per grid
    point, the form the grid-wide evaluation must reproduce."""
    x = grid.points()
    sig = np.vstack([funalg.evaluate(s, x) for s in sigma])
    t_sig = np.vstack([funalg.evaluate(funalg.integrate_from_zero(s), x)
                       for s in sigma])
    out = np.zeros(grid.n)
    for i in range(grid.n):
        grad = levy.cumulant_gradient(driver, -t_sig[:, i])
        out[i] = -float(np.dot(sig[:, i], grad))
    return out


@pytest.mark.parametrize("level", [0, 1, 2])
def test_levy_grid_drift_equals_the_point_by_point_drift_on_hjmm_levy(level):
    # the grids of verify --refine 2 on the bundled hjmm-levy scenario
    rt = cfgmod.build_runtime(cfgmod.load_config(
        cfgmod.resolve_config_path("hjmm-levy"))).refined(2 ** level)
    grid, sigma = rt.space.grid, [s.base for s in rt.sigma]
    fast = hjmm.hjm_drift_levy_grid(rt.driver, sigma, grid)
    slow = _drift_point_by_point(rt.driver, sigma, grid)
    assert fast.tobytes() == slow.tobytes()


def test_levy_grid_drift_per_point_identity_for_several_components():
    grid = Grid1D.from_interval(0.0, 30.0, 3001)
    sigma = [funalg.parse_qexp("0.5*exp(-1.0*x)"),
             funalg.parse_qexp("0.3*exp(-0.5*x)*cos(1.0*x)")]
    driver = levy.make_levy_spec([
        {"brownian_vol": 0.3},
        {"brownian_vol": 0.2, "jump_intensity": 1.0,
         "two_sided_exp": {"p_up": 0.3, "rate_up": 5.0, "rate_down": 6.0}}])
    fast = hjmm.hjm_drift_levy_grid(driver, sigma, grid)
    assert fast.tobytes() == _drift_point_by_point(driver, sigma,
                                                   grid).tobytes()
    # an atomic law evaluates exp by numpy on the grid, by math per point
    atoms = levy.make_levy_spec([
        {"jump_intensity": 2.0, "atoms": [[0.8, 0.25], [-0.2, 0.75]]}])
    fast = hjmm.hjm_drift_levy_grid(atoms, sigma[:1], grid)
    slow = _drift_point_by_point(atoms, sigma[:1], grid)
    assert np.max(np.abs(fast - slow)) <= 1e-14 * np.max(np.abs(slow))


def test_levy_grid_drift_names_the_first_grid_point_outside_the_region():
    grid = Grid1D.from_interval(0.0, 10.0, 101)
    sigma = [funalg.parse_qexp("0.5*exp(-1*x)"),
             funalg.parse_qexp("10*exp(-1*x)")]
    driver = levy.make_levy_spec([
        {"jump_intensity": 1.0,
         "two_sided_exp": {"p_up": 0.5, "rate_up": 8.0, "rate_down": 0.456}},
        {"jump_intensity": 1.0,
         "two_sided_exp": {"p_up": 0.5, "rate_up": 8.0, "rate_down": 9.0}}])
    # -(T sigma) leaves the region of component 1 at x = 2.4 (10 (1 - e^-x)
    # > 9) before the region of component 0 at x = 2.5 (0.5 (1 - e^-x) > 0.456)
    with pytest.raises(MomentExplosion) as err:
        hjmm.hjm_drift_levy_grid(driver, sigma, grid)
    assert str(err.value).startswith(
        "moment region violated at grid point x = 2.4: ")
    assert str(err.value).endswith(", got z = -9.092820467105875")


def test_levy_grid_drift_component_count_guard():
    grid = Grid1D.from_interval(0.0, 1.0, 11)
    driver = levy.make_levy_spec([{"brownian_vol": 1.0}])
    with pytest.raises(DomainError):
        hjmm.hjm_drift_levy_grid(driver, [Q.exponential(-1.0)] * 2, grid)


def test_product_closure_dimension_bound_and_membership():
    rng = np.random.default_rng(17)
    for _ in range(25):
        d = rng.integers(1, 4)
        rates = -rng.uniform(0.2, 3.0, size=d)
        gens = [Q.exponential(r) * float(rng.uniform(0.5, 2.0)) for r in rates]
        base = rz.span_basis(gens)
        closed = hjmm.product_closure(base)
        assert closed.dim <= base.dim + base.dim**2
        # the original span survives inside the closure
        for f in base.functions:
            joint = rz.span_basis(list(closed.functions) + [f])
            assert joint.dim == closed.dim


def test_product_closure_of_constants_adds_the_ramp():
    closed = hjmm.product_closure(rz.span_basis([Q.constant(1.0)]))
    # 1 * (T 1) = x, so the closure is span{1, x}
    assert closed.dim == 2
    joint = rz.span_basis(list(closed.functions) + [funalg.parse_qexp("x")])
    assert joint.dim == 2


def test_realization_subspace_contains_sigma_and_drift():
    sigma = [funalg.parse_qexp("exp(-1*x)"),
             funalg.parse_qexp("0.5*exp(-0.5*x)*cos(1*x)")]
    sub = hjmm.product_closure(
        rz.invariant_span(operators.Translation(), sigma).basis)
    drift = hjmm.hjm_drift_wiener(sigma, [1.0, 1.0])
    for member in list(sigma) + [drift]:
        joint = rz.span_basis(list(sub.functions) + [member])
        assert joint.dim == sub.dim
