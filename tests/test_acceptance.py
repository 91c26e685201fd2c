"""Acceptance suite: one test per shipped guarantee, at the stated
tolerances and time budgets.  Each test prints as its own pass/fail line
under pytest -v."""

import json
import math
import os
import time

import numpy as np
import pytest
import scipy.special

from affinespde import cli, funalg, hjmm, levy, operators, oracle
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.errors import SigmaEscapesV
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D
from affinespde.operators import (Cable, EigenExpansion, HeatDisk, Hermite,
                                  Laguerre, RayBundle, TermStructure2,
                                  Translation)

CERTIFIED = ["hjmm-linear", "hjmm-levy", "transport-1d",
             "transport-mortality-2d", "cable", "heat-disk", "hermite",
             "laguerre", "term-structure-2"]


def _runtime(name):
    path = cfgmod.resolve_config_path(name)
    return cfgmod.build_runtime(cfgmod.load_config(path), os.path.dirname(path))


def _bisect_bessel_zero(p, q):
    """Independent root: scan scipy's J_p for sign changes, then bisect."""
    xs = np.arange(max(0.5, float(p)), 25.0, 0.05)
    vals = scipy.special.jv(p, xs)
    found = 0
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            continue
        if vals[i] * vals[i + 1] < 0.0:
            lo, hi = xs[i], xs[i + 1]
            flo = scipy.special.jv(p, lo)
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                fm = scipy.special.jv(p, mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            found += 1
            if found == q:
                return 0.5 * (lo + hi)
    raise AssertionError(f"no zero q={q} for p={p} below 25")


def test_criterion_1_eigenvalue_catalogs():
    t0 = time.monotonic()

    for n, pair in enumerate(operators.eigenpairs(Cable(), 10), start=1):
        assert abs(pair.eigenvalue - n * n) <= 1e-12

    for op in (Hermite(1), Hermite(2), Laguerre(1)):
        for pair in operators.eigenpairs(op, 8):
            assert abs(pair.eigenvalue - sum(pair.index)) <= 1e-12

    for kappa in (0.5, 1.0, 2.0):
        op = TermStructure2(kappa)
        for n in range(1, 11):
            lam = (1.0 + n * n * math.pi ** 2 * kappa ** 2) / (2.0 * kappa)
            assert abs(op.proof_eigenvalue(n) - lam) <= 1e-12

    for p in range(0, 6):
        for q in range(1, 6):
            assert abs(operators.bessel_zero(p, q)
                       - _bisect_bessel_zero(p, q)) <= 1e-10

    assert time.monotonic() - t0 < 5.0


def _random_family_member(rng):
    """Sum of polynomial-times-exponential terms, optionally rotating:
    the family the detector promises to certify."""
    n_exp = int(rng.integers(0, 4))
    n_trig = int(rng.integers(0 if n_exp else 1, 4))
    f = Q()
    for _ in range(n_exp):
        f = f + Q.trig("cos", 0.0, rate=float(rng.uniform(-3.0, -0.2)),
                       power=int(rng.integers(0, 3)),
                       coef=float(rng.uniform(0.5, 2.0) * rng.choice([-1, 1])))
    for _ in range(n_trig):
        p = int(rng.integers(0, 3))
        mu = float(rng.uniform(-3.0, -0.2))
        w = float(rng.uniform(0.5, 3.0))
        f = (f + Q.trig("cos", w, rate=mu, power=p,
                        coef=float(rng.uniform(0.5, 2.0)))
             + Q.trig("sin", w, rate=mu, power=p,
                      coef=float(rng.uniform(-2.0, 2.0))))
    return f, n_exp + n_trig


def test_criterion_2_quasi_exponential_detection():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    for _ in range(20):
        member, groups = _random_family_member(rng)
        out = rz.invariant_span(Translation(), [member])
        assert out.status == "quasi_exponential"
        assert out.basis.dim <= groups * (2 + 1) * 2
        assert rz.check_invariant(Translation(), out.basis.functions).ok

    for name in ("neg-gauss-taylor", "neg-rational-taylor"):
        raw = cfgmod.load_config(cfgmod.resolve_config_path(name))
        gen = funalg.parse_qexp(raw["volatility"][0]["qexp"])
        out = rz.invariant_span(Translation(), [gen], dim_cap=50)
        assert out.status == "not_detected"

    assert time.monotonic() - t0 < 10.0


def _perturbed_vols(name, rt):
    """The scenario volatility plus one element outside the certified V."""
    sig = list(rt.sigma)
    if name in ("hjmm-linear", "hjmm-levy", "transport-1d"):
        sig[0] = sig[0] + funalg.parse_qexp("0.05*exp(-3.7*x)")
    elif name == "cable":
        sig[0] = sig[0] + funalg.parse_qexp("0.05*sin(3*x)")
    elif name == "term-structure-2":
        three_pi = 3.0 * math.pi
        sig[0] = sig[0] + funalg.parse_qexp(
            f"0.05*exp(-1.0*x)*sin({three_pi!r}*x)")
    elif name == "transport-mortality-2d":
        bump = funalg.parse_qexp("0.05*exp(-1.7*x)")
        sig[0] = RayBundle.make(
            [(lbl, fn + bump if lbl == "base" else fn)
             for lbl, fn in sig[0].parts])
    elif name == "heat-disk":
        sig[0] = EigenExpansion.make(
            rt.op, list(sig[0].items) + [((2, 1, "cos"), 0.05)])
    elif name == "hermite":
        sig[0] = EigenExpansion.make(
            rt.op, list(sig[0].items) + [((1, 1), 0.05)])
    elif name == "laguerre":
        sig[0] = EigenExpansion.make(
            rt.op, list(sig[0].items) + [((2,), 0.05)])
    else:
        raise AssertionError(f"no perturbation for {name}")
    return sig


def test_criterion_3_certified_scenarios_round_trip():
    for name in CERTIFIED:
        rt = _runtime(name)
        real = cfgmod.build_scenario_realization(rt)
        assert real.dim >= 1, name
        for clause in ("invariant", "drift_constant_on_fibers",
                       "volatility_in_V"):
            assert real.clauses[clause]["ok"], (name, clause)

        # adding a non-member to sigma must flip the volatility clause
        # against the same certified subspace
        with pytest.raises(SigmaEscapesV):
            rz.build_realization(
                rt.op, cfgmod.assemble_drift(rt), _perturbed_vols(name, rt),
                real.V, mode_indices=rt.modes or None)


def test_criterion_4_reduced_model_matches_reference_solver(tmp_path):
    t0 = time.monotonic()
    rt = _runtime("hjmm-linear")
    # the advertised resolution: dx = 0.01, dt = 1e-3, horizon 1
    assert abs(rt.space.grid.dx - 0.01) < 1e-12
    assert abs(rt.horizon / rt.n_t - 1e-3) < 1e-15
    assert abs(rt.horizon - 1.0) < 1e-15

    out = tmp_path / "verify"
    assert cli.run_verify(rt, str(out), refine=1) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is True
    assert abs(report["bound"] - 0.02 * report["h0_norm"]) < 1e-12
    lv = report["levels"]
    assert lv[0]["sup_error"] <= report["bound"]
    assert lv[1]["sup_error"] <= 0.7 * lv[0]["sup_error"]
    assert time.monotonic() - t0 < 60.0


def test_criterion_5_reconstruction_ignores_complement_choice():
    rt = _runtime("cable")
    drift = cfgmod.assemble_drift(rt)
    t_grid = np.linspace(0.0, rt.horizon, rt.n_t + 1)
    dt = rt.horizon / rt.n_t
    inc = levy.sample_increments(rt.driver, dt, rt.n_t, rt.seed)

    results = []
    v0s = []
    for weight in (None, funalg.parse_qexp("exp(0.5*x)")):
        space = rz.GridSpace(rt.space.grid, weight=weight)
        V = rz.Subspace.build(rt.subspace_basis, space)
        assert V.dim == 2
        real = rz.build_realization(rt.op, drift, list(rt.sigma), V,
                                    mode_indices=rt.modes or None)
        carrier = rz.carrier_coords(real, rt.h0, t_grid)
        coords = rz.coordinate_rows(carrier, inc)
        results.append(np.array([p + y @ V.samples for p, y in
                                 zip(carrier.rows(), coords, strict=True)]))
        v0s.append(carrier.v0)

    # the two weights genuinely split the state differently ...
    assert np.max(np.abs(v0s[0] - v0s[1])) > 1e-3
    # ... yet reconstruct the same field
    scale = np.max(np.abs(results[0]))
    assert np.max(np.abs(results[0] - results[1])) <= 1e-8 * scale


def test_criterion_6_correction_restores_semi_invariance():
    space = rz.GridSpace(Grid1D.from_interval(0.0, 20.0, 801),
                         weight=funalg.parse_qexp("exp(-0.1*x)"))
    V = rz.Subspace.build([funalg.parse_qexp("x*exp(-1*x)")], space)
    corr = rz.semiinvariant_correction(Translation(), V)
    for b in V.basis:
        v = space.sample(b)
        image = space.sample(operators.apply_exact(Translation(), b))
        resid = V.complement_residual(image + corr.apply(v))
        assert rz.space_norm(space, resid) <= 1e-10


def test_criterion_7_forward_curve_drift_identities():
    drift = hjmm.hjm_drift_wiener([Q.exponential(-1.0)])
    got = {(t.power, t.rate, t.freq, t.kind): t.coef for t in drift.terms}
    assert set(got) == {(0, -1.0, 0.0, "cos"), (0, -2.0, 0.0, "cos")}
    assert abs(got[(0, -1.0, 0.0, "cos")] - 1.0) <= 1e-12
    assert abs(got[(0, -2.0, 0.0, "cos")] + 1.0) <= 1e-12

    grid = Grid1D.from_interval(0.0, 10.0, 1001)
    sigma = [funalg.parse_qexp("exp(-1.0*x)")]
    unit_wiener = levy.make_levy_spec([{"brownian_vol": 1.0}])
    sampled = hjmm.hjm_drift_levy_grid(unit_wiener, sigma, grid)
    closed = funalg.evaluate(drift, grid.points())
    assert np.max(np.abs(sampled - closed)) <= 1e-10

    rng = np.random.default_rng(77)
    for _ in range(50):
        d = int(rng.integers(1, 5))
        gens = []
        for _ in range(d):
            if rng.random() < 0.5:
                gens.append(Q.trig("cos", 0.0,
                                   rate=float(rng.uniform(-3.0, -0.2)),
                                   power=int(rng.integers(0, 2)),
                                   coef=float(rng.uniform(0.5, 2.0))))
            else:
                gens.append(Q.trig(rng.choice(["cos", "sin"]),
                                   float(rng.uniform(0.5, 2.0)),
                                   rate=float(rng.uniform(-2.0, -0.2)),
                                   coef=float(rng.uniform(0.5, 2.0))))
        base = rz.span_basis(gens)
        closed_basis = hjmm.product_closure(base)
        assert closed_basis.dim <= base.dim + base.dim ** 2


def test_criterion_8_reduced_model_moments():
    t0 = time.monotonic()
    space = rz.GridSpace(Grid1D.from_interval(0.0, 20.0, 201),
                         weight=funalg.parse_qexp("exp(-0.1*x)"))
    V = rz.Subspace.build([Q.exponential(-1.0)], space)
    real = rz.build_realization(Translation(), None, [Q.exponential(-1.0)],
                                V)
    assert np.allclose(real.B, [[-1.0]], atol=1e-12)
    assert np.allclose(real.vols[0].coords, [1.0], atol=1e-12)

    n_t, dt, n_paths = 1000, 1e-3, 10_000
    t_grid = np.linspace(0.0, 1.0, n_t + 1)
    spec = levy.make_levy_spec([{"brownian_vol": 1.0}])
    _mean, ens_var = rz.ensemble_moments(rz.carrier_coords(real, Q(), t_grid),
                                         spec, range(n_paths))
    for t in (0.5, 1.0):
        idx = int(round(t / dt))
        var = ens_var[idx, 0]
        target = (1.0 - math.exp(-2.0 * t)) / 2.0
        se = var * math.sqrt(2.0 / (n_paths - 1))
        assert abs(var - target) <= 3.0 * se, (t, var, target, 3 * se)

    jump = levy.make_levy_spec([{
        "jump_intensity": 4.0,
        "two_sided_exp": {"p_up": 0.55, "rate_up": 6.0, "rate_down": 7.0}}])
    inc = levy.sample_increment_ensemble(jump, 5e-3, 200, list(range(n_paths)))
    path_sums = inc[:, :, 0].sum(axis=1)
    se = path_sums.std(ddof=1) / math.sqrt(n_paths)
    assert abs(path_sums.mean()) <= 3.0 * se

    assert time.monotonic() - t0 < 30.0


def _random_qexp(rng):
    f = Q()
    for _ in range(int(rng.integers(1, 5))):
        kind = rng.choice(["cos", "sin"])
        freq = float(rng.choice([0.0, rng.uniform(0.5, 3.0)]))
        if freq == 0.0:
            kind = "cos"
        rate = float(rng.choice([0.0, rng.uniform(-3.0, -0.2)]))
        f = f + Q.trig(kind, freq, rate=rate, power=int(rng.integers(0, 3)),
                       coef=float(rng.uniform(-2.0, 2.0)))
    if f.is_zero:
        f = f + Q.constant(1.0)
    return f


def test_criterion_9_symbolic_calculus_identities():
    rng = np.random.default_rng(909)
    xs = np.linspace(0.0, 3.0, 61)
    for _ in range(200):
        f = _random_qexp(rng)
        assert funalg.allclose(
            funalg.differentiate(funalg.integrate_from_zero(f)), f, tol=1e-9)
        f0 = float(funalg.evaluate(f, 0.0))
        assert funalg.allclose(
            funalg.integrate_from_zero(funalg.differentiate(f)),
            f + Q.constant(-f0), tol=1e-9)

        g = _random_qexp(rng)
        prod = funalg.evaluate(funalg.multiply(f, g), xs)
        direct = funalg.evaluate(f, xs) * funalg.evaluate(g, xs)
        assert np.max(np.abs(prod - direct)) <= 1e-10
