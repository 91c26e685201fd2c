"""Realization layer: invariance, the three clauses, psi, and simulation."""

import ast
import json
import math
import pathlib

import numpy as np
import pytest

from affinespde import cli, funalg, levy, operators
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.errors import (DomainError, GridMismatch, LinearSolveFailure,
                               NotInvariant, SigmaEscapesV,
                               TruncationTailTooLarge)
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D
from affinespde.operators import Cable, Translation

HALF_LINE = rz.GridSpace(Grid1D.from_interval(0.0, 20.0, 801),
                         weight=funalg.parse_qexp("exp(-0.1*x)"))
CABLE_SPACE = rz.GridSpace(Grid1D.from_interval(0.0, math.pi, 315))


def _psi(real, h0, t_grid):
    """The rows of the carrier curve psi, one per time."""
    return np.array(list(rz.carrier_coords(real, h0, t_grid).rows()))


def _coords(real, h0, t_grid, inc):
    """The rows of coordinate_rows from the initial curve h0, one per time."""
    carrier = rz.carrier_coords(real, h0, t_grid)
    return np.array(list(rz.coordinate_rows(carrier, inc)))


def test_invariant_span_dimensions(monkeypatch):
    one = rz.invariant_span(Translation(), [Q.exponential(-1.0)])
    assert one.status == "quasi_exponential" and one.basis.dim == 1

    two = rz.invariant_span(Translation(),
                            [funalg.parse_qexp("exp(-0.5*x)*cos(1*x)")])
    assert two.status == "quasi_exponential" and two.basis.dim == 2

    three = rz.invariant_span(Translation(), [funalg.parse_qexp("x^2*exp(-1*x)")])
    assert three.status == "quasi_exponential" and three.basis.dim == 3

    # dims grow monotonically while the sweep runs
    assert all(b >= a for a, b in zip(three.dims, three.dims[1:]))

    monkeypatch.setattr(rz, "DIM_CAP", 10)
    capped = rz.invariant_span(Translation(), [funalg.parse_qexp("x^12")])
    assert capped.status == "not_detected"
    assert capped.basis.dim > 10


def test_check_invariant_pass_and_fail():
    ok = rz.check_invariant(Cable(), [Q.trig("sin", 1.0), Q.trig("sin", 2.0)])
    assert ok.ok and ok.dim == 2

    bad = rz.check_invariant(Translation(), [funalg.parse_qexp("x*exp(-1*x)")])
    assert not bad.ok
    assert bad.offender == 0
    assert bad.residual > 0.1


@pytest.mark.parametrize("s", [1.0, 100.0])
def test_invariance_verdict_ignores_the_scale_of_other_elements(s):
    # A v1 leaves span(v2) by 2e-10 of its own norm; a residual relative to
    # all images together hides it once s v3 has a large image
    basis = [Q.exponential(-1.0),
             funalg.parse_qexp("exp(-2*x) + 2e-5*x*exp(-2*x)"),
             Q.exponential(-3.0, s)]
    inv = rz.check_invariant(Translation(), basis)
    assert not inv.ok and inv.offender == 1
    assert 1e-10 < inv.residual < 1e-9
    V = rz.Subspace.build(basis, HALF_LINE)
    with pytest.raises(NotInvariant, match="basis element 1 .*coordinate "
                                           "matrix residual"):
        rz.build_realization(Translation(), None, [], V)


def test_ray_bundle_basis_leaving_its_span_is_not_invariant():
    # d/dx keeps the base ray exp(-x/2) and maps the trend ray x e^{-x} out
    wedge = operators.Transport()
    basis = [operators.RayBundle.make([("base", Q.exponential(-0.5))]),
             operators.RayBundle.make([("trend", funalg.parse_qexp("x*exp(-1*x)"))])]
    inv = rz.check_invariant(wedge, basis)
    assert not inv.ok and inv.offender == 1 and inv.residual > 0.1
    space = rz.ProfileRaySpace(("base", "trend"),
                               rz.GridSpace(Grid1D.from_interval(0.0, 20.0, 201)))
    V = rz.Subspace.build(basis, space)
    with pytest.raises(NotInvariant, match="basis element 1"):
        rz.build_realization(wedge, None, [], V)


def test_grid_space_weights_computed_once_and_read_only():
    space = rz.GridSpace(HALF_LINE.grid, HALF_LINE.weight)
    w = space.weights()
    assert space.weights() is w
    assert not w.flags.writeable
    x = space.grid.points()
    trap = np.full(space.size, space.grid.dx)
    trap[[0, -1]] *= 0.5
    assert np.allclose(w, trap * np.exp(-0.1 * x), rtol=1e-14, atol=0.0)
    # the cache is no field: equality and hashing still see only the fields
    assert space == HALF_LINE and hash(space) == hash(HALF_LINE)
    ray = rz.ProfileRaySpace(("a", "b"), space)
    assert np.array_equal(ray.weights(), np.tile(w, 2))


def test_subspace_rejects_dependent_basis():
    near_copy = funalg.parse_qexp("exp(-1*x) + 0.0000000000001*exp(-2*x)")
    with pytest.raises(LinearSolveFailure):
        rz.Subspace.build([Q.exponential(-1.0), near_copy], HALF_LINE)


def test_subspace_projection_round_trips():
    V = rz.Subspace.build([Q.exponential(-1.0), Q.exponential(-2.0)], HALF_LINE)
    c = np.array([0.7, -1.3])
    assert np.allclose(V.coords(V.from_coords(c)), c, atol=1e-12)

    rng = np.random.default_rng(11)
    h = rng.standard_normal(HALF_LINE.size)
    proj = V.project(h)
    assert np.allclose(V.project(proj), proj, atol=1e-10)
    # the complement residual is weight-orthogonal to every basis sample
    resid = V.complement_residual(h)
    orth = V.samples @ (HALF_LINE.weights() * resid)
    assert np.max(np.abs(orth)) < 1e-8 * np.linalg.norm(h)


def test_coordinate_matrix_is_diagonal_for_eigenbasis():
    V = rz.Subspace.build([Q.trig("sin", 1.0), Q.trig("sin", 2.0)], CABLE_SPACE)
    real = rz.build_realization(Cable(), None, [], V)
    assert np.allclose(real.B, np.diag([-2.0, -5.0]), atol=1e-12)


def test_build_realization_clause_failures():
    bad_v = rz.Subspace.build([funalg.parse_qexp("x*exp(-1*x)")], HALF_LINE)
    with pytest.raises(NotInvariant):
        rz.build_realization(Translation(), None, [], bad_v)

    V = rz.Subspace.build([Q.trig("sin", 1.0), Q.trig("sin", 2.0)], CABLE_SPACE)
    with pytest.raises(SigmaEscapesV):
        rz.build_realization(Cable(), None, [Q.trig("sin", 3.0)], V)


def _off_domain_volatility(tmp_path, h0_text):
    """cable with the volatility 0.2 x (pi - x), whose closure under the
    differential expression, span{1, x (pi - x)}, leaves the domain."""
    raw = cfgmod.load_config(cfgmod.resolve_config_path("cable"))
    raw["volatility"] = [{"qexp": "0.6283185307179586*x - 0.2*x^2"}]
    raw["subspace"] = {"mode": "volatility_invariant_span"}
    raw["drift"] = {"mode": "zero"}
    raw["initial_curve"] = {"qexp": h0_text}
    cfg = tmp_path / "cable-off-domain-vol.json"
    cfg.write_text(json.dumps(raw))
    return str(cfg)


def test_span_outside_the_domain_is_not_certified(tmp_path, capsys):
    cfg = _off_domain_volatility(tmp_path, "0.6*sin(1.0*x)")
    out = tmp_path / "a"
    assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "analysis.json").read_text())
    assert report["reason"] == "NotInvariant"
    # V = span{1, x (pi - x)}: the constant is 1 at the left end
    assert report["detail"] == (
        "V leaves the generator's domain: basis element 0 is 1.000e+00 of "
        "its max at the left Dirichlet end")
    assert report["detail"] in capsys.readouterr().out

    # outside analyze a clause failure is a build failure
    cfg = _off_domain_volatility(tmp_path, "0")
    out = tmp_path / "s"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert "NotInvariant" in capsys.readouterr().err
    assert not out.exists()


def test_correction_cancels_complement_image():
    # the canonical semi-invariant example: A maps x e^{-x} to
    # e^{-x} - x e^{-x}, whose e^{-x} part escapes the one dimensional span
    V = rz.Subspace.build([funalg.parse_qexp("x*exp(-1*x)")], HALF_LINE)
    corr = rz.semiinvariant_correction(Translation(), V)
    for b in V.basis:
        v = HALF_LINE.sample(b)
        image = HALF_LINE.sample(operators.apply_exact(Translation(), b))
        resid = V.complement_residual(image + corr.apply(v))
        assert rz.space_norm(HALF_LINE, resid) <= 1e-10

    # T factors through the projection onto V: complement vectors map to zero
    rng = np.random.default_rng(2)
    u = V.complement_residual(rng.standard_normal(HALF_LINE.size))
    assert np.max(np.abs(corr.apply(u))) < 1e-9

    # nothing to correct when V is already invariant
    inv = rz.Subspace.build([Q.trig("sin", 1.0)], CABLE_SPACE)
    assert rz.semiinvariant_correction(Cable(), inv).operator_norm() < 1e-9


def _cable_realization(h0_text="0.6*sin(1*x) + 0.25*sin(3*x)",
                       vols=(), drift=None, modes=(1, 2, 3)):
    V = rz.Subspace.build([Q.trig("sin", 1.0), Q.trig("sin", 2.0)], CABLE_SPACE)
    real = rz.build_realization(Cable(), drift, list(vols), V,
                                mode_indices=modes)
    return real, funalg.parse_qexp(h0_text)


def test_split_initial_symbolic():
    # h0 = u0 + v0 . V: the carrier keeps v0 and starts psi at u0
    real, h0 = _cable_realization()
    u0, v0 = rz._complement_split(real.V, h0)
    assert np.allclose(v0, [0.6, 0.0], atol=1e-9)
    assert funalg.allclose(u0, funalg.parse_qexp("0.25*sin(3*x)"), tol=1e-9)
    carrier = rz.carrier_coords(real, h0, np.linspace(0.0, 1.0, 3))
    assert np.array_equal(carrier.v0, v0)
    assert np.allclose(next(carrier.rows()), CABLE_SPACE.sample(u0),
                       atol=1e-12)


def test_solve_psi_spectral_closed_form():
    real, h0 = _cable_realization()
    t_grid = np.linspace(0.0, 1.0, 51)
    psi = _psi(real, h0, t_grid)
    x = CABLE_SPACE.grid.points()
    g3 = Cable().generator_eigenvalue(3)
    exact = 0.25 * np.exp(g3 * t_grid)[:, None] * np.sin(3 * x)[None, :]
    assert np.max(np.abs(psi - exact)) < 1e-10


def test_solve_psi_truncation_guard(tmp_path):
    # a curve inside the generator's domain runs exactly, in `modes` or not
    real, _ = _cable_realization()
    t_grid = np.linspace(0.0, 1.0, 11)
    psi = _psi(real, funalg.parse_qexp("0.6*sin(1*x) + 0.25*sin(9*x)"), t_grid)
    x = CABLE_SPACE.grid.points()
    g9 = Cable().generator_eigenvalue(9)
    exact = 0.25 * np.exp(g9 * t_grid)[:, None] * np.sin(9 * x)[None, :]
    assert np.max(np.abs(psi - exact)) < 1e-10

    # cos 3x does not vanish at the Dirichlet ends: refused before any row
    off_domain = "0.6*sin(1*x) + 0.25*cos(3*x)"
    with pytest.raises(DomainError):
        rz.carrier_coords(real, funalg.parse_qexp(off_domain), t_grid)
    raw = cfgmod.load_config(cfgmod.resolve_config_path("cable"))
    raw["initial_curve"] = {"qexp": off_domain}
    # without `modes` the curve takes the same closure route and is refused
    without = {k: v for k, v in raw.items() if k != "modes"}
    for label, edit in (("with", raw), ("without", without)):
        cfg = tmp_path / f"cable-off-domain-{label}.json"
        cfg.write_text(json.dumps(edit))
        out = tmp_path / label
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == 4
        assert not (out / "psi.csv").exists()


def test_sampled_curve_is_projected_onto_the_modes():
    # a curve known only as samples takes the closure route through its
    # projection onto `modes`, whose dropped tail is bounded and reported
    real, _ = _cable_realization()
    t_grid = np.linspace(0.0, 1.0, 11)
    x = CABLE_SPACE.grid.points()
    carrier = rz.carrier_coords(
        real, 0.6 * np.sin(x) + 0.25 * np.sin(3 * x), t_grid)
    g3 = Cable().generator_eigenvalue(3)
    exact = 0.25 * np.exp(g3 * t_grid)[:, None] * np.sin(3 * x)[None, :]
    assert np.max(np.abs(np.array(list(carrier.rows())) - exact)) < 1e-10
    meta = carrier.meta
    assert meta["modes"] == 3 and meta["truncation_tail"] < 1e-12
    with pytest.raises(TruncationTailTooLarge):
        rz.carrier_coords(real, 0.6 * np.sin(x) + 0.25 * np.sin(9 * x), t_grid)

    # term structure: its modes e^{-x/k} sin(n pi x) are orthogonal only
    # under the weight e^{2x/k}, with norm 1/2, so the split of h0 along V
    # leaves dust on modes 1 and 2 that must flow by e^{g_n t} as well
    kappa = 1.0
    op = operators.TermStructure2(kappa)
    space = rz.GridSpace(Grid1D.from_interval(0.0, 1.0, 501))  # the bundled grid
    x = space.grid.points()
    phi = np.array([np.exp(-x / kappa) * np.sin(n * math.pi * x) for n in (1, 2, 3)])
    g = np.array([(1.0 + n * n * math.pi ** 2 * kappa ** 2) / (2.0 * kappa)
                  for n in (1, 2, 3)])
    V = rz.Subspace.build([Q.trig("sin", n * math.pi, rate=-1.0 / kappa)
                           for n in (1, 2)], space)
    real = rz.build_realization(op, None, [], V, mode_indices=(1, 2, 3))
    h0 = 0.6 * phi[0] + 0.25 * phi[2]
    t_grid = np.linspace(0.0, 0.2, 11)
    carrier = rz.carrier_coords(real, h0, t_grid)
    assert carrier.meta["closure_dim"] == 3 and carrier.meta["modes"] == 3
    assert carrier.meta["truncation_tail"] < 1e-12
    rows = np.array(list(carrier.rows()))
    # psi starts at u0, the part of h0 off V, which is a mode sum ...
    assert np.max(np.abs(rows[0] + V.from_coords(carrier.v0) - h0)) < 1e-12
    c0 = np.linalg.lstsq(phi.T, rows[0], rcond=None)[0]
    assert abs(c0[2] - 0.25) < 1e-12
    # ... and each mode coefficient then flows by its own exponential
    exact = (np.exp(np.outer(t_grid, g)) * c0) @ phi
    assert np.max(np.abs(rows - exact)) < 1e-10 * np.max(np.abs(exact))
    with pytest.raises(TruncationTailTooLarge):
        rz.carrier_coords(real, h0 + 0.25 * np.exp(-x / kappa)
                          * np.sin(9 * math.pi * x), t_grid)


def test_sampled_tail_is_the_least_squares_residual_of_the_modes():
    # sampled data are projected onto the modes in the space's inner
    # product, so the tail dropped is the least the modes allow: the
    # weighted least-squares residual of h0 against them (V lies in their
    # span, so splitting off V first leaves it unchanged)
    kappa = 1.0
    space = rz.GridSpace(Grid1D.from_interval(0.0, 1.0, 501))  # term-structure-2's grid
    x = space.grid.points()
    phi = np.array([np.exp(-x / kappa) * np.sin(n * math.pi * x) for n in (1, 2, 3)])
    V = rz.Subspace.build([Q.trig("sin", n * math.pi, rate=-1.0 / kappa)
                           for n in (1, 2)], space)
    h0 = 0.6 * phi[0] + 0.25 * phi[2] + 1e-8 * np.sin(9 * math.pi * x)
    sw = np.sqrt(space.weights())
    c = np.linalg.lstsq((phi * sw).T, h0 * sw, rcond=None)[0]
    residual = np.linalg.norm(sw * (h0 - c @ phi))
    assert 5e-9 < residual < 1e-8
    # a mode listed twice spans nothing new
    for modes in ((1, 2, 3), (1, 3, 2, 3)):
        real = rz.build_realization(operators.TermStructure2(kappa), None, [],
                                    V, mode_indices=modes)
        meta = rz.carrier_coords(real, h0, np.linspace(0.0, 0.2, 11)).meta
        assert meta["modes"] == 3
        assert abs(meta["truncation_tail"] - residual) <= 1e-9 * residual


def test_solve_psi_shift_exact_against_direct_evaluation():
    V = rz.Subspace.build([Q.exponential(-1.0)], HALF_LINE)
    drift = funalg.parse_qexp("0.2*exp(-2*x)")
    real = rz.build_realization(Translation(), drift, [], V)
    h0 = funalg.parse_qexp("0.5*exp(-0.25*x) + 1.0*exp(-1*x)")
    t_grid = np.linspace(0.0, 0.8, 33)
    psi = _psi(real, h0, t_grid)

    x = HALF_LINE.grid.points()
    c0 = float(V.coords(HALF_LINE.sample(h0))[0])
    ca = float(V.coords(HALF_LINE.sample(drift))[0])

    def u0_at(pts):
        return 0.5 * np.exp(-0.25 * pts) + (1.0 - c0) * np.exp(-pts)

    def drift_integral(pts, t):
        # int_0^t a_U(x + s) ds for a_U = 0.2 e^{-2x} - ca e^{-x}
        anti = lambda y: -0.1 * np.exp(-2 * y) + ca * np.exp(-y)
        return anti(pts + t) - anti(pts)

    for i, t in enumerate(t_grid):
        expect = u0_at(x + t) + drift_integral(x, float(t))
        assert np.max(np.abs(psi[i] - expect)) < 1e-11


def _ou_realization(vol=Q.exponential(-1.0)):
    V = rz.Subspace.build([Q.exponential(-1.0)], HALF_LINE)
    return rz.build_realization(Translation(), Q.exponential(-1.0) * 0.3,
                                [vol], V)


def test_exp_exact_matches_affine_closed_form():
    real = _ou_realization()
    t_grid = np.linspace(0.0, 2.0, 201)
    dt = t_grid[1] - t_grid[0]
    zeros = levy.IncrementMatrix(dt, np.zeros((200, 1)), seed=0)
    coords = _coords(real, Q.exponential(-1.0), t_grid, zeros)
    a = 0.3
    exact = np.exp(-t_grid) * 1.0 + a * (1.0 - np.exp(-t_grid))
    assert np.max(np.abs(coords[:, 0] - exact)) < 1e-12


def test_euler_first_order_toward_exact_update():
    real = _ou_realization()
    # a state-scaled volatility, of constant scale here, takes the euler step
    euler = _ou_realization(rz.StateVol(Q.exponential(-1.0), lambda y: 1.0))
    errs = []
    for n_t in (100, 200):
        t_grid = np.linspace(0.0, 1.0, n_t + 1)
        dt = t_grid[1] - t_grid[0]
        zeros = levy.IncrementMatrix(dt, np.zeros((n_t, 1)), seed=0)
        eu = _coords(euler, Q.exponential(-1.0), t_grid, zeros)
        ex = _coords(real, Q.exponential(-1.0), t_grid, zeros)
        errs.append(np.max(np.abs(eu - ex)))
    assert errs[1] < 0.6 * errs[0]


def test_simulate_coordinates_grid_mismatches():
    carrier = rz.carrier_coords(_ou_realization(), Q(),
                                np.linspace(0.0, 1.0, 11))
    with pytest.raises(GridMismatch):
        rz.coordinate_rows(carrier,
                           levy.IncrementMatrix(0.1, np.zeros((7, 1)), 0))
    with pytest.raises(GridMismatch):
        rz.coordinate_rows(carrier,
                           levy.IncrementMatrix(0.2, np.zeros((10, 1)), 0))
    with pytest.raises(GridMismatch):
        rz.coordinate_rows(carrier,
                           levy.IncrementMatrix(0.1, np.zeros((10, 2)), 0))


def test_ensemble_matches_per_seed_paths():
    real = _ou_realization()
    t_grid = np.linspace(0.0, 0.5, 26)
    dt = t_grid[1] - t_grid[0]
    spec = levy.make_levy_spec([{"brownian_vol": 0.4}])
    seeds = [5, 6, 7]
    carrier = rz.carrier_coords(real, Q.exponential(-1.0), t_grid)
    mean, var = rz.ensemble_moments(carrier, spec, seeds)
    # (paths, times, d) from the three single paths
    paths = np.stack([
        np.array(list(rz.coordinate_rows(
            carrier, levy.sample_increments(spec, dt, 25, seed))))
        for seed in seeds])
    assert np.array_equal(mean, paths.mean(axis=0))
    assert np.array_equal(var, paths.var(axis=0, ddof=1))


def test_state_vol_needs_euler():
    # the scale takes a (d,) state or a (d, P) block, so one path and the
    # ensemble step through the same kernel
    V = rz.Subspace.build([Q.exponential(-1.0)], HALF_LINE)
    vol = rz.StateVol(Q.exponential(-1.0), lambda y: 1.0 + 0.5 * y[0] ** 2)
    real = rz.build_realization(Translation(), None, [vol], V)
    t_grid = np.linspace(0.0, 0.2, 21)
    spec = levy.make_levy_spec([{"brownian_vol": 1.0}])
    inc = levy.sample_increments(spec, t_grid[1] - t_grid[0], 20, 9)
    h0 = 0.5 * Q.exponential(-1.0)
    coords = _coords(real, h0, t_grid, inc)
    assert coords.shape == (21, 1)
    mean, var = rz.ensemble_moments(rz.carrier_coords(real, h0, t_grid), spec,
                                    [9, 10])
    assert mean.shape == var.shape == (21, 1)
    assert np.all(np.isfinite(mean)) and np.all(var[1:] > 0.0)


@pytest.mark.parametrize("k", [1000, -1000])
def test_space_norm_scales_by_a_power_of_two_exactly(k):
    # values near either end of the double range: their squares overflow
    # or underflow unless the norm scales them first
    h = np.random.default_rng(5).standard_normal(HALF_LINE.size)
    w = HALF_LINE.weights()
    norm = rz.space_norm(HALF_LINE, h)
    assert norm == math.sqrt(rz.long_dot(w * h, h))
    assert rz.space_norm(HALF_LINE, np.ldexp(h, k)) == math.ldexp(norm, k)


def test_subspace_refuses_a_gram_matrix_that_overflows():
    space = rz.ModalSpace(Cable(), (1, 2))
    big = operators.EigenExpansion.make(Cable(), [(1, 1e300), (2, -1e300)])
    with pytest.raises(LinearSolveFailure, match="overflows"):
        rz.Subspace.build([big], space)


def test_no_module_but_realization_tests_a_concrete_space_kind():
    # each space kind answers its kind, field form, oracle, grid axis and
    # refinement itself, in realization.py
    concrete = {"GridSpace", "ModalSpace", "ProfileRaySpace"}
    offenders = []
    for path in sorted(pathlib.Path(rz.__file__).parent.glob("*.py")):
        if path.name == "realization.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "issubclass")):
                continue
            named = {n.attr if isinstance(n, ast.Attribute) else n.id
                     for arg in node.args[1:] for n in ast.walk(arg)
                     if isinstance(n, (ast.Attribute, ast.Name))}
            if named & concrete:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders
    # and the table and the axis the scenario layer held are gone
    assert not hasattr(cfgmod, "_SPACE_FORMS")
    assert not hasattr(cfgmod.Runtime, "grid_axis")
