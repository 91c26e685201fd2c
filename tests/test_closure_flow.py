"""shift_exact through the finite d/dx-closure: psi rows against the
symbolic shift and against a per-time shift + evaluate reference, and no
symbolic shift left in the verify loop."""

import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinespde import cli, funalg, operators
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.errors import NotInvariant
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D
from affinespde.operators import RayBundle, Translation, Transport

XS = np.linspace(0.0, 3.0, 41)
XS_SPACE = rz.GridSpace(Grid1D.from_interval(0.0, 3.0, 41))

TERMS = st.tuples(
    st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3),  # coef
    st.integers(0, 3),                                      # power
    st.floats(-1.5, 1.5),                                   # rate
    st.one_of(st.just(0.0), st.floats(0.1, 3.0)),           # freq
    st.sampled_from(["cos", "sin"]),
)


def _translation_of(h0, t_grid):
    """psi rows of h0 under translation with V = {0} and no drift, so u0 is
    h0 itself and psi(t) = h0(. + t)."""
    V = rz.Subspace.build([], XS_SPACE)
    real = rz.build_realization(Translation(), None, [], V)
    rows, meta = rz.psi_rows(real, h0, t_grid)
    return np.array(list(rows)), meta


@settings(max_examples=150, deadline=None)
@given(st.lists(TERMS, min_size=1, max_size=4), st.floats(0.0, 2.0))
@example([(1.5, 3, -0.7, 0.0, "cos"), (-0.4, 2, 0.6, 1.3, "sin"),
          (0.9, 1, -1.1, 2.0, "cos"), (0.3, 0, 0.0, 0.0, "cos")], 1.25)
@example([(1.0, 0, -1.0, 0.0, "cos")], 0.0)
def test_psi_rows_on_translation_equal_symbolic_shift(terms, t_max):
    f = Q.from_terms(terms)
    t_grid = np.linspace(0.0, t_max, 7)  # always contains t = 0
    psi, _meta = _translation_of(f, t_grid)
    assert psi.shape == (len(t_grid), len(XS))
    for n, t in enumerate(t_grid):
        shifted = funalg.shift(f, float(t))
        ref = funalg.evaluate(shifted, XS)
        # rounding scale: the sum of the term magnitudes at each point
        mags = [np.abs(funalg.evaluate(Q((term,)), XS)) for term in shifted.terms]
        scale = max(float(np.max(sum(mags, np.zeros(len(XS))))), 1e-300)
        assert np.max(np.abs(psi[n] - ref)) <= 1e-12 * scale


def test_psi_rows_of_zero_data_are_zero():
    psi, meta = _translation_of(Q(), np.linspace(0.0, 1.0, 5))
    assert meta == {"closure_dim": 0}
    assert psi.shape == (5, len(XS))
    assert np.array_equal(psi, np.zeros_like(psi))


def _assert_rows_match(real, h0, t_grid, reference):
    rows, _meta = rz.psi_rows(real, h0, t_grid)
    count = 0
    for n, (row, ref) in enumerate(zip(rows, reference, strict=True)):
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert np.max(np.abs(row - ref)) <= 1e-12 * scale, n
        count += 1
    assert count == len(t_grid)


def test_psi_rows_match_per_time_shift_on_ray_bundles():
    ray = rz.GridSpace(Grid1D.from_interval(0.0, 12.0, 241),
                       weight=funalg.parse_qexp("exp(-0.1*x)"))
    space = rz.ProfileRaySpace(("base", "trend"), ray)
    V = rz.Subspace.build(
        [RayBundle.make([("base", Q.exponential(-0.5))]),
         RayBundle.make([("trend", Q.exponential(-0.4))])], space)
    drift = RayBundle.make([
        ("base", funalg.parse_qexp("0.2*x*exp(-1*x) + 0.1*exp(-0.5*x)")),
        ("trend", funalg.parse_qexp("0.1*exp(-0.3*x)*cos(2*x)"))])
    real = rz.build_realization(Transport(), drift, [], V)
    assert isinstance(real.drift.remainder, RayBundle)
    h0 = RayBundle.make([
        ("base", funalg.parse_qexp("0.7*exp(-0.3*x) + 0.3*x^2*exp(-0.8*x)")),
        ("trend", funalg.parse_qexp("0.4*exp(-0.6*x) + 0.2*exp(-0.5*x)*sin(1.5*x)"))])
    t_grid = np.linspace(0.0, 0.9, 31)

    u0, _v0 = rz.split_initial(real, h0)
    big_g = RayBundle.make((lbl, funalg.integrate_from_zero(fn))
                           for lbl, fn in real.drift.remainder.parts)
    g0 = space.sample(big_g)
    reference = (space.sample(u0.shift_rays(float(t)))
                 + space.sample(big_g.shift_rays(float(t))) - g0
                 for t in t_grid)
    _assert_rows_match(real, h0, t_grid, reference)


def test_psi_rows_match_per_time_shift_with_sampled_remainder():
    space = rz.GridSpace(Grid1D.from_interval(0.0, 20.0, 401),
                         weight=funalg.parse_qexp("exp(-0.1*x)"))
    V = rz.Subspace.build([Q.exponential(-1.0)], space)
    a = space.sample(funalg.parse_qexp("0.2*exp(-2*x) + 0.1*x*exp(-0.5*x)"))
    real = rz.build_realization(Translation(), a, [], V)
    assert isinstance(real.drift.remainder, np.ndarray)
    h0 = funalg.parse_qexp("0.5*exp(-0.25*x) + 1.0*exp(-1*x) + 0.1*x^3*exp(-2*x)")
    t_grid = np.linspace(0.0, 0.8, 41)
    dt = float(t_grid[1] - t_grid[0])
    x = space.axis()
    u0, _v0 = rz.split_initial(real, h0)
    u_vec = real.drift.remainder

    def reference():
        acc = np.zeros(space.size)
        a_prev = u_vec
        for n, t in enumerate(t_grid):
            if n:
                # a shift onto x_max, up to rounding, reads the last sample
                q = x + t
                q[np.isclose(q, x[-1], rtol=0.0, atol=1e-12)] = x[-1]
                a_cur = np.interp(q, x, u_vec, right=0.0)
                acc = acc + 0.5 * dt * (a_prev + a_cur)
                a_prev = a_cur
            yield space.sample(funalg.shift(u0, float(t))) + acc

    _assert_rows_match(real, h0, t_grid, reference())


def test_verify_makes_no_symbolic_shift_calls(tmp_path, monkeypatch):
    # a call in a forked level would not reach `calls`: every level runs here
    monkeypatch.delattr(os, "fork", raising=False)
    calls = []
    shift = funalg.shift

    def counted(f, t):
        calls.append(t)
        return shift(f, t)

    monkeypatch.setattr(funalg, "shift", counted)
    rt = cli._load_runtime("transport-1d")
    assert cfgmod.build_scenario_realization(rt).psi_method == "shift_exact"
    assert cli.run_verify(rt, str(tmp_path), refine=1) == 0
    assert calls == []


CERTIFIED = [n for n in sorted(cfgmod.bundled_scenarios())
             if not n.startswith("neg-")]


@pytest.mark.parametrize("name", CERTIFIED)
def test_a_build_applies_the_generator_once_per_basis_element(name, monkeypatch):
    # clause 1 and the coordinate matrix B share the images
    rt = cli._load_runtime(name)
    basis = cfgmod.assemble_basis(rt)
    calls = []
    apply_exact = operators.apply_exact

    def counted(op, f):
        calls.append(f)
        return apply_exact(op, f)

    monkeypatch.setattr(operators, "apply_exact", counted)
    real = cfgmod.build_scenario_realization(rt, basis)
    assert len(calls) == real.dim


@pytest.mark.parametrize("name", ["cable", "heat-disk", "hjmm-linear",
                                  "transport-mortality-2d"])
def test_only_the_reports_compute_the_correction_norm(name, tmp_path,
                                                      monkeypatch):
    # analyze reports the norm of the semi-invariance correction bit for
    # bit; verify never builds it (a forked level's AssertionError is
    # raised again here)
    rt = cli._load_runtime(name)
    real = cfgmod.build_scenario_realization(rt)
    direct = rz.semiinvariant_correction(rt.op, real.V).operator_norm()
    assert cli.run_analyze(rt, str(tmp_path / "a")) == 0
    report = json.loads((tmp_path / "a" / "analysis.json").read_text())
    assert report["correction_norm"] == direct

    def refused(*_args, **_kwargs):
        raise AssertionError("verify built the semi-invariance correction")

    monkeypatch.setattr(rz, "semiinvariant_correction", refused)
    assert cli.run_verify(rt, str(tmp_path / "v"), seed=0, refine=1) == 0


@pytest.mark.parametrize("name", ["heat-disk", "hjmm-linear",
                                  "transport-mortality-2d"])
def test_check_invariant_coords_are_the_coordinate_matrix(name):
    rt = cli._load_runtime(name)
    real = cfgmod.build_scenario_realization(rt)
    inv = rz.check_invariant(rt.op, real.V.basis)
    assert inv.ok and inv.dim == real.dim
    assert np.array_equal(inv.coords, real.B)
    assert inv.residual == real.clauses["invariant"]["residual"]


def test_drift_remainder_is_one_field():
    # symbolic for a symbolic drift, the sampled complement part for a
    # sampled one, None for zero drift and for a drift inside V
    space = rz.GridSpace(Grid1D.from_interval(0.0, 5.0, 11))
    V = rz.Subspace.build([Q.exponential(-1.0)], space)
    drift = Q.exponential(-1.0) * 0.5 + Q.exponential(-2.0)
    sym = rz.build_realization(Translation(), drift, [], V).drift
    vec = rz.build_realization(Translation(), space.sample(drift), [], V).drift
    assert isinstance(sym.remainder, Q) and sym.kind == "constant"
    assert isinstance(vec.remainder, np.ndarray)
    assert np.allclose(space.sample(sym.remainder), vec.remainder,
                       rtol=0.0, atol=1e-14)
    assert np.array_equal(sym.v_coords, vec.v_coords)
    zero = rz.build_realization(Translation(), None, [], V).drift
    inside = rz.build_realization(Translation(), Q.exponential(-1.0) * 0.3,
                                  [], V).drift
    assert (zero.kind, zero.remainder) == ("zero", None)
    assert np.array_equal(zero.v_coords, [0.0])
    assert (inside.kind, inside.remainder) == ("constant", None)
    assert np.allclose(inside.v_coords, [0.3], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("tol_project, raises", [(1e-20, True), (1e-10, False)])
def test_coordinate_matrix_residual_uses_tol_project(tol_project, raises):
    # the hjmm-linear basis: its least-squares residual is rounding, ~2e-16
    space = rz.GridSpace(Grid1D.from_interval(0.0, 20.0, 201))
    V = rz.Subspace.build([funalg.parse_qexp("exp(-1*x)"),
                           funalg.parse_qexp("exp(-1*x) - exp(-2*x)")], space)
    if raises:
        with pytest.raises(NotInvariant, match="coordinate matrix residual"):
            rz.build_realization(Translation(), None, [], V,
                                 tol_project=tol_project)
    else:
        real = rz.build_realization(Translation(), None, [], V,
                                    tol_project=tol_project)
        assert real.clauses["invariant"]["residual"] <= tol_project
