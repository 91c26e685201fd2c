"""The closure sweep applies A once per term key and steps only the
directions each iteration adds, and decides the same dimensions as the full
sweep it replaced."""

import numpy as np
import pytest

from affinespde import cli, funalg, operators
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.errors import NotQuasiExponential
from affinespde.funalg import QExpFunction as Q, SpanBasis
from affinespde.operators import Cable, TermStructure2, Translation
from test_acceptance import _random_family_member

SCENARIOS = ["cable", "heat-disk", "hermite", "hjmm-levy", "hjmm-linear",
             "laguerre", "neg-gauss-taylor", "neg-rational-taylor",
             "term-structure-2", "transport-1d", "transport-mortality-2d"]
# its e^{eps x} direction has relative size about eps, near TOL_RANK
BAND = Q.from_terms([(1.0, 0, 0.0, 0.0, "cos"), (1.0, 0, 0.0, 2.0, "cos"),
                     (0.5, 0, 4.367618198202513e-09, 0.0, "cos")])


def _full_sweep(op, generators, dim_cap=rz.DIM_CAP):
    """The reference: apply A to the whole span every iteration and
    re-synthesise it, O(dim_cap^2) applications of A.  Returns (status,
    dims, basis)."""
    current = rz.span_basis(generators)
    dims = [current.dim]
    while True:
        images = [operators.apply_exact(op, f) for f in current.functions]
        combined = rz.span_basis(list(current.functions) + images)
        dims.append(combined.dim)
        if combined.dim == current.dim:
            return "quasi_exponential", tuple(dims), rz._resynthesize(combined)
        if combined.dim > dim_cap:
            return "not_detected", tuple(dims), combined
        current = rz._resynthesize(combined)


def _svd_sweep(op, generators, dim_cap=rz.DIM_CAP):
    """The reference for _closure_sweep: the same Krylov sweep with every
    iteration's rank decided by funalg.rank_and_pivots, an SVD of the whole
    stacked span, and every growth orthonormalised by _orthonormal_rows.
    Returns (status, dims, basis)."""
    current = rz.span_basis(generators)
    qexp = current.dim > 0 and all(isinstance(f, Q) for f in current.functions)
    if qexp:
        keys, g_mat = rz._key_closure(op, current.keys)
        rows = np.zeros((current.dim, len(keys)))
        rows[:, :len(current.keys)] = current.coefficient_matrix
        current = SpanBasis((), current.dim, rows, keys)
    n_ortho = 0
    frontier = current.coefficient_matrix if qexp else current.functions
    dims = [current.dim]
    while True:
        if qexp:
            mat = np.vstack([current.coefficient_matrix, frontier @ g_mat])
            rank, piv = funalg.rank_and_pivots(mat)
            combined = SpanBasis((), rank, mat[piv], keys)
        else:
            combined = rz.span_basis(list(current.functions)
                                     + [operators.apply_exact(op, f) for f in frontier])
        dims.append(combined.dim)
        if combined.dim == current.dim:
            return "quasi_exponential", tuple(dims), rz._resynthesize(combined)
        if combined.dim > dim_cap:
            return "not_detected", tuple(dims), combined
        if qexp:
            kept = current.coefficient_matrix[:n_ortho]
            frontier = rz._orthonormal_rows(kept, combined.coefficient_matrix,
                                            combined.dim - n_ortho)
            current = SpanBasis((), combined.dim, np.vstack([kept, frontier]), keys)
            n_ortho = combined.dim
        else:
            frontier = tuple(f for f in combined.functions
                             if not any(f is g for g in current.functions))
            current = combined


def _scenario_sweeps(name):
    """(op, generators) of each closure sweep that building a bundled
    scenario and its carrier runs: the volatilities' sweep, then the
    curve data's (carrier_coords) where there are symbolic data."""
    sweeps = []
    sweep = rz._closure_sweep

    def recorded(op, generators):
        sweeps.append((op, list(generators)))
        return sweep(op, generators)

    rt = cfgmod.build_runtime(cfgmod.load_config(cfgmod.resolve_config_path(name)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rz, "_closure_sweep", recorded)
        try:
            rz.carrier_coords(cfgmod.build_scenario_realization(rt), rt.h0,
                              rt.t_grid())
        except NotQuasiExponential:
            assert name.startswith("neg-")
    return sweeps


def _assert_bits_of_svd_sweep(op, generators):
    status, dims, basis = _svd_sweep(op, generators)
    out = rz._closure_sweep(op, generators)
    assert (out.status, out.dims) == (status, dims)
    assert out.basis.keys == basis.keys
    got, want = out.basis.coefficient_matrix, basis.coefficient_matrix
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert out.basis.functions == basis.functions


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_sweeps_are_the_svd_sweeps_bit_for_bit(name):
    sweeps = _scenario_sweeps(name)
    assert sweeps
    for op, generators in sweeps:
        _assert_bits_of_svd_sweep(op, generators)


def test_random_family_members_are_the_svd_sweeps_bit_for_bit():
    rng = np.random.default_rng(202)  # the members of test_criterion_2
    for _ in range(20):
        member, _groups = _random_family_member(rng)
        _assert_bits_of_svd_sweep(Translation(), [member])
    _assert_bits_of_svd_sweep(Translation(), [BAND])


def test_each_residual_decision_agrees_with_the_svd(monkeypatch):
    # every certain growth is full rank by rank_and_pivots; the band
    # example's one-row step is neither certain growth nor certainly none
    # (TOL_RANK < |r| <= the cutoff, with sigma_0 >= 1), so it falls back
    decide = rz._certain_growth
    decisions = []

    def checked(kept, mat):
        once = decide(kept, mat)
        rank, _piv = funalg.rank_and_pivots(mat)
        if once is not None:
            assert rank == len(mat)
        decisions.append((len(mat) - len(kept), once is not None, rank, mat))
        return once

    sweeps = [s for name in SCENARIOS for s in _scenario_sweeps(name)]
    rng = np.random.default_rng(202)
    sweeps += [(Translation(), [_random_family_member(rng)[0]]) for _ in range(20)]
    monkeypatch.setattr(rz, "_certain_growth", checked)
    for op, generators in sweeps:
        rz._closure_sweep(op, generators)
    certain = sum(grown for _m, grown, _r, _mat in decisions)
    assert certain >= 2 * (rz.DIM_CAP - 2)  # each control's steps 3..50
    assert any(m == 1 and not grown for m, grown, _r, _mat in decisions)

    decisions.clear()
    assert rz._closure_sweep(Translation(), [BAND]).dims == (1, 2, 3, 3)
    ((rank, mat),) = [(rank, mat) for m, _g, rank, mat in decisions if m == 1]
    assert rank == len(mat) - 1  # no growth, by the SVD
    top = np.max(np.abs(mat[-1]))
    r = np.linalg.norm(rz._project_out(mat[:-1], mat)[-1] / top)
    b = np.linalg.norm(mat[-1] / top)
    assert funalg.TOL_RANK < r <= funalg.TOL_RANK * np.sqrt(mat.size * (1 + 2 * b * b))


def _same_span(a, b):
    return a.dim == b.dim == rz.span_basis(
        list(a.functions) + list(b.functions)).dim


def test_random_family_members_match_the_full_sweep():
    rng = np.random.default_rng(202)  # the members of test_criterion_2
    for _ in range(20):
        member, _groups = _random_family_member(rng)
        status, dims, basis = _full_sweep(Translation(), [member])
        out = rz.invariant_span(Translation(), [member])
        assert (out.status, out.dims) == (status, dims)
        assert _same_span(out.basis, basis)
        assert rz.check_invariant(Translation(), out.basis.functions).ok


@pytest.mark.parametrize("op, text", [
    (Translation(), "exp(-0.5*x)*cos(1*x)"),
    (Translation(), "x^2*exp(-1*x) + sin(2*x)"),
    (Cable(), "exp(-1*x)*sin(2*x) + x*exp(-0.5*x)"),
    (TermStructure2(), "x^3*exp(-2*x)"),
])
def test_other_generators_match_the_full_sweep(op, text):
    gen = funalg.parse_qexp(text)
    status, dims, basis = _full_sweep(op, [gen])
    out = rz.invariant_span(op, [gen])
    assert (out.status, out.dims) == (status, dims)
    assert _same_span(out.basis, basis)
    assert rz.check_invariant(op, out.basis.functions).ok


def test_a_span_that_stabilizes_by_the_second_iteration_is_the_full_sweeps():
    # the first growth orthonormalises the whole span, as the full sweep
    # does, so a closure of dims (1, 2, 2) returns the same bits
    gen = funalg.parse_qexp("exp(-0.5*x)*cos(1*x)")
    _status, dims, basis = _full_sweep(Translation(), [gen])
    out = rz.invariant_span(Translation(), [gen])
    assert out.dims == dims == (1, 2, 2)
    assert out.basis.functions == basis.functions
    assert np.array_equal(out.basis.coefficient_matrix, basis.coefficient_matrix)


def test_rates_within_key_tol_share_a_column_across_generators():
    near = [Q.exponential(-1.0), Q.exponential(-1.0 - 5e-13)]
    assert rz.invariant_span(Translation(), near).dims == (1, 1)
    pair = [Q.exponential(-1.0), funalg.parse_qexp("x*exp(-1.0000000000005*x)")]
    assert rz.invariant_span(Translation(), pair).dims == (2, 2)


@pytest.mark.parametrize("name", ["neg-gauss-taylor", "neg-rational-taylor"])
def test_negative_controls_sweep_to_the_cap(name):
    raw = cfgmod.load_config(cfgmod.resolve_config_path(name))
    gen = funalg.parse_qexp(raw["volatility"][0]["qexp"])
    out = rz.invariant_span(Translation(), [gen])
    assert out.status == "not_detected"
    assert out.dims == tuple(range(1, rz.DIM_CAP + 2))


def test_analyze_applies_a_once_per_term_key(tmp_path, monkeypatch):
    # A runs on the one-term function of each key of the sweep's table,
    # x^0 .. x^60 for the degree-60 control, never on a swept direction
    raw = cfgmod.load_config(cfgmod.resolve_config_path("neg-rational-taylor"))
    gen = funalg.parse_qexp(raw["volatility"][0]["qexp"])
    keys, _g = rz._key_closure(Translation(), rz.span_basis([gen]).keys)
    assert len(keys) == 61
    terms = []
    differentiate = funalg.differentiate

    def counted(f):
        terms.append(len(f.terms))
        return differentiate(f)

    monkeypatch.setattr(funalg, "differentiate", counted)
    monkeypatch.setattr(operators, "differentiate", counted)
    assert cli.main(["analyze", "--config", "neg-rational-taylor",
                     "--out", str(tmp_path / "a")]) == 3
    assert terms == [1] * len(keys)
