"""The closure sweep applies A once per term key and steps only the
directions each iteration adds, and decides the same dimensions as the full
sweep it replaced."""

import numpy as np
import pytest

from affinespde import cli, funalg, operators
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.funalg import QExpFunction as Q
from affinespde.operators import Cable, TermStructure2, Translation
from test_acceptance import _random_family_member


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
