"""Symbolic quasi-exponential calculus: parsing, arithmetic, derivatives,
running integrals, products, and span rank detection."""

import math

import numpy as np
import pytest

from affinespde import funalg
from affinespde.errors import ConfigError
from affinespde.funalg import QExpFunction as Q
from affinespde.realization import span_basis


def random_qexp(rng, max_terms=4):
    f = Q()
    for _ in range(rng.integers(1, max_terms + 1)):
        power = int(rng.integers(0, 3))
        rate = float(rng.choice([-2.0, -1.0, -0.5, 0.0, 0.7]))
        coef = float(rng.uniform(-2.0, 2.0))
        if rng.random() < 0.5:
            freq = float(rng.choice([0.5, 1.0, 2.0]))
            kind = "cos" if rng.random() < 0.5 else "sin"
            f = f + Q.trig(kind, freq, rate=rate, power=power, coef=coef)
        else:
            f = f + Q.from_terms([(coef, power, rate, 0.0, "cos")])
    return f


def test_parse_round_trip():
    texts = [
        "exp(-1.0*x)",
        "0.5*x^2*exp(-0.25*x)",
        "0.3*exp(-0.5*x)*cos(1.0*x) - 2*sin(2*x)",
        "1 - 16*x^2 + 0.5*x",
        "x",
        "-x",
    ]
    xs = np.linspace(0.0, 3.0, 40)
    for text in texts:
        f = funalg.parse_qexp(text)
        g = funalg.parse_qexp(funalg.serialize(f))
        assert funalg.allclose(f, g, tol=1e-14)
        assert np.allclose(funalg.evaluate(f, xs), funalg.evaluate(g, xs))


def test_parse_rejects_garbage():
    for text in ["", "exp(x^2)", "x^-1", "cos(x)*sin(x)*cos(x)", "foo(x)", "1 +"]:
        with pytest.raises(ConfigError):
            funalg.parse_qexp(text)


def test_evaluate_matches_callables():
    f = funalg.parse_qexp("0.5*x^2*exp(-0.25*x) + 2*exp(-1*x)*sin(3*x)")
    xs = np.linspace(0.0, 5.0, 101)
    expect = 0.5 * xs**2 * np.exp(-0.25 * xs) + 2 * np.exp(-xs) * np.sin(3 * xs)
    assert np.allclose(funalg.evaluate(f, xs), expect, atol=1e-13)
    assert math.isclose(f(1.3), float(funalg.evaluate(f, 1.3)))


def test_differentiate_product_rule_case():
    # d/dx (x^2 e^{-x}) = 2x e^{-x} - x^2 e^{-x}
    f = Q.from_terms([(1.0, 2, -1.0, 0.0, "cos")])
    df = funalg.differentiate(f)
    expect = Q.from_terms([(2.0, 1, -1.0, 0.0, "cos"), (-1.0, 2, -1.0, 0.0, "cos")])
    assert funalg.allclose(df, expect)


def test_differentiate_trig_rotation():
    # d/dx e^{-x} cos(2x) = -e^{-x} cos(2x) - 2 e^{-x} sin(2x)
    f = Q.trig("cos", 2.0, rate=-1.0)
    df = funalg.differentiate(f)
    expect = Q.trig("cos", 2.0, rate=-1.0, coef=-1.0) + \
        Q.trig("sin", 2.0, rate=-1.0, coef=-2.0)
    assert funalg.allclose(df, expect)


def test_integral_is_antiderivative_with_zero_at_origin():
    rng = np.random.default_rng(20)
    xs = np.linspace(0.0, 4.0, 60)
    for _ in range(25):
        f = random_qexp(rng)
        big_f = funalg.integrate_from_zero(f)
        assert abs(funalg.evaluate(big_f, 0.0)) < 1e-12
        assert funalg.allclose(funalg.differentiate(big_f), f, tol=1e-10)
        # numeric cross-check of one endpoint via fine trapezoid; the
        # quadrature itself is only O(h^2) accurate, so scale the tolerance
        fine = np.linspace(0.0, xs[-1], 20001)
        quad = np.trapezoid(funalg.evaluate(f, fine), fine)
        assert abs(float(funalg.evaluate(big_f, xs[-1])) - quad) < \
            1e-7 * max(1.0, abs(quad))


def test_multiply_agrees_pointwise():
    rng = np.random.default_rng(21)
    xs = np.linspace(0.0, 3.0, 50)
    for _ in range(25):
        f, g = random_qexp(rng), random_qexp(rng)
        prod = funalg.multiply(f, g)
        assert np.allclose(
            funalg.evaluate(prod, xs),
            funalg.evaluate(f, xs) * funalg.evaluate(g, xs),
            atol=1e-10, rtol=1e-10)


def test_multiply_exponentials_merge():
    prod = funalg.multiply(Q.exponential(-1.0), Q.exponential(-2.0))
    assert funalg.allclose(prod, Q.exponential(-3.0))


def test_shift_rebinds_argument():
    rng = np.random.default_rng(22)
    xs = np.linspace(0.0, 2.5, 40)
    for _ in range(10):
        f = random_qexp(rng)
        for t in (0.0, 0.3, 1.7):
            shifted = funalg.shift(f, t)
            assert np.allclose(funalg.evaluate(shifted, xs),
                               funalg.evaluate(f, xs + t), atol=1e-11)


def test_canonicalization_merges_close_keys():
    f = Q.exponential(-1.0) + Q.exponential(-1.0 + 1e-13)
    assert len(f.terms) == 1
    assert abs(f.terms[0].coef - 2.0) < 1e-12


def test_span_dimension_counts_independent_directions():
    e1, e2 = Q.exponential(-1.0), Q.exponential(-2.0)
    span = span_basis([e1, e2, e1 + e2])
    assert span.dim == 2
    assert len(span.functions) == 2


def test_span_rank_not_masked_by_huge_rows():
    # scale invariance: a 1e10 coefficient must not hide the second direction
    span = span_basis([Q.exponential(-1.0, 1e10), Q.exponential(-2.0)])
    assert span.dim == 2


def test_span_of_empty_and_zero():
    assert span_basis([]).dim == 0
    assert span_basis([Q()]).dim == 0
