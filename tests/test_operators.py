"""Operator catalog: special functions, eigen data, and exact/grid actions."""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.special

from affinespde import cli, funalg, operators
from affinespde.errors import DomainError, UnsupportedOperator
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D
from affinespde.operators import (Cable, EigenExpansion, HeatDisk, Hermite,
                                  Laguerre, RayBundle, TermStructure2,
                                  Translation, Transport)


def test_bessel_j_matches_reference():
    # scipy is the reference implementation here, used only by the tests
    rng = np.random.default_rng(3)
    for p in range(0, 9):
        xs = rng.uniform(0.0, 40.0, size=25)
        ours = operators.bessel_j(p, xs)
        ref = scipy.special.jv(p, xs)
        assert np.max(np.abs(ours - ref)) < 1e-12


def test_bessel_zero_against_reference_roots():
    for p in range(0, 6):
        ref = scipy.special.jn_zeros(p, 6)
        for q in range(1, 7):
            assert abs(operators.bessel_zero(p, q) - ref[q - 1]) < 1e-11


def test_bessel_zero_interlacing():
    for p in range(0, 5):
        for q in range(1, 5):
            z = operators.bessel_zero(p, q)
            assert z < operators.bessel_zero(p, q + 1)
            assert z < operators.bessel_zero(p + 1, q)


def test_bessel_zero_domain_checks():
    with pytest.raises(DomainError):
        operators.bessel_zero(-1, 1)
    with pytest.raises(DomainError):
        operators.bessel_zero(0, 0)


def test_hermite_values_match_explicit_polynomials():
    xs = np.linspace(-2.0, 2.0, 21)
    assert np.allclose(operators.hermite_value(0, xs), np.ones_like(xs))
    assert np.allclose(operators.hermite_value(1, xs), 2 * xs)
    assert np.allclose(operators.hermite_value(2, xs), 4 * xs**2 - 2)
    assert np.allclose(operators.hermite_value(3, xs), 8 * xs**3 - 12 * xs)


def test_laguerre_values_match_explicit_polynomials():
    xs = np.linspace(0.0, 5.0, 21)
    assert np.allclose(operators.laguerre_value(1, xs), 1 - xs)
    assert np.allclose(operators.laguerre_value(2, xs),
                       0.5 * (xs**2 - 4 * xs + 2))


def test_cable_eigen_identity():
    # -(lambda_c^2 u'' - u)/tau ... the generator multiplies sin(nx) by
    # -(lambda_c^2 n^2 + 1)/tau while the classical eigenvalue is n^2
    op = Cable(tau=2.0, lambda_c=0.5)
    for n in range(1, 8):
        fn = operators.eigenfunction_qexp(op, n)
        g = operators.generator_eigenvalue(op, n)
        assert operators.proof_eigenvalue(op, n) == float(n * n)
        assert math.isclose(g, -(0.25 * n * n + 1.0) / 2.0, rel_tol=1e-15)
        assert funalg.allclose(operators.apply_exact(op, fn), fn * g, tol=1e-12)


def test_term_structure_eigen_identity_and_boundary():
    for kappa in (0.5, 1.0, 2.0):
        op = TermStructure2(kappa)
        for n in range(1, 11):
            fn = operators.eigenfunction_qexp(op, n)
            lam = (1.0 + n * n * math.pi**2 * kappa**2) / (2.0 * kappa)
            assert math.isclose(operators.proof_eigenvalue(op, n), lam,
                                rel_tol=1e-15)
            assert funalg.allclose(operators.apply_exact(op, fn), fn * lam,
                                   tol=1e-11)
            assert abs(float(funalg.evaluate(fn, 0.0))) < 1e-14
            assert abs(float(funalg.evaluate(fn, 1.0))) < 1e-12


def test_hermite_operator_identity_on_samples():
    # x H' - H''/2 = n H, checked with test-local central differences
    op = Hermite(1)
    xs = np.linspace(-1.5, 1.5, 11)
    h = 1e-5
    for n in range(0, 5):
        fn = operators.SpectralFn(op, (n,))
        up = fn.values(xs + h)
        dn = fn.values(xs - h)
        mid = fn.values(xs)
        d1 = (up - dn) / (2 * h)
        d2 = (up - 2 * mid + dn) / (h * h)
        resid = xs * d1 - 0.5 * d2 - n * mid
        assert np.max(np.abs(resid)) < 1e-4 * max(1.0, np.max(np.abs(mid)))


def test_laguerre_operator_identity_on_samples():
    # -(x L'' + (1 - x) L') = n L for the generator convention used here
    op = Laguerre(1)
    xs = np.linspace(0.2, 4.0, 11)
    h = 1e-5
    for n in range(0, 5):
        fn = operators.SpectralFn(op, (n,))
        up, dn, mid = fn.values(xs + h), fn.values(xs - h), fn.values(xs)
        d1 = (up - dn) / (2 * h)
        d2 = (up - 2 * mid + dn) / (h * h)
        resid = -(xs * d2 + (1.0 - xs) * d1) - n * mid
        assert np.max(np.abs(resid)) < 1e-4 * max(1.0, np.max(np.abs(mid)))


def test_heat_disk_eigenfunction_vanishes_on_boundary():
    op = HeatDisk(1.0)
    phis = np.linspace(0.0, 2 * math.pi, 9)
    for index in [(0, 1, "cos"), (1, 2, "cos"), (2, 1, "sin")]:
        fn = operators.SpectralFn(op, index)
        pts = np.column_stack([np.ones_like(phis), phis])
        assert np.max(np.abs(fn.values(pts))) < 1e-10
    assert operators.generator_eigenvalue(op, (0, 1, "cos")) == \
        -operators.bessel_zero(0, 1) ** 2


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("operator, flag", [
    ("cable", "--tau"), ("cable", "--lambda-c"), ("heat_disk", "--a"),
    ("term_structure_2", "--kappa"),
])
def test_operator_parameters_must_be_finite_and_positive(tmp_path, operator,
                                                         flag, value):
    # NaN fails every comparison, so a bare `x <= 0` check lets it through
    out = tmp_path / "eig"
    assert cli.main(["eigen", "--operator", operator, flag, value,
                     "--out", str(out)]) == 2
    assert not out.exists()


def test_eigenpairs_enumeration():
    pairs = operators.eigenpairs(Cable(), 5)
    assert [p.eigenvalue for p in pairs] == [1.0, 4.0, 9.0, 16.0, 25.0]
    pairs = operators.eigenpairs(Hermite(1), 3)
    assert [p.eigenvalue for p in pairs] == [0.0, 1.0, 2.0]
    disk = operators.eigenpairs(HeatDisk(1.0), 8)
    zeros = [p.eigenvalue for p in disk]
    assert zeros == sorted(zeros)
    with pytest.raises(UnsupportedOperator):
        operators.eigenpairs(Translation(), 3)


def test_apply_exact_translation_is_derivative():
    f = funalg.parse_qexp("0.5*x^2*exp(-1*x) + cos(2*x)")
    assert funalg.allclose(operators.apply_exact(Translation(), f),
                           funalg.differentiate(f))


def test_apply_exact_eigen_expansion_scales_modes():
    op = Hermite(2)
    f = EigenExpansion.make(op, [((1, 0), 2.0), ((0, 2), -1.0)])
    out = operators.apply_exact(op, f)
    got = dict(out.items)
    assert math.isclose(got[(1, 0)], 2.0 * 1.0)
    assert math.isclose(got[(0, 2)], -1.0 * 2.0)


def test_eigen_expansion_merges_duplicate_indices():
    op = Laguerre(1)
    f = EigenExpansion.make(op, [((1,), 1.0), ((1,), 2.5)])
    assert dict(f.items) == {(1,): 3.5}


def test_ray_bundle_apply_differentiates_each_part():
    bundle = RayBundle.make([("a", Q.exponential(-0.5)),
                             ("b", Q.exponential(-2.0))])
    out = operators.apply_exact(Transport(), bundle)
    for (lbl, fn), (_lbl, dfn) in zip(bundle.parts, out.parts):
        assert funalg.allclose(dfn, funalg.differentiate(fn))


def _dense(stencil):
    """The matrix with the (lower, main, upper) diagonals of stencil."""
    lower, main, upper = stencil
    return np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1)


def test_grid_action_converges_to_exact_action():
    op = Cable(1.0, 1.0)
    f = funalg.parse_qexp("sin(2*x) + 0.3*sin(5*x)")
    exact = operators.apply_exact(op, f)
    errs = []
    for n in (101, 201):
        grid = Grid1D.from_interval(0.0, math.pi, n)
        x = grid.points()
        approx = _dense(operators.operator_matrix(op, grid)) @ funalg.evaluate(f, x)
        err = np.max(np.abs(approx - funalg.evaluate(exact, x))[2:-2])
        errs.append(err)
    assert errs[1] < 0.3 * errs[0]  # second-order stencil


def test_operator_matrix_pinned_rows_are_zero():
    grid = Grid1D.from_interval(0.0, math.pi, 31)
    mat = _dense(operators.operator_matrix(Cable(), grid))
    assert np.all(mat[0] == 0.0)
    assert np.all(mat[-1] == 0.0)
    assert np.count_nonzero(mat[1:-1]) == 3 * (grid.n - 2)
    half_line = _dense(operators.operator_matrix(Translation(), grid))
    assert np.all(half_line[-1] == 0.0)
    assert np.count_nonzero(half_line[:-1]) == 2 * (grid.n - 1)


def test_index_canonicalization():
    assert operators._canonical_index(Cable(), 3) == 3
    assert operators._canonical_index(Hermite(2), [1, 0]) == (1, 0)
    assert operators._canonical_index(HeatDisk(1.0), (0, 1, "cos")) == (0, 1, "cos")
    with pytest.raises(DomainError):
        operators._canonical_index(Cable(), 0)
    with pytest.raises(DomainError):
        operators._canonical_index(HeatDisk(1.0), (0, 1, "sin"))  # sin needs p >= 1


@pytest.mark.parametrize("family", [Hermite, Laguerre])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_multi_index_catalog_order_is_the_sorted_product_order(family, d):
    # the order eigen.csv has always listed: per total degree, every d-tuple
    # of that degree from the full product, sorted in reverse
    count = 40
    expect = []
    level = 0
    while len(expect) < count:
        combos = [beta for beta in itertools.product(range(level + 1), repeat=d)
                  if sum(beta) == level]
        expect.extend(sorted(combos, reverse=True))
        level += 1
    pairs = operators.eigenpairs(family(d), count)
    assert [p.index for p in pairs] == expect[:count]


def test_eigen_catalog_in_40_dimensions_takes_under_a_second(tmp_path):
    start = time.perf_counter()
    assert cli.main(["eigen", "--operator", "hermite", "--d", "40",
                     "--count", "5", "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 1.0
    rows = (tmp_path / "eigen.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows[:2]] == ["-".join(["0"] * 40),
                                                   "-".join(["1"] + ["0"] * 39)]
