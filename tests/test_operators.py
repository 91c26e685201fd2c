"""Operator catalog: special functions, eigen data, and exact/grid actions."""

import ast
import itertools
import math
import pathlib
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
        fn = op.eigenfunction(n)
        g = op.generator_eigenvalue(n)
        assert op.proof_eigenvalue(n) == float(n * n)
        assert math.isclose(g, -(0.25 * n * n + 1.0) / 2.0, rel_tol=1e-15)
        assert funalg.allclose(operators.apply_exact(op, fn), fn * g, tol=1e-12)


def test_term_structure_eigen_identity_and_boundary():
    for kappa in (0.5, 1.0, 2.0):
        op = TermStructure2(kappa)
        for n in range(1, 11):
            fn = op.eigenfunction(n)
            lam = (1.0 + n * n * math.pi**2 * kappa**2) / (2.0 * kappa)
            assert math.isclose(op.proof_eigenvalue(n), lam,
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
        up = op.values((n,), xs + h)
        dn = op.values((n,), xs - h)
        mid = op.values((n,), xs)
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
        up, dn = op.values((n,), xs + h), op.values((n,), xs - h)
        mid = op.values((n,), xs)
        d1 = (up - dn) / (2 * h)
        d2 = (up - 2 * mid + dn) / (h * h)
        resid = -(xs * d2 + (1.0 - xs) * d1) - n * mid
        assert np.max(np.abs(resid)) < 1e-4 * max(1.0, np.max(np.abs(mid)))


def test_heat_disk_eigenfunction_vanishes_on_boundary():
    op = HeatDisk(1.0)
    phis = np.linspace(0.0, 2 * math.pi, 9)
    for index in [(0, 1, "cos"), (1, 2, "cos"), (2, 1, "sin")]:
        pts = np.column_stack([np.ones_like(phis), phis])
        assert np.max(np.abs(op.values(index, pts))) < 1e-10
    assert op.generator_eigenvalue((0, 1, "cos")) == \
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
    assert Cable().canonical_index(3) == 3
    assert Hermite(2).canonical_index([1, 0]) == (1, 0)
    assert HeatDisk(1.0).canonical_index((0, 1, "cos")) == (0, 1, "cos")
    with pytest.raises(DomainError):
        Cable().canonical_index(0)
    with pytest.raises(DomainError):
        HeatDisk(1.0).canonical_index((0, 1, "sin"))  # sin needs p >= 1


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


def _eigen_values(tmp_path, *argv) -> dict:
    """index token -> the nine value columns v1..v9 of an eigen.csv."""
    out = tmp_path / "-".join(argv)
    assert cli.main(["eigen", "--operator", *argv, "--out", str(out)]) == 0
    rows = [r.split(",") for r in (out / "eigen.csv").read_text().splitlines()[1:]]
    return {r[0]: np.array(r[3:], dtype=float) for r in rows}


HERMITE = [lambda x: np.ones_like(x), lambda x: 2 * x, lambda x: 4 * x**2 - 2,
           lambda x: 8 * x**3 - 12 * x, lambda x: 16 * x**4 - 48 * x**2 + 12]
LAGUERRE = [lambda x: np.ones_like(x), lambda x: 1 - x,
            lambda x: (x**2 - 4 * x + 2) / 2,
            lambda x: (-x**3 + 9 * x**2 - 18 * x + 6) / 6,
            lambda x: (x**4 - 16 * x**3 + 72 * x**2 - 96 * x + 24) / 24]


def test_eigen_csv_values_are_the_eigenfunctions_at_the_sample_points(tmp_path):
    x = np.linspace(0.0, math.pi, 9)
    got = _eigen_values(tmp_path, "cable")
    assert list(got) == ["1", "2", "3", "4", "5"]
    for n in range(1, 6):
        assert np.allclose(got[str(n)], np.sin(n * x), rtol=0, atol=1e-14)

    x = np.linspace(0.0, 1.0, 9)
    for kappa in (1.0, 2.0):
        got = _eigen_values(tmp_path, "term_structure_2", "--kappa", str(kappa))
        for n in range(1, 6):
            assert np.allclose(got[str(n)], np.exp(-x / kappa) * np.sin(n * math.pi * x),
                               rtol=0, atol=1e-14)

    # ladders: the sample points repeat one axis in every coordinate, and a
    # mode is the product of one polynomial per coordinate
    for name, polys, x in (("hermite", HERMITE, np.linspace(-2.0, 2.0, 9)),
                           ("laguerre", LAGUERRE, np.linspace(0.0, 4.0, 9))):
        for argv in ((), ("--d", "2", "--count", "6"), ("--d", "3", "--count", "10")):
            got = _eigen_values(tmp_path, name, *argv)
            assert len(got) == (5 if not argv else int(argv[-1]))
            for token, values in got.items():
                expect = np.prod([polys[int(b)](x) for b in token.split("-")], axis=0)
                assert np.allclose(values, expect, rtol=1e-13, atol=1e-13)

    # the disk: r in (1/4, 1/2, 3/4), each at phi in (0, pi/4, pi/2)
    r, phi = (a.ravel() for a in np.meshgrid([0.25, 0.5, 0.75],
                                             [0.0, math.pi / 4, math.pi / 2],
                                             indexing="ij"))
    got = _eigen_values(tmp_path, "heat_disk", "--p-max", "3", "--q-max", "2")
    assert len(got) == 1 * 2 + 3 * 2 * 2
    for token, values in got.items():
        p, q, parity = int(token.split("-")[0]), int(token.split("-")[1]), token.split("-")[2]
        zero = scipy.special.jn_zeros(p, q)[-1]
        trig = np.cos if parity == "cos" else np.sin
        assert np.allclose(values, scipy.special.jv(p, zero * r) * trig(p * phi),
                           rtol=0, atol=1e-12)


def test_heat_disk_catalog_refuses_a_count_past_order_20():
    # bessel_zero stops at p = 20, and only 160 modes of orders p <= 20 lie
    # below j_{21,1} ~ 26.49: counts above 160 would skip order 21.  The
    # order is scipy's, sorted by brute force over p <= 20, q <= 50
    zeros = {p: scipy.special.jn_zeros(p, 50) for p in range(22)}
    every = [(p, q, parity) for p in range(21) for q in range(1, 51)
             for parity in (("cos",) if p == 0 else ("cos", "sin"))]
    every.sort(key=lambda i: (zeros[i[0]][i[1] - 1], i[2]))
    operators.bessel_zero.cache_clear()
    pairs = operators.eigenpairs(HeatDisk(), 160)
    # no zero below j_{21,1} has q > 8 (j_{0,9} ~ 27.49): the catalog
    # computes the 21 x 8 zeros of q <= 8 at most
    assert operators.bessel_zero.cache_info().currsize <= 168
    assert [p.index for p in pairs] == every[:160]
    p, q, _parity = every[160]
    assert pairs[-1].eigenvalue < zeros[21][0] < zeros[p][q - 1]
    with pytest.raises(DomainError, match="order 21"):
        operators.eigenpairs(HeatDisk(), 161)


def test_no_module_but_operators_tests_a_concrete_operator_kind():
    # each kind answers for itself (its methods in operators.py); only the
    # transport family's Translation may be tested elsewhere, since it takes
    # the shift route, is labelled shift_exact and has no eigen catalog
    concrete = {"Cable", "HeatDisk", "Hermite", "Laguerre", "TermStructure2"}
    offenders = []
    for path in sorted(pathlib.Path(operators.__file__).parent.glob("*.py")):
        if path.name == "operators.py":
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
    # and no module-level dispatcher is left under its old name
    assert not [name for name in ("_canonical_index", "proof_eigenvalue",
                                  "generator_eigenvalue", "eigenfunction_qexp",
                                  "_enumerate_indices", "SpectralFn")
                if hasattr(operators, name)]
