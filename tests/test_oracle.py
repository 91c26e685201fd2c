"""Reference solvers, comparison metrics, and path file formats."""

import ast
import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from affinespde import cli, config, funalg, levy, operators, oracle
from affinespde import realization as rz
from affinespde.errors import GridMismatch, UnstableConfig
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D
from affinespde.oracle import GridPath
from test_streaming import compare_streams


def _zero_driver(dt, n_steps):
    return levy.IncrementMatrix(dt, np.zeros((n_steps, 0)))


def _grid_solution(op, grid, alpha, sigma, h0, inc):
    """The rows of spde_grid_rows as one path."""
    rows = oracle.spde_grid_rows(op, grid, alpha, sigma, h0, inc)
    t_grid = np.arange(inc.n_steps + 1) * inc.dt
    return GridPath(t_grid, grid.points(), np.array(list(rows)))


def _foliation(path, psi, V):
    """Per-time distance of path from the leaf psi + V."""
    return compare_streams(zip(path.values, path.values, psi.values),
                                  leaf=V).foliation


def test_grid_solver_cable_second_order_decay():
    # Crank-Nicolson against the exact decaying eigenmode; halving dx and dt
    # together should cut the error by about four
    g2 = operators.Cable().generator_eigenvalue(2)
    errs = []
    for n_x, n_t in ((101, 50), (201, 100)):
        grid = Grid1D.from_interval(0.0, math.pi, n_x)
        dt = 0.5 / n_t
        path = _grid_solution(operators.Cable(), grid, None, [],
                              np.sin(2 * grid.points()), _zero_driver(dt, n_t))
        exact = np.exp(g2 * path.t_grid)[:, None] * np.sin(2 * grid.points())
        ref = GridPath(path.t_grid, grid.points(), exact)
        errs.append(
            compare_streams(zip(path.values, ref.values)).sup_error)
    assert errs[0] < 2e-4
    assert errs[1] < 0.37 * errs[0]


def test_grid_solver_translation_first_order_shift():
    errs = []
    for n_x, n_t in ((201, 100), (401, 200)):
        grid = Grid1D.from_interval(0.0, 20.0, n_x)
        dt = 1.0 / n_t
        path = _grid_solution(operators.Translation(), grid, None, [],
                              np.exp(-grid.points()), _zero_driver(dt, n_t))
        x = grid.points()
        exact = np.exp(-(x[None, :] + path.t_grid[:, None]))
        ref = GridPath(path.t_grid, x, exact)
        errs.append(
            compare_streams(zip(path.values, ref.values)).sup_error)
    assert errs[1] < 0.72 * errs[0]


def _dense(stencil):
    """The matrix with the (lower, main, upper) diagonals of stencil."""
    lower, main, upper = stencil
    return np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1)


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("c", [0.05, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("rows", [None, 3])
def test_transport_step_matches_dense_pinned_solve(theta, c, rows):
    # the tridiagonal scan solves (I - theta dt A) y = r on the pinned
    # upwind stencil, vector or (rows, n) block, with dt = c dx; at theta c
    # = 10 the recurrence factor is ~0.91, so the scan runs all
    # ceil(log2 n) passes
    grid = Grid1D.from_interval(0.0, 3.0, 301)
    dt = c * grid.dx
    rng = np.random.default_rng(17)
    r = rng.standard_normal(grid.n if rows is None else (rows, grid.n))
    stencil = operators.operator_matrix(operators.Translation(), grid)
    expect = np.linalg.solve(np.eye(grid.n) - theta * dt * _dense(stencil),
                             r.T).T
    got = operators.implicit_solver(stencil, theta * dt)(r)
    assert got.shape == r.shape
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(r))
    if theta == 1.0:  # the grid oracle's own backward Euler transport step
        _r0, step = oracle.spde_grid_rows(operators.Translation(), grid, None,
                                          [], r, _zero_driver(dt, 1))
        assert np.max(np.abs(step - expect)) <= 1e-13 * np.max(np.abs(r))


@pytest.mark.parametrize("dt", [1e-3, 0.02])
def test_implicit_solver_matches_dense_cable_step(dt):
    # the Crank-Nicolson cable step: (I - dt/2 A) y = b against a dense
    # solve; at dt = 0.02 the scan's recurrence factor is ~0.9
    grid = Grid1D.from_interval(0.0, math.pi, 315)
    stencil = operators.operator_matrix(operators.Cable(), grid)
    rng = np.random.default_rng(23)
    lhs = np.eye(grid.n) - 0.5 * dt * _dense(stencil)
    solve = operators.implicit_solver(stencil, 0.5 * dt)
    for b in (rng.standard_normal(grid.n), rng.standard_normal((3, grid.n))):
        got = solve(b)
        assert got.shape == b.shape
        assert np.max(np.abs(got - np.linalg.solve(lhs, b.T).T)) <= \
            1e-13 * np.max(np.abs(b))


@pytest.mark.parametrize("op, theta_dt", [(operators.Translation(), 0.05),
                                          (operators.Cable(), 0.01)])
def test_a_block_solve_equals_one_solve_per_row(op, theta_dt):
    # each row of a (k, n) block takes the bits of its own vector solve,
    # on the transport and the cable stencils; the grid oracle steps the
    # ray profiles of transport-mortality-2d as one block
    grid = Grid1D.from_interval(0.0, 3.0, 301)
    stencil = operators.operator_matrix(op, grid)
    solve = operators.implicit_solver(stencil, theta_dt)
    block = np.random.default_rng(29).standard_normal((4, grid.n))
    got = solve(block)
    assert got.flags.c_contiguous
    assert got.tobytes() == np.vstack([solve(b) for b in block]).tobytes()
    sigma = np.random.default_rng(30).standard_normal((4, grid.n))
    inc = levy.IncrementMatrix(0.01, np.full((5, 1), 0.3))
    rows = oracle.spde_grid_rows(op, grid, None, [sigma], block, inc)
    alone = [list(oracle.spde_grid_rows(op, grid, None, [s], b, inc))
             for s, b in zip(sigma, block)]
    for n, r in enumerate(rows):
        assert r.tobytes() == np.vstack([a[n] for a in alone]).tobytes()


@pytest.mark.parametrize("op, pins", [
    (operators.Cable(), (0, 100)),
    (operators.Translation(), (100,)),
    (operators.Transport(), (100,)),
])
def test_grid_stepping_holds_exactly_the_pinned_rows(op, pins):
    # the pins are the stencil's all-zero rows: the Dirichlet ends of the
    # cable, the far-field end of transport
    grid = Grid1D.from_interval(0.0, 3.0, 101)
    h0 = funalg.evaluate(Q.exponential(-1.0), grid.points())
    inc = levy.IncrementMatrix(0.01, np.full((3, 1), 0.5))
    last = _grid_solution(op, grid, None, [np.ones(grid.n)], h0, inc).values[-1]
    assert tuple(np.flatnonzero(last == h0)) == pins


def test_stability_guards():
    # the growing short-rate generator has no stable grid stepping here
    ts_grid = Grid1D.from_interval(0.0, 1.0, 101)
    with pytest.raises(UnstableConfig):
        _grid_solution(operators.TermStructure2(1.0), ts_grid, None, [],
                       funalg.parse_qexp("exp(-1*x)*sin(3.14159*x)"),
                       _zero_driver(0.001, 10))


def test_term_structure_without_modes_simulates_but_verify_needs_modes(
        tmp_path, capsys):
    # the reduced model steps the term structure's symbolic curve on its
    # A-closure whatever `modes` says, but its modal oracle takes its
    # indices from `modes`: exit 2, no output directory
    raw = config.load_config(config.resolve_config_path("term-structure-2"))
    del raw["modes"]
    raw["time"]["n_t"] = 40
    cfg = tmp_path / "ts-grid.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert "modal oracle needs modes" in capsys.readouterr().err
    assert not out.exists()


def test_modal_solver_exact_for_linear_ode():
    op = operators.Cable()
    indices = [1, 3]
    a0 = np.array([0.7, -0.2])
    alpha = np.array([0.1, 0.0])
    dt, n_t = 0.01, 200
    amps = oracle.solve_spde_modal(op, indices, alpha, [], a0,
                                   _zero_driver(dt, n_t))
    t = np.arange(n_t + 1) * dt
    for j, n in enumerate(indices):
        g = op.generator_eigenvalue(n)
        exact = np.exp(g * t) * a0[j] + (np.exp(g * t) - 1.0) / g * alpha[j]
        assert np.max(np.abs(amps[:, j] - exact)) < 1e-13


def test_modal_solver_zero_mode_integrates_drift():
    op = operators.Hermite(1)
    amps = oracle.solve_spde_modal(op, [(0,)], np.array([0.4]), [],
                                   np.array([1.0]), _zero_driver(0.05, 20))
    t = np.arange(21) * 0.05
    assert np.allclose(amps[:, 0], 1.0 + 0.4 * t, atol=1e-13)


def test_modal_solver_noise_recursion():
    op = operators.Cable()
    spec = levy.make_levy_spec([{"brownian_vol": 1.0}])
    inc = levy.sample_increments(spec, 0.02, 50, seed=21)
    sig_rows = [np.array([0.3, 0.1])]
    amps = oracle.solve_spde_modal(op, [1, 2], None, sig_rows,
                                   np.zeros(2), inc)
    # replay the affine recursion directly
    g = np.array([op.generator_eigenvalue(n) for n in (1, 2)])
    rho = np.exp(g * 0.02)
    a = np.zeros(2)
    for n in range(50):
        a = rho * a + inc.values[n, 0] * sig_rows[0]
        assert np.allclose(amps[n + 1], a, atol=1e-14)


def test_modal_path_to_grid_expands_eigenfunctions():
    op = operators.Cable()
    grid = Grid1D.from_interval(0.0, math.pi, 41)
    amps = np.array([[0.5, 0.0], [0.25, -1.0]])
    values = np.array(list(oracle.modal_rows(op, [1, 2], amps, grid)))
    x = grid.points()
    expect = np.vstack([0.5 * np.sin(x),
                        0.25 * np.sin(x) - 1.0 * np.sin(2 * x)])
    assert np.allclose(values, expect, atol=1e-14)


def test_compare_paths_metric_properties():
    t = np.linspace(0.0, 1.0, 5)
    x = np.linspace(0.0, 2.0, 4)
    rng = np.random.default_rng(8)
    a = GridPath(t, x, rng.standard_normal((5, 4)))
    b = GridPath(t, x, rng.standard_normal((5, 4)))
    w = np.array([0.5, 1.0, 1.0, 0.5])
    m_ab = compare_streams(zip(a.values, b.values), w)
    m_ba = compare_streams(zip(b.values, a.values), w)
    assert m_ab.sup_error == m_ba.sup_error
    assert m_ab.relative == m_ba.relative
    assert compare_streams(zip(a.values, a.values), w).sup_error == 0.0

    shifted = GridPath(t, x, a.values + 1.0)
    m = compare_streams(zip(a.values, shifted.values), w)
    assert np.allclose(m.per_time, math.sqrt(w.sum()))

    with pytest.raises(GridMismatch):
        compare_streams(
            zip(a.values, GridPath(t, x, rng.standard_normal((5, 3))).values))
    with pytest.raises(GridMismatch):
        compare_streams(zip(a.values, b.values), np.ones(3))


def _cable_setup():
    space = rz.GridSpace(Grid1D.from_interval(0.0, math.pi, 315))
    V = rz.Subspace.build([Q.trig("sin", 1.0), Q.trig("sin", 2.0)], space)
    real = rz.build_realization(
        operators.Cable(), funalg.parse_qexp("0.3*sin(1*x)"), [], V,
        mode_indices=(1, 2, 3))
    h0 = funalg.parse_qexp("0.6*sin(1*x) + 0.25*sin(3*x)")
    t_grid = np.linspace(0.0, 0.5, 51)
    rows = rz.carrier_coords(real, h0, t_grid).rows()
    psi = GridPath(t_grid, space.axis(), np.array(list(rows)))
    return space, V, real, psi


def test_foliation_distance_separates_on_and_off_leaf():
    space, V, real, psi = _cable_setup()
    coords = np.outer(np.linspace(1.0, 0.2, 51), np.array([0.6, -0.1]))
    on_leaf = GridPath(psi.t_grid, space.axis(),
                       psi.values + coords @ V.samples)
    dist = _foliation(on_leaf, psi, V)
    assert np.max(dist) < 1e-10

    off = GridPath(psi.t_grid, space.axis(),
                   on_leaf.values + 0.1 * np.sin(3 * space.grid.points()))
    dist_off = _foliation(off, psi, V)
    assert np.min(dist_off) > 0.05


def _written(tmp_path, text):
    """The path of a file holding text."""
    path = tmp_path / "table.csv"
    path.write_text(text)
    return str(path)


def test_grid_path_csv_round_trip(tmp_path):
    t = np.linspace(0.0, 1.0, 7)
    x = np.linspace(0.0, 3.0, 5)
    rng = np.random.default_rng(31)
    path = GridPath(t, x, rng.standard_normal((7, 5)) * 1e-7)
    file = str(tmp_path / "path.csv")
    oracle.write_grid_path(path.values, file, path.t_grid, path.x_grid)
    back = oracle.read_grid_path(file)
    assert np.array_equal(back.t_grid, path.t_grid)
    assert np.array_equal(back.x_grid, path.x_grid)
    assert np.array_equal(back.values, path.values)


def test_coordinate_csv_round_trip(tmp_path):
    t = np.linspace(0.0, 0.5, 6)
    rng = np.random.default_rng(37)
    coords = rng.standard_normal((6, 3))
    file = str(tmp_path / "Y.csv")
    oracle.write_coordinate_csv(t, coords, file)
    t2, c2 = oracle.read_coordinate_csv(file)
    assert np.array_equal(t2, t)
    assert np.array_equal(c2, coords)


def test_header_only_path_files_read_as_empty_paths(tmp_path):
    path = oracle.read_grid_path(_written(tmp_path, "x,0,1\n"))
    assert path.t_grid.shape == (0,)
    assert path.values.shape == (0, 2)
    assert np.array_equal(path.x_grid, [0.0, 1.0])
    t, coords = oracle.read_coordinate_csv(_written(tmp_path, "t,Y_1\n"))
    assert t.shape == (0,)
    assert coords.shape == (0, 1)


def test_malformed_path_files_raise_grid_mismatch(tmp_path):
    bad_grid = ["x,0,1\n0,1,2\n0.5,1\n",      # ragged row
                "x,0,1\n0,1,oops\n",          # not a number
                "x,0,zero\n0,1,2\n",          # axis not a number
                "t,0,1\n0,1,2\n",             # wrong first row
                ""]                           # empty file
    for text in bad_grid:
        with pytest.raises(GridMismatch):
            oracle.read_grid_path(_written(tmp_path, text))
    for text in ["t,Y_1,Y_2\n0,1\n", "t,Y_1\n0,1,2\n", "x,Y_1\n0,1\n", ""]:
        with pytest.raises(GridMismatch):
            oracle.read_coordinate_csv(_written(tmp_path, text))


def test_zero_column_coordinate_csv_round_trip(tmp_path):
    file = tmp_path / "Y.csv"
    oracle.write_coordinate_csv(np.array([0.0, 0.5]), np.zeros((2, 0)), str(file))
    assert file.read_text() == "t\n0\n0.5\n"
    t, coords = oracle.read_coordinate_csv(str(file))
    assert np.array_equal(t, [0.0, 0.5])
    assert coords.shape == (2, 0)


def test_commands_load_no_scipy_module(tmp_path):
    # the package runs on numpy alone: analyze, simulate and verify load no
    # scipy module, on a grid scenario (cable) and a modal one (heat-disk).
    # A module imported in a forked child would not show in this process's
    # sys.modules, so without os.fork every level and writer runs here
    runs = [[*cmd, "--config", name, "--out", str(tmp_path / f"{name}-{cmd[0]}")]
            for name in ("cable", "heat-disk")
            for cmd in (["analyze"], ["simulate", "--seed", "1"],
                        ["verify", "--refine", "1"])]
    code = ("import os, sys\n"
            "del os.fork\n"
            "from affinespde import cli\n"
            f"codes = [cli.main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"


def _zero_drift_coords(real):
    return dataclasses.replace(real, drift=dataclasses.replace(
        real.drift, v_coords=np.zeros(real.dim)))


def _drop_remainder(real):
    return dataclasses.replace(real, drift=dataclasses.replace(
        real.drift, remainder=None))


@pytest.mark.parametrize("name, mutate", [
    ("cable", _zero_drift_coords),
    ("hjmm-linear", _zero_drift_coords),
    ("hjmm-levy", _zero_drift_coords),
    ("hjmm-levy", _drop_remainder),
])
def test_oracle_drift_is_independent_of_the_split(tmp_path, name, mutate):
    # the oracle samples the scenario's own drift, so a reduced model whose
    # drift split loses a part fails verification
    rt = cli._load_runtime(name)
    assert cli.run_verify(rt, str(tmp_path), seed=0, refine=1) == 0
    assert cli.run_verify(rt, str(tmp_path), seed=0, refine=1,
                          mutate=mutate) == 5


def test_modal_amplitudes_on_a_grid_are_exact_or_refused():
    rt = cli._load_runtime("term-structure-2")
    modes = list(rt.modes)
    assert modes == [1, 2, 3]

    def amp(f):
        return config._exact_mode_amplitudes(rt, modes, f)

    assert np.array_equal(amp(rt.h0), [0.4, 0.0, 0.05])
    assert np.array_equal(amp(config.assemble_drift(rt)), [0.0, 0.1, 0.0])
    assert np.array_equal(amp(rt.sigma[0].base), [0.15, 0.0, 0.0])
    with pytest.raises(UnstableConfig, match="band-limited"):
        amp(funalg.parse_qexp("0.6*sin(1*x) + 0.25*cos(3*x)"))


def test_the_reference_solver_imports_nothing_from_the_reduced_model():
    # the oracle is independent evidence only while it shares no code with
    # the realization it checks
    imported = set()
    for node in ast.walk(ast.parse(pathlib.Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name for alias in node.names)
    assert not {name for name in imported
                if name.split(".")[-1] == "realization"}
