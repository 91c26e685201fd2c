"""The curve method and the coordinate scheme follow from the scenario."""

import copy
import json
import os

import numpy as np

from affinespde import cli, funalg, oracle
from affinespde import config as cfgmod
from affinespde import realization as rz


def _raw(name):
    return copy.deepcopy(cfgmod.load_config(cfgmod.resolve_config_path(name)))


def _runtime(raw, base_dir):
    return cfgmod.build_runtime(raw, str(base_dir))


def _with_csv_initial_curve(raw, folder):
    """raw with its symbolic initial curve written to folder/h0.csv."""
    x = np.linspace(raw["space"].get("x_min", 0.0), raw["space"]["x_max"],
                    raw["space"]["n_x"])
    h0 = funalg.evaluate(funalg.parse_qexp(raw["initial_curve"]["qexp"]), x)
    np.savetxt(folder / "h0.csv", np.column_stack([x, h0]), delimiter=",",
               fmt="%.17g")
    out = copy.deepcopy(raw)
    out["initial_curve"] = {"csv": "h0.csv"}
    return out


def _check_against_symbolic(sampled, symbolic, t_grid, x):
    """psi of a sampled initial curve against the symbolic run, on nodes
    whose shift stays inside the grid: equal to rounding where t is a
    multiple of dx, within linear interpolation elsewhere.  At t = n dx the
    nodes inside are the first len(x) - n in exact arithmetic, including the
    one whose x + t rounds past x_max."""
    dx = x[1] - x[0]
    scale = np.abs(symbolic).max()
    on_node = 0
    for t, a, b in zip(t_grid, sampled, symbolic, strict=True):
        inside = x + t <= x[-1]
        err = np.abs(a - b)[inside].max()
        assert err <= 5e-4 * scale, t
        if abs(t / dx - round(t / dx)) < 1e-9:
            on_node += 1
            inside = slice(0, len(x) - round(t / dx))
            assert np.abs(a - b)[inside].max() <= 1e-12 * scale, t
    assert on_node >= 2


def test_sampled_initial_curve_shifts_on_hjmm_linear(tmp_path):
    raw = _raw("hjmm-linear")
    sym_rt = _runtime(raw, tmp_path)
    csv_rt = _runtime(_with_csv_initial_curve(raw, tmp_path), tmp_path)
    assert isinstance(csv_rt.h0, np.ndarray)
    closure = cfgmod.assemble_basis(sym_rt)
    t_grid = sym_rt.t_grid()
    psi = []
    for rt in (csv_rt, sym_rt):
        real = cfgmod.build_scenario_realization(rt, closure)
        assert real.psi_method == "shift_exact"
        psi.append(np.array(list(rz.psi_rows(real, rt.h0, t_grid)[0])))
    _check_against_symbolic(psi[0], psi[1], t_grid, sym_rt.space.axis())


def test_simulate_shifts_a_csv_initial_curve(tmp_path):
    # the command on a coarser clock (dt = dx), so every step lands on a node
    raw = _raw("hjmm-linear")
    raw["time"]["n_t"] = 100
    cfg = tmp_path / "hjmm-csv.json"
    cfg.write_text(json.dumps(_with_csv_initial_curve(raw, tmp_path)))
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "realization.json").read_text())
    assert report["psi_method"] == "shift_exact"
    assert report["scheme"] == "exp_exact"
    path = oracle.read_grid_path(str(out / "psi.csv"))

    sym_rt = _runtime(raw, tmp_path)
    real = cfgmod.build_scenario_realization(sym_rt)
    symbolic = np.array(list(rz.psi_rows(real, sym_rt.h0, path.t_grid)[0]))
    _check_against_symbolic(path.values, symbolic, path.t_grid, path.x_grid)


def test_cable_grid_without_modes_runs_the_closure_route(tmp_path):
    # `modes` only projects sampled data and indexes the modal oracle: a
    # symbolic cable curve takes the one closure route without them, to
    # the same bits
    raw = _raw("cable")
    raw["time"]["n_t"] = 50
    without = copy.deepcopy(raw)
    del without["modes"]
    outs = []
    for label, edit in (("with", raw), ("without", without)):
        cfg = tmp_path / f"cable-{label}.json"
        cfg.write_text(json.dumps(edit))
        out = tmp_path / label
        assert cli.main(["analyze", "--config", str(cfg),
                         "--out", str(out / "a")]) == 0
        analysis = json.loads((out / "a" / "analysis.json").read_text())
        assert analysis["psi_method"] == "spectral_truncation"
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(out / "s")]) == 0
        outs.append({f: (out / "s" / f).read_bytes()
                     for f in sorted(os.listdir(out / "s"))})
    assert sorted(outs[0]) == ["Y.csv", "increments.csv", "psi.csv", "r.csv",
                               "realization.json"]
    assert outs[0] == outs[1]


def test_sampled_curve_without_modes_is_a_config_error(tmp_path, capsys):
    # a CSV initial curve on a Dirichlet grid is projected onto `modes`;
    # without them the command refuses it before it writes anything
    raw = _raw("cable")
    del raw["modes"]
    cfg = tmp_path / "cable-csv.json"
    cfg.write_text(json.dumps(_with_csv_initial_curve(raw, tmp_path)))
    for command in ("simulate", "verify"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "`modes`" in capsys.readouterr().err
        assert not out.exists()


def test_scheme_is_euler_exactly_for_a_state_scaled_volatility(tmp_path):
    for name in cfgmod.bundled_scenarios():
        assert _runtime(_raw(name), tmp_path).scheme == "exp_exact", name
    raw = _raw("cable")
    raw["volatility"][0]["state_scale"] = {"kind": "affine", "c0": 1.0,
                                           "coeffs": [0.1]}
    assert _runtime(raw, tmp_path).scheme == "euler"
