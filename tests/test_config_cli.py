"""Configuration validation and the command-line pipelines end to end."""

import copy
import dataclasses
import json
import os
import types

import numpy as np
import pytest

from affinespde import cli, funalg, levy, operators, oracle
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.errors import ConfigError

BUNDLED = ["cable", "heat-disk", "hermite", "hjmm-levy", "hjmm-linear",
           "laguerre", "neg-gauss-taylor", "neg-rational-taylor",
           "term-structure-2", "transport-1d", "transport-1d-state",
           "transport-mortality-2d"]


def _load(name):
    return cfgmod.load_config(cfgmod.resolve_config_path(name))


def _fast_cable(tmp_path, **time_kw):
    raw = copy.deepcopy(_load("cable"))
    raw["name"] = "cable-fast"
    raw["space"]["n_x"] = 64
    raw["time"] = {"horizon": time_kw.get("horizon", 0.25),
                   "n_t": time_kw.get("n_t", 50)}
    path = tmp_path / "cable-fast.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_bundled_catalog_is_complete():
    assert sorted(cfgmod.bundled_scenarios()) == BUNDLED
    for name in BUNDLED:
        raw = _load(name)
        rt = cfgmod.build_runtime(raw, os.path.dirname(
            cfgmod.resolve_config_path(name)))
        assert rt.name == name


def test_resolve_config_path_errors_list_bundled_names():
    with pytest.raises(ConfigError) as err:
        cfgmod.resolve_config_path("no-such-scenario")
    assert "cable" in str(err.value)


def test_a_bundled_name_is_a_file_name_in_the_scenario_directory(tmp_path,
                                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    bundled = cfgmod.bundled_scenarios()
    assert {name: cfgmod.resolve_config_path(name) for name in BUNDLED} == bundled
    # a name that reaches a bundled file only as a path is not a name
    for ref in ("../scenarios/cable", "scenarios/cable", "cable.json", ""):
        with pytest.raises(ConfigError, match=f"bundled: {', '.join(BUNDLED)}"):
            cfgmod.resolve_config_path(ref)


# each subcommand's command line with every option it takes
FULL_ARGV = {
    "analyze": ["--config", "cable", "--out", "o"],
    "simulate": ["--config", "cable", "--out", "o", "--seed", "3", "--paths", "2"],
    "verify": ["--config", "cable", "--out", "o", "--seed", "3", "--refine", "2"],
    "eigen": ["--operator", "cable", "--count", "3", "--tau", "2", "--lambda-c",
              "1.5", "--kappa", "1", "--a", "1", "--d", "2", "--p-max", "3",
              "--q-max", "4", "--out", "o"],
}


@pytest.mark.parametrize("command", sorted(FULL_ARGV))
def test_the_parser_of_one_subcommand_parses_as_the_full_one(command, capsys):
    every, one = cli._build_parser(), cli._build_parser(command)
    # every option, then the required one alone (the others at their defaults)
    for argv in ([command, *FULL_ARGV[command]], [command, *FULL_ARGV[command][:2]]):
        assert vars(one.parse_args(argv)) == vars(every.parse_args(argv))
    helps = []
    for parser in (every, one):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert all(arg in helps[1] for arg in FULL_ARGV[command] if arg.startswith("--"))
    # the other subcommands are listed but take no option
    for other in set(FULL_ARGV) - {command}:
        with pytest.raises(SystemExit):
            one.parse_args([other, *FULL_ARGV[other]])
    capsys.readouterr()


def test_the_top_level_help_and_an_unknown_command_list_every_subcommand(capsys):
    helps = {cli._build_parser(first).format_help()
             for first in (None, "--help", "analyze", "eigen", "bogus")}
    assert len(helps) == 1
    top = helps.pop()
    assert all(name in top and line in top for name, line, _ in cli._COMMANDS)
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bogus'" in err
    assert all(f"'{name}'" in err for name, _, _ in cli._COMMANDS)


def test_schema_rejections():
    raw = _load("cable")
    for mutate in [
            lambda d: d.pop("operator"),
            lambda d: d.pop("initial_curve"),
            lambda d: d.__setitem__("unexpected_key", 1),
            lambda d: d["time"].__setitem__("n_t", "many"),
            lambda d: d["operator"].__setitem__("kind", "unknown-kind"),
            lambda d: d["space"].__setitem__("n_x", 1),
    ]:
        bad = copy.deepcopy(raw)
        mutate(bad)
        with pytest.raises(ConfigError):
            cfgmod.validate_config(bad)


def test_runtime_rejects_component_mismatch():
    raw = copy.deepcopy(_load("cable"))
    raw["driver"] = {"components": [{"brownian_vol": 0.2},
                                    {"brownian_vol": 0.3}]}
    with pytest.raises(ConfigError) as err:
        cfgmod.build_runtime(raw)
    assert "driver" in str(err.value)


def test_runtime_rejects_wiener_drift_with_jumps():
    raw = copy.deepcopy(_load("hjmm-linear"))
    raw["driver"] = {"components": [{
        "brownian_vol": 0.2, "jump_intensity": 1.0,
        "two_sided_exp": {"p_up": 0.5, "rate_up": 8.0, "rate_down": 9.0}}]}
    with pytest.raises(ConfigError):
        cfgmod.build_runtime(raw)


def test_cli_analyze_positive_and_negative(tmp_path):
    out = tmp_path / "a"
    assert cli.main(["analyze", "--config", "cable", "--out", str(out)]) == 0
    report = json.loads((out / "analysis.json").read_text())
    assert report["status"] == "certified"
    assert report["dim_V"] == 2

    out2 = tmp_path / "b"
    assert cli.main(["analyze", "--config", "neg-gauss-taylor", "--out", str(out2)]) == 3
    report2 = json.loads((out2 / "analysis.json").read_text())
    assert report2["status"] == "negative"
    assert report2["reason"] == "NotQuasiExponential"


def test_cli_bad_inputs_exit_2(tmp_path):
    assert cli.main(["analyze", "--config", "no-such-scenario",
                     "--out", str(tmp_path / "x")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"name": "broken"}))
    assert cli.main(["analyze", "--config", str(broken), "--out", str(tmp_path / "y")]) == 2
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"name": "\xff"}')
    assert cli.main(["analyze", "--config", str(not_utf8), "--out", str(tmp_path / "z")]) == 2
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_cli_simulate_artifacts_reparse(tmp_path):
    cfg = _fast_cable(tmp_path)
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    r_path = oracle.read_grid_path(str(out / "r.csv"))
    psi_path = oracle.read_grid_path(str(out / "psi.csv"))
    t, coords = oracle.read_coordinate_csv(str(out / "Y.csv"))
    inc = levy.read_increments_csv(str(out / "increments.csv"))
    meta = json.loads((out / "realization.json").read_text())

    assert r_path.values.shape == (51, 64)
    assert psi_path.values.shape == (51, 64)
    assert coords.shape == (51, meta["dim_V"])
    assert inc.n_steps == 50
    assert np.array_equal(r_path.t_grid, psi_path.t_grid)
    assert np.array_equal(r_path.t_grid, t)
    # the reconstruction identity holds across the written artifacts
    basis_samples = np.vstack([
        funalg.evaluate(funalg.parse_qexp(b["qexp"]), r_path.x_grid)
        for b in meta["basis"]])
    rebuilt = psi_path.values + coords @ basis_samples
    assert np.allclose(rebuilt, r_path.values, atol=1e-12)


def test_cli_simulate_is_deterministic(tmp_path):
    cfg = _fast_cable(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("psi.csv", "Y.csv", "r.csv", "increments.csv",
                 "realization.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_seed_override_changes_noise(tmp_path):
    cfg = _fast_cable(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--seed", "999",
                     "--out", str(out2)]) == 0
    a = levy.read_increments_csv(str(out1 / "increments.csv"))
    b = levy.read_increments_csv(str(out2 / "increments.csv"))
    assert not np.array_equal(a.values, b.values)


def test_cli_ensemble_stats_shape(tmp_path):
    cfg = _fast_cable(tmp_path)
    out = tmp_path / "ens"
    assert cli.main(["simulate", "--config", cfg, "--paths", "8",
                     "--out", str(out)]) == 0
    rows = (out / "ensemble_stats.csv").read_text().strip().splitlines()
    assert len(rows) == 52  # header + 51 time points


def test_cli_out_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("AFFINESPDE_OUT", str(tmp_path / "envroot"))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", "--config", "laguerre"]) == 0
    assert (tmp_path / "envroot" / "laguerre" / "analysis.json").exists()


def test_cli_verify_passes_and_flags_corruption(tmp_path):
    cfg = _fast_cable(tmp_path, horizon=0.25, n_t=100)
    out = tmp_path / "v"
    base_dir = os.path.dirname(cfg)
    rt = cfgmod.build_runtime(cfgmod.load_config(cfg), base_dir)
    assert cli.run_verify(rt, str(out)) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is True
    assert report["levels"][0]["sup_error"] <= report["bound"]

    def corrupt(real):
        real.B[0, 0] += 0.5
        return real

    out_bad = tmp_path / "vbad"
    assert cli.run_verify(rt, str(out_bad), mutate=corrupt) == 5
    report = json.loads((out_bad / "verify.json").read_text())
    assert report["passed"] is False
    assert report["failures"]


def _no_constant(text):
    raise ValueError(f"{text} is not JSON")


def test_a_non_finite_verify_error_fails_and_is_written_as_null(tmp_path, capsys):
    # nan > bound is False: without the finite check NaN errors pass both
    # the bound and the ratio test
    def nan_vols(real):
        return dataclasses.replace(real, vols=tuple(
            dataclasses.replace(v, coords=np.full_like(v.coords, np.nan))
            for v in real.vols))

    rt = cli._load_runtime("heat-disk")
    assert cli.run_verify(rt, str(tmp_path), seed=0, refine=1,
                          mutate=nan_vols) == 5
    assert "level 0 sup_error nan is not finite" in capsys.readouterr().out
    report = json.loads((tmp_path / "verify.json").read_text(),
                        parse_constant=_no_constant)
    assert report["passed"] is False
    assert [lvl["sup_error"] for lvl in report["levels"]] == [None, None]


@pytest.mark.parametrize("where, literal", [
    pytest.param(("operator", "tau"), "NaN", id="tau-NaN"),
    pytest.param(("driver", "components", 0, "brownian_vol"), "NaN",
                 id="brownian_vol-NaN"),
    pytest.param(("operator", "lambda_c"), "Infinity", id="lambda_c-Infinity"),
    pytest.param(("space", "x_min"), "-Infinity", id="x_min--Infinity"),
    pytest.param(("time", "horizon"), "1e400", id="horizon-1e400"),
    pytest.param(("time", "horizon"), "1" + "0" * 400, id="horizon-10^400"),
])
def test_non_finite_numbers_in_a_scenario_exit_2(tmp_path, capsys, where, literal):
    raw = copy.deepcopy(_load("cable"))
    node = raw
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = "LITERAL"
    cfg = tmp_path / "cable.json"
    cfg.write_text(json.dumps(raw).replace('"LITERAL"', literal))
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", str(cfg), "--refine", "0",
                     "--out", str(out)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert not out.exists()


def test_cli_eigen_outputs_reparse(tmp_path):
    out = tmp_path / "eig"
    assert cli.main(["eigen", "--operator", "cable", "--count", "5",
                     "--out", str(out)]) == 0
    rows = (out / "eigen.csv").read_text().strip().splitlines()
    header, body = rows[0], rows[1:]
    assert header.startswith("index,eigenvalue,generator_eigenvalue")
    eigs = [float(r.split(",")[1]) for r in body]
    assert eigs == [1.0, 4.0, 9.0, 16.0, 25.0]


@pytest.mark.parametrize("argv, message", [
    (["hermite", "--tau", "5", "--kappa", "9"],
     "operator: a hermite operator takes no tau"),
    (["cable", "--kappa", "2"], "operator: a cable operator takes no kappa"),
    (["laguerre", "--a", "2"], "operator: a laguerre operator takes no a"),
    (["term_structure_2", "--d", "2"],
     "operator: a term_structure_2 operator takes no d"),
    # a catalog size of another kind
    (["heat_disk", "--count", "9"], "operator: a heat_disk operator takes no count"),
    (["cable", "--p-max", "7"], "operator: a cable operator takes no p_max"),
    (["hermite", "--q-max", "2"], "operator: a hermite operator takes no q_max"),
])
def test_eigen_refuses_a_flag_the_operator_does_not_take(tmp_path, capsys,
                                                         argv, message):
    out = tmp_path / "eig"
    assert cli.main(["eigen", "--operator", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_eigen_defaults_are_the_operator_fields(tmp_path):
    # a flag not given takes the dataclass default, as a scenario does
    for argv, given in ((["cable"], ["--tau", "1", "--lambda-c", "1",
                                     "--count", "5"]),
                        (["heat_disk"], ["--a", "1", "--p-max", "2",
                                         "--q-max", "3"])):
        paths = [tmp_path / f"{argv[0]}-{k}" / "eigen.csv" for k in (0, 1)]
        for extra, path in zip(([], given), paths):
            assert cli.main(["eigen", "--operator", *argv, *extra,
                             "--out", str(path.parent)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv", [
    ["verify", "--config", "cable", "--refine", "-1"],
    ["simulate", "--config", "cable", "--paths", "-3"],
    ["simulate", "--config", "cable", "--paths", "0"],
    ["eigen", "--operator", "cable", "--count", "0"],
    ["eigen", "--operator", "heat_disk", "--q-max", "0"],
    ["eigen", "--operator", "heat_disk", "--p-max", "-1"],
    ["eigen", "--operator", "heat_disk", "--p-max", "21"],
    ["eigen", "--operator", "heat_disk", "--q-max", "51"],
])
def test_cli_rejects_bad_counts_with_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be at least" in err or "must be below" in err
    assert not (tmp_path / "x").exists()


def test_eigen_catalog_of_a_high_dimensional_ladder(tmp_path):
    # the multi-indices are generated without one recursion per dimension
    out = tmp_path / "eig"
    assert cli.main(["eigen", "--operator", "hermite", "--d", "2000",
                     "--count", "2", "--out", str(out)]) == 0
    rows = (out / "eigen.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == \
        ["-".join(["0"] * 2000), "-".join(["1"] + ["0"] * 1999)]


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["simulate", "--seed", str(2 ** 64)],
    ["verify", "--seed", "-1"],
    ["verify", "--seed", str(2 ** 64)],
])
def test_cli_rejects_seeds_outside_64_bits(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--config", "cable", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_paths_past_the_last_seed_exit_2(tmp_path, capsys):
    cfg = _fast_cable(tmp_path)
    out = tmp_path / "p"
    last = ["--seed", str(2 ** 64 - 1), "--out", str(out)]
    assert cli.main(["simulate", "--config", cfg, "--paths", "2"] + last) == 2
    assert "--paths 2" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["simulate", "--config", cfg] + last) == 0


@pytest.mark.parametrize("seed, paths", [(2 ** 64, 1), (2 ** 64 - 1, 2)])
def test_scenario_seeds_outside_64_bits_exit_2(tmp_path, capsys, seed, paths):
    cfg = _fast_cable(tmp_path)
    with open(cfg) as fh:
        raw = json.load(fh)
    raw["seed"] = seed
    with open(cfg, "w") as fh:
        json.dump(raw, fh)
    out = tmp_path / "s"
    assert cli.main(["simulate", "--config", cfg, "--paths", str(paths),
                     "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_refine_0_checks_the_bound_only(tmp_path, capsys):
    cfg = _fast_cable(tmp_path)
    out = tmp_path / "v0"
    assert cli.main(["verify", "--config", cfg, "--refine", "0",
                     "--out", str(out)]) == 0
    assert "bound only" in capsys.readouterr().out
    report = json.loads((out / "verify.json").read_text())
    assert report["refinement_checked"] is False
    assert len(report["levels"]) == 1


@pytest.mark.parametrize("name", ["heat-disk", "transport-mortality-2d"])
def test_verify_refine_beyond_a_numpy_index_exits_2(tmp_path, capsys, name):
    # n_t * 2^70 steps overflow np.intp: refused before any sampling
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", name, "--refine", "70",
                     "--out", str(out)]) == 2
    assert "--refine 70" in capsys.readouterr().err
    assert not out.exists()


def test_modes_the_grid_cannot_tell_apart_exit_2(tmp_path, capsys):
    # 70 sine modes sampled at 64 points: their Gram matrix is singular
    raw = copy.deepcopy(_load("cable"))
    raw["space"]["n_x"] = 64
    raw["initial_curve"] = {"csv": "h0.csv"}
    raw["modes"] = list(range(1, 71))
    x = np.linspace(0.0, np.pi, 64)
    np.savetxt(tmp_path / "h0.csv", np.column_stack([x, 0.6 * np.sin(x)]),
               delimiter=",")
    cfg = tmp_path / "cable-modes.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "s")]) == 2
    assert "`modes`" in capsys.readouterr().err


def _set(*edits):
    def edit(raw):
        for where, value in edits:
            node = raw
            for key in where[:-1]:
                node = node[key]
            node[where[-1]] = value
    return edit


@pytest.mark.parametrize("name, edit, argv, code", [
    # lambda_c ** 2 overflowed in Cable.apply_qexp
    pytest.param("cable", _set((("operator", "lambda_c"), 1e300)), ["analyze"],
                 2, id="cable-lambda_c-1e300"),
    # dt B is not finite: the exact step's exponent
    pytest.param("cable", _set((("operator", "tau"), 1e-300),
                               (("time", "horizon"), 1e300)),
                 ["simulate", "--paths", "2"], 4, id="cable-tau-1e-300-horizon-1e300"),
    # brownian_vol ** 2 overflowed in levy.cumulant_gradient
    pytest.param("hjmm-levy",
                 _set((("driver", "components", 0, "brownian_vol"), 1e300)),
                 ["analyze"], 2, id="hjmm-levy-brownian_vol-1e300"),
    # jump_intensity x dt beyond the largest rate numpy's poisson draws at
    pytest.param("transport-1d", _set((("time", "horizon"), 1e300)),
                 ["simulate", "--paths", "2"], 2, id="transport-1d-horizon-1e300"),
    # the sampled drift's squares overflowed in space_norm: certified, with
    # its complement part kept, and then refused at the jump rate
    pytest.param("hjmm-levy",
                 _set((("driver", "components", 0, "jump_intensity"), 1e300)),
                 ["analyze"], 0, id="hjmm-levy-jump_intensity-1e300-analyze"),
    pytest.param("hjmm-levy",
                 _set((("driver", "components", 0, "jump_intensity"), 1e300)),
                 ["simulate", "--paths", "2"], 2,
                 id="hjmm-levy-jump_intensity-1e300-simulate"),
    # the Gram matrix of V overflowed in Subspace.build
    pytest.param("heat-disk",
                 _set((("volatility", 0, "modal"),
                       [[[0, 1, "cos"], -1e300], [[1, 1, "cos"], 1e300]])),
                 ["analyze"], 4, id="heat-disk-amplitudes-1e300"),
])
def test_overflowing_scenario_numbers_exit_with_a_code(tmp_path, capfd, name,
                                                       edit, argv, code):
    raw = copy.deepcopy(_load(name))
    edit(raw)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main([argv[0], "--config", str(cfg), *argv[1:],
                     "--out", str(tmp_path / "o")]) == code
    assert "Traceback" not in capfd.readouterr().err


# the curve method of each certified scenario, as the benchmark's reference
# records it: a renamed method fails here before it fails the benchmark
PSI_METHODS = {
    "cable": "spectral_truncation", "heat-disk": "spectral_truncation",
    "hermite": "spectral_truncation", "hjmm-levy": "shift_exact",
    "hjmm-linear": "shift_exact", "laguerre": "spectral_truncation",
    "term-structure-2": "spectral_truncation", "transport-1d": "shift_exact",
    "transport-1d-state": "shift_exact",
    "transport-mortality-2d": "shift_exact",
}


def test_a_drift_whose_squares_overflow_keeps_its_complement_part():
    # its norm once read inf, so that every remainder passed as negligible
    # against 1e-12 x inf; the remainder is 0.57 of the drift's norm here,
    # as at the scenario's own rate
    raw = _load("hjmm-levy")
    raw["driver"]["components"][0]["jump_intensity"] = 1e300
    rt = cfgmod.build_runtime(raw)
    drift = cfgmod.build_scenario_realization(rt).drift
    norm = rz.space_norm(rt.space, rt.space.sample(cfgmod.assemble_drift(rt)))
    remainder = rz.space_norm(rt.space, rt.space.sample(drift.remainder))
    assert 0.5 * norm < remainder < norm < 1e299


@pytest.mark.parametrize("name", sorted(PSI_METHODS))
def test_a_basis_field_reads_back_from_its_written_form(name):
    # the form analysis.json and realization.json write, through JSON
    rt = cfgmod.build_runtime(_load(name))
    for k, b in enumerate(cfgmod.build_scenario_realization(rt).V.basis):
        form = json.loads(json.dumps(cfgmod.field_form(b)))
        assert cfgmod.parse_field(form, rt.op, rt.space, f"basis {k}") == b


@pytest.mark.parametrize("name", sorted(PSI_METHODS))
def test_analysis_reports_the_psi_method(tmp_path, name):
    out = tmp_path / name
    assert cli.main(["analyze", "--config", name, "--out", str(out)]) == 0
    report = json.loads((out / "analysis.json").read_text())
    assert report["psi_method"] == PSI_METHODS[name]


def test_cli_results_are_cwd_independent(tmp_path, monkeypatch):
    # a relative initial_curve.csv resolves against the scenario file,
    # whatever the working directory
    with open(_fast_cable(tmp_path)) as fh:
        raw = json.load(fh)
    raw["initial_curve"] = {"csv": "h0.csv"}
    scen = tmp_path / "scen"
    scen.mkdir()
    x = np.linspace(0.0, np.pi, raw["space"]["n_x"])
    np.savetxt(scen / "h0.csv", np.column_stack([x, 0.6 * np.sin(x)]),
               delimiter=",")
    cfg = scen / "cable-csv.json"
    cfg.write_text(json.dumps(raw))
    stats = []
    for cwd in ("elsewhere", "other"):
        (tmp_path / cwd).mkdir()
        monkeypatch.chdir(tmp_path / cwd)
        out = tmp_path / f"out-{cwd}"
        assert cli.main(["simulate", "--config", str(cfg), "--paths", "4",
                         "--out", str(out)]) == 0
        stats.append((out / "ensemble_stats.csv").read_bytes())
    assert stats[0] == stats[1]


# verify's oracle on each bundled scenario, its space's kind, the field form
# that space samples and the grid its state lies along: the space itself, its
# ray, or none
GRID, MODAL = ("grid", "qexp", "self"), ("modal", "modal", None)
SPACES = {"cable": ("grid", *GRID), "heat-disk": ("modal", *MODAL),
          "hermite": ("modal", *MODAL), "hjmm-levy": ("grid", *GRID),
          "hjmm-linear": ("grid", *GRID), "laguerre": ("modal", *MODAL),
          # a generator whose grid stepping is ill-posed takes the modal oracle
          "term-structure-2": ("modal", *GRID), "transport-1d": ("grid", *GRID),
          "transport-1d-state": ("grid", *GRID),
          "transport-mortality-2d": ("ray_grid", "profile_ray", "rays", "ray"),
          # the negative controls named no oracle; verify refuses them at
          # the closure sweep
          "neg-gauss-taylor": ("grid", *GRID),
          "neg-rational-taylor": ("grid", *GRID)}


@pytest.mark.parametrize("name", BUNDLED)
def test_the_space_fixes_the_oracle_and_the_bounds_are_constants(name):
    rt = cfgmod.build_runtime(_load(name))
    oracle_, kind, form, axis = SPACES[name]
    assert (rt.oracle, rt.space.kind, rt.space.form) == (oracle_, kind, form)
    assert kind == _load(name)["space"]["kind"]
    assert rt.space.grid_axis is {"self": rt.space, None: None,
                                  "ray": getattr(rt.space, "ray", None)}[axis]
    assert (rt.verify.bound_rel_h0, rt.verify.ratio_bound,
            rt.verify.floor_rel) == (0.02, 0.7, 1e-9)


@pytest.mark.parametrize("form", ["modal", "rays"])
def test_drift_terms_that_are_no_list_exit_2(tmp_path, capsys, form):
    raw = copy.deepcopy(_load("heat-disk"))
    raw["drift"] = {"mode": "constant", form: 5}
    cfg = tmp_path / "drift.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["analyze", "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 2
    assert f"config field drift/{form}" in capsys.readouterr().err


def _explicit(first_extra):
    # transport-1d's own span, as an explicit basis
    return {"mode": "explicit", "basis": [
        dict({"qexp": "exp(-0.5*x)*cos(1.0*x)"}, **first_extra),
        {"qexp": "exp(-0.5*x)*sin(1.0*x)"}]}


SCALE = {"state_scale": {"kind": "affine", "c0": 1.0}}


@pytest.mark.parametrize("edit, field", [
    pytest.param(lambda raw: raw["initial_curve"].update(SCALE),
                 "initial_curve", id="curve-state_scale"),
    pytest.param(lambda raw: raw["initial_curve"].update(csv="h0.csv"),
                 "initial curve", id="curve-csv-beside-qexp"),
    pytest.param(lambda raw: raw.update(subspace=_explicit(SCALE)),
                 "subspace/basis/0", id="basis-state_scale"),
    pytest.param(lambda raw: raw.update(subspace=_explicit({"csv": "h0.csv"})),
                 "subspace/basis/0", id="basis-csv"),
])
def test_curve_and_basis_keys_the_parser_would_ignore_exit_2(
        tmp_path, capsys, edit, field):
    raw = copy.deepcopy(_load("transport-1d"))
    edit(raw)
    cfg = tmp_path / "transport-extra.json"
    cfg.write_text(json.dumps(raw))
    (tmp_path / "h0.csv").write_text("0.0,1.0\n1.0,1.0\n")
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "s")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_volatility_csv_is_a_config_error(tmp_path, capsys):
    raw = copy.deepcopy(_load("cable"))
    raw["volatility"] = [{"csv": "sigma.csv"}]
    cfg = tmp_path / "vol-csv.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["analyze", "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 2
    assert "volatility" in capsys.readouterr().err


@pytest.mark.parametrize("first_row", ["x,value", "0.0,abc"])
def test_initial_curve_csv_with_a_text_field_is_a_config_error(
        tmp_path, capsys, first_row):
    with open(_fast_cable(tmp_path)) as fh:
        raw = json.load(fh)
    raw["initial_curve"] = {"csv": "h0.csv"}
    x = np.linspace(0.0, np.pi, raw["space"]["n_x"])
    body = "\n".join(f"{a!r},{b!r}" for a, b in zip(x, 0.6 * np.sin(x)))
    (tmp_path / "h0.csv").write_text(first_row + "\n" + body + "\n")
    cfg = tmp_path / "cable-h0.json"
    cfg.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as err:
        cfgmod.build_runtime(raw, str(tmp_path))
    assert "h0.csv" in str(err.value)
    assert cli.main(["analyze", "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 2
    assert "initial curve file" in capsys.readouterr().err


@pytest.mark.parametrize("x_of", [
    pytest.param(lambda x: 3.0 + 7.0 * x, id="2001-rows-off-axis"),
    pytest.param(lambda x: x[::2], id="1001-rows"),
])
def test_initial_curve_csv_off_the_space_axis_exits_2(tmp_path, capsys, x_of):
    # the x column is read: it must be the grid's x row, in length and value
    raw = copy.deepcopy(_load("transport-1d"))
    x = np.linspace(0.0, raw["space"]["x_max"], raw["space"]["n_x"])
    x_csv = x_of(x)
    np.savetxt(tmp_path / "h0.csv", np.column_stack([x_csv, np.exp(-x_csv)]),
               delimiter=",", fmt="%.17g")
    raw["initial_curve"] = {"csv": "h0.csv"}
    cfg = tmp_path / "transport-csv.json"
    cfg.write_text(json.dumps(raw))
    for command in (["analyze"], ["simulate"], ["verify", "--refine", "1"]):
        out = tmp_path / command[0]
        assert cli.main([*command, "--config", str(cfg),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "h0.csv" in err and "x column" in err
        assert not out.exists()


def test_verify_refines_an_initial_curve_csv(tmp_path):
    # every level samples the piecewise-linear interpolant of the CSV nodes
    raw = copy.deepcopy(_load("transport-1d"))
    raw["space"]["n_x"] = 401
    raw["time"]["n_t"] = 100
    rt = cfgmod.build_runtime(raw)
    x = rt.space.grid.points()
    h0 = rt.space.sample(rt.h0)
    (tmp_path / "h0.csv").write_text(
        "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, h0)))
    raw["initial_curve"] = {"csv": "h0.csv"}
    cfg = tmp_path / "transport-csv.json"
    cfg.write_text(json.dumps(raw))
    fine = cfgmod.build_runtime(raw, str(tmp_path)).refined(4)
    assert np.array_equal(fine.h0, np.interp(fine.space.grid.points(), x, h0))
    assert cli.main(["verify", "--config", str(cfg), "--refine", "2",
                     "--out", str(tmp_path / "v")]) == 0
    report = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert [lv["space_size"] for lv in report["levels"]] == [401, 801, 1601]


def test_a_zero_initial_curve_verifies_against_the_path_scale(tmp_path):
    # bound_rel_h0 x ||h0|| is 0 for h0 = 0, which no sup error meets; the
    # bound is then relative to the level-0 path scale
    raw = copy.deepcopy(_load("transport-1d"))
    raw["initial_curve"] = {"qexp": "0"}
    cfg = tmp_path / "transport-zero.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", str(cfg), "--refine", "2",
                     "--seed", "0", "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["h0_norm"] == 0.0
    assert report["bound"] == cfgmod.Runtime.verify.bound_rel_h0 * \
        report["levels"][0]["scale"] > 0.0


@pytest.mark.parametrize("command", ["analyze", "simulate", "verify"])
def test_state_scale_longer_than_dim_v_exits_2(tmp_path, capsys, command):
    raw = copy.deepcopy(_load("transport-1d"))  # dim V = 2
    raw["volatility"][0]["state_scale"] = {"kind": "affine", "c0": 1.0,
                                           "coeffs": [0.1] * 5}
    cfg = tmp_path / "transport-state.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "state_scale.coeffs has 5 entries" in err and "dim V is 2" in err
    assert not out.exists()


def test_state_scaled_ensemble_writes_stats(tmp_path):
    # euler steps a state-dependent volatility through the ensemble kernel
    # too, so --paths 2 runs where it once refused
    with open(_fast_cable(tmp_path)) as fh:
        raw = json.load(fh)
    raw["volatility"][0]["state_scale"] = {"kind": "affine", "c0": 1.0,
                                           "coeffs": [0.1]}
    cfg = tmp_path / "cable-state.json"
    cfg.write_text(json.dumps(raw))
    ens = tmp_path / "ens"
    assert cli.main(["simulate", "--config", str(cfg), "--paths", "2",
                     "--out", str(ens)]) == 0
    assert json.loads((ens / "realization.json").read_text())["scheme"] == "euler"
    head = (ens / "ensemble_stats.csv").read_text().splitlines()[0]
    assert head == "t,mean_1,mean_2,var_1,var_2"


def _refusal_lines(capfd, command) -> str:
    """The one message line of a refused command, after checking that
    stderr holds nothing else but, under verify, the status line of its
    forked child, which met the same refusal.  Read at the file
    descriptor, so a forked child's output counts."""
    *before, message = capfd.readouterr().err.splitlines()
    assert before == (["forked writer ended with status 1"]
                      if command == "verify" else [])
    return message


# a numpy warning raises, in this process and in its forked children: the
# refusals below come from checks on the results, not from warnings
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["analyze", "simulate", "verify"])
@pytest.mark.parametrize("weight", ["exp(40*x)", "0", "-1"])
def test_weight_not_finite_and_positive_exits_2(tmp_path, capfd, command,
                                                weight):
    # exp(40 x) overflows on the grid (x up to 20): an infinite weight is
    # refused with the others, before any output
    raw = copy.deepcopy(_load("transport-1d"))
    raw["space"]["weight"] = weight
    cfg = tmp_path / "transport-weight.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert _refusal_lines(capfd, command) == (
        "config error: inner product weight must be finite and positive "
        "on the grid")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_overflowing_curve_coefficient_exits_4(tmp_path, capfd, command):
    # the curve's closure sweep meets coefficients that overflow: its rank
    # decision fails as a LinearSolveFailure, before any output
    raw = copy.deepcopy(_load("transport-1d"))
    raw["initial_curve"] = {"qexp": "1e308*exp(-x)"}
    cfg = tmp_path / "transport-huge.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 4
    assert _refusal_lines(capfd, command).startswith(
        "LinearSolveFailure: rank decision failed")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["analyze"], ["simulate"],
                                     ["verify", "--refine", "1"]])
def test_subnormal_volatility_coefficient_prints_no_warning(tmp_path, capfd,
                                                            command):
    # the span's row norms square a 1e-320 coefficient: a 2-norm taken
    # without scaling first underflowed to 0 and printed a divide warning
    raw = copy.deepcopy(_load("transport-1d"))
    raw["volatility"] = [{"qexp": "1e-320*exp(-x)"}]
    cfg = tmp_path / "transport-subnormal.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main([*command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    out, err = capfd.readouterr()
    assert err == ""
    assert len(out.splitlines()) == 1 and out.startswith("transport-1d: ")


@pytest.mark.parametrize("name, edit, message", [
    ("transport-mortality-2d", lambda sp: sp.pop("profiles"),
     "a profile_ray space needs profiles"),
    ("heat-disk", lambda sp: sp.pop("indices"), "a modal space needs indices"),
    ("transport-mortality-2d", lambda sp: sp.update(x_min=0.0),
     "a profile_ray space takes no x_min"),
    ("heat-disk", lambda sp: sp.update(x_max=1.0),
     "a modal space takes no x_max"),
    ("heat-disk", lambda sp: sp.update(weight="1"),
     "a modal space takes no weight"),
    ("transport-1d", lambda sp: sp.update(profiles=["base"]),
     "a grid space takes no profiles"),
    ("transport-1d", lambda sp: sp.update(indices=[1]),
     "a grid space takes no indices"),
    ("transport-mortality-2d", lambda sp: sp.update(weight="exp(("),
     "bad weight text 'exp(('"),
], ids=["ray-without-profiles", "modal-without-indices", "ray-x_min",
        "modal-x_max", "modal-weight", "grid-profiles", "grid-indices",
        "ray-bad-weight"])
def test_a_space_takes_exactly_its_kinds_fields(tmp_path, capsys, name, edit,
                                                message):
    # a missing field, or one of another kind's, is refused by name before
    # any output; a profile-ray weight is parsed as a grid's is
    raw = copy.deepcopy(_load(name))
    edit(raw["space"])
    cfg = tmp_path / "space.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()



def _driver_edit(**fields):
    def edit(raw):
        raw["driver"]["components"][0].update(fields)
    return edit


@pytest.mark.parametrize("name, edit, message", [
    pytest.param("cable", lambda raw: raw["operator"].update(kappa=1.0),
                 "operator: a cable operator takes no kappa", id="cable-kappa"),
    pytest.param("cable", lambda raw: raw["operator"].update(d=2),
                 "operator: a cable operator takes no d", id="cable-d"),
    pytest.param("transport-1d", lambda raw: raw["operator"].update(tau=1.0),
                 "operator: a transport operator takes no tau",
                 id="transport-tau"),
    pytest.param("laguerre", lambda raw: raw.update(drift={
        "mode": "zero", "modal": [[[1], 0.1]]}),
        "drift: a zero drift takes no modal", id="zero-drift-field"),
    pytest.param("hjmm-linear", lambda raw: raw["drift"].update(
        qexp="exp(-x)"), "drift: a hjm_wiener drift takes no qexp",
        id="hjm_wiener-drift-field"),
    pytest.param("hjmm-levy", lambda raw: raw["drift"].update(
        qexp="exp(-x)"), "drift: a hjm_levy drift takes no qexp",
        id="hjm_levy-drift-field"),
    pytest.param("cable", lambda raw: raw["drift"].pop("qexp"),
                 "constant drift needs a function entry",
                 id="constant-drift-without-field"),
    pytest.param("transport-1d", lambda raw: raw["subspace"].update(
        basis=[{"qexp": "exp(-x)"}]),
        "subspace: a volatility_invariant_span subspace takes no basis",
        id="span-basis"),
    pytest.param("hjmm-linear", lambda raw: raw["subspace"].update(
        basis=[{"qexp": "exp(-x)"}]),
        "subspace: a hjm_product_closure subspace takes no basis",
        id="closure-basis"),
    pytest.param("cable", _driver_edit(atoms=[[0.1, 1.0]]),
                 "driver: component 0: a jump law needs a positive jump "
                 "intensity", id="atoms-without-intensity"),
    pytest.param("cable", _driver_edit(jump_intensity=0.0, two_sided_exp={
        "p_up": 0.5, "rate_up": 8.0, "rate_down": 9.0}),
        "driver: component 0: a jump law needs a positive jump intensity",
        id="two_sided_exp-at-zero-intensity"),
    pytest.param("hjmm-levy", _driver_edit(atoms=[[0.1, 1.0]]),
                 "driver: component 0: one jump law, atoms or two_sided_exp, "
                 "not both", id="two-jump-laws"),
])
def test_a_field_the_scenario_would_ignore_exits_2(tmp_path, capsys, name,
                                                   edit, message):
    # an operator takes only its kind's parameters, a drift mode or
    # subspace mode only its own fields, a driver component one jump law
    # and that only with a positive intensity: the rest is refused by name
    # before any output, not dropped
    raw = copy.deepcopy(_load(name))
    edit(raw)
    cfg = tmp_path / "ignored.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def _readme_table():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| name | operator | driver | subspace mode |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_scenario_table_matches_the_files():
    rows = _readme_table()
    assert sorted(r[0].strip("`") for r in rows) == BUNDLED
    for name, operator, driver, mode in rows:
        raw = _load(name.strip("`"))
        assert operator.split("`")[1] == raw["operator"]["kind"], name
        assert mode.split("`")[1] == raw["subspace"]["mode"], name
        comps = raw["driver"]["components"]
        jumps = [c for c in comps if c.get("jump_intensity")]
        assert ("jumps" in driver) == bool(jumps), name
        assert ("atom" in driver) == any("atoms" in c for c in jumps), name
        assert ("two-sided exp" in driver) == \
            any("two_sided_exp" in c for c in jumps), name


def _readme_bullets(heading):
    """The bullets of the README section under `## heading`, each joined
    into one line."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = fh.read().split(f"## {heading}", 1)[1]
    section = section.split("\n## ", 1)[0]
    bullets = []
    for line in section.splitlines():
        if line.startswith("- "):
            bullets.append(line[2:])
        elif line.startswith("  ") and bullets:
            bullets[-1] += " " + line.strip()
    return bullets


def test_readme_configuration_summary_matches_the_schema():
    schema = cfgmod.scenario_schema()["properties"]
    bullets = _readme_bullets("Scenario configuration")
    keys = [b.split("`")[1].split(".")[0] for b in bullets]
    assert sorted(keys) == sorted(schema)


def test_readme_curve_methods_name_exactly_the_psi_method_labels():
    # the lead sentence of the curve-methods bullet names each label that
    # Realization.psi_method can take, and no other: a retired label fails
    labels = {rz.Realization.psi_method.fget(types.SimpleNamespace(op=op()))
              for op in operators.KINDS.values()}
    bullet, = [b for b in _readme_bullets("Numerical methods")
               if b.startswith("Curve methods")]
    lead = bullet.split(". ", 1)[0]
    kinds = cfgmod.scenario_schema()["properties"]["operator"]["properties"][
        "kind"]["enum"]
    assert set(lead.split("`")[1::2]) - set(kinds) == labels


@pytest.mark.parametrize("where, key, value", [
    ((), "psi_method", "grid_implicit"),
    ((), "scheme", "euler"),
    ((), "tolerances", {"tol_rank": 1e-9}),
    ((), "verify", {"theta": 0.5}),
    ((), "verify", {"oracle_modes": [1, 2, 3]}),
    ((), "verify", {"oracle": "grid", "ratio_bound": 0.7}),
    (("operator",), "geometry", "half_line"),
])
def test_removed_scenario_keys_exit_2_naming_the_field(tmp_path, capsys,
                                                       where, key, value):
    raw = copy.deepcopy(_load("cable"))
    target = raw
    for part in where:
        target = target[part]
    target[key] = value
    cfg = tmp_path / "cable-knob.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["analyze", "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 2
    err = capsys.readouterr().err
    assert f"'{key}'" in err
    assert f"config field {'/'.join(where) or '<root>'}" in err


def test_simulate_jobs_is_an_unknown_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--config", "cable", "--jobs", "2",
                  "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def _cable_on_modes(raw):
    # modal data throughout, but cable's explicit basis stays qexp
    raw["space"] = {"kind": "modal", "indices": [1, 2, 3]}
    raw["volatility"] = [{"modal": [[2, 0.2]]}]
    raw["drift"] = {"mode": "constant", "modal": [[1, 0.3]]}
    raw["initial_curve"] = {"modal": [[1, 0.6], [3, 0.25]]}


@pytest.mark.parametrize("name, edit, message", [
    pytest.param("hjmm-linear", lambda raw: raw.update(drift={
        "mode": "constant", "rays": [["a", "exp(-1*x)"]]}),
        "drift: a grid space samples qexp fields, not rays", id="grid-rays"),
    pytest.param("cable", _cable_on_modes,
                 "subspace basis entry 0: a modal space samples modal "
                 "fields, not qexp", id="modal-qexp"),
    pytest.param("cable", lambda raw: raw.update(volatility=[
        {"modal": [[2, 0.2]]}]),
        "volatility entry 0: a grid space samples qexp fields, not modal",
        id="grid-modal"),
    pytest.param("transport-mortality-2d", lambda raw: raw.update(
        initial_curve={"qexp": "exp(-1*x)"}),
        "initial_curve: a profile_ray space samples rays fields, not qexp",
        id="rays-qexp"),
])
def test_a_field_form_the_space_cannot_sample_exits_2(tmp_path, capsys,
                                                      name, edit, message):
    raw = copy.deepcopy(_load(name))
    edit(raw)
    cfg = tmp_path / "form.json"
    cfg.write_text(json.dumps(raw))
    for command in ("analyze", "simulate", "verify"):
        out = tmp_path / command
        assert cli.main([command, "--config", str(cfg), "--out",
                         str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("name", ["neg-gauss-taylor", "neg-rational-taylor"])
def test_verify_refuses_a_scenario_before_drawing_its_noise(
        tmp_path, capsys, monkeypatch, name):
    def drawn(*_args, **_kwargs):
        raise AssertionError("verify drew noise for a refused scenario")

    monkeypatch.setattr(levy, "sample_increments", drawn)
    out = tmp_path / "v"
    assert cli.main(["verify", "--config", name, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("build failed (NotQuasiExponential): volatility "
                          "span not detected as finite dimensional below "
                          "cap 50 (dims (1, 2, 3,")
    assert not out.exists()
