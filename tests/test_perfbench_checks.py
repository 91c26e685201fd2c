"""The benchmark's own output check, perfbench/checks.py, on outputs made
here: the CSV readers, the artifact keys and the runtime fields that
perfbench and its reference recorder read must keep working.  The module
is loaded by path and executed in memory, so nothing is written beside it.
"""

import os
import types

import numpy as np
import pytest

from affinespde import cli
from affinespde import config as cfgmod

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _load_checks():
    path = os.path.join(PERFBENCH, "checks.py")
    module = types.ModuleType("perfbench_checks")
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


CHECKS = _load_checks()
REFERENCE = CHECKS.load_reference(os.path.join(PERFBENCH, "reference.json"))
SEED = 7


def _check(tmp_path, cmd, argv):
    out = str(tmp_path / "out")
    rc = cli.main([*argv, "--out", out])
    return CHECKS.check_command(REFERENCE, cmd, out, rc, SEED)


@pytest.mark.parametrize("scenario", sorted(REFERENCE["analyze"]))
def test_analyze_passes_the_benchmark_check(tmp_path, scenario):
    assert _check(tmp_path, {"kind": "analyze", "scenario": scenario},
                  ["analyze", "--config", scenario]) == []


def test_an_ensemble_simulate_passes_the_benchmark_check(tmp_path):
    assert _check(tmp_path, {"kind": "simulate", "scenario": "heat-disk",
                             "paths": 50},
                  ["simulate", "--config", "heat-disk", "--seed", str(SEED),
                   "--paths", "50"]) == []


@pytest.mark.parametrize("scenario", ["heat-disk", "cable", "transport-1d",
                                      "hjmm-levy"])
def test_verify_passes_the_benchmark_check(tmp_path, scenario):
    assert _check(tmp_path, {"kind": "verify", "scenario": scenario},
                  ["verify", "--config", scenario, "--refine", "2",
                   "--seed", str(SEED)]) == []


@pytest.mark.parametrize("scenario", sorted(REFERENCE["simulate"]))
def test_the_runtime_fields_the_reference_recorder_reads(scenario):
    want = REFERENCE["simulate"][scenario]
    path = cfgmod.resolve_config_path(scenario)
    rt = cfgmod.build_runtime(cfgmod.load_config(path),
                              base_dir=os.path.dirname(path))
    assert rt.scheme == want["realization"]["scheme"] == "exp_exact"
    assert np.allclose([c.brownian_vol ** 2 * rt.dt
                        for c in rt.driver.components], want["noise_var"],
                       rtol=1e-12, atol=0.0)
    settings = REFERENCE["verify"][scenario]["settings"]
    assert {k: getattr(rt.verify, k) for k in settings} == settings
    V = cfgmod.build_scenario_realization(rt).V.samples
    assert np.allclose(V[:, want["cols"]], want["V"], rtol=1e-9, atol=1e-12)
