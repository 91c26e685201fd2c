"""Streamed simulation: the one constant-coefficient stepping kernel, the
ensemble blocks, the memory `simulate` holds, and the README example."""

import copy
import os
import re
import tracemalloc

import numpy as np
import pytest

from affinespde import cli, csvio, levy
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.errors import GridMismatch
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D
from affinespde.operators import Translation

CERTIFIED = ["hjmm-linear", "hjmm-levy", "transport-1d",
             "transport-mortality-2d", "cable", "heat-disk", "hermite",
             "laguerre", "term-structure-2"]
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _runtime(name, n_t=None):
    path = cfgmod.resolve_config_path(name)
    raw = copy.deepcopy(cfgmod.load_config(path))
    if n_t is not None:
        raw["time"]["n_t"] = n_t
    return cfgmod.build_runtime(raw, os.path.dirname(path))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("name", CERTIFIED)
def test_exp_exact_rows_equal_per_path_recursion(name):
    rt = _runtime(name)
    real = cfgmod.build_scenario_realization(rt)
    _u0, v0 = rz.split_initial(real, rt.h0)
    inc = levy.sample_increments(rt.driver, rt.dt, rt.n_t, 11)
    got = np.array(list(rz.coordinate_rows(real, rt.t_grid(), v0, inc)))

    # reference: the per-path recursion y <- E y + J a + dX S
    e_mat, j_mat = rz._expm_with_integral(real.B, rt.dt)
    a = real.drift.coords_at(0.0, v0)
    sig = np.vstack([v.coords for v in real.vols])
    y = v0.copy()
    expect = [y]
    for dx in inc.values:
        y = e_mat @ y + j_mat @ a + dx @ sig
        expect.append(y)
    assert np.array_equal(got, np.array(expect))


def test_streamed_ensemble_stats_equal_whole_array_reductions(tmp_path):
    rt = _runtime("heat-disk")
    paths = 500
    assert cli.run_simulate(rt, str(tmp_path), seed=11, paths=paths) == 0
    _head, t, stats = csvio.read_rows(str(tmp_path / "ensemble_stats.csv"), "t")

    real = cfgmod.build_scenario_realization(rt)
    _u0, v0 = rz.split_initial(real, rt.h0)
    blocks = rz.ensemble_rows(real, rt.t_grid(), v0, rt.driver,
                              list(range(11, 11 + paths)))
    coords = np.stack(list(blocks), axis=1)  # (paths, times, d)
    d = real.dim
    assert np.array_equal(t, rt.t_grid())
    assert np.array_equal(stats[:, :d], coords.mean(axis=0))
    assert np.array_equal(stats[:, d:], coords.var(axis=0, ddof=1))


def test_ensemble_rows_driver_mismatch_raises_grid_mismatch():
    space = rz.GridSpace(Grid1D.from_interval(0.0, 20.0, 201))
    V = rz.Subspace.build([Q.exponential(-1.0)], space)
    vols = [Q.exponential(-1.0)]
    real = rz.build_realization(Translation(), rz.ConstantDrift(None),
                                vols * 2, V)
    spec = levy.make_levy_spec([{"brownian_vol": 1.0}])
    t_grid = np.linspace(0.0, 1.0, 11)
    with pytest.raises(GridMismatch, match="2 volatility components vs 1"):
        rz.ensemble_rows(real, t_grid, np.zeros(1), spec, [1, 2, 3])
    inc = levy.sample_increments(spec, 0.1, 10, 1)
    with pytest.raises(GridMismatch, match="2 volatility components vs 1"):
        rz.coordinate_rows(real, t_grid, np.zeros(1), inc)


def test_run_simulate_holds_no_full_curve(tmp_path):
    # psi and r are (n_t+1) x n_x, 2.4 MB here (24 MB at the shipped
    # n_t = 1000, where tracemalloc makes the run take about 25 s); simulate
    # streams them into their files, so its peak does not grow with n_t
    rt = _runtime("hjmm-linear", n_t=100)
    curve_bytes = 8 * (rt.n_t + 1) * rt.space.size
    rc, peak = _traced_peak(lambda: cli.run_simulate(rt, str(tmp_path), seed=11))
    assert rc == 0
    assert peak < curve_bytes, (peak, curve_bytes)


def test_run_simulate_ensemble_holds_no_path_block(tmp_path):
    # the ensemble statistics come from one (paths, d) block per time, never
    # from the (paths, n_t+1, d) array of every path (6.4 MB here)
    rt = _runtime("heat-disk")
    paths = 2000
    real = cfgmod.build_scenario_realization(rt)
    block_bytes = 8 * paths * (rt.n_t + 1) * real.dim
    rc, peak = _traced_peak(
        lambda: cli.run_simulate(rt, str(tmp_path), seed=11, paths=paths))
    assert rc == 0
    assert peak < block_bytes, (peak, block_bytes)


def test_readme_library_usage_runs():
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library usage", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["Y"].shape == (501, namespace["real"].dim)
    assert namespace["r"].shape == (801,)
    assert len(namespace["means"]) == 501
