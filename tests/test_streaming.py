"""Streamed verification: the time loop of `verify` against the materialised
paths, and its memory bound."""

import copy
import json
import os
import tracemalloc

import numpy as np
import pytest

from affinespde import cli, levy, operators, oracle
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D
from affinespde.oracle import GridPath


def _small_runtime(name, n_t, n_x=None):
    path = cfgmod.resolve_config_path(name)
    raw = copy.deepcopy(cfgmod.load_config(path))
    raw["time"]["n_t"] = n_t
    if n_x is not None:
        raw["space"]["n_x"] = n_x
    return cfgmod.build_runtime(raw, os.path.dirname(path))


def _collect(rows):
    return np.array(list(rows))


def _leaf_distances(states, bases, V):
    """Per-time distance of each state from the leaf base + V: the norm of
    the component of state - base orthogonal to V."""
    return np.array([rz.space_norm(V.space, V.complement_residual(s - b))
                     for s, b in zip(states, bases)])


def _materialised_oracle(rt, real, inc):
    """The reference path built whole, one public solver call per profile."""
    t_grid = np.arange(inc.n_steps + 1) * inc.dt
    kind = rt.verify.oracle
    drift = cfgmod.assemble_drift(rt)
    alpha = None if drift is None else rt.space.sample(drift)
    if kind == "grid":
        return GridPath(t_grid, rt.space.axis(), _collect(oracle.spde_grid_rows(
            rt.op, rt.space.grid, alpha, cli._sigma_for_oracle(rt, real.V),
            rt.space.sample(rt.h0), inc)), inc.seed)
    if kind == "ray_grid":
        n = rt.space.ray.size
        sigma = cli._sigma_for_oracle(rt, real.V)
        h0 = rt.space.sample(rt.h0)
        blocks = []
        for i in range(len(rt.space.profiles)):
            sl = slice(i * n, (i + 1) * n)
            blocks.append(_collect(oracle.spde_grid_rows(
                operators.Translation(), rt.space.ray.grid,
                None if alpha is None else alpha[sl], [s[sl] for s in sigma],
                h0[sl], inc)))
        return GridPath(t_grid, rt.space.axis(), np.hstack(blocks), inc.seed)
    assert kind == "modal"
    indices = list(rt.space.indices if isinstance(rt.space, rz.ModalSpace)
                   else rt.modes)
    alpha = None
    if rt.drift_element is not None:
        alpha = cli._exact_mode_amplitudes(rt, indices, rt.drift_element)
    amps = oracle.solve_spde_modal(
        rt.op, indices, alpha,
        [cli._exact_mode_amplitudes(rt, indices, s) for s in rt.sigma],
        cli._exact_mode_amplitudes(rt, indices, rt.h0), inc)
    if isinstance(rt.space, rz.ModalSpace):
        cols = [indices.index(idx) for idx in rt.space.indices]
        return GridPath(t_grid, rt.space.axis(), amps[:, cols], inc.seed)
    return GridPath(t_grid, rt.space.axis(),
                    _collect(oracle.modal_rows(rt.op, indices, amps,
                                               rt.space.grid)), inc.seed)


@pytest.mark.parametrize("name, n_t, n_x", [
    ("cable", 40, 64),                    # grid oracle
    ("term-structure-2", 40, 101),        # modal oracle on a grid space
    ("heat-disk", 40, None),              # modal oracle on a modal space
    ("transport-mortality-2d", 40, 126),  # ray_grid oracle
])
def test_streamed_verify_matches_materialised_paths(tmp_path, name, n_t, n_x):
    rt = _small_runtime(name, n_t, n_x)
    seed = 3
    assert cli.run_verify(rt, str(tmp_path), seed=seed, refine=0) in (0, 5)
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["refinement_checked"] is False

    real = cfgmod.build_scenario_realization(rt)
    inc = levy.sample_increments(rt.driver, rt.horizon / rt.n_t, rt.n_t, seed)
    t_grid = rt.t_grid()
    psi = _collect(rz.psi_rows(real, rt.h0, t_grid)[0])
    _u0, v0 = rz.split_initial(real, rt.h0)
    coords = _collect(rz.coordinate_rows(real, t_grid, v0, inc))
    rec = GridPath(t_grid, rt.space.axis(), psi + coords @ real.V.samples)
    ref = _materialised_oracle(rt, real, inc)
    whole = oracle.compare_streams(zip(rec.values, ref.values),
                                   rt.space.weights())
    fol = _leaf_distances(ref.values, psi, real.V)

    # within 1e-12 of the path magnitude: the modal oracles are exact, so
    # their sup errors are themselves rounding noise of that magnitude
    level = report["levels"][0]
    assert abs(level["scale"] - whole.scale) <= 1e-12 * whole.scale
    assert abs(level["sup_error"] - whole.sup_error) <= 1e-12 * whole.scale
    assert abs(level["relative"] - whole.relative) <= 1e-12
    assert abs(report["foliation_distance_max"] - fol.max()) <= \
        1e-12 * whole.scale


def test_compare_streams_equals_compare_paths_and_foliation():
    rng = np.random.default_rng(5)
    space = rz.GridSpace(Grid1D.from_interval(0.0, 2.0, 9))
    V = rz.Subspace.build([Q.exponential(-1.0)], space)
    t = np.linspace(0.0, 1.0, 6)
    a = GridPath(t, space.axis(), rng.standard_normal((6, 9)))
    b = GridPath(t, space.axis(), rng.standard_normal((6, 9)))
    base = rng.standard_normal((6, 9))
    w = space.weights()
    streamed = oracle.compare_streams(zip(a.values, b.values, base), w, leaf=V)
    whole = oracle.compare_streams(zip(a.values, b.values), w)
    assert streamed.sup_error == whole.sup_error
    assert streamed.scale == whole.scale
    assert np.array_equal(streamed.per_time, whole.per_time)
    assert whole.foliation is None
    assert np.array_equal(streamed.foliation,
                          _leaf_distances(b.values, base, V))


def test_verify_refine2_holds_no_full_path(tmp_path):
    # one (n_t+1) x n_x float64 array at the finest level is 5.1 MB here;
    # building the paths whole needs several of them
    rt = _small_runtime("transport-1d", 100, 401)
    n_t_fine, n_x_fine = 4 * 100, 4 * 400 + 1
    full_path_bytes = 8 * (n_t_fine + 1) * n_x_fine
    tracemalloc.start()
    try:
        rc = cli.run_verify(rt, str(tmp_path), seed=2, refine=2)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert [lv["space_size"] for lv in report["levels"]] == [401, 801, 1601]
    assert peak < full_path_bytes, (peak, full_path_bytes)
