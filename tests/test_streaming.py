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
from affinespde.errors import GridMismatch
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D
from affinespde.oracle import GridPath


def _small_runtime(name, n_t, n_x=None, edit=None):
    path = cfgmod.resolve_config_path(name)
    raw = copy.deepcopy(cfgmod.load_config(path))
    raw["time"]["n_t"] = n_t
    if n_x is not None:
        raw["space"]["n_x"] = n_x
    if edit is not None:
        edit(raw)
    return cfgmod.build_runtime(raw, os.path.dirname(path))


def _without_modes(raw):
    del raw["modes"]  # a grid space without modes runs grid_implicit


def _state_scaled(raw):
    raw["volatility"][0]["state_scale"] = {"kind": "affine", "c0": 1.0,
                                           "coeffs": [0.1]}


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


@pytest.mark.parametrize("name, n_t, n_x, edit, refine", [
    pytest.param("cable", 40, 64, None, 0, id="cable-40-64"),  # grid oracle
    # modal oracle on a grid space, then on a modal space
    pytest.param("term-structure-2", 40, 101, None, 0,
                 id="term-structure-2-40-101"),
    pytest.param("heat-disk", 40, None, None, 0, id="heat-disk-40-None"),
    pytest.param("transport-mortality-2d", 40, 126, None, 0,  # ray_grid oracle
                 id="transport-mortality-2d-40-126"),
    # psi with a sampled drift remainder, psi by grid_implicit, Y by euler
    pytest.param("hjmm-levy", 40, 151, None, 0, id="hjmm-levy-sampled"),
    pytest.param("cable", 40, 64, _without_modes, 0, id="cable-grid_implicit"),
    pytest.param("cable", 40, 64, _state_scaled, 0, id="cable-state_scale"),
    pytest.param("hjmm-linear", 30, 121, None, 1, id="hjmm-linear-refine1"),
])
def test_streamed_verify_matches_materialised_paths(tmp_path, name, n_t, n_x,
                                                    edit, refine):
    rt = _small_runtime(name, n_t, n_x, edit)
    seed = 3
    assert cli.run_verify(rt, str(tmp_path), seed=seed, refine=refine) in (0, 5)
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["refinement_checked"] is (refine > 0)

    n_fine = rt.n_t * 2 ** refine
    inc = levy.sample_increments(rt.driver, rt.horizon / n_fine, n_fine, seed)
    for lvl in range(refine, -1, -1):
        rt_l = cli._refine_runtime(rt, 2 ** lvl)
        real = cfgmod.build_scenario_realization(rt_l)
        t_grid = rt_l.t_grid()
        carrier = rz.carrier_coords(real, rt_l.h0, t_grid)
        if name == "hjmm-levy" or edit is _without_modes:
            assert carrier.sampled is not None
        psi = _collect(carrier.rows())
        _u0, v0 = rz.split_initial(real, rt_l.h0)
        coords = _collect(rz.coordinate_rows(real, t_grid, v0, inc))
        rec = GridPath(t_grid, rt_l.space.axis(), psi + coords @ real.V.samples)
        ref = _materialised_oracle(rt_l, real, inc)
        whole = oracle.compare_streams(zip(rec.values, ref.values),
                                       rt_l.space.weights())

        # within 1e-12 of the path magnitude: the modal oracles are exact, so
        # their sup errors are themselves rounding noise of that magnitude
        level = report["levels"][lvl]
        assert level["n_t"] == len(t_grid) - 1
        assert abs(level["scale"] - whole.scale) <= 1e-12 * whole.scale
        assert abs(level["sup_error"] - whole.sup_error) <= 1e-12 * whole.scale
        assert abs(level["relative"] - whole.relative) <= 1e-12
        if lvl == 0:
            fol = _leaf_distances(ref.values, psi, real.V)
            assert abs(report["foliation_distance_max"] - fol.max()) <= \
                1e-12 * whole.scale
        inc = levy.aggregate_increments(inc, 2)


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


def _reduced_in_coordinates(rng, n_t, n, widths, sampled):
    """Random coordinate streams over random spans, an optional sampled
    term, and the reduced states they stand for."""
    spans = [rng.standard_normal((k, n)) for k in widths]
    coords = [rng.standard_normal((n_t, k)) for k in widths]
    term = rng.standard_normal((n_t, n)) if sampled else np.zeros((n_t, n))
    states = term + sum(c @ sp for c, sp in zip(coords, spans))
    return spans, coords, (term if sampled else None), states


@pytest.mark.parametrize("sampled", [False, True])
@pytest.mark.parametrize("n, n_t", [(9, 7), (3000, 25)])  # one block; ragged blocks
def test_compare_coordinates_equals_compare_streams(sampled, n, n_t):
    rng = np.random.default_rng(11)
    space = rz.GridSpace(Grid1D.from_interval(0.0, 2.0, n), Q.exponential(0.3))
    w = space.weights()
    spans, coords, term, states = _reduced_in_coordinates(
        rng, n_t, n, (3, 2), sampled)
    ref = states + 0.01 * rng.standard_normal(states.shape)
    V = rz.Subspace((0, 1), space, spans[-1], (spans[-1] * w) @ spans[-1].T)
    bases = states - coords[-1] @ spans[-1]
    whole = oracle.compare_streams(zip(states, ref, bases), w, leaf=V)
    got = oracle.compare_coordinates(
        iter(ref), [(iter(c), sp) for c, sp in zip(coords, spans)], w,
        sampled=None if term is None else iter(term), leaf=True)
    tol = 1e-13 * whole.scale
    assert abs(got.scale - whole.scale) <= tol
    assert abs(got.sup_error - whole.sup_error) <= tol
    assert abs(got.relative - whole.relative) <= 1e-13
    assert np.max(np.abs(got.per_time - whole.per_time)) <= tol
    assert np.max(np.abs(got.foliation - whole.foliation)) <= tol
    plain = oracle.compare_coordinates(
        iter(ref), [(iter(c), sp) for c, sp in zip(coords, spans)], w,
        sampled=None if term is None else iter(term))
    assert plain.foliation is None
    assert np.array_equal(plain.per_time, got.per_time)


def test_compare_coordinates_passes_nan_to_the_sup_error():
    rng = np.random.default_rng(12)
    spans, coords, _term, states = _reduced_in_coordinates(
        rng, 6, 9, (2,), False)
    coords[0][3, 1] = np.nan
    got = oracle.compare_coordinates(iter(states), [(iter(coords[0]), spans[0])])
    assert np.isnan(got.sup_error) and np.isnan(got.per_time[3])
    assert np.isfinite(np.delete(got.per_time, 3)).all()


def test_compare_coordinates_refuses_mismatched_streams():
    rng = np.random.default_rng(13)
    spans, coords, term, states = _reduced_in_coordinates(
        rng, 6, 9, (2, 1), True)

    def run(ref=states, cs=coords, sampled=term, weights=None):
        return oracle.compare_coordinates(
            iter(ref), [(iter(c), sp) for c, sp in zip(cs, spans)], weights,
            sampled=iter(sampled))

    run()
    for bad in (dict(ref=states[:, :8]), dict(ref=states[:5]),
                dict(ref=np.vstack([states, states[:1]])),
                dict(cs=[coords[0][:5], coords[1]]),
                dict(cs=[coords[0][:, :1], coords[1]]),
                dict(sampled=term[:, :8]), dict(sampled=term[:5]),
                dict(weights=np.ones(8))):
        with pytest.raises(GridMismatch):
            run(**bad)


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
