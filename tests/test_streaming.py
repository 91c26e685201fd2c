"""Streamed verification: the time loop of `verify` against the materialised
paths, its memory bound, the levels run in two forked children and the
finest level's reference rows computed one block ahead in a child of its
own."""

import copy
import functools
import json
import os
import tracemalloc

import numpy as np
import pytest

from affinespde import cli, forked, levy, operators, oracle
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.errors import (ConfigError, GridMismatch, LinearSolveFailure,
                               NotInvariant)
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D
from affinespde.oracle import GridPath
from test_simulate_streams import (_alarm, _assert_no_child_left, _carrier,
                                   _no_process_left, _runtime, needs_fork,
                                   state_scaled)


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
    del raw["modes"]  # symbolic data take the closure route all the same


_state_scaled = state_scaled("affine", [0.1])
# the volatility scaled by its first V-coordinate, from a curve inside V
_state_scaled_rays = state_scaled(
    "affine", [0.5], initial_curve={"rays": [["base", "0.7*exp(-0.5*x)"],
                                             ["trend", "0.4*exp(-0.4*x)"]]})


def _collect(rows):
    return np.array(list(rows))


def _leaf_distances(states, bases, V):
    """Per-time distance of each state from the leaf base + V: the norm of
    the component of state - base orthogonal to V."""
    return np.array([rz.space_norm(V.space, V.complement_residual(s - b))
                     for s, b in zip(states, bases)])


def compare_streams(steps, weights=None, leaf=None):
    """The reference for oracle.compare_coordinates, one state at a time:
    sup over time of the weighted-L2 spatial distance of two paths given as
    (a_n, b_n) pairs, its relative version (normalized by the larger path
    magnitude, hence symmetric) and the per-time series.  With leaf, steps
    yields (a_n, b_n, base_n) triples and .foliation records the distance
    of b_n from the leaf base_n + leaf."""
    w = None if weights is None else np.asarray(weights, dtype=float)
    per_time, mag_a, mag_b, fol = [], [], [], []
    for step in steps:
        a, b = step[0], step[1]
        if a.shape != b.shape:
            raise GridMismatch(f"states of shape {a.shape} vs {b.shape}")
        if w is None:
            w = np.ones(a.shape[0])
        if w.shape != a.shape:
            raise GridMismatch(f"weight vector shape {w.shape} for "
                               f"{a.shape[0]} spatial nodes")
        per_time.append(((a - b) ** 2 * w).sum())
        mag_a.append((a * a * w).sum())
        mag_b.append((b * b * w).sum())
        if leaf is not None:
            fol.extend(_leaf_distances([b], [step[2]], leaf))
    return oracle._path_metrics(per_time, mag_a, mag_b,
                                fol if leaf is not None else None)


def _sampled_sigma(rt, V):
    """Each volatility sampled on the scenario's space, a state-scaled one
    as a function of the whole sampled state."""
    out = []
    for s in rt.sigma:
        base = rt.space.sample(s.base)
        out.append(base if s.scale_fn is None else
                   lambda r, base=base, scale=s.scale_fn: scale(V.coords(r)) * base)
    return out


def _materialised_oracle(rt, real, inc):
    """The reference path built whole, one public solver call per profile."""
    t_grid = np.arange(inc.n_steps + 1) * inc.dt
    kind = rt.oracle
    drift = cfgmod.assemble_drift(rt)
    alpha = None if drift is None else rt.space.sample(drift)
    if kind == "grid":
        return GridPath(t_grid, rt.space.axis(), _collect(oracle.spde_grid_rows(
            rt.op, rt.space.grid, alpha, _sampled_sigma(rt, real.V),
            rt.space.sample(rt.h0), inc)))
    if kind == "ray_grid":
        n = rt.space.ray.size
        sigma = _sampled_sigma(rt, real.V)
        h0 = rt.space.sample(rt.h0)
        blocks = []
        for i in range(len(rt.space.profiles)):
            sl = slice(i * n, (i + 1) * n)
            blocks.append(_collect(oracle.spde_grid_rows(
                operators.Translation(), rt.space.ray.grid,
                None if alpha is None else alpha[sl], [s[sl] for s in sigma],
                h0[sl], inc)))
        return GridPath(t_grid, rt.space.axis(), np.hstack(blocks))
    assert kind == "modal"
    indices = list(rt.space.indices if isinstance(rt.space, rz.ModalSpace)
                   else rt.modes)
    alpha = None
    if rt.drift_element is not None:
        alpha = cfgmod._exact_mode_amplitudes(rt, indices, rt.drift_element)
    amps = oracle.solve_spde_modal(
        rt.op, indices, alpha,
        [cfgmod._exact_mode_amplitudes(rt, indices, s.base) for s in rt.sigma],
        cfgmod._exact_mode_amplitudes(rt, indices, rt.h0), inc)
    if isinstance(rt.space, rz.ModalSpace):
        cols = [indices.index(idx) for idx in rt.space.indices]
        return GridPath(t_grid, rt.space.axis(), amps[:, cols])
    return GridPath(t_grid, rt.space.axis(),
                    _collect(oracle.modal_rows(rt.op, indices, amps,
                                               rt.space.grid)))


@pytest.mark.parametrize("name, n_t, n_x, edit, refine", [
    pytest.param("cable", 40, 64, None, 0, id="cable-40-64"),  # grid oracle
    # modal oracle on a grid space, then on a modal space
    pytest.param("term-structure-2", 40, 101, None, 0,
                 id="term-structure-2-40-101"),
    pytest.param("heat-disk", 40, None, None, 0, id="heat-disk-40-None"),
    pytest.param("transport-mortality-2d", 40, 126, None, 0,  # ray_grid oracle
                 id="transport-mortality-2d-40-126"),
    # psi with a sampled drift remainder, cable without modes, Y by euler
    pytest.param("hjmm-levy", 40, 151, None, 0, id="hjmm-levy-sampled"),
    pytest.param("cable", 40, 64, _without_modes, 0, id="cable-without-modes"),
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
        rt_l = rt.refined(2 ** lvl)
        real = cfgmod.build_scenario_realization(rt_l)
        t_grid = rt_l.t_grid()
        carrier = rz.carrier_coords(real, rt_l.h0, t_grid)
        if name == "hjmm-levy":
            assert carrier.sampled is not None
        if edit is _without_modes:
            assert carrier.sampled is None
        psi = _collect(carrier.rows())
        coords = _collect(rz.coordinate_rows(carrier, inc))
        rec = GridPath(t_grid, rt_l.space.axis(), psi + coords @ real.V.samples)
        ref = _materialised_oracle(rt_l, real, inc)
        whole = compare_streams(zip(rec.values, ref.values),
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
    streamed = compare_streams(zip(a.values, b.values, base), w, leaf=V)
    whole = compare_streams(zip(a.values, b.values), w)
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
    whole = compare_streams(zip(states, ref, bases), w, leaf=V)
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
    got = oracle.compare_coordinates(iter(states), [(iter(coords[0]), spans[0])],
                                     np.ones(9))
    assert np.isnan(got.sup_error) and np.isnan(got.per_time[3])
    assert np.isfinite(np.delete(got.per_time, 3)).all()


def test_compare_coordinates_refuses_mismatched_streams():
    rng = np.random.default_rng(13)
    spans, coords, term, states = _reduced_in_coordinates(
        rng, 6, 9, (2, 1), True)

    def run(ref=states, cs=coords, sampled=term, weights=np.ones(9)):
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


def test_verify_refine2_holds_no_full_path(tmp_path, monkeypatch):
    # one (n_t+1) x n_x float64 array at the finest level is 5.1 MB here;
    # building the paths whole needs several of them.  The forked finest
    # level is out of tracemalloc's sight, so every level runs inline here
    monkeypatch.delattr(os, "fork", raising=False)
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


# ---------------------------------------------------------------------------
# the finest level in a forked child


@needs_fork
@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("name, n_t, n_x", [
    ("cable", 40, 64),  # grid oracle
    ("heat-disk", 40, None),  # modal oracle on a modal space
    ("transport-mortality-2d", 40, 126),  # ray_grid oracle
])
def test_forked_and_inline_verify_give_the_same_bytes(tmp_path, monkeypatch,
                                                      name, n_t, n_x, refine):
    rt = _small_runtime(name, n_t, n_x)
    rc = cli.run_verify(rt, str(tmp_path / "forked"), seed=3, refine=refine)
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert cli.run_verify(rt, str(tmp_path / "inline"), seed=3,
                          refine=refine) == rc
    forked = (tmp_path / "forked" / "verify.json").read_bytes()
    assert forked == (tmp_path / "inline" / "verify.json").read_bytes()
    assert len(json.loads(forked)["levels"]) == refine + 1


def _verify_small_cable(tmp_path, monkeypatch, capfd, refine, fail):
    """`verify --refine refine` of cable at n_x = 64 through cli.main, with
    fail(n) called on each level's realization, n its number of points
    (64 at level 0, 127 at level 1, 253 at level 2): (exit code, stderr).
    No process it forks, at any depth, may outlive it."""
    raw = copy.deepcopy(cfgmod.load_config(cfgmod.resolve_config_path("cable")))
    raw["time"]["n_t"] = 40
    raw["space"]["n_x"] = 64
    cfg = tmp_path / "cable-small.json"
    cfg.write_text(json.dumps(raw))

    def mutate(real):
        fail(real.V.space.size)
        return real

    monkeypatch.setattr(cli, "run_verify",
                        functools.partial(cli.run_verify, mutate=mutate))
    with _no_process_left():
        rc = cli.main(["verify", "--config", str(cfg), "--refine", str(refine),
                       "--out", str(tmp_path / "out")])
    return rc, capfd.readouterr().err


@needs_fork
@pytest.mark.parametrize("exc, code", [(NotInvariant, 4), (ConfigError, 2)])
def test_a_finest_level_failure_exits_as_inline(tmp_path, monkeypatch, capfd,
                                                exc, code):
    def fail(n):
        if n == 253:
            raise exc("finest level broke on purpose")

    forked = _verify_small_cable(tmp_path, monkeypatch, capfd, 2, fail)
    monkeypatch.delattr(os, "fork")
    inline = _verify_small_cable(tmp_path, monkeypatch, capfd, 2, fail)
    assert inline[0] == forked[0] == code
    assert "finest level broke on purpose" in inline[1]
    assert forked[1] == "forked writer ended with status 1\n" + inline[1]


@needs_fork
def test_a_parent_level_failure_wins_and_reaps_the_child(tmp_path,
                                                         monkeypatch, capfd):
    def fail(n):
        if n == 64:
            raise GridMismatch("level 0 broke on purpose")
        if n == 253:
            raise ConfigError("finest level broke on purpose")

    rc, err = _verify_small_cable(tmp_path, monkeypatch, capfd, 2, fail)
    assert rc == 4
    assert err == ("forked writer ended with status 1\n"
                   "GridMismatch: level 0 broke on purpose\n")


@needs_fork
def test_a_finest_level_that_ends_without_a_result_exits_4(tmp_path,
                                                           monkeypatch, capfd):
    def fail(n):
        if n == 127:
            os._exit(3)

    rc, err = _verify_small_cable(tmp_path, monkeypatch, capfd, 1, fail)
    assert rc == 4
    assert err == "AffineSpdeError: forked writer ended with status 3\n"


def test_verify_refine_0_never_forks(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("verify --refine 0 forked")

    monkeypatch.setattr(os, "fork", fork)
    rt = _small_runtime("cable", 40, 64)
    assert cli.run_verify(rt, str(tmp_path), seed=3, refine=0) == 0


# ---------------------------------------------------------------------------
# the finest level's reference rows computed one block ahead


_IMPLICIT_SOLVER = operators.implicit_solver
_SMALL_CABLE_FINEST = 253  # points at level 2 of _verify_small_cable


def _never_fail(_n):
    pass


def _counting_forks(monkeypatch, run):
    """(run(), the number of os.fork calls made during it by this process
    and by every process it forks): each call writes one byte to a pipe
    they all inherit."""
    read, write = os.pipe()
    fork = os.fork

    def counted():
        os.write(write, b"f")
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    try:
        out = run()
    finally:
        monkeypatch.setattr(os, "fork", fork)
        os.close(write)
        os.set_blocking(read, False)
        try:
            forks = len(os.read(read, 64))
        finally:
            os.close(read)
    return out, forks


@pytest.mark.parametrize("seed", range(6))
def test_ray_oracle_verifies_a_state_scaled_volatility(tmp_path, seed):
    # the ray profiles step as one block through the scenario's own
    # transport, the volatility scaled at the V-coordinates of the whole
    # state; from a curve inside V those are the reduced model's Y
    rt = _small_runtime("transport-mortality-2d", 500, edit=_state_scaled_rays)
    assert rt.oracle == "ray_grid" and rt.scheme == "euler"
    assert cli.run_verify(rt, str(tmp_path), seed=seed, refine=2) == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["passed"] and report["oracle"] == "ray_grid"


@pytest.mark.parametrize("name, seed", [
    *[("transport-1d-whole-state", s) for s in range(6)],
    ("transport-mortality-2d-whole-state", 0),
    ("transport-mortality-2d-whole-state", 3)])
def test_a_state_scale_is_read_at_the_whole_state(tmp_path, name, seed):
    # psi leaves V's complement, and the reduced model scales at Y +
    # V.coords(psi_n), where the oracle scales at the whole state
    rt = _runtime(name)
    assert rt.scheme == "euler"
    carrier = _carrier(rt)
    psi_v = [carrier.real.V.coords(p) for p in carrier.rows()]
    assert np.max(np.abs(psi_v)) > 0.1 * np.max(np.abs(carrier.v0))
    assert cli.run_verify(rt, str(tmp_path), seed=seed, refine=2) == 0


@needs_fork
@pytest.mark.parametrize("refine", [1, 2])
@pytest.mark.parametrize("name, n_t, n_x, edit", [
    pytest.param("cable", 40, 64, None, id="cable-40-64"),  # grid oracle
    # modal oracle on a modal space
    pytest.param("heat-disk", 40, None, None, id="heat-disk-40-None"),
    pytest.param("transport-mortality-2d", 40, 126, None,  # ray_grid oracle
                 id="transport-mortality-2d-40-126"),
    pytest.param("transport-mortality-2d", 40, 126, _state_scaled_rays,
                 id="transport-mortality-2d-state_scale"),
])
def test_forked_and_inline_verify_over_oracle_blocks_give_the_same_bytes(
        tmp_path, monkeypatch, name, n_t, n_x, edit, refine):
    # three reference rows a block at the finest level, whose stepping
    # oracle then runs one block ahead in a child of the finest level's
    # child; the coarser levels run in a second child of the command, and
    # a modal oracle runs inline
    rt = _small_runtime(name, n_t, n_x, edit)
    finest = rt.refined(2 ** refine).space.size
    monkeypatch.setattr(oracle, "BLOCK_VALUES", 3 * finest)
    with _no_process_left():
        rc, forks = _counting_forks(monkeypatch, lambda: cli.run_verify(
            rt, str(tmp_path / "forked"), seed=3, refine=refine))
    assert forks == (2 if rt.oracle == "modal" else 3)
    monkeypatch.delattr(os, "fork")
    assert cli.run_verify(rt, str(tmp_path / "inline"), seed=3,
                          refine=refine) == rc
    forked = (tmp_path / "forked" / "verify.json").read_bytes()
    assert forked == (tmp_path / "inline" / "verify.json").read_bytes()


@needs_fork
def test_a_one_block_finest_level_computes_its_rows_itself(tmp_path,
                                                           monkeypatch):
    # one child per side of the command, none for the oracle
    rt = _small_runtime("heat-disk", 40)  # 161 rows of 4 modes: one block
    with _no_process_left():
        rc, forks = _counting_forks(monkeypatch, lambda: cli.run_verify(
            rt, str(tmp_path), seed=3, refine=2))
    assert (rc, forks) == (0, 2)


@needs_fork
def test_a_modal_oracle_on_a_grid_runs_inline(tmp_path, monkeypatch):
    # term-structure-2's modal oracle computes every amplitude before its
    # first row, so no block of it is computed ahead: only the command's
    # two children fork
    def refused(*_args):
        raise AssertionError("a modal oracle ran ahead")

    monkeypatch.setattr(forked, "ahead", refused)
    rt = cli._load_runtime("term-structure-2")
    assert rt.oracle == "modal" and isinstance(rt.space, rz.GridSpace)
    with _no_process_left():
        rc, forks = _counting_forks(monkeypatch, lambda: cli.run_verify(
            rt, str(tmp_path / "forked"), seed=3, refine=2))
    assert forks == 2
    monkeypatch.delattr(os, "fork")
    assert cli.run_verify(rt, str(tmp_path / "inline"), seed=3,
                          refine=2) == rc == 0
    assert (tmp_path / "forked" / "verify.json").read_bytes() == \
        (tmp_path / "inline" / "verify.json").read_bytes()


def _finest_solve_failing(monkeypatch, call, fail):
    """Run fail() on the call-th implicit solve at the finest level of
    _verify_small_cable at --refine 2, whose reference rows come three to
    a block, so its oracle runs ahead over 54 blocks."""
    calls = []

    def patched(diagonals, theta_dt):
        solve = _IMPLICIT_SOLVER(diagonals, theta_dt)
        if len(diagonals[1]) != _SMALL_CABLE_FINEST:
            return solve

        def counted(b):
            calls.append(1)
            if len(calls) == call:
                fail()
            return solve(b)
        return counted

    monkeypatch.setattr(operators, "implicit_solver", patched)
    monkeypatch.setattr(oracle, "BLOCK_VALUES", 3 * _SMALL_CABLE_FINEST)


@needs_fork
def test_an_oracle_failure_exits_as_inline(tmp_path, monkeypatch, capfd):
    def fail():
        raise LinearSolveFailure("oracle solve broke on purpose")

    _finest_solve_failing(monkeypatch, 50, fail)
    forked = _verify_small_cable(tmp_path, monkeypatch, capfd, 2, _never_fail)
    monkeypatch.delattr(os, "fork")
    _finest_solve_failing(monkeypatch, 50, fail)
    inline = _verify_small_cable(tmp_path, monkeypatch, capfd, 2, _never_fail)
    assert inline == (4, "LinearSolveFailure: oracle solve broke on purpose\n")
    # one line from the finest level's process, one from this one
    assert forked == (4, 2 * "forked writer ended with status 1\n" + inline[1])


@needs_fork
def test_an_oracle_that_ends_without_its_rows_exits_4(tmp_path, monkeypatch,
                                                      capfd):
    _finest_solve_failing(monkeypatch, 50, lambda: os._exit(3))
    rc, err = _verify_small_cable(tmp_path, monkeypatch, capfd, 2, _never_fail)
    assert rc == 4
    assert err == ("forked writer ended with status 1\n"
                   "AffineSpdeError: forked writer ended with status 3\n")


@needs_fork
def test_a_level_0_failure_wins_over_the_oracle_ahead(tmp_path, monkeypatch,
                                                      capfd):
    def fail(n):
        if n == 64:
            raise GridMismatch("level 0 broke on purpose")

    monkeypatch.setattr(oracle, "BLOCK_VALUES", 3 * _SMALL_CABLE_FINEST)
    rc, err = _verify_small_cable(tmp_path, monkeypatch, capfd, 2, fail)
    assert rc == 4
    assert err == ("forked writer ended with status 1\n"
                   "GridMismatch: level 0 broke on purpose\n")


@needs_fork
def test_a_comparison_failure_stops_and_reaps_the_oracle(tmp_path,
                                                         monkeypatch, capfd):
    # the finest level fails at its 60th reference row, while its oracle
    # computes a later block or waits for a slot
    square_norm = oracle._square_norm
    calls = []

    def patched(x):
        if len(x) == _SMALL_CABLE_FINEST:
            calls.append(1)
            if len(calls) == 60:
                raise GridMismatch("comparison broke on purpose")
        return square_norm(x)

    monkeypatch.setattr(oracle, "_square_norm", patched)
    monkeypatch.setattr(oracle, "BLOCK_VALUES", 3 * _SMALL_CABLE_FINEST)
    with _alarm(60):
        forked = _verify_small_cable(tmp_path, monkeypatch, capfd, 2, _never_fail)
    monkeypatch.delattr(os, "fork")
    inline = _verify_small_cable(tmp_path, monkeypatch, capfd, 2, _never_fail)
    assert inline == (4, "GridMismatch: comparison broke on purpose\n")
    assert forked == (4, "forked writer ended with status 1\n" + inline[1])


def _filled(rows, n_rows):
    """Blocks of three 4-value rows (BLOCK_VALUES 12) for n_rows reference
    rows, filled in order from the stream rows."""
    fill, shapes = oracle.reference_blocks(iter(rows), n_rows, 4)
    blocks = [np.empty(shape) for shape in shapes]
    for b, out in enumerate(blocks):
        fill(b, out)
    return blocks


def test_reference_blocks_copy_the_rows_exactly(monkeypatch):
    monkeypatch.setattr(oracle, "BLOCK_VALUES", 12)
    rows = np.random.default_rng(0).standard_normal((7, 4))
    blocks = _filled(list(rows), 7)
    assert [b.shape for b in blocks] == [(3, 4), (3, 4), (1, 4)]
    assert np.vstack(blocks).tobytes() == rows.tobytes()


@pytest.mark.parametrize("n, bad, message", [
    pytest.param(6, None, "different lengths", id="short-in-last-block"),
    pytest.param(2, None, "different lengths", id="short-in-first-block"),
    pytest.param(8, None, "different lengths", id="one-row-too-many"),
    # numpy would broadcast this row into the slot
    pytest.param(7, np.ones(1), r"states of shape \(1,\) vs \(4,\)",
                 id="one-value-row"),
    pytest.param(7, np.ones(5), r"states of shape \(5,\) vs \(4,\)",
                 id="long-row"),
])
def test_reference_blocks_refuse_a_mismatched_stream(monkeypatch, n, bad,
                                                     message):
    monkeypatch.setattr(oracle, "BLOCK_VALUES", 12)
    rows = [np.ones(4)] * n
    if bad is not None:
        rows[4] = bad
    with pytest.raises(GridMismatch, match=message):
        _filled(rows, 7)
