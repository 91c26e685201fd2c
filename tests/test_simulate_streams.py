"""Streamed simulation: the one stepping kernel of both schemes, the
ensemble's path blocks and moments, the memory `simulate` holds, the forked
r.csv writer and ensemble sampler, the README example, and an import of the
CLI that pulls in no process pool."""

import ast
import contextlib
import copy
import os
import re
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from affinespde import cli, csvio, levy, oracle
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.errors import ConfigError, GridMismatch
from affinespde.forked import alongside
from affinespde.funalg import QExpFunction as Q
from affinespde.grids import Grid1D
from affinespde.operators import Translation

CERTIFIED = ["hjmm-linear", "hjmm-levy", "transport-1d",
             "transport-mortality-2d", "cable", "heat-disk", "hermite",
             "laguerre", "term-structure-2"]
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
ARTIFACTS = ("psi.csv", "r.csv", "Y.csv", "increments.csv", "realization.json")

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="r.csv is written inline without fork")


def state_scaled(kind, coeffs, **fields):
    """An edit of a raw scenario: its first volatility scaled by the state,
    `kind` with c0 1 and `coeffs`, so its coordinates take euler steps, and
    each top-level field given replaced."""
    def edit(raw):
        raw["volatility"][0]["state_scale"] = {"kind": kind, "c0": 1.0,
                                               "coeffs": list(coeffs)}
        raw.update(copy.deepcopy(fields))
    return edit


# state-scaled scenarios: bundled ones, with no edit, and bundled scenarios
# edited by state_scaled; in the whole-state ones psi is far from orthogonal
# to V, so the scale's reading of V.coords(psi_n) counts
STATE_SCALED = {
    "cable-state": ("cable", state_scaled("affine", [0.1])),
    "transport-1d-state": ("transport-1d-state", None),
    "transport-1d-whole-state": ("transport-1d", state_scaled(
        "affine", [1.0, 1.0],
        initial_curve={"qexp": "1.0*exp(-1.0*x) + 0.5*exp(-2.0*x)"})),
    "transport-mortality-2d-whole-state": ("transport-mortality-2d", state_scaled(
        "affine", [0.5, 0.5], initial_curve={"rays": [
            ["base", "0.7*exp(-0.3*x)+0.3*exp(-0.5*x)"],
            ["trend", "0.4*exp(-0.6*x)"]]})),
}


def _runtime(name, n_t=None):
    name, edit = STATE_SCALED.get(name, (name, None))
    path = cfgmod.resolve_config_path(name)
    raw = copy.deepcopy(cfgmod.load_config(path))
    if edit is not None:
        edit(raw)
    if n_t is not None:
        raw["time"]["n_t"] = n_t
    return cfgmod.build_runtime(raw, os.path.dirname(path))


def _carrier(rt):
    """The carrier of the scenario's realization and initial curve."""
    real = cfgmod.build_scenario_realization(rt)
    return rz.carrier_coords(real, rt.h0, rt.t_grid())


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
    carrier = _carrier(rt)
    real, v0 = carrier.real, carrier.v0
    inc = levy.sample_increments(rt.driver, rt.dt, rt.n_t, 11)
    got = np.array(list(rz.coordinate_rows(carrier, inc)))

    # reference: the per-path recursion y <- E y + J a + dX S
    e_mat, j_mat = rz._expm_with_integral(real.B, rt.dt)
    a = real.drift.v_coords
    y = v0.copy()
    expect = [y]
    for dx in inc.values:
        y = e_mat @ y + j_mat @ a + dx @ real.S
        expect.append(y)
    assert np.array_equal(got, np.array(expect))


def _euler_loop_rows(carrier, dt, inc):
    """The per-path euler loop of a state-scaled volatility: y <- y + dt
    (B y + a) + sum_k scale_k(y + V.coords(psi_n)) sigma_k dX_k, each scale
    read at the V-coordinates of the whole state psi_n + y . V."""
    real = carrier.real
    y = carrier.v0.copy()
    yield y
    for dx, psi in zip(inc.values, carrier.rows()):
        at = y + real.V.coords(psi)
        a = real.B @ y + real.drift.v_coords
        noise = np.zeros(real.dim)
        for k, (scale_fn, row) in enumerate(zip(real.scales, real.S)):
            scale = 1.0 if scale_fn is None else scale_fn(at)
            noise += scale * row * dx[k]
        y = y + dt * a + noise
        yield y


@pytest.mark.parametrize("name", sorted(STATE_SCALED))
@pytest.mark.parametrize("seed", [5, 6])
def test_euler_rows_equal_the_per_path_loop(name, seed):
    rt = _runtime(name)
    assert rt.scheme == "euler"
    carrier = _carrier(rt)
    inc = levy.sample_increments(rt.driver, rt.dt, rt.n_t, seed)
    got = np.array(list(rz.coordinate_rows(carrier, inc)))
    expect = np.array(list(_euler_loop_rows(carrier, rt.dt, inc)))
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("name", sorted(STATE_SCALED))
def test_euler_ensemble_equals_the_stacked_paths(name):
    # on cable, whose B is diagonal, a (d,) state and a (d, P) block step
    # with the same bits; on transport-1d they agree to rounding
    rt = _runtime(name)
    carrier = _carrier(rt)
    seeds = [5, 6, 7]
    mean, var = rz.ensemble_moments(carrier, rt.driver, seeds)
    paths = np.stack([np.array(list(rz.coordinate_rows(
        carrier, levy.sample_increments(rt.driver, rt.dt, rt.n_t, seed))))
        for seed in seeds])
    want_mean, want_var = paths.mean(axis=0), paths.var(axis=0, ddof=1)
    if name == "cable-state":
        assert np.array_equal(mean, want_mean)
        assert np.array_equal(var, want_var)
    assert np.all(np.abs(mean - want_mean) <= 1e-13 * np.max(np.abs(want_mean)))
    assert np.all(np.abs(var - want_var) <= 1e-12 * np.max(want_var))


def _whole_ensemble(rt, carrier, seeds):
    """The (paths, n_t+1, d) array of every path: the per-seed increments
    stacked whole and stepped as one block."""
    inc = np.stack([levy.sample_increments(rt.driver, rt.dt, rt.n_t, s).values
                    for s in seeds])
    rows = rz._affine_rows(np.tile(carrier.v0[:, None], (1, len(seeds))),
                           rz._coordinate_step(carrier, rt.dt),
                           inc.transpose(1, 2, 0))
    return np.stack([y.T for y in rows], axis=1)


def test_streamed_ensemble_stats_equal_whole_array_reductions(tmp_path):
    rt = _runtime("heat-disk")
    paths = 500
    assert cli.run_simulate(rt, str(tmp_path), seed=11, paths=paths) == 0
    _head, t, stats = csvio.read_rows(str(tmp_path / "ensemble_stats.csv"), "t")

    carrier = _carrier(rt)
    coords = _whole_ensemble(rt, carrier, range(11, 11 + paths))
    d = carrier.real.dim
    assert np.array_equal(t, rt.t_grid())
    assert np.array_equal(stats[:, :d], coords.mean(axis=0))
    assert np.array_equal(stats[:, d:], coords.var(axis=0, ddof=1))


@pytest.mark.parametrize("paths, per_block", [
    (2, 5), (6, 5), (7, 5), (11, 5), (16, 5),
    (3300, None)])  # three shipped blocks, the last one ragged
def test_ensemble_moments_match_whole_array_reductions(paths, per_block,
                                                       monkeypatch):
    # the mean keeps the whole array's bits for every count; the variance
    # keeps them within one block, where a lone last path joins the block
    # before it, and its value to rounding across blocks
    rt = _runtime("heat-disk")
    carrier = _carrier(rt)
    if per_block is not None:
        monkeypatch.setattr(rz, "BLOCK_VALUES",
                            per_block * rt.n_t * rt.driver.m)
    per_block = rz.BLOCK_VALUES // (rt.n_t * rt.driver.m)
    seeds = range(11, 11 + paths)
    mean, var = rz.ensemble_moments(carrier, rt.driver, seeds)
    coords = _whole_ensemble(rt, carrier, seeds)
    want = coords.var(axis=0, ddof=1)
    assert np.array_equal(mean, coords.mean(axis=0))
    if paths <= per_block + 1:
        assert np.array_equal(var, want)
    assert np.all(np.abs(var - want) <= 1e-12 * want.max(axis=0))


@pytest.mark.parametrize("name", ["hjmm-levy", "transport-mortality-2d"])
@pytest.mark.parametrize("paths", [6, 13])  # one block; a ragged last block
def test_ensemble_moments_off_heat_disk_match_whole_array_reductions(
        name, paths, monkeypatch):
    # a jump driver with d = 1 and a grid space with d = 2, in blocks of
    # five paths: the mean keeps the whole array's bits, the variance
    # keeps them within one block and its value to rounding across blocks
    rt = _runtime(name)
    carrier = _carrier(rt)
    monkeypatch.setattr(rz, "BLOCK_VALUES", 5 * rt.n_t * rt.driver.m)
    seeds = range(11, 11 + paths)
    mean, var = rz.ensemble_moments(carrier, rt.driver, seeds)
    coords = _whole_ensemble(rt, carrier, seeds)
    want = coords.var(axis=0, ddof=1)
    assert np.array_equal(mean, coords.mean(axis=0))
    if paths == 6:
        assert np.array_equal(var, want)
    assert np.all(np.abs(var - want) <= 1e-12 * want.max(axis=0))


def test_ensemble_rows_driver_mismatch_raises_grid_mismatch():
    space = rz.GridSpace(Grid1D.from_interval(0.0, 20.0, 201))
    V = rz.Subspace.build([Q.exponential(-1.0)], space)
    vols = [Q.exponential(-1.0)]
    real = rz.build_realization(Translation(), None, vols * 2, V)
    spec = levy.make_levy_spec([{"brownian_vol": 1.0}])
    carrier = rz.carrier_coords(real, Q(), np.linspace(0.0, 1.0, 11))
    with pytest.raises(GridMismatch, match="2 volatility components vs 1"):
        rz.ensemble_moments(carrier, spec, [1, 2, 3])
    inc = levy.sample_increments(spec, 0.1, 10, 1)
    with pytest.raises(GridMismatch, match="2 volatility components vs 1"):
        rz.coordinate_rows(carrier, inc)


def test_one_path_and_its_ensemble_path_agree_to_rounding():
    # a (d,) state steps by a matrix-vector product and a block of paths by
    # a matrix product, which round differently for d >= 2 (heat-disk has
    # d = 2): simulate --seed s and ensemble path s agree to rounding, not
    # necessarily bit for bit
    rt = cli._load_runtime("heat-disk")
    carrier = _carrier(rt)
    seeds = [11, 12, 13]
    block = rz._affine_rows(
        np.tile(carrier.v0[:, None], (1, len(seeds))),
        rz._coordinate_step(carrier, rt.dt),
        levy.sample_increment_ensemble(rt.driver, rt.dt, rt.n_t, seeds)
        .transpose(1, 2, 0))
    ensemble = np.stack([y.T for y in block], axis=1)  # (paths, times, d)
    for path, seed in zip(ensemble, seeds):
        inc = levy.sample_increments(rt.driver, rt.dt, rt.n_t, seed)
        one = np.array(list(rz.coordinate_rows(carrier, inc)))
        assert np.max(np.abs(path - one)) <= 1e-12 * np.max(np.abs(one))


def test_simulate_sweeps_the_curve_data_once(tmp_path, monkeypatch):
    # the r.csv writer, inline here, streams psi from the parent's carrier
    # and builds none of its own
    monkeypatch.delattr(os, "fork", raising=False)
    sweep = rz._closure_sweep
    calls = []

    def counted(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(rz, "_closure_sweep", counted)
    rt = _runtime("hjmm-linear", n_t=100)
    cfgmod.build_scenario_realization(rt)
    volatility_sweeps = len(calls)
    calls.clear()
    assert cli.run_simulate(rt, str(tmp_path), seed=11) == 0
    assert (tmp_path / "r.csv").exists()
    assert len(calls) == volatility_sweeps + 1


def test_simulate_paths_scales_at_the_whole_state(tmp_path):
    rt = _runtime("transport-1d-whole-state")
    assert rt.scheme == "euler"
    assert cli.run_simulate(rt, str(tmp_path), seed=11, paths=3) == 0
    _head, t, stats = csvio.read_rows(str(tmp_path / "ensemble_stats.csv"), "t")
    carrier = _carrier(rt)
    paths = np.stack([np.array(list(rz.coordinate_rows(
        carrier, levy.sample_increments(rt.driver, rt.dt, rt.n_t, seed))))
        for seed in (11, 12, 13)])
    d = carrier.real.dim
    assert np.array_equal(t, rt.t_grid())
    assert np.max(np.abs(stats[:, :d] - paths.mean(axis=0))) <= \
        1e-13 * np.max(np.abs(paths))


@pytest.mark.parametrize("seed", range(6))
def test_bundled_state_scaled_transport_passes_verify(tmp_path, seed):
    # transport-1d with a sqrt_affine state scale: the semilinear case,
    # certified against the grid oracle at two refinement levels
    rt = _runtime("transport-1d-state")
    assert rt.scheme == "euler"
    assert cli.run_verify(rt, str(tmp_path), seed=seed, refine=2) == 0


def test_bundled_state_scaled_transport_writes_ensemble_stats(tmp_path):
    assert cli.main(["simulate", "--config", "transport-1d-state", "--paths",
                     "3", "--out", str(tmp_path)]) == 0
    head, t, stats = csvio.read_rows(str(tmp_path / "ensemble_stats.csv"), "t")
    assert head == ["mean_1", "mean_2", "var_1", "var_2"]
    assert len(t) == 501 and np.all(np.isfinite(stats))


def test_run_simulate_holds_no_full_curve(tmp_path):
    # psi and r are (n_t+1) x n_x, 2.4 MB here (24 MB at the shipped
    # n_t = 1000, where tracemalloc makes the run take about 25 s); simulate
    # streams them into their files, so its peak does not grow with n_t
    rt = _runtime("hjmm-linear", n_t=100)
    curve_bytes = 8 * (rt.n_t + 1) * rt.space.size
    rc, peak = _traced_peak(lambda: cli.run_simulate(rt, str(tmp_path), seed=11))
    assert rc == 0
    assert peak < curve_bytes, (peak, curve_bytes)


def test_inline_r_writer_holds_no_full_curve(tmp_path, monkeypatch):
    # the forked child that writes r.csv is out of tracemalloc's sight, so
    # the writer also runs in this process, inline, under the same bound
    monkeypatch.delattr(os, "fork", raising=False)
    rt = _runtime("hjmm-linear", n_t=100)
    curve_bytes = 8 * (rt.n_t + 1) * rt.space.size
    rc, peak = _traced_peak(lambda: cli.run_simulate(rt, str(tmp_path), seed=11))
    assert rc == 0
    assert (tmp_path / "r.csv").exists()
    assert peak < curve_bytes, (peak, curve_bytes)


def test_run_simulate_ensemble_holds_no_path_block(tmp_path):
    # the ensemble statistics come from blocks of paths, never from the
    # (paths, n_t+1, d) array of every path (6.4 MB here)
    rt = _runtime("heat-disk")
    paths = 2000
    real = cfgmod.build_scenario_realization(rt)
    block_bytes = 8 * paths * (rt.n_t + 1) * real.dim
    rc, peak = _traced_peak(
        lambda: cli.run_simulate(rt, str(tmp_path), seed=11, paths=paths))
    assert rc == 0
    assert peak < block_bytes, (peak, block_bytes)


def test_run_simulate_ensemble_memory_does_not_grow_with_paths(tmp_path):
    # paths are drawn a block at a time, so 20000 paths hold neither the
    # (paths, n_t, m) increment array of every path (32 MB here) nor much
    # more than 2000 paths do
    rt = _runtime("heat-disk")
    peaks = {}
    for paths in (2000, 20000):
        rc, peaks[paths] = _traced_peak(lambda: cli.run_simulate(
            rt, str(tmp_path / str(paths)), seed=11, paths=paths))
        assert rc == 0
    increment_bytes = 8 * 20000 * rt.n_t * rt.driver.m
    assert peaks[20000] < increment_bytes, (peaks, increment_bytes)
    assert peaks[20000] <= 1.5 * peaks[2000], peaks


def test_readme_library_usage_runs():
    with open(README) as fh:
        text = fh.read()
    section = text.split("## Library usage", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["Y"].shape == (501, namespace["real"].dim)
    assert namespace["r"].shape == (801,)
    assert namespace["mean"].shape == (501, namespace["real"].dim)


def _failing_writer(monkeypatch, failing_name):
    """Patch the grid-path writer so that writing `failing_name` raises."""
    write = oracle.write_grid_path

    def patched(rows, file, t_grid, x_grid):
        if os.path.basename(file) == failing_name:
            raise GridMismatch(f"{failing_name} writer broke on purpose")
        write(rows, file, t_grid, x_grid)

    monkeypatch.setattr(oracle, "write_grid_path", patched)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _alarm(seconds):
    """Turn a hang of more than seconds into a failure."""
    def hung(_signum, _frame):
        raise AssertionError(f"hung for {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@contextlib.contextmanager
def _no_process_left():
    """Fail unless every process forked inside the block, at any depth,
    has ended by its end.  Each inherits the write end of a pipe opened
    here, so once this process closes its own copy the read end gives EOF
    at once only when no such process is left; os.waitpid sees this
    process's own children only."""
    read, write = os.pipe()
    try:
        yield
        os.close(write)
        write = None
        os.set_blocking(read, False)
        try:
            assert os.read(read, 1) == b""
        except BlockingIOError:
            pytest.fail("a forked process outlived the command")
        _assert_no_child_left()
    finally:
        os.close(read)
        if write is not None:
            os.close(write)


@needs_fork
def test_child_writer_failure_exits_4(tmp_path, monkeypatch, capfd):
    _failing_writer(monkeypatch, "r.csv")  # before the fork: the child has it
    rc = cli.main(["simulate", "--config", "heat-disk", "--out", str(tmp_path)])
    err = capfd.readouterr().err
    assert rc == 4
    assert "GridMismatch: r.csv writer broke on purpose" in err  # the child's
    assert "forked writer ended with status 1" in err  # the parent's
    assert (tmp_path / "psi.csv").exists()
    _assert_no_child_left()


@needs_fork
def test_parent_writer_failure_reaps_the_child(tmp_path, monkeypatch, capfd):
    _failing_writer(monkeypatch, "psi.csv")
    rc = cli.main(["simulate", "--config", "heat-disk", "--out", str(tmp_path)])
    assert rc == 4
    assert "psi.csv writer broke on purpose" in capfd.readouterr().err
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("name,n_t", [("hjmm-linear", 100),
                                      ("transport-mortality-2d", None)])
def test_forked_and_inline_writers_give_the_same_bytes(tmp_path, monkeypatch,
                                                       name, n_t):
    rt = _runtime(name, n_t)
    assert cli.run_simulate(rt, str(tmp_path / "forked"), seed=11) == 0
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert cli.run_simulate(rt, str(tmp_path / "inline"), seed=11) == 0
    for artifact in ARTIFACTS:
        forked = (tmp_path / "forked" / artifact).read_bytes()
        assert forked == (tmp_path / "inline" / artifact).read_bytes(), artifact


# ---------------------------------------------------------------------------
# the ensemble's noise drawn one block ahead in a forked child


@needs_fork
@pytest.mark.parametrize("name, paths, per_block", [
    ("heat-disk", 3300, None),  # three shipped blocks, the last one ragged
    ("hjmm-levy", 13, 5),  # a jump driver, three blocks of five or fewer
    ("cable-state", 13, 5),  # euler steps, three blocks of five or fewer
    ("transport-1d-state", 13, 5)])  # the same, bundled with d = 2
def test_forked_and_inline_ensembles_give_the_same_bytes(tmp_path, monkeypatch,
                                                         name, paths, per_block):
    rt = _runtime(name)
    if per_block is not None:
        monkeypatch.setattr(rz, "BLOCK_VALUES", per_block * rt.n_t * rt.driver.m)
    assert cli.run_simulate(rt, str(tmp_path / "forked"), seed=11,
                            paths=paths) == 0
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    assert cli.run_simulate(rt, str(tmp_path / "inline"), seed=11,
                            paths=paths) == 0
    forked = (tmp_path / "forked" / "ensemble_stats.csv").read_bytes()
    assert forked == (tmp_path / "inline" / "ensemble_stats.csv").read_bytes()


def _simulate_ensemble(tmp_path, capfd, out):
    """`simulate heat-disk --paths 3300` (three blocks) through cli.main:
    (exit code, stderr)."""
    rc = cli.main(["simulate", "--config", "heat-disk", "--paths", "3300",
                   "--out", str(tmp_path / out)])
    return rc, capfd.readouterr().err


def _sampler_failing_on_block(monkeypatch, block, fail):
    """Patch the ensemble sampler so that its block-th call runs fail()."""
    sample = levy.sample_increment_ensemble
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        if len(calls) == block:
            fail()
        return sample(*args, **kwargs)

    monkeypatch.setattr(levy, "sample_increment_ensemble", patched)


@needs_fork
def test_a_sampler_failure_exits_as_inline(tmp_path, monkeypatch, capfd):
    def fail():
        raise ConfigError("third block broke on purpose")

    _sampler_failing_on_block(monkeypatch, 3, fail)
    forked = _simulate_ensemble(tmp_path, capfd, "forked")
    _assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    _sampler_failing_on_block(monkeypatch, 3, fail)
    inline = _simulate_ensemble(tmp_path, capfd, "inline")
    assert inline[0] == forked[0] == 2
    assert "third block broke on purpose" in inline[1]
    assert forked[1] == "forked writer ended with status 1\n" + inline[1]


@needs_fork
def test_a_sampler_that_ends_without_a_block_exits_4(tmp_path, monkeypatch,
                                                     capfd):
    _sampler_failing_on_block(monkeypatch, 2, lambda: os._exit(3))
    rc, err = _simulate_ensemble(tmp_path, capfd, "out")
    _assert_no_child_left()
    assert rc == 4
    assert err == "AffineSpdeError: forked writer ended with status 3\n"


@needs_fork
def test_a_stepping_failure_stops_and_reaps_the_sampler(tmp_path, monkeypatch,
                                                        capfd):
    # the parent fails half-way through the second block, while the child
    # draws the third or waits for a slot; an alarm turns a hang into a
    # failure
    affine_rows = rz._affine_rows
    calls = []

    def patched(y, step, dxs):
        calls.append(1)
        for n, row in enumerate(affine_rows(y, step, dxs)):
            if len(calls) == 2 and n == 100:
                raise GridMismatch("stepping broke on purpose")
            yield row

    monkeypatch.setattr(rz, "_affine_rows", patched)
    with _alarm(60):
        rc, err = _simulate_ensemble(tmp_path, capfd, "out")
    _assert_no_child_left()
    assert len(calls) == 2
    assert rc == 4
    assert err == "GridMismatch: stepping broke on purpose\n"


def test_a_failed_fork_raises_and_closes_its_pipes(monkeypatch):
    def fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)
    free = os.pipe()  # the lowest free descriptors, taken again if closed
    for fd in free:
        os.close(fd)
    with pytest.raises(BlockingIOError, match="no process to spare"):
        alongside(lambda: 1, lambda: 2)
    again = os.pipe()
    for fd in again:
        os.close(fd)
    assert again == free


def test_a_one_block_ensemble_never_forks(monkeypatch):
    def fork():
        raise AssertionError("a one-block ensemble forked")

    monkeypatch.setattr(os, "fork", fork)
    rt = _runtime("heat-disk")
    carrier = _carrier(rt)
    seeds = range(11, 11 + rz.BLOCK_VALUES // (rt.n_t * rt.driver.m))
    mean, _var = rz.ensemble_moments(carrier, rt.driver, seeds)
    assert mean.shape == (rt.n_t + 1, carrier.real.dim)


def _package_imports() -> set[str]:
    """Every absolute module name a module of the package imports."""
    names = set()
    pkg = os.path.join(SRC, "affinespde")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names.update(a.name for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names.add(node.module)
    return names


def test_cli_import_loads_no_process_pool():
    # a third-party dependency may import concurrent.futures itself, so it
    # is dropped from sys.modules after the third-party imports: only what
    # the package itself pulls in (a stdlib module such as asyncio) brings
    # it back
    names = _package_imports()
    assert not {n.split(".")[0] for n in names} & {"multiprocessing", "concurrent"}
    deps = sorted(n for n in names
                  if n.split(".")[0] not in sys.stdlib_module_names)
    code = ("import sys\n"
            f"for name in {deps!r}: __import__(name)\n"
            "for name in [m for m in sys.modules if m.startswith('concurrent')]:\n"
            "    del sys.modules[name]\n"
            "import affinespde.cli\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'}"
            " & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
