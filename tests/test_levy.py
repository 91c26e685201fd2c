"""Driver specification, cumulants, and compensated increment sampling."""

import math
import os

import numpy as np
import pytest

from affinespde import levy
from affinespde.errors import (BadProbabilities, ConfigError, GridMismatch,
                               MomentExplosion, ZeroComponent)


def brownian(vol=1.0):
    return levy.make_levy_spec([{"brownian_vol": vol}])


def atoms_spec(intensity=2.0):
    return levy.make_levy_spec([{
        "jump_intensity": intensity,
        "atoms": [[0.5, 0.4], [-0.3, 0.6]],
    }])


def tse_spec():
    return levy.make_levy_spec([{
        "brownian_vol": 0.2,
        "jump_intensity": 3.0,
        "two_sided_exp": {"p_up": 0.6, "rate_up": 8.0, "rate_down": 9.0},
    }])


def test_component_validation():
    with pytest.raises(ZeroComponent):
        levy.make_levy_spec([{"brownian_vol": 0.0}])
    with pytest.raises(BadProbabilities):
        levy.make_levy_spec([{"jump_intensity": 1.0,
                              "atoms": [[1.0, 0.7], [2.0, 0.7]]}])
    with pytest.raises(ConfigError):
        levy.make_levy_spec([])
    # a jump law is not dropped: it needs a positive intensity, and a
    # component takes one law
    with pytest.raises(ConfigError, match="positive jump intensity"):
        levy.make_levy_spec([{"brownian_vol": 1.0, "atoms": [[1.0, 1.0]]}])
    with pytest.raises(ConfigError, match="positive jump intensity"):
        levy.make_levy_spec([levy.LevyComponent(
            brownian_vol=1.0, jump_law=tse_spec().components[0].jump_law)])
    with pytest.raises(ConfigError, match="not both"):
        levy.make_levy_spec([{"jump_intensity": 1.0, "atoms": [[1.0, 1.0]],
                              "two_sided_exp": {"p_up": 0.5, "rate_up": 8.0,
                                                "rate_down": 9.0}}])


def test_cumulant_brownian_quadratic():
    spec = brownian(0.5)
    for z in (-2.0, -0.3, 0.0, 1.7):
        assert math.isclose(levy.cumulant(spec, [z]), 0.5 * 0.25 * z * z,
                            abs_tol=1e-15)


def test_cumulant_single_atom_closed_form():
    # one unit jump with intensity lam: Psi(z) = lam (e^z - 1 - z)
    lam = 2.5
    spec = levy.make_levy_spec([{"jump_intensity": lam, "atoms": [[1.0, 1.0]]}])
    for z in (-1.0, 0.2, 0.9):
        assert math.isclose(levy.cumulant(spec, [z]),
                            lam * (math.exp(z) - 1.0 - z), rel_tol=1e-14)


def test_cumulant_gradient_matches_finite_differences():
    spec = levy.make_levy_spec([
        {"brownian_vol": 0.4},
        {"jump_intensity": 1.5, "atoms": [[0.8, 0.25], [-0.2, 0.75]]},
        {"jump_intensity": 2.0,
         "two_sided_exp": {"p_up": 0.5, "rate_up": 6.0, "rate_down": 7.0}},
    ])
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(10):
        z = rng.uniform(-1.0, 1.0, size=3)
        grad = levy.cumulant_gradient(spec, z)
        for k in range(3):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            fd = (levy.cumulant(spec, zp) - levy.cumulant(spec, zm)) / (2 * h)
            assert abs(grad[k] - fd) < 1e-7


def test_exponential_moment_region_enforced():
    spec = tse_spec()
    levy.cumulant(spec, [7.9])
    with pytest.raises(MomentExplosion):
        levy.cumulant(spec, [8.0])
    with pytest.raises(MomentExplosion):
        levy.cumulant_gradient(spec, [-9.0])


def test_increments_shape_and_determinism():
    spec = tse_spec()
    a = levy.sample_increments(spec, 0.01, 200, seed=5)
    b = levy.sample_increments(spec, 0.01, 200, seed=5)
    c = levy.sample_increments(spec, 0.01, 200, seed=6)
    assert a.values.shape == (200, 1)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_component_streams_are_disjoint():
    spec = levy.make_levy_spec([{"brownian_vol": 1.0}, {"brownian_vol": 1.0}])
    inc = levy.sample_increments(spec, 0.5, 50, seed=9)
    assert not np.array_equal(inc.values[:, 0], inc.values[:, 1])
    # the first column only depends on (seed, component) so a wider driver
    # reproduces it
    one = levy.sample_increments(levy.make_levy_spec([{"brownian_vol": 1.0}]),
                                 0.5, 50, seed=9)
    assert np.array_equal(inc.values[:, 0], one.values[:, 0])


def test_seeds_are_refused_outside_64_bits():
    # a key of seed mod 2^64 made seeds s and s + 2^64 draw one stream
    spec = brownian()
    last = levy.sample_increments(spec, 0.5, 5, seed=2 ** 64 - 1)
    assert last.values.shape == (5, 1)
    for seed in (-1, 2 ** 64, 2 ** 64 + 9):
        with pytest.raises(ConfigError, match="outside"):
            levy.sample_increments(spec, 0.5, 5, seed=seed)
    with pytest.raises(ConfigError, match="outside"):
        levy.sample_increment_ensemble(spec, 0.5, 5, range(2 ** 64 - 1, 2 ** 64 + 1))


def test_compensation_makes_increments_centered():
    spec = atoms_spec(intensity=4.0)
    inc = levy.sample_increments(spec, 0.05, 40000, seed=11)
    mean = inc.values[:, 0].mean()
    se = inc.values[:, 0].std(ddof=1) / math.sqrt(inc.n_steps)
    assert abs(mean) < 4 * se


def test_brownian_variance_scales_with_dt():
    inc = levy.sample_increments(brownian(0.7), 0.02, 50000, seed=13)
    var = inc.values[:, 0].var(ddof=1)
    expect = 0.7 ** 2 * 0.02
    assert abs(var - expect) < 5 * expect * math.sqrt(2.0 / inc.n_steps)


def _per_seed_path(spec, dt, n_steps, seed):
    """The documented stream layout drawn directly: each component from a
    fresh component_stream(seed, k), one path at a time."""
    cols = np.empty((spec.m, n_steps))
    for k, comp in enumerate(spec.components):
        levy._fill_component(comp, levy.component_stream(seed, k), dt, cols[k])
    return cols.T.copy()


def test_ensemble_reproduces_per_seed_paths():
    # the ensemble re-keys one generator per (seed, component); each path
    # must still be the fresh per-seed stream, bit for bit, whatever the
    # previous path left in the generator's counter and buffer; a jump-only
    # component draws no normals, and a one-seed block, as sample_increments
    # draws it, is a path of its own; drawn into a given (m, paths, steps)
    # array, the bits are the same
    seeds = [3, 9, 27, 0, 2 ** 64 - 1]
    b, a, t = (s.components[0] for s in (brownian(0.7), atoms_spec(), tse_spec()))
    jumps_only = levy.LevyComponent(jump_intensity=t.jump_intensity,
                                    jump_law=t.jump_law)
    for components in ([b], [a], [t], [jumps_only], [b, a], [t, b, a],
                       [jumps_only, b]):
        spec = levy.make_levy_spec(components)
        ens = levy.sample_increment_ensemble(spec, 0.1, 25, seeds)
        assert ens.shape == (len(seeds), 25, len(components))
        out = np.full((len(components), len(seeds), 25), np.nan)
        into = levy.sample_increment_ensemble(spec, 0.1, 25, seeds, out=out)
        assert np.shares_memory(into, out)
        assert into.tobytes() == ens.tobytes()
        for p, seed in enumerate(seeds):
            single = _per_seed_path(spec, 0.1, 25, seed)
            assert ens[p].tobytes() == single.tobytes()
            one = levy.sample_increments(spec, 0.1, 25, seed)
            assert one.values.tobytes() == single.tobytes()
            assert one.values.flags.c_contiguous


def test_ensemble_into_a_mismatched_array_raises_grid_mismatch():
    for out in (np.empty((1, 3, 24)), np.empty((2, 3, 25)),
                np.empty((1, 25, 3)).transpose(0, 2, 1),
                np.empty((1, 3, 25), np.float32)):
        with pytest.raises(GridMismatch, match="out must be"):
            levy.sample_increment_ensemble(brownian(0.7), 0.1, 25, [1, 2, 3],
                                           out=out)


def test_aggregation_sums_consecutive_steps():
    inc = levy.sample_increments(tse_spec(), 0.01, 64, seed=17)
    coarse = levy.aggregate_increments(inc, 4)
    assert coarse.n_steps == 16
    assert math.isclose(coarse.dt, 0.04)
    assert np.allclose(coarse.values[0], inc.values[:4].sum(axis=0))
    assert np.allclose(coarse.values.sum(axis=0), inc.values.sum(axis=0))
    with pytest.raises(GridMismatch):
        levy.aggregate_increments(inc, 7)


def test_increment_csv_round_trip(tmp_path):
    inc = levy.sample_increments(tse_spec(), 0.25, 12, seed=19)
    path = os.path.join(tmp_path, "inc.csv")
    levy.write_increments_csv(inc, path)
    back = levy.read_increments_csv(path, seed=inc.seed)
    assert math.isclose(back.dt, inc.dt, rel_tol=1e-15)
    assert np.array_equal(back.values, inc.values)


def test_malformed_increment_csv_raises_grid_mismatch(tmp_path):
    path = tmp_path / "inc.csv"
    path.write_text("t,dX1\n0.25,1.0,2.0\n")
    with pytest.raises(GridMismatch):
        levy.read_increments_csv(str(path))
    path.write_text("t,dX1\n")
    with pytest.raises(GridMismatch, match="no increment rows"):
        levy.read_increments_csv(str(path))
