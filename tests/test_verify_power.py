"""How much `verify` catches: a reduced model with one part mutated must
fail `verify --refine 2` (exit 5) against the independent reference solver,
while each model the table mutates passes unmutated at the same seed.

Each mutation first asserts that it changes the realization it is given,
so a row cannot pass on a mutant that equals the original.  Left out for
that reason: the drift V-coordinates of heat-disk, hermite, laguerre,
transport-1d and transport-mortality-2d (all zero) and the drift remainder
of laguerre, cable, term-structure-2, hjmm-linear, transport-1d and
transport-mortality-2d (none).  Left out as a known survivor: the drift
V-coordinates x 1.05 on hjmm-levy, which exits 0 at seed 3: the defect
lies below the finest level's discretization error, and it even lowers
every level's error.  The state-scale mutant scales each state-dependent
volatility by 1.05; it runs on state-scaled transport scenarios, two of
them with psi far from orthogonal to V, which pass verify because the reduced
model reads a state scale at the whole state psi + Y . V.
"""

import dataclasses

import numpy as np
import pytest

from affinespde import cli
from test_simulate_streams import _runtime


def _volatility(real):
    assert any(np.any(v.coords) for v in real.vols)
    return dataclasses.replace(real, vols=tuple(
        dataclasses.replace(v, coords=1.05 * v.coords) for v in real.vols))


def _generator(real):
    assert np.any(real.B)
    return dataclasses.replace(real, B=1.01 * real.B)


def _drift_coords(real):
    assert np.any(real.drift.v_coords)
    return dataclasses.replace(real, drift=dataclasses.replace(
        real.drift, v_coords=1.05 * real.drift.v_coords))


def _drift_remainder(real):
    assert real.drift.remainder is not None
    return dataclasses.replace(real, drift=dataclasses.replace(
        real.drift, remainder=None))


def _state_scale(real):
    assert any(v.scale_fn is not None for v in real.vols)
    return dataclasses.replace(real, vols=tuple(
        v if v.scale_fn is None else dataclasses.replace(
            v, scale_fn=lambda y, f=v.scale_fn: 1.05 * f(y))
        for v in real.vols))


_MODELS = ["heat-disk", "hermite", "laguerre", "cable", "term-structure-2",
           "hjmm-linear", "hjmm-levy", "transport-1d", "transport-mortality-2d"]
# state-scaled euler models (test_simulate_streams.STATE_SCALED)
_STATE_SCALED = ["transport-1d-state", "transport-1d-whole-state",
                 "transport-mortality-2d-whole-state"]


@pytest.mark.parametrize("name, mutate", [
    *[pytest.param(n, _volatility, id=f"{n}-volatility") for n in _MODELS],
    *[pytest.param(n, _generator, id=f"{n}-B") for n in _MODELS],
    *[pytest.param(n, _drift_coords, id=f"{n}-drift-coords")
      for n in ("cable", "term-structure-2", "hjmm-linear")],
    *[pytest.param(n, _drift_remainder, id=f"{n}-drift-remainder")
      for n in ("heat-disk", "hermite", "hjmm-levy")],
    *[pytest.param(n, _state_scale, id=f"{n}-state-scale")
      for n in _STATE_SCALED],
    *[pytest.param(n, m, id=f"{n}-{label}") for n in _STATE_SCALED[1:]
      for m, label in ((_volatility, "volatility"), (_generator, "B"))],
])
def test_verify_fails_a_mutated_reduced_model(tmp_path, name, mutate):
    rt = _runtime(name)
    assert cli.run_verify(rt, str(tmp_path), seed=3, refine=2,
                          mutate=mutate) == 5


@pytest.mark.parametrize("name", _MODELS + _STATE_SCALED)
def test_verify_passes_each_model_unmutated(tmp_path, name):
    # the control column: a verify that refused every model would pass the
    # mutant table above
    assert cli.run_verify(_runtime(name), str(tmp_path), seed=3, refine=2) == 0
