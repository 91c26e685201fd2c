"""How much `verify` catches: a reduced model with one part mutated must
fail `verify --refine 2` (exit 5) against the independent reference solver.

Each mutation first asserts that it changes the realization it is given,
so a row cannot pass on a mutant that equals the original.  Left out for
that reason: the drift V-coordinates of heat-disk, hermite and laguerre
(all zero) and the drift remainder of laguerre, cable and
term-structure-2 (none).
"""

import dataclasses

import numpy as np
import pytest

from affinespde import cli


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


_MODELS = ["heat-disk", "hermite", "laguerre", "cable", "term-structure-2"]


@pytest.mark.parametrize("name, mutate", [
    *[pytest.param(n, _volatility, id=f"{n}-volatility") for n in _MODELS],
    *[pytest.param(n, _generator, id=f"{n}-B") for n in _MODELS],
    *[pytest.param(n, _drift_coords, id=f"{n}-drift-coords")
      for n in ("cable", "term-structure-2")],
    *[pytest.param(n, _drift_remainder, id=f"{n}-drift-remainder")
      for n in ("heat-disk", "hermite")],
])
def test_verify_fails_a_mutated_reduced_model(tmp_path, name, mutate):
    rt = cli._load_runtime(name)
    assert cli.run_verify(rt, str(tmp_path), seed=3, refine=2,
                          mutate=mutate) == 5
