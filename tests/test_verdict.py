"""The pass rule of `verify`, `VerifySettings.verdict`, on synthetic level
records (no solver runs), its agreement with the benchmark's restatement of
it in perfbench/checks.py, and that no other module reads its bounds."""

import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest

from affinespde import config as cfgmod
from test_perfbench_checks import CHECKS

SETTINGS = cfgmod.VerifySettings()


def _levels(*records):
    """Level records from (sup_error, scale) pairs, coarsest first."""
    return [{"level": lvl, "sup_error": err, "scale": scale}
            for lvl, (err, scale) in enumerate(records)]


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_sup_error_fails_at_any_level(at, value):
    records = [(1e-4, 1.0), (5e-5, 1.0), (2e-5, 1.0)]
    records[at] = (value, 1.0)
    _bound, failures = SETTINGS.verdict(_levels(*records), 1.0)
    assert failures[0] == f"level {at} sup_error {value} is not finite"


def test_a_zero_initial_curve_bounds_by_the_level_0_scale():
    bound, failures = SETTINGS.verdict(_levels((0.15, 10.0)), 0.0)
    assert bound == SETTINGS.bound_rel_h0 * 10.0 and failures == []
    bound, failures = SETTINGS.verdict(_levels((0.25, 10.0)), 0.0)
    assert failures == [f"sup_error 0.25 above bound {bound:.6g}"]
    # a curve of its own bounds by its norm, whatever the path scale
    assert SETTINGS.verdict(_levels((0.15, 10.0)), 2.0)[0] == \
        SETTINGS.bound_rel_h0 * 2.0


def test_a_ratio_above_the_bound_passes_under_the_floor():
    # the error does not decay (ratio 1), but it lies below floor_rel x scale
    assert SETTINGS.verdict(_levels((1e-12, 10.0), (1e-12, 10.0)), 1.0)[1] == []
    _bound, failures = SETTINGS.verdict(_levels((1e-12, 1e-4), (1e-12, 1e-4)),
                                        1.0)
    assert failures == [f"refinement 0->1 ratio 1.000 above "
                        f"{SETTINGS.ratio_bound}"]


def test_a_bound_failure_comes_before_a_ratio_failure():
    bound, failures = SETTINGS.verdict(
        _levels((0.5, 1.0), (0.45, 1.0), (0.1, 1.0)), 1.0)
    assert bound == SETTINGS.bound_rel_h0
    assert failures == ["sup_error 0.5 above bound 0.02",
                        "refinement 0->1 ratio 0.900 above 0.7"]


def _random_levels(rng):
    n = int(rng.integers(1, 5))
    errs = 10.0 ** rng.uniform(-14, 0, n)
    scales = 10.0 ** rng.uniform(-6, 1, n)
    return _levels(*zip(errs, scales)), float(rng.choice([0.0, 0.5, 3.0]))


def test_the_verdict_agrees_with_the_benchmark_restatement():
    settings = dataclasses.asdict(SETTINGS)
    rng = np.random.default_rng(0)
    cases = [(_levels((1e-12, 10.0), (1e-12, 10.0)), 1.0),
             (_levels((1e-12, 1e-4), (1e-12, 1e-4)), 1.0),
             (_levels((0.5, 1.0), (0.45, 1.0), (0.1, 1.0)), 1.0),
             (_levels((0.15, 10.0)), 0.0)]
    cases += [_random_levels(rng) for _ in range(300)]
    outcomes = set()
    for levels, h0_norm in cases:
        bound, failures = SETTINGS.verdict(levels, h0_norm)
        assert CHECKS.verdict(settings, levels, bound) is (not failures)
        outcomes.add(not failures)
    assert outcomes == {True, False}


def test_no_module_but_config_reads_the_pass_rule_bounds():
    # the pass rule has one home, VerifySettings.verdict in config.py
    bounds = {f.name for f in dataclasses.fields(cfgmod.VerifySettings)}
    assert bounds == {"bound_rel_h0", "ratio_bound", "floor_rel"}
    offenders = []
    for path in sorted(pathlib.Path(cfgmod.__file__).parent.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            named = (node.attr if isinstance(node, ast.Attribute) else
                     node.id if isinstance(node, ast.Name) else
                     node.value if isinstance(node, ast.Constant) else None)
            if named in bounds:
                offenders.append(f"{path.name}:{node.lineno} {named}")
    assert not offenders
