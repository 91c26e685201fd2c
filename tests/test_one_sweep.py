"""Each command sweeps the volatility closure at most once and validates its
scenario once, through one validator of the shipped schema."""

import copy
import json

import jsonschema
import pytest

from affinespde import cli
from affinespde import config as cfgmod
from affinespde import realization as rz
from affinespde.errors import ConfigError

BUNDLED = sorted(cfgmod.bundled_scenarios())
EXPLICIT = ("cable", "term-structure-2")


def _load(name):
    return cfgmod.load_config(cfgmod.resolve_config_path(name))


def _coarse_copy(name, tmp_path):
    """The bundled scenario with a tenth of its time steps and grid points:
    the sweep is symbolic, so how often it runs does not depend on them."""
    raw = _load(name)
    raw["time"]["n_t"] = max(raw["time"]["n_t"] // 10, 4)
    if "n_x" in raw["space"]:
        raw["space"]["n_x"] = max((raw["space"]["n_x"] - 1) // 10 + 1, 9)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(raw))
    return str(path)


@pytest.fixture
def counts(monkeypatch):
    out = {"sweeps": 0, "validations": 0}
    sweep, validate = rz.invariant_span, cfgmod.validate_config

    def counted_sweep(*args, **kwargs):
        out["sweeps"] += 1
        return sweep(*args, **kwargs)

    def counted_validate(raw):
        out["validations"] += 1
        return validate(raw)

    monkeypatch.setattr(rz, "invariant_span", counted_sweep)
    monkeypatch.setattr(cfgmod, "validate_config", counted_validate)
    return out


@pytest.mark.parametrize("name", BUNDLED)
def test_each_command_sweeps_at_most_once_and_validates_once(
        tmp_path, counts, name):
    cfg = _coarse_copy(name, tmp_path)
    negative = name.startswith("neg-")
    for argv, exit_codes in [
            (["analyze"], {3} if negative else {0}),
            (["simulate"], {4} if negative else {0}),
            (["verify", "--refine", "2"], {4} if negative else {0, 5})]:
        counts.update(sweeps=0, validations=0)
        rc = cli.main(argv + ["--config", cfg,
                              "--out", str(tmp_path / argv[0])])
        assert rc in exit_codes, (argv, rc)
        assert counts["validations"] == 1, argv
        if argv[0] == "analyze":
            assert counts["sweeps"] == 1  # volatility_span needs the sweep
        elif name in EXPLICIT:
            assert counts["sweeps"] == 0, argv
        else:
            assert counts["sweeps"] <= 1, argv


def test_the_validator_is_built_once_from_a_valid_schema():
    # the package validates against the shipped schema without jsonschema;
    # the schema itself is checked here, against the draft-07 metaschema
    validator = cfgmod._validator()
    assert cfgmod._validator() is validator
    assert validator.schema is cfgmod.scenario_schema()
    assert validator.schema["$schema"] == \
        "http://json-schema.org/draft-07/schema#"
    jsonschema.Draft7Validator.check_schema(validator.schema)


def test_validation_reports_the_best_matching_error():
    raw = _load("cable")
    for mutate in [
            lambda d: d.pop("operator"),
            lambda d: d["time"].__setitem__("n_t", "many"),
            lambda d: d["space"].__setitem__("n_x", 1),
            lambda d: d["volatility"][0].__setitem__("csv", "sigma.csv"),
    ]:
        bad = copy.deepcopy(raw)
        mutate(bad)
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(bad, cfgmod._validator().schema)
        with pytest.raises(ConfigError) as err:
            cfgmod.build_runtime(bad)
        assert str(err.value).endswith(ref.value.message)
