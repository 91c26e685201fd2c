"""The in-package draft-07 validator against jsonschema, the reference
implementation, which only the tests use: the same verdict, error path and
message on every bundled scenario and on single mutations of them."""

import copy
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from jsonschema.exceptions import best_match

from affinespde import cli
from affinespde import config as cfgmod

BUNDLED = sorted(cfgmod.bundled_scenarios())
RAW = {name: cfgmod.load_config(cfgmod.resolve_config_path(name))
       for name in BUNDLED}
REFERENCE = jsonschema.Draft7Validator(cfgmod.scenario_schema())


def _reference(instance):
    error = best_match(REFERENCE.iter_errors(instance))
    return None if error is None else (tuple(error.absolute_path),
                                       error.message)


def _ours(instance):
    error = cfgmod._validator().best_match(instance)
    return None if error is None else (error.path, error.message)


def _nodes(value, path=()):
    """Every (path, value) below the document root, parents first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(allow_nan=False, width=64) | st.text(max_size=3),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=3), children,
                                        max_size=3)),
    max_leaves=8)
numbers = st.sampled_from([-1, 0, 1, 2, 5, -0.5, 0.0, 0.5, 1.0, 1.5, 4.0,
                           1e300, -1e-300, float("inf")])
enum_texts = st.sampled_from(["", "grid", "modal", "cos", "sin", "tan",
                              "affine", "translation", "none", "zero", "x"])
mode_forms = st.one_of(
    st.integers(-2, 5), st.floats(-1, 4), st.booleans(), st.text(max_size=2),
    st.lists(st.integers(0, 3) | st.floats(0, 3) | enum_texts, max_size=4))
field_keys = st.sampled_from(["qexp", "modal", "rays", "state_scale", "csv",
                              "kind", "x"])
field_values = st.one_of(
    json_values, st.just("exp(-x)"), st.just(""), st.just([[1, 0.5]]),
    st.just([[[1, 2, "cos"], 0.5]]), st.just([["a", "x"]]),
    st.just({"kind": "affine"}), st.just({"kind": "sqrt_affine", "c0": "1"}),
    st.just({"c0": 1.0}))
field_forms = st.dictionaries(field_keys, field_values, max_size=3)
replacements = st.one_of(json_values, numbers, enum_texts, mode_forms,
                         field_forms)
keys = st.one_of(st.text(max_size=3),
                 st.sampled_from(["kind", "qexp", "modes", "n_x", "csv",
                                  "oracle", "theta", "tol_rank"]))


def _assert_agrees(instance):
    assert _ours(instance) == _reference(instance)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_are_valid_under_both_validators(name):
    assert _reference(RAW[name]) is None
    assert _ours(RAW[name]) is None


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(BUNDLED), st.data())
def test_single_mutations_match_jsonschema(name, data):
    doc = copy.deepcopy(RAW[name])
    nodes = list(_nodes(doc))
    kind = data.draw(st.sampled_from(["drop", "extra", "replace"]))
    if kind == "replace":
        path, _ = data.draw(st.sampled_from(nodes))
        _at(doc, path[:-1])[path[-1]] = data.draw(replacements)
    else:
        objects = [()] + [p for p, v in nodes if isinstance(v, dict) and v]
        target = _at(doc, data.draw(st.sampled_from(objects)))
        if kind == "drop":
            target.pop(data.draw(st.sampled_from(sorted(target))))
        else:
            target[data.draw(keys)] = data.draw(json_values)
    _assert_agrees(doc)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["modes", "indices", "modal", "volatility"]),
       mode_forms, field_forms)
# a fourth position only the list branch checks: the error descends into it
@example("modes", [0, 0, "cos", "x"], {})
@example("modal", [1, 2, 3.5, 0], {})
def test_mode_index_and_volatility_forms_match_jsonschema(where, mode, form):
    doc = copy.deepcopy(RAW["heat-disk"])
    if where == "modes":
        doc["modes"] = [1, mode]
    elif where == "indices":
        doc["space"]["indices"][-1] = mode
    elif where == "modal":
        doc["volatility"][0]["modal"][0][0] = mode
    else:
        doc["volatility"][0] = form
    _assert_agrees(doc)


BOUNDED = [("time", "horizon"), ("time", "n_t"), ("space", "n_x"),
           ("seed",), ("driver", "components", 0, "jump_intensity"),
           ("driver", "components", 0, "brownian_vol"),
           ("driver", "components", 0, "two_sided_exp", "p_up"),
           ("driver", "components", 0, "two_sided_exp", "rate_up")]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(BOUNDED), numbers | st.booleans() | st.just(5.0))
def test_numeric_bounds_match_jsonschema(path, value):
    doc = copy.deepcopy(RAW["hjmm-levy"])
    _at(doc, path[:-1])[path[-1]] = value
    _assert_agrees(doc)


SYNTHETIC = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "properties": {
        "a": {"oneOf": [{"type": "integer"},
                        {"type": "string", "minLength": 2}],
              "minimum": 3},
        "b": {"oneOf": [{"type": "array", "minItems": 2},
                        {"type": "string"},
                        {"type": "object", "required": ["k"]}]},
        "c": {"oneOf": [{"type": "number"}, {"type": "integer"},
                        {"type": "string"}, {"minimum": 0}]},
    },
}


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "c"]),
                       json_values | numbers | st.just([])))
def test_weak_keyword_and_type_match_rules_agree_with_jsonschema(doc):
    # the shipped schema never puts a oneOf beside another keyword, has no
    # branches whose errors differ only in matching the instance's type,
    # and no instance valid under two branches
    ours = cfgmod.SchemaValidator(SYNTHETIC).best_match(doc)
    ref = best_match(jsonschema.Draft7Validator(SYNTHETIC).iter_errors(doc))
    assert (None if ours is None else (ours.path, ours.message)) == \
        (None if ref is None else (tuple(ref.absolute_path), ref.message))


@pytest.mark.parametrize("node", [
    {"type": "string", "pattern": "^a"},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"type": "object", "properties": {"a": {"format": "uri"}}},
    {"items": [{"type": "integer"}, True]},
    {"oneOf": [{"type": "integer"}, {"not": {}}]},
    {"$ref": "#/definitions/missing"},
    {"$ref": "#/properties/a"},
    {"type": ["integer", "string"]},
    {"type": "float"},
    {"enum": ["cos", 1]},
])
def test_a_schema_with_an_unimplemented_form_is_refused_when_loaded(node):
    schema = {"$schema": "http://json-schema.org/draft-07/schema#",
              "definitions": {"x": node}, "properties": {"a": {}}}
    with pytest.raises((ValueError, KeyError)):
        cfgmod.SchemaValidator(schema)


def test_commands_load_no_schema_library_or_scipy(tmp_path):
    # numpy is the one runtime dependency: neither importing the CLI nor
    # running a command loads jsonschema, its dependencies or scipy
    code = ("import sys\n"
            "from affinespde import cli\n"
            f"rc = cli.main(['analyze', '--config', 'cable', '--out', "
            f"{str(tmp_path / 'a')!r}])\n"
            "roots = {'jsonschema', 'referencing', 'rpds', 'attrs', 'scipy'}\n"
            "print(rc, sorted(m for m in sys.modules\n"
            "                 if m.split('.')[0] in roots))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "0 []"


def _property_schemas(node, path=()):
    """Every (path, schema) of a named property below `node`."""
    for name, sub in node.get("properties", {}).items():
        yield path + (name,), sub
    items = node.get("items", [])
    for key, sub in [*node.get("properties", {}).items(),
                     *node.get("definitions", {}).items(),
                     *enumerate(items if isinstance(items, list) else [items]),
                     *enumerate(node.get("oneOf", []))]:
        yield from _property_schemas(sub, path + (key,))


def test_every_scenario_property_constrains_its_value():
    # a property schema without type, enum, $ref or oneOf accepts any
    # value, which then reaches the parser unchecked
    loose = ["/".join(map(str, path)) for path, sub
             in _property_schemas(cfgmod.scenario_schema())
             if not {"type", "enum", "$ref", "oneOf"} & set(sub)]
    assert loose == []
