"""Scenario configuration: JSON schema validation and runtime assembly.

A scenario file fixes the generator, the driving noise, volatility and drift
structure, the initial curve, the state-space discretization and the
subspace plan; the numerical methods, the reference solver and the
verification bounds follow from these.  Parsing is strict: anything
outside the shipped schema or the per-operator index conventions raises
ConfigError with the offending field.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import fields, replace
from importlib import resources
from typing import ClassVar, Iterator, Sequence

import numpy as np

from . import hjmm, levy, operators, oracle, realization as rz
from .errors import (
    ConfigError,
    MethodUnsupported,
    NotQuasiExponential,
    UnstableConfig,
    frozen,
)
from .funalg import QExpFunction, parse_qexp, serialize
from .grids import Grid1D
from .operators import EigenExpansion, OperatorSpec, RayBundle

# ---------------------------------------------------------------------------
# schema check: a draft-07 validator for the keywords the shipped schema uses

_KEYWORDS = frozenset({
    "$ref", "type", "properties", "additionalProperties", "required",
    "items", "minItems", "maxItems", "minLength", "enum", "minimum",
    "exclusiveMinimum", "maximum", "oneOf",
    "$schema", "title", "definitions"})     # the last three annotate only
_TYPES = {"array": list, "boolean": bool, "null": type(None),
          "object": dict, "string": str}
_REF = "#/definitions/"


def _is_type(instance, name: str) -> bool:
    """Draft-07 types: a bool is no number, an integral float an integer."""
    if name in _TYPES:
        return isinstance(instance, _TYPES[name])
    if isinstance(instance, bool) or not isinstance(instance, (int, float)):
        return False
    return (name == "number" or isinstance(instance, int)
            or instance.is_integer())


@frozen
class Violation:
    """One schema violation.  As in jsonschema, `path` is relative to the
    instance of the enclosing oneOf (or to the document), and a oneOf's
    violation holds its branches' violations in `context`."""

    message: str
    path: tuple
    keyword: str
    matches_type: bool        # the instance has the type its schema names
    context: tuple = ()

    def relevance(self):
        """jsonschema's `relevance`: a shorter path wins, then a greater one,
        then a keyword other than oneOf, then an instance of the wrong type."""
        return (-len(self.path), self.path, self.keyword != "oneOf",
                not self.matches_type)


class SchemaValidator:
    """Draft-07 validation by the keywords in `_KEYWORDS`, string enums and
    $ref into the definitions; loading a schema that uses anything else
    raises.  Messages are jsonschema's text."""

    def __init__(self, schema: dict):
        self.schema = schema
        self._check(schema)

    def _resolve(self, ref: str) -> dict:
        if not ref.startswith(_REF):
            raise ValueError(f"schema $ref {ref!r} is not into #/definitions")
        return self.schema["definitions"][ref[len(_REF):]]

    def _check(self, schema) -> None:
        if not isinstance(schema, dict):
            raise ValueError(f"schema node {schema!r} is not an object")
        unknown = set(schema) - _KEYWORDS
        if unknown:
            raise ValueError(f"schema keywords {sorted(unknown)} are not "
                             f"implemented")
        if schema.get("additionalProperties", False) is not False:
            raise ValueError("only additionalProperties: false is implemented")
        if schema.get("type", "number") not in (*_TYPES, "integer", "number"):
            raise ValueError(f"schema type {schema['type']!r} is not "
                             f"implemented")
        if not all(isinstance(e, str) for e in schema.get("enum", [])):
            raise ValueError("only enums of strings are implemented")
        if "$ref" in schema:
            self._resolve(schema["$ref"])
        items = schema.get("items", [])
        for sub in [*schema.get("properties", {}).values(),
                    *schema.get("definitions", {}).values(),
                    *(items if isinstance(items, list) else [items]),
                    *schema.get("oneOf", [])]:
            self._check(sub)

    def iter_errors(self, instance, schema=None, path=()):
        """The violations of `instance`, in jsonschema's order."""
        schema = self.schema if schema is None else schema
        while "$ref" in schema:  # draft-07: siblings of $ref are ignored
            schema = self._resolve(schema["$ref"])
        matches = "type" in schema and _is_type(instance, schema["type"])
        for key, value in schema.items():
            if key == "properties" and isinstance(instance, dict):
                for name, sub in value.items():
                    if name in instance:
                        yield from self.iter_errors(instance[name], sub,
                                                    path + (name,))
            elif key == "items" and isinstance(instance, list):
                pairs = (zip(instance, value) if isinstance(value, list)
                         else ((item, value) for item in instance))
                for index, (item, sub) in enumerate(pairs):
                    yield from self.iter_errors(item, sub, path + (index,))
            elif key == "oneOf":
                yield from self._one_of(value, instance, path, matches)
            else:
                for message in self._leaf(key, value, instance, schema):
                    yield Violation(message, path, key, matches)

    def _one_of(self, branches, instance, path, matches):
        context = []
        for index, sub in enumerate(branches):
            errors = list(self.iter_errors(instance, sub))
            if not errors:
                break
            context += errors
        else:
            yield Violation(f"{instance!r} is not valid under any of the "
                            f"given schemas", path, "oneOf", matches,
                            tuple(context))
            return
        valid = [s for s in branches[index + 1:]
                 if next(self.iter_errors(instance, s), None) is None]
        if valid:
            reprs = ", ".join(map(repr, valid + [branches[index]]))
            yield Violation(f"{instance!r} is valid under each of {reprs}",
                            path, "oneOf", matches)

    @staticmethod
    def _leaf(key, value, instance, schema):
        """The messages of one keyword that does not descend."""
        number = _is_type(instance, "number")
        if key == "type" and not _is_type(instance, value):
            yield f"{instance!r} is not of type {value!r}"
        elif key == "required" and isinstance(instance, dict):
            for name in value:
                if name not in instance:
                    yield f"{name!r} is a required property"
        elif key == "additionalProperties" and isinstance(instance, dict):
            extras = sorted(k for k in instance
                            if k not in schema.get("properties", {}))
            if extras:
                yield (f"Additional properties are not allowed "
                       f"({', '.join(map(repr, extras))} "
                       f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key in ("minItems", "minLength") and isinstance(
                instance, list if key == "minItems" else str) \
                and len(instance) < value:
            yield (f"{instance!r} "
                   f"{'should be non-empty' if value == 1 else 'is too short'}")
        elif key == "maxItems" and isinstance(instance, list) \
                and len(instance) > value:
            yield (f"{instance!r} "
                   f"{'is expected to be empty' if value == 0 else 'is too long'}")
        elif key == "enum" and instance not in value:
            yield f"{instance!r} is not one of {value!r}"
        elif key == "minimum" and number and instance < value:
            yield f"{instance!r} is less than the minimum of {value!r}"
        elif key == "exclusiveMinimum" and number and instance <= value:
            yield (f"{instance!r} is less than or equal to the minimum of "
                   f"{value!r}")
        elif key == "maximum" and number and instance > value:
            yield f"{instance!r} is greater than the maximum of {value!r}"

    def best_match(self, instance) -> Violation | None:
        """jsonschema's `best_match`: the most relevant violation, descending
        into a oneOf's branch violations while one of them is the most
        relevant alone; its path is made absolute."""
        best = max(self.iter_errors(instance), key=Violation.relevance,
                   default=None)
        if best is None:
            return None
        path = best.path
        while best.context:
            first, *rest = sorted(best.context, key=Violation.relevance)[:2]
            if rest and first.relevance() == rest[0].relevance():
                break
            best = first
            path += best.path
        return replace(best, path=path)


@functools.cache
def _validator() -> SchemaValidator:
    """The validator of the shipped schema, built once per process."""
    return SchemaValidator(json.loads(resources.files("affinespde").joinpath(
        "schema/scenario.schema.json").read_text()))


def scenario_schema() -> dict:
    """The shipped scenario schema, the one source of what a scenario holds."""
    return _validator().schema


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} overflows a double")
    return value


def _finite_int(text: str) -> int:
    _finite_float(text)  # float() gives inf beyond the double range
    return int(text)


def _no_constant(text: str):
    raise ValueError(f"{text} is not a finite number")


def load_config(path: str) -> dict:
    """The scenario's JSON object, unvalidated: `build_runtime` validates.
    NaN, Infinity and numbers beyond the double range are refused here, as
    JSON itself has no such values."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite_float,
                             parse_int=_finite_int, parse_constant=_no_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError and the hooks above
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def validate_config(raw: dict) -> None:
    """Raise ConfigError with the best-matching schema violation."""
    error = _validator().best_match(raw)
    if error is not None:
        path = "/".join(map(str, error.path)) or "<root>"
        raise ConfigError(f"config field {path}: {error.message}")


def scenario_dir():
    return resources.files("affinespde").joinpath("scenarios")


def bundled_scenarios() -> dict[str, str]:
    out = {}
    for entry in scenario_dir().iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = str(entry)
    return out


def resolve_config_path(ref: str) -> str:
    """A --config value is a file path or the name of a bundled scenario."""
    if os.path.exists(ref):
        return ref
    entry = scenario_dir().joinpath(f"{ref}.json")
    if os.path.basename(ref) == ref and entry.is_file():
        return str(entry)
    raise ConfigError(f"no config file or bundled scenario named {ref!r} "
                      f"(bundled: {', '.join(sorted(bundled_scenarios()))})")


# ---------------------------------------------------------------------------
# piecewise parsers


def parse_operator(d: dict) -> OperatorSpec:
    """An operator takes exactly its kind's parameters (`operators.KINDS`)."""
    kind, params = d["kind"], {k: v for k, v in d.items() if k != "kind"}
    cls = operators.KINDS[kind]  # a kind the schema names
    names = {f.name for f in fields(cls)}
    for name in params:
        if name not in names:
            raise ConfigError(f"operator: a {kind} operator takes no {name}")
    try:
        return cls(**params)
    except Exception as exc:
        raise ConfigError(f"operator: {exc}") from exc


def parse_driver(d: dict | None) -> levy.LevySpec:
    if d is None:
        return levy.LevySpec(())
    try:
        return levy.make_levy_spec(d.get("components", []))
    except Exception as exc:
        raise ConfigError(f"driver: {exc}") from exc


def _parse_index(op: OperatorSpec, raw):
    try:
        return op.canonical_index(tuple(raw) if isinstance(raw, list) else raw)
    except Exception as exc:
        raise ConfigError(f"mode index {raw!r}: {exc}") from exc


def parse_field(d: dict, op: OperatorSpec, space: rz.SpaceSpec, name: str):
    """One function-valued entry: {"qexp": text} | {"modal": [[idx, c], ...]}
    | {"rays": [[label, text], ...]}, in the form `space` samples; `name`
    names the entry when it is refused.  `field_form` writes it back."""
    forms = [k for k in ("qexp", "modal", "rays") if k in d]
    if len(forms) != 1:
        raise ConfigError(f"field needs exactly one of qexp/modal/rays, got {d}")
    if forms[0] != space.form:
        raise ConfigError(f"{name}: a {space.kind} space samples {space.form} "
                          f"fields, not {forms[0]}")
    if "qexp" in d:
        try:
            return parse_qexp(d["qexp"])
        except Exception as exc:
            raise ConfigError(f"bad function text {d['qexp']!r}: {exc}") from exc
    if "modal" in d:
        items = [(_parse_index(op, idx), float(c)) for idx, c in d["modal"]]
        return EigenExpansion.make(op, items)
    parts = []
    for label, text in d["rays"]:
        try:
            parts.append((str(label), parse_qexp(text)))
        except Exception as exc:
            raise ConfigError(f"bad ray text {text!r}: {exc}") from exc
    return RayBundle.make(parts)


def field_form(f) -> dict:
    """A symbolic field in the scenario file's form, which `parse_field`
    reads back: build_realization refuses a basis that is not symbolic, so
    the last kind is a ray bundle."""
    if isinstance(f, QExpFunction):
        return {"qexp": serialize(f)}
    if isinstance(f, EigenExpansion):
        return {"modal": [[list(np.atleast_1d(i).tolist())
                           if isinstance(i, tuple) else i, c]
                          for i, c in f.items]}
    return {"rays": [[lbl, serialize(fn)] for lbl, fn in f.parts]}


@frozen
class StateScale:
    """The scale c0 + coeffs . y of a state-dependent volatility, or its
    square root floored at zero, in the leading coordinates y of the state:
    a scalar at a (d,) state, a (P,) row at a (d, P) block of states."""

    sqrt: bool
    c0: float
    coeffs: np.ndarray

    def __call__(self, y: np.ndarray):
        value = self.c0 + self.coeffs @ y[:len(self.coeffs)]
        return np.sqrt(np.maximum(value, 0.0)) if self.sqrt else value


def _parse_state_scale(d: dict) -> StateScale:
    """The schema has checked the kind, affine or sqrt_affine."""
    return StateScale(d["kind"] == "sqrt_affine", float(d.get("c0", 0.0)),
                      np.asarray(d.get("coeffs", []), dtype=float))


def parse_volatility(entries: Sequence[dict], op: OperatorSpec,
                     space: rz.SpaceSpec) -> list:
    out = []
    for k, d in enumerate(entries):
        base = parse_field(d, op, space, f"volatility entry {k}")
        if "state_scale" in d:
            out.append(rz.StateVol(base, _parse_state_scale(d["state_scale"])))
        else:
            out.append(base)
    return out


# the fields each space kind takes besides `kind`: (required, optional)
_SPACE_FIELDS = {"grid": (("x_max", "n_x"), ("x_min", "weight")),
                 "modal": (("indices",), ()),
                 "profile_ray": (("profiles", "x_max", "n_x"), ("weight",))}


def parse_space(d: dict, op: OperatorSpec) -> rz.SpaceSpec:
    """A space takes exactly its kind's fields; a grid and a profile-ray
    space share the parse of their axis grid and weight."""
    kind = d["kind"]
    required, optional = _SPACE_FIELDS[kind]  # a kind the schema names
    for name in required:
        if name not in d:
            raise ConfigError(f"space: a {kind} space needs {name}")
    for name in d:
        if name not in ("kind", *required, *optional):
            raise ConfigError(f"space: a {kind} space takes no {name}")
    if kind == "modal":
        idx = tuple(_parse_index(op, i) for i in d["indices"])
        if len(set(idx)) != len(idx):
            raise ConfigError("modal space indices repeat")
        return rz.ModalSpace(op, idx)
    try:
        grid = Grid1D.from_interval(d.get("x_min", 0.0), d["x_max"], d["n_x"])
    except Exception as exc:
        raise ConfigError(f"space: {exc}") from exc
    weight = None
    if d.get("weight"):
        try:
            weight = parse_qexp(d["weight"])
        except Exception as exc:
            raise ConfigError(f"bad weight text {d['weight']!r}: {exc}") from exc
    axis = rz.GridSpace(grid, weight)
    if kind == "grid":
        return axis
    profiles = tuple(str(p) for p in d["profiles"])
    if len(set(profiles)) != len(profiles):
        raise ConfigError("profile labels repeat")
    return rz.ProfileRaySpace(profiles, axis)


@frozen
class VerifySettings:
    """The fixed pass rule of `verify`: the level-0 sup error within
    bound_rel_h0 x ||h0||, and each refinement's sup error within
    ratio_bound x the coarser one's, or within floor_rel x its path scale."""

    bound_rel_h0: float = 0.02
    ratio_bound: float = 0.7
    floor_rel: float = 1e-9

    def verdict(self, levels: Sequence[dict], h0_norm: float) -> tuple[float, list]:
        """(bound, failures) over the level records, coarsest first; no
        failure is a pass.  NaN passes every comparison, so it fails apart."""
        # a zero initial curve gives no scale of its own: the bound is then
        # relative to the level-0 path scale
        bound = self.bound_rel_h0 * (h0_norm or levels[0]["scale"])
        sup0 = levels[0]["sup_error"]
        failures = [f"level {lvl['level']} sup_error {lvl['sup_error']} is not finite"
                    for lvl in levels if not math.isfinite(lvl["sup_error"])]
        if sup0 > bound:
            failures.append(f"sup_error {sup0:.6g} above bound {bound:.6g}")
        for prev, nxt in zip(levels, levels[1:]):
            floor = self.floor_rel * max(nxt["scale"], 1e-300)
            if nxt["sup_error"] > max(self.ratio_bound * prev["sup_error"], floor):
                failures.append(
                    f"refinement {prev['level']}->{nxt['level']} ratio "
                    f"{nxt['sup_error'] / max(prev['sup_error'], 1e-300):.3f} "
                    f"above {self.ratio_bound}")
        return bound, failures


@frozen
class Runtime:
    """Parsed scenario, ready for the analyze/simulate/verify pipelines."""

    name: str
    op: OperatorSpec
    driver: levy.LevySpec
    sigma: list
    drift_mode: str               # zero | constant | hjm_wiener | hjm_levy
    drift_element: object         # parsed function for constant mode
    h0: object
    space: rz.SpaceSpec
    horizon: float
    n_t: int
    seed: int
    subspace_mode: str            # explicit | volatility_invariant_span | hjm_product_closure
    subspace_basis: tuple
    modes: tuple
    verify: ClassVar[VerifySettings] = VerifySettings()  # every scenario's

    @property
    def oracle(self) -> str:
        """The reference solver of `verify`: the space's own, but modal on a
        grid for a generator whose grid stepping is ill-posed."""
        modal = self.space.oracle == "grid" and self.op.modal_oracle
        return "modal" if modal else self.space.oracle

    @property
    def scheme(self) -> str:
        """The coordinate scheme the reduced model runs: euler exactly when
        some volatility scales with the state, else the exact affine step."""
        return ("euler" if any(isinstance(s, rz.StateVol) for s in self.sigma)
                else "exp_exact")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_t

    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_t + 1)

    def check_refine(self, refine: int) -> None:
        """Refuse `verify --refine` K when the finest level, refined(2^K),
        would not fit a numpy index; builds no level."""
        axis = self.space.grid_axis
        cells = 0 if axis is None else axis.grid.n - 1
        limit = np.iinfo(np.intp).max  # n * 2^K <= limit exactly when n <= limit >> K
        if self.n_t > limit >> refine or cells > (limit - 1) >> refine:
            raise ConfigError(
                f"--refine {refine}: the finest level's n_t * 2^{refine} time steps "
                f"or (n_x - 1) * 2^{refine} + 1 points do not fit a numpy index")

    def refined(self, factor: int) -> Runtime:
        """A refinement level of `verify`: factor times the time steps and,
        along a grid axis, (n_x - 1) * factor + 1 points on the same
        interval."""
        space, h0, axis = self.space, self.h0, self.space.grid_axis
        if axis is not None and factor > 1:
            space = space.refined(factor)
            if isinstance(h0, np.ndarray):
                # a sampled curve is the piecewise-linear interpolant of its
                # nodes, so every level starts from one function
                x, x_fine = axis.axis(), space.grid_axis.axis()
                h0 = np.concatenate([np.interp(x_fine, x, block) for block
                                     in self.space.sample(h0).reshape(-1, axis.size)])
        return replace(self, space=space, n_t=self.n_t * factor, h0=h0)


def _parse_h0(d: dict, op: OperatorSpec, space: rz.SpaceSpec, base_dir: str):
    if "csv" in d:
        if len(d) > 1:
            raise ConfigError(f"initial curve needs exactly one of "
                              f"qexp/modal/rays/csv, got {d}")
        path = os.path.join(base_dir, d["csv"])
        try:
            data = np.loadtxt(path, delimiter=",")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"initial curve file {path}: {exc}") from exc
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigError(f"initial curve file {path} must have x,value rows")
        # the x column is the x row `simulate` writes, to 1e-9 of a step
        axis = space.axis()
        tol = 1e-9 * np.ptp(axis) / max(len(axis) - 1, 1)
        if len(data) != len(axis) or not np.all(np.abs(data[:, 0] - axis) <= tol):
            raise ConfigError(f"initial curve file {path}: the x column is not "
                              f"the space's {len(axis)} points")
        return data[:, 1]
    return parse_field(d, op, space, "initial_curve")


def build_runtime(raw: dict, base_dir: str = ".") -> Runtime:
    validate_config(raw)
    op = parse_operator(raw["operator"])
    space = parse_space(raw["space"], op)  # it fixes the form of every field
    driver = parse_driver(raw.get("driver"))
    sigma = parse_volatility(raw.get("volatility", []), op, space)
    if len(sigma) != driver.m:
        raise ConfigError(f"{len(sigma)} volatility entries but the driver "
                          f"has {driver.m} components")

    drift_raw = raw.get("drift", {"mode": "zero"})
    drift_mode = drift_raw["mode"]  # a mode the schema names
    drift_fields = [k for k in drift_raw if k != "mode"]
    drift_element = None
    if drift_mode == "constant":
        if not drift_fields:
            raise ConfigError("constant drift needs a function entry")
        drift_element = parse_field(drift_raw, op, space, "drift")
    elif drift_fields:
        raise ConfigError(f"drift: a {drift_mode} drift takes no "
                          f"{drift_fields[0]}")
    elif drift_mode == "hjm_wiener":
        if any(c.jump_intensity for c in driver.components):
            raise ConfigError("closed-form forward-curve drift needs a "
                              "pure-Brownian driver")
        if not all(isinstance(s, QExpFunction) for s in sigma):
            raise ConfigError("closed-form forward-curve drift needs "
                              "quasi-exponential volatility entries")
    elif drift_mode == "hjm_levy":
        if space.kind != "grid":
            raise ConfigError("sampled forward-curve drift needs a grid space")
        if not all(isinstance(s, QExpFunction) for s in sigma):
            raise ConfigError("sampled forward-curve drift needs "
                              "quasi-exponential volatility entries")

    h0 = _parse_h0(raw["initial_curve"], op, space, base_dir)

    sub_raw = raw.get("subspace", {"mode": "volatility_invariant_span"})
    sub_mode = sub_raw["mode"]  # a mode the schema names
    sub_basis = ()
    if sub_mode == "explicit":
        if "basis" not in sub_raw:
            raise ConfigError("explicit subspace needs a basis list")
        sub_basis = tuple(parse_field(b, op, space, f"subspace basis entry {k}")
                          for k, b in enumerate(sub_raw["basis"]))
    elif "basis" in sub_raw:
        raise ConfigError(f"subspace: a {sub_mode} subspace takes no basis")

    time_raw = raw["time"]
    modes = tuple(_parse_index(op, i) for i in raw.get("modes", []))
    return Runtime(
        name=raw["name"], op=op, driver=driver, sigma=sigma,
        drift_mode=drift_mode, drift_element=drift_element, h0=h0,
        space=space, horizon=float(time_raw["horizon"]),
        n_t=int(time_raw["n_t"]), seed=int(raw.get("seed", 0)),
        subspace_mode=sub_mode, subspace_basis=sub_basis,
        modes=modes)


# ---------------------------------------------------------------------------
# subspace and drift assembly (shared by the pipelines)


def _sigma_bases(rt: Runtime) -> list:
    out = []
    for s in rt.sigma:
        out.append(s.base if isinstance(s, rz.StateVol) else s)
    return out


def volatility_closure(rt: Runtime) -> rz.ClosureResult:
    """The one closure sweep of a command: the smallest invariant span of
    the volatilities under the generator the build uses, d/dx for
    hjm_product_closure and the scenario's operator otherwise.  The span is
    symbolic, so every refinement level of a command can share it."""
    bases = _sigma_bases(rt)
    if not bases:
        raise ConfigError("subspace detection needs at least one volatility entry")
    op = rt.op
    if rt.subspace_mode == "hjm_product_closure":
        if not all(isinstance(b, QExpFunction) for b in bases):
            raise ConfigError("product closure needs quasi-exponential volatility")
        op = operators.Translation()
    return rz.invariant_span(op, bases)


def assemble_basis(rt: Runtime, closure: rz.ClosureResult | None = None) -> tuple:
    """Subspace basis per the scenario plan, from `closure` when the caller
    has swept already.  Raises NotQuasiExponential when span detection hits
    the dimension cap."""
    if rt.subspace_mode == "explicit":
        return rt.subspace_basis
    if closure is None:
        closure = volatility_closure(rt)
    if closure.status != "quasi_exponential":
        raise NotQuasiExponential(
            f"volatility span not detected as finite dimensional below "
            f"cap {rz.DIM_CAP} (dims {closure.dims})")
    if rt.subspace_mode == "hjm_product_closure":
        return hjmm.product_closure(closure.basis).functions
    return closure.basis.functions


def assemble_drift(rt: Runtime):
    """The scenario's drift element, None for zero drift.  Every drift mode
    declares a constant element: a fixed field, the closed-form forward-curve
    drift, or the sampled one on the scenario's own grid."""
    if rt.drift_mode == "hjm_wiener":
        vols = [c.brownian_vol for c in rt.driver.components]
        return hjmm.hjm_drift_wiener(_sigma_bases(rt), vols)
    if rt.drift_mode == "hjm_levy":
        return hjmm.hjm_drift_levy_grid(rt.driver, _sigma_bases(rt),
                                        rt.space.grid)
    return rt.drift_element


def _exact_mode_amplitudes(rt: Runtime, indices, f) -> np.ndarray:
    """Amplitudes of f over the oracle's modes, exact or refused: numeric
    projection dust would be amplified by growing spectra."""
    if rt.space.kind == "modal":  # the oracle's modes are its own
        return rt.space.sample(f)
    if isinstance(f, QExpFunction):
        coords, rel = rz.span_coords(
            [rt.op.eigenfunction(i) for i in indices], [f])
        if rel[0] > rz.TOL_PROJECT:
            raise UnstableConfig(
                "modal oracle needs band-limited data; relative residual "
                f"{rel[0]:.3e} outside the modes")
        return coords[:, 0]
    raise UnstableConfig("modal oracle needs symbolic data")


def reference_rows(rt: Runtime, V: rz.Subspace,
                   inc: levy.IncrementMatrix) -> Iterator[np.ndarray]:
    """The reference solution of `verify` by the solver `rt.oracle` names,
    one time at a time, on the space axis.  It samples only the scenario's
    own data; V enters only as the coordinates that scale a state-dependent
    volatility.  Set-up checks raise here, before the first row."""
    drift = assemble_drift(rt)
    if rt.oracle == "modal":
        own = rt.space.kind == "modal"  # else a grid space's `modes`
        indices = list(rt.space.indices if own else rt.modes)
        if not indices:
            raise ConfigError("modal oracle needs modes")
        gmax = max(abs(rt.op.generator_eigenvalue(i)) for i in indices)
        if gmax * rt.horizon > 700.0:
            raise UnstableConfig(
                f"modal oracle would overflow: max |eigenvalue| x horizon = "
                f"{gmax * rt.horizon:.3g}")
        a0 = _exact_mode_amplitudes(rt, indices, rt.h0)
        alpha_vec = (None if drift is None
                     else _exact_mode_amplitudes(rt, indices, drift))
        if any(isinstance(s, rz.StateVol) for s in rt.sigma):
            raise MethodUnsupported("modal oracle needs additive volatility")
        sig_rows = [_exact_mode_amplitudes(rt, indices, s) for s in rt.sigma]
        amps = oracle.solve_spde_modal(rt.op, indices, alpha_vec, sig_rows,
                                       a0, inc)
        if own:
            return iter(amps)
        return oracle.modal_rows(rt.op, indices, amps, rt.space.grid)
    # grid and ray_grid: one theta scheme on the axis grid, where a grid
    # state is one vector and a ray state one row per profile
    axis = rt.space.grid_axis
    shape = (-1, axis.size) if rt.oracle == "ray_grid" else (axis.size,)

    def sampled(f):
        return rt.space.sample(f).reshape(shape)

    def vol(s):
        if not isinstance(s, rz.StateVol):
            return sampled(s)
        base, scale = sampled(s.base), s.scale_fn
        return lambda r: scale(V.coords(r.ravel())) * base

    rows = oracle.spde_grid_rows(rt.op, axis.grid,
                                 None if drift is None else sampled(drift),
                                 [vol(s) for s in rt.sigma], sampled(rt.h0), inc)
    return (r.ravel() for r in rows)  # C-contiguous: views, not copies


def build_scenario_realization(rt: Runtime, basis: tuple | None = None
                               ) -> rz.Realization:
    """The realization on the scenario's space, over `basis` when the caller
    has assembled it already (it does not depend on the grid)."""
    if basis is None:
        basis = assemble_basis(rt)
    V = rz.Subspace.build(basis, rt.space)
    for k, s in enumerate(rt.sigma):
        if isinstance(s, rz.StateVol) and len(s.scale_fn.coeffs) > V.dim:
            raise ConfigError(
                f"volatility entry {k}: state_scale.coeffs has "
                f"{len(s.scale_fn.coeffs)} entries but dim V is {V.dim}")
    return rz.build_realization(rt.op, assemble_drift(rt), rt.sigma, V,
                                mode_indices=rt.modes or None)
