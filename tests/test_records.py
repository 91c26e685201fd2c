"""Every record (a class under errors.frozen) behaves as the frozen dataclass
it replaces, and importing the package compiles no method."""

import ast
import dataclasses
import importlib
import os
import pathlib
import pickle
import pkgutil
import subprocess
import sys

import pytest

import affinespde
from affinespde import funalg
from affinespde.errors import GridTooSmall, UnsupportedOperator, frozen
from affinespde.grids import Grid1D
from affinespde.operators import Cable, HeatDisk, Hermite, Laguerre
from affinespde.realization import Realization

# each record's fields, in order, as they were under dataclass(frozen=True)
FIELDS = {
    "Violation": ("message", "path", "keyword", "matches_type", "context"),
    "StateScale": ("sqrt", "c0", "coeffs"),
    "VerifySettings": ("bound_rel_h0", "ratio_bound", "floor_rel"),
    "Runtime": ("name", "op", "driver", "sigma", "drift_mode", "drift_element",
                "h0", "space", "horizon", "n_t", "seed", "subspace_mode",
                "subspace_basis", "modes"),
    "QExpFunction": ("terms",),
    "SpanBasis": ("functions", "dim", "coefficient_matrix", "keys"),
    "Grid1D": ("x0", "dx", "n"),
    "AtomicJumps": ("atoms",),
    "TwoSidedExponentialJumps": ("p_up", "rate_up", "rate_down"),
    "LevyComponent": ("brownian_vol", "jump_intensity", "jump_law"),
    "LevySpec": ("components",),
    "IncrementMatrix": ("dt", "values"),
    "Translation": (),
    "Transport": (),
    "Cable": ("tau", "lambda_c"),
    "TermStructure2": ("kappa",),
    "Hermite": ("d",),
    "Laguerre": ("d",),
    "HeatDisk": ("a",),
    "RayBundle": ("parts",),
    "EigenExpansion": ("op", "items"),
    "EigenPair": ("index", "eigenvalue", "generator_eigenvalue"),
    "PathMetrics": ("sup_error", "relative", "per_time", "scale", "foliation"),
    "GridSpace": ("grid", "weight"),
    "ModalSpace": ("op", "indices"),
    "ProfileRaySpace": ("profiles", "ray"),
    "Subspace": ("basis", "space", "samples", "gram"),
    "ClosureResult": ("status", "basis", "dims"),
    "InvarianceCheck": ("ok", "dim", "offender", "residual", "coords"),
    "StateVol": ("base", "scale_fn"),
    "CorrectionOperator": ("left", "right", "space"),
    "DriftSplit": ("kind", "v_coords", "remainder"),
    "Realization": ("op", "V", "B", "S", "scales", "drift", "mode_indices",
                    "clauses"),
    "Carrier": ("real", "t_grid", "v0", "coords", "samples", "sampled", "meta"),
    "GridPath": ("t_grid", "x_grid", "values"),
}


def _records() -> dict:
    out = {}
    for info in pkgutil.iter_modules(affinespde.__path__):
        module = importlib.import_module(f"affinespde.{info.name}")
        for value in vars(module).values():
            if (isinstance(value, type) and value.__module__ == module.__name__
                    and dataclasses.is_dataclass(value)):
                out[value.__name__] = value
    return out


RECORDS = _records()

# field values a record's __post_init__ accepts; any other record is built
# from one distinct string per field
VALID = {"Grid1D": (0.0, 0.5, 5), "ModalSpace": (Cable(), (1, 2)),
         "Cable": (2.0, 3.0), "TermStructure2": (2.0,), "Hermite": (2,),
         "Laguerre": (2,), "HeatDisk": (2.0,)}


def _values(cls) -> tuple:
    return VALID.get(cls.__name__, tuple(
        f"{cls.__name__}.{f.name}" for f in dataclasses.fields(cls)))


def _stdlib_twin(cls):
    """The class as dataclass(frozen=True) generates it: the reference."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, object, dataclasses.field(repr=f.repr))
                       for f in dataclasses.fields(cls)], frozen=True)


def test_the_walk_finds_every_record():
    assert set(FIELDS) <= set(RECORDS)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_a_record_keeps_its_fields_in_order(name):
    cls = RECORDS[name]
    assert dataclasses.is_dataclass(cls)
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_can_be_neither_assigned_nor_deleted(name):
    cls = RECORDS[name]
    record = cls(*_values(cls))
    for field in [f.name for f in dataclasses.fields(cls)] or ["anything"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field)
    assert record == cls(*_values(cls))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_replace_round_trips_and_keywords_bind_as_positions(name):
    cls = RECORDS[name]
    values = _values(cls)
    record = cls(*values)
    same = dataclasses.replace(record)
    assert type(same) is cls and same == record and same is not record
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls(**dict(zip(names, values))) == record
    if names and name not in VALID:
        changed = dataclasses.replace(record, **{names[0]: "other"})
        assert getattr(changed, names[0]) == "other" and changed != record
        assert dataclasses.replace(changed, **{names[0]: values[0]}) == record


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_hash_and_repr_are_the_stdlib_ones(name):
    cls = RECORDS[name]
    values = _values(cls)
    record, twin = cls(*values), _stdlib_twin(cls)(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert hash(record) == hash(cls(*values)) == hash(twin)
    assert record.__eq__(twin) is NotImplemented and record != twin
    if "__repr__" not in vars(cls):
        assert repr(record) == repr(twin)


def test_records_of_different_classes_are_unequal():
    assert Hermite(2) != Laguerre(2) and Hermite(2) == Hermite(2)
    assert Hermite(2).__eq__(Laguerre(2)) is NotImplemented


def test_repr_leaves_out_fields_marked_repr_false():
    record = RECORDS["IncrementMatrix"](0.5, [[1.0]])
    assert repr(record) == "IncrementMatrix(dt=0.5)"


def test_a_repr_the_class_defines_is_kept():
    f = funalg.QExpFunction.exponential(-2.0, 3.0)
    assert repr(f) == f"QExpFunction({funalg.serialize(f)!r})"
    assert vars(funalg.QExpFunction)["__repr__"].__code__.co_filename == funalg.__file__


def test_a_default_factory_gives_each_record_its_own_value():
    first, second = (Realization(*"op V B S scales drift".split()) for _ in range(2))
    assert first.clauses == second.clauses == {}
    assert first.clauses is not second.clauses
    assert first.mode_indices is None


def test_post_init_refusals_still_raise():
    with pytest.raises(GridTooSmall):
        Grid1D(0.0, 0.1, 1)
    # the inherited OperatorSpec.__post_init__, through Cable's own
    with pytest.raises(UnsupportedOperator, match="cable parameters"):
        Cable(tau=-1.0)
    with pytest.raises(UnsupportedOperator, match="must be finite"):
        Cable(lambda_c=1e300)
    with pytest.raises(UnsupportedOperator, match="diffusivity"):
        HeatDisk(0.0)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_survives_pickle(name):
    cls = RECORDS[name]
    record = cls(*_values(cls))
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record


def test_a_call_python_would_refuse_raises_type_error():
    with pytest.raises(TypeError, match="missing argument 'n'"):
        Grid1D(0.0, 0.1)
    for args, kwargs in [((0.0, 0.1, 5, 6), {}), ((0.0, 0.1), {"m": 5}),
                         ((0.0, 0.1), {"x0": 5, "n": 5})]:
        with pytest.raises(TypeError, match=r"Grid1D\(x0, dx, n\) cannot bind"):
            Grid1D(*args, **kwargs)


def test_a_field_that_is_no_positional_argument_is_refused():
    class Keyword:
        """A record with a keyword-only field."""
        a: int = dataclasses.field(kw_only=True)

    with pytest.raises(TypeError, match="positional argument"):
        frozen(Keyword)


def test_importing_the_cli_compiles_no_method():
    # dataclasses compiles each method it writes through _create_fn
    code = ("import dataclasses\n"
            "calls = []\n"
            "create = dataclasses._create_fn\n"
            "def counted(*args, **kwargs):\n"
            "    calls.append(args[0])\n"
            "    return create(*args, **kwargs)\n"
            "dataclasses._create_fn = counted\n"
            "import affinespde.cli\n"
            "print(len(calls))\n")
    src = os.path.dirname(os.path.dirname(affinespde.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "0"


def test_no_module_applies_dataclass_but_the_record_decorator():
    # one record path: errors.frozen is the one caller of dataclasses.dataclass
    uses = []
    for path in sorted(pathlib.Path(affinespde.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.name if isinstance(node, ast.alias)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in ("dataclass", "make_dataclass"):
                uses.append(f"{path.name}:{node.lineno}")
    assert len(uses) == 1 and uses[0].startswith("errors.py:"), uses
