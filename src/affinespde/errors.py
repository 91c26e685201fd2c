"""Exception taxonomy and the record decorator shared across the package.

Every error raised on a contract violation derives from AffineSpdeError so
callers (and the CLI) can map failures to exit codes in one place.  Every
record (an immutable value compared by its fields) is a class under
`frozen`.
"""

import dataclasses
import reprlib
from operator import attrgetter


class AffineSpdeError(Exception):
    """Base class for all package errors."""


class ConfigError(AffineSpdeError):
    """Scenario configuration is malformed or inconsistent."""


# ---- driver specification ----

class ZeroComponent(AffineSpdeError):
    """A noise component has neither Brownian part nor jump part."""


class InfiniteVariance(AffineSpdeError):
    """Jump size law has no finite second moment."""


class BadProbabilities(AffineSpdeError):
    """Atom probabilities are negative or do not sum to one."""


class MomentExplosion(AffineSpdeError):
    """Exponential moment requested outside the finite region."""


# ---- operators ----

class UnsupportedOperator(AffineSpdeError):
    """Operation not defined for this operator (e.g. eigenpairs of a shift)."""


class BracketFailure(AffineSpdeError):
    """Root bracketing scan exhausted its window without a sign change."""


class DomainError(AffineSpdeError):
    """Function representation not in the operator's symbolic domain."""


class GridTooSmall(AffineSpdeError):
    """Spatial grid has too few points for the requested stencil."""


# ---- realization construction ----

class NotInvariant(AffineSpdeError):
    """Candidate subspace is not invariant under the generator."""


class SigmaEscapesV(AffineSpdeError):
    """A volatility component has range outside the candidate subspace."""


class MethodUnsupported(AffineSpdeError):
    """Requested curve solver does not apply to this operator or input."""


class TruncationTailTooLarge(AffineSpdeError):
    """Projecting sampled curve data onto the catalog modes drops a tail
    above the bound."""


class GridMismatch(AffineSpdeError):
    """Two paths or curves do not share the same grid."""


class NotQuasiExponential(AffineSpdeError):
    """Volatility closure exceeded the dimension cap."""


# ---- numerics ----

class UnstableConfig(AffineSpdeError):
    """Discretization parameters violate the scheme's stability region."""


class LinearSolveFailure(AffineSpdeError):
    """A linear solve failed (singular or ill conditioned)."""



# ---- records ----

def _key(names):
    """The named fields as one tuple, as dataclasses compares and hashes."""
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda obj: (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def _bind(cls, fields, args, kwargs) -> list:
    """The field values of a call with keywords, or with too few or too many
    positional values."""
    rest = fields[len(args):]
    if len(args) > len(fields) or not kwargs.keys() <= {f.name for f in rest}:
        raise TypeError(f"{cls.__qualname__}({', '.join(f.name for f in fields)}) "
                        f"cannot bind {len(args)} positional arguments and keywords "
                        f"{sorted(kwargs)}")
    values = list(args)
    for f in rest:
        if f.name in kwargs:
            values.append(kwargs[f.name])
        elif f.default is not dataclasses.MISSING:
            values.append(f.default)
        elif f.default_factory is not dataclasses.MISSING:
            values.append(f.default_factory())
        else:
            raise TypeError(f"{cls.__qualname__}() missing argument {f.name!r}")
    return values


def _refuse_assignment(self, name, value):
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls):
    """`dataclasses.dataclass(frozen=True)` without the methods it compiles at
    import.  dataclasses still collects the fields, so `fields`, `replace`,
    `field(repr=False)`, `default_factory` and ClassVar keep their meaning;
    the methods below, the same code for every record, do the rest.  As
    under dataclasses, a method the class body defines is kept."""
    cls = dataclasses.dataclass(init=False, repr=False, eq=False)(cls)
    body = set(vars(cls))
    if "__eq__" in body and cls.__hash__ is None:
        body.remove("__hash__")  # Python's, beside __eq__; dataclasses replaces it
    fields = dataclasses.fields(cls)
    if not all(f.init and not f.kw_only for f in fields):
        raise TypeError(f"{cls.__name__}: every record field is a positional "
                        "argument of __init__")
    names = tuple(f.name for f in fields)
    n = len(names)
    post_init = hasattr(cls, "__post_init__")
    set_field = object.__setattr__
    key = _key(tuple(f.name for f in fields if f.compare))
    hash_key = _key(tuple(f.name for f in fields
                          if (f.compare if f.hash is None else f.hash)))
    shown = tuple(f.name for f in fields if f.repr)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, fields, args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init:
            self.__post_init__()

    @reprlib.recursive_repr()
    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in shown) + ")")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(hash_key(self))

    methods = {"__init__": __init__, "__repr__": __repr__, "__eq__": __eq__,
               "__hash__": __hash__, "__setattr__": _refuse_assignment,
               "__delattr__": _refuse_deletion}
    for name, method in methods.items():
        if name not in body:
            setattr(cls, name, method)
    return cls
