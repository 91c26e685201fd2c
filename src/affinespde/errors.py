"""Exception taxonomy shared across the package.

Every error raised on a contract violation derives from AffineSpdeError so
callers (and the CLI) can map failures to exit codes in one place.
"""


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
