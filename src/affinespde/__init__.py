"""Finite-dimensional (affine) realizations of Levy-driven semilinear SPDEs:
decide whether one exists, build it, simulate it, and verify it against an
independent full-resolution solver."""

from .errors import AffineSpdeError
from .funalg import QExpFunction, parse_qexp, serialize
from .levy import LevySpec, make_levy_spec, sample_increments
from .operators import EigenExpansion, RayBundle, eigenpairs
from .realization import (
    GridSpace,
    ModalSpace,
    ProfileRaySpace,
    Subspace,
    build_realization,
    carrier_coords,
    check_invariant,
    coordinate_rows,
    ensemble_moments,
    invariant_span,
    semiinvariant_correction,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSpdeError",
    "QExpFunction",
    "parse_qexp",
    "serialize",
    "LevySpec",
    "make_levy_spec",
    "sample_increments",
    "EigenExpansion",
    "RayBundle",
    "eigenpairs",
    "GridSpace",
    "ModalSpace",
    "ProfileRaySpace",
    "Subspace",
    "build_realization",
    "carrier_coords",
    "check_invariant",
    "coordinate_rows",
    "ensemble_moments",
    "invariant_span",
    "semiinvariant_correction",
    "__version__",
]
