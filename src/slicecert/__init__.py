"""Stability certification for relative equilibria of symmetric Hamiltonian systems."""

from . import errors
from .phase_space import Poly, SymplecticSpace, canonical_omega
from .symmetry import (
    LieAlgebraBasis,
    Subalgebra,
    compactness_certificate,
    derive_structure_constants,
    isotropy_algebra,
    normalizer_algebra,
)
from .momentum import MomentumMap, invariance_residual, momentum_isotropy_algebra
from .witt_artin import WittArtinFrame, witt_artin_frame
from .certify import (
    DEFINITENESS_TOL,
    SlicePencil,
    StabilityCertificate,
    VelocityFamily,
    definiteness_search,
    orthogonal_velocity,
    restricted_hessian,
    slice_pencil,
    solve_velocities,
    velocity_certificate,
    velocity_residual,
)
from .dynamics import ProbeReport, integrate, orbit_distance, stability_probe
from .cli import SystemDefinition, bundled_system, load_system

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "SymplecticSpace",
    "canonical_omega",
    "LieAlgebraBasis",
    "Subalgebra",
    "derive_structure_constants",
    "isotropy_algebra",
    "normalizer_algebra",
    "compactness_certificate",
    "MomentumMap",
    "momentum_isotropy_algebra",
    "invariance_residual",
    "WittArtinFrame",
    "witt_artin_frame",
    "VelocityFamily",
    "StabilityCertificate",
    "SlicePencil",
    "slice_pencil",
    "solve_velocities",
    "velocity_residual",
    "restricted_hessian",
    "definiteness_search",
    "velocity_certificate",
    "orthogonal_velocity",
    "DEFINITENESS_TOL",
    "ProbeReport",
    "integrate",
    "orbit_distance",
    "stability_probe",
    "SystemDefinition",
    "load_system",
    "bundled_system",
    "errors",
]
