"""Spectra of quantum-graph lattices with a rotation-preferring vertex coupling.

The package computes, verifies, and exports the spectral objects attached
to the cyclic (maximum-rotation) vertex coupling: bound states of star
graphs, on-shell scattering matrices, and Floquet-Bloch band structures of
square and hexagonal lattices, each backed by independent brute-force
cross-checks.
"""
from .numerics import (
    Bracket,
    DEFAULT_TOL,
    NumericError,
    ToleranceConfig,
    find_root,
)
from .vertex import (
    BoundaryPair,
    ScatteringMatrix,
    VertexCoupling,
    boundary_pair,
    cyclic_coupling,
    energy_limit,
    s_matrix,
    s_matrix_closed_form,
)
from .star import StarSpectrum, bound_states, spectral_polynomial
from .lattice import (
    BandStructure,
    BlochPoint,
    DegenerateLengths,
    DispersionRoot,
    LatticeModel,
    ParamRange,
    ParamRequirement,
    SECULAR_CALIBRATION,
    SpectralSegment,
    band_structure,
    bloch_param,
    brillouin_membership_oracle,
    degenerate_band_lengths,
    dispersion_sheets,
    flat_bands,
    is_member,
    param_range,
    required_param,
    secular_determinant,
    secular_determinant_factored,
    spectral_infimum,
)
from .verify import (
    CLAIM_REGISTRY,
    ClaimRecord,
    verify_hexagonal,
    verify_inconsistencies,
    verify_square,
)

__version__ = "0.1.0"

__all__ = [
    "Bracket", "DEFAULT_TOL", "NumericError", "ToleranceConfig",
    "find_root",
    "BoundaryPair", "ScatteringMatrix", "VertexCoupling",
    "boundary_pair", "cyclic_coupling", "energy_limit",
    "s_matrix", "s_matrix_closed_form",
    "StarSpectrum", "bound_states", "spectral_polynomial",
    "BandStructure", "BlochPoint", "DegenerateLengths", "DispersionRoot",
    "LatticeModel", "ParamRange", "ParamRequirement", "SECULAR_CALIBRATION",
    "SpectralSegment", "band_structure", "bloch_param",
    "brillouin_membership_oracle", "degenerate_band_lengths",
    "dispersion_sheets", "flat_bands", "is_member", "param_range",
    "required_param", "secular_determinant", "secular_determinant_factored",
    "spectral_infimum",
    "CLAIM_REGISTRY", "ClaimRecord",
    "verify_hexagonal", "verify_inconsistencies", "verify_square",
    "__version__",
]
