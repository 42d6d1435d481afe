"""The package namespace re-exports each module's public names, and only those."""
import qglattice

# the package's public names before star.spectral_polynomial was removed
PUBLIC_NAMES = {
    "Bracket", "DEFAULT_TOL", "NumericError", "ToleranceConfig", "find_root",
    "BoundaryPair", "ScatteringMatrix", "VertexCoupling",
    "boundary_pair", "cyclic_coupling", "energy_limit", "s_matrix", "s_matrix_closed_form",
    "StarSpectrum", "bound_states", "spectral_polynomial",
    "BandStructure", "BlochPoint", "DegenerateLengths", "DispersionRoot",
    "LatticeModel", "ParamRange", "ParamRequirement", "SECULAR_CALIBRATION",
    "SpectralSegment", "band_structure", "bloch_param",
    "brillouin_membership_oracle", "degenerate_band_lengths",
    "dispersion_sheets", "flat_bands", "is_member", "param_range",
    "required_param", "secular_determinant", "secular_determinant_factored",
    "spectral_infimum",
    "CLAIM_REGISTRY", "ClaimRecord", "verify_hexagonal", "verify_inconsistencies",
    "verify_square",
    "__version__",
}


def test_every_public_name_resolves_to_its_module_object():
    for name in qglattice.__all__:
        value = getattr(qglattice, name)
        if name != "__version__":
            module = next(m for m in (qglattice.numerics, qglattice.vertex, qglattice.star,
                                      qglattice.lattice, qglattice.verify)
                          if name in m.__all__)
            assert value is getattr(module, name)


def test_public_names_are_the_earlier_set_without_spectral_polynomial():
    assert len(qglattice.__all__) == len(set(qglattice.__all__))
    assert set(qglattice.__all__) == PUBLIC_NAMES - {"spectral_polynomial"}
    assert not hasattr(qglattice, "spectral_polynomial")
