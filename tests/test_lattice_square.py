import math

import pytest

from qglattice.lattice import (
    BlochPoint,
    LatticeModel,
    band_structure,
    bloch_param,
    brillouin_membership_oracle,
    degenerate_band_lengths,
    dispersion_sheets,
    flat_bands,
    is_member,
    param_range,
    required_param,
    spectral_infimum,
)

# negative band edges at l = 10, frozen from a 40-digit bracketed solve of
# (1 - K^2) cosh(10 K) = +-(1 + K^2)
KAPPA_UPPER_EDGE_L10 = 0.99990912171523255
KAPPA_LOWER_EDGE_L10 = 1.00009072163678197
# lowest band edge at l = 0.01, same solver
INFIMUM_L001 = -200.33377820119887


def model(l: float) -> LatticeModel:
    return LatticeModel("square", l)


class TestBlochParam:
    def test_center(self):
        assert bloch_param(model(1.0), BlochPoint(0.0, 0.0)) == pytest.approx(1.0)

    def test_corner(self):
        assert bloch_param(model(1.0), BlochPoint(math.pi, math.pi)) == pytest.approx(-1.0)

    def test_range_is_unit_interval(self):
        for mode in ("derived", "paper"):
            pr = param_range("square", mode)
            assert (pr.lo, pr.hi) == (-1.0, 1.0)
            assert pr.provenance == mode


class TestRequiredParam:
    def test_energy_minus_one_needs_zero(self):
        req = required_param(model(2.0), -1.0)
        assert req.status == "value"
        assert req.value == pytest.approx(0.0, abs=1e-14)

    def test_energy_four_at_length_pi(self):
        # the ac condition needs c = -5/3, outside [-1, 1]; membership still
        # holds because k = 2 is the m = 2 flat momentum at this length
        req = required_param(model(math.pi), 4.0)
        assert req.status == "value"
        assert req.value == pytest.approx(-5.0 / 3.0, abs=1e-12)
        assert is_member(model(math.pi), 4.0)
        assert not is_member(model(math.pi), 4.000001)

    def test_all_pass_at_unit_energy_when_cos_vanishes(self):
        assert required_param(model(0.5 * math.pi), 1.0).status == "all_pass"
        assert required_param(model(1.0), 1.0).status == "no_pass"

    def test_rejects_zero_energy(self):
        with pytest.raises(ValueError):
            required_param(model(1.0), 0.0)


class TestMembership:
    @pytest.mark.parametrize("l", [0.25, 1.0, 2.0, 5.0, 10.0])
    def test_energy_minus_one_always_member(self, l):
        assert is_member(model(l), -1.0)

    def test_deep_gap_at_large_length(self):
        assert not is_member(model(10.0), -0.5)
        assert not brillouin_membership_oracle(model(10.0), -0.5)

    @pytest.mark.parametrize("l", [0.25, 1.0, 5.0, 10.0, 29.0])
    def test_oracle_agrees_with_is_member_at_minus_one(self, l):
        # E = -1 is the pole of the uncleared square condition (kappa = 1)
        assert brillouin_membership_oracle(model(l), -1.0) == is_member(model(l), -1.0)

    def test_flat_energies_are_members(self):
        m = model(2.0)
        for mm in range(4):
            e = (math.pi * mm / 2.0) ** 2
            assert is_member(m, e) if e > 0 else is_member(m, 0.0)
            assert brillouin_membership_oracle(m, e)


class TestFlatBands:
    def test_length_pi_window(self):
        segs = flat_bands(model(math.pi), (0.0, 10.0))
        assert [s.e_lo for s in segs] == pytest.approx([0.0, 1.0, 4.0, 9.0])
        assert all(s.kind == "flat" and s.e_lo == s.e_hi for s in segs)

    def test_zero_energy_always_present(self):
        for l in (0.3, 1.0, 7.7):
            segs = flat_bands(model(l), (-1.0, 1.0))
            assert any(s.e_lo == 0.0 for s in segs)


class TestBandStructure:
    def test_negative_band_reaches_zero_below_threshold_length(self):
        bands = band_structure(model(1.5), (-5.0, 0.0))
        ac = [s for s in bands.segments if s.kind == "ac"]
        assert len(ac) == 1
        assert abs(ac[0].e_hi - 0.0) <= 1e-9

    def test_negative_band_strictly_below_zero_past_threshold(self):
        bands = band_structure(model(3.0), (-5.0, 0.0))
        ac = [s for s in bands.segments if s.kind == "ac"]
        assert max(s.e_hi for s in ac) < 0.0

    def test_narrow_negative_band_edges_at_large_length(self):
        bands = band_structure(model(10.0), (-1.5, -0.5))
        ac = [s for s in bands.segments if s.kind == "ac"]
        assert len(ac) == 1
        assert ac[0].momentum_hi == pytest.approx(KAPPA_UPPER_EDGE_L10, abs=1e-9)
        assert ac[0].momentum_lo == pytest.approx(KAPPA_LOWER_EDGE_L10, abs=1e-9)

    def test_first_positive_band_starts_at_zero_past_two(self):
        bands = band_structure(model(2.5), (0.0, 2.0))
        ac = [s for s in bands.segments if s.kind == "ac"]
        assert min(s.e_lo for s in ac) <= 1e-9

    def test_first_positive_band_separated_below_two(self):
        bands = band_structure(model(1.0), (0.0, 12.0))
        ac = [s for s in bands.segments if s.kind == "ac"]
        assert min(s.e_lo for s in ac) > 0.1

    def test_segments_sorted_and_disjoint(self):
        bands = band_structure(model(1.7), (-4.0, 40.0))
        e_los = [s.e_lo for s in bands.segments]
        assert e_los == sorted(e_los)
        ac = [s for s in bands.segments if s.kind == "ac" and not s.degenerate]
        for a, b in zip(ac[:-1], ac[1:]):
            assert a.e_hi <= b.e_lo + 1e-12

    def test_every_flat_value_in_window_present(self):
        l = 2.0
        bands = band_structure(model(l), (-1.0, 30.0))
        flats = sorted(s.e_lo for s in bands.segments if s.kind == "flat")
        expected = [(math.pi * m / l) ** 2 for m in range(4)]
        assert flats == pytest.approx(expected)

    def test_degenerate_point_band_at_unit_energy(self):
        bands = band_structure(model(0.5 * math.pi), (0.5, 1.5))
        degs = [s for s in bands.segments if s.degenerate]
        assert len(degs) == 1
        assert degs[0].e_lo == degs[0].e_hi == 1.0


class TestSpectralInfimum:
    @pytest.mark.parametrize("l", [0.3, 1.0, 2.0, 5.0])
    def test_below_minus_one(self, l):
        assert spectral_infimum(model(l)) < -1.0

    def test_small_length_asymptotics(self):
        inf = spectral_infimum(model(0.01))
        assert inf == pytest.approx(-200.0, rel=0.10)
        assert inf == pytest.approx(INFIMUM_L001, rel=1e-9)


class TestDegenerateLengths:
    def test_scan_confirms_half_pi_mod_pi(self):
        found = degenerate_band_lengths("square", (0.2, 2.0 * math.pi))
        assert list(found.closed_form) == pytest.approx([math.pi / 2.0, 3.0 * math.pi / 2.0])
        assert len(found.scan) == 2
        assert found.scan[0] == pytest.approx(math.pi / 2.0, abs=1e-6)
        assert found.scan[1] == pytest.approx(3.0 * math.pi / 2.0, abs=1e-6)


class TestDispersionSheets:
    def test_roots_have_small_residual(self):
        # at grids 13 and 26 the last phase -pi + 2 pi n / n rounds above pi
        for grid in (4, 13, 26):
            roots = dispersion_sheets(model(math.pi), grid, (0.0, 16.0))
            assert roots
            for r in roots:
                assert r.residual < 1e-10

    def test_root_count_matches_denser_scan(self):
        from qglattice.numerics import DEFAULT_TOL, ToleranceConfig

        window = (0.0, 16.0)
        base = dispersion_sheets(model(math.pi), 2, window)
        dense_tol = ToleranceConfig(scan_density=DEFAULT_TOL.scan_density * 100)
        dense = dispersion_sheets(model(math.pi), 2, window, dense_tol)
        assert len(base) == len(dense)

    def test_flat_momenta_not_reported(self):
        l = math.pi
        roots = dispersion_sheets(model(l), 3, (0.0, 16.0))
        for r in roots:
            frac = r.momentum * l / math.pi
            assert abs(frac - round(frac)) > 1e-6

    def test_deterministic_ordering(self):
        a = dispersion_sheets(model(1.3), 3, (-2.0, 9.0))
        b = dispersion_sheets(model(1.3), 3, (-2.0, 9.0))
        assert a == b
        keys = [(r.point.theta1, r.point.theta2, r.branch) for r in a]
        assert keys == sorted(keys)
