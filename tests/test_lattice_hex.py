import math
import subprocess
import sys

import numpy as np
import pytest

from qglattice.lattice import (
    _cleared,
    _cleared_slope,
    _sinh_safe,
    BlochPoint,
    LatticeModel,
    band_structure,
    bloch_param,
    brillouin_membership_oracle,
    degenerate_band_lengths,
    flat_bands,
    is_member,
    param_range,
    required_param,
    spectral_infimum,
)
from qglattice.numerics import DEFAULT_TOL

SQRT3 = math.sqrt(3.0)

# negative band edges (kappa) at l = 2, frozen from a 40-digit bracketed
# solve of (K^2-3)^2 cosh(4K) = K^4 + 6K^2 - 3 + 4 d (K^2+1) at d = 3, -1
OUTER_LO_L2 = 1.5950911087135684
INNER_LO_PAPER_L2 = 1.6952506615996412
INNER_HI_PAPER_L2 = 1.7674184017728101
OUTER_HI_L2 = 1.8245708024809795
# first positive band start at l = 1, derived range, same solver
FIRST_POSITIVE_START_L1 = 1.067126678


def model(l: float) -> LatticeModel:
    return LatticeModel("hexagonal", l)


def brute_force_range() -> tuple[float, float]:
    """Extrema of d over the torus: dense grid plus Nelder-Mead refinement."""
    from scipy.optimize import minimize

    n = 2048
    th = -np.pi + 2.0 * np.pi * np.arange(1, n + 1) / n
    c, s = np.cos(th), np.sin(th)
    vals = c[:, None] + c[None, :] + (np.outer(c, c) + np.outer(s, s))
    flat_min = int(np.argmin(vals))
    flat_max = int(np.argmax(vals))

    def d_of(x: np.ndarray) -> float:
        return math.cos(x[0]) + math.cos(x[0] - x[1]) + math.cos(x[1])

    opts = {"xatol": 1e-12, "fatol": 1e-15, "maxiter": 2000}
    start_min = np.array([th[flat_min // n], th[flat_min % n]])
    start_max = np.array([th[flat_max // n], th[flat_max % n]])
    lo = min(float(np.min(vals)), float(minimize(d_of, start_min, method="Nelder-Mead", options=opts).fun))
    hi = max(float(np.max(vals)), float(-minimize(lambda x: -d_of(x), start_max, method="Nelder-Mead", options=opts).fun))
    return lo, hi


class TestBlochParam:
    def test_sample_point(self):
        assert bloch_param(model(1.0), BlochPoint(math.pi, 0.0)) == pytest.approx(-1.0)

    def test_minimum_point(self):
        v = bloch_param(model(1.0), BlochPoint(2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0))
        assert v == pytest.approx(-1.5, abs=1e-12)

    def test_paper_range(self):
        pr = param_range("hexagonal", "paper")
        assert (pr.lo, pr.hi) == (-1.0, 3.0)
        assert pr.provenance == "paper"

    def test_derived_range(self):
        pr = param_range("hexagonal", "derived")
        assert (pr.lo, pr.hi) == (-1.5, 3.0)
        assert pr.provenance == "derived"

    def test_derived_range_matches_brute_force(self):
        lo, hi = brute_force_range()
        pr = param_range("hexagonal", "derived")
        assert lo == pytest.approx(pr.lo, abs=1e-12)
        assert hi == pytest.approx(pr.hi, abs=1e-12)

    def test_hexagonal_path_does_not_import_scipy_optimize(self):
        code = (
            "import sys\n"
            "from qglattice.lattice import LatticeModel, is_member, param_range\n"
            "param_range('hexagonal')\n"
            "is_member(LatticeModel('hexagonal', 1.0), 0.5)\n"
            "sys.exit(int('scipy.optimize' in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestRequiredParam:
    def test_unit_energy_all_pass_iff_cos_2l_is_minus_half(self):
        assert required_param(model(math.pi / 3.0), 1.0).status == "all_pass"
        assert required_param(model(2.0 * math.pi / 3.0), 1.0).status == "all_pass"
        assert required_param(model(1.0), 1.0).status == "no_pass"

    def test_energy_minus_three_needs_minus_three_halves(self):
        req = required_param(model(2.0), -3.0)
        assert req.status == "value"
        assert req.value == pytest.approx(-1.5, abs=1e-12)

    def test_membership_at_minus_three_depends_on_range(self):
        m = model(2.0)
        assert is_member(m, -3.0, "derived")
        assert not is_member(m, -3.0, "paper")


class TestFlatBands:
    def test_momenta_within_k_window(self):
        segs = flat_bands(model(2.0), (1e-12, 25.0))
        momenta = [s.momentum_lo for s in segs]
        assert momenta == pytest.approx([math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0])


class TestNegativeBands:
    def test_paper_range_edges_at_length_two(self):
        bands = band_structure(model(2.0), (-4.0, -2.0), range_mode="paper")
        ac = sorted((s for s in bands.segments if s.kind == "ac"), key=lambda s: s.e_lo)
        assert len(ac) == 2
        assert ac[0].momentum_lo == pytest.approx(OUTER_HI_L2, abs=1e-9)
        assert ac[0].momentum_hi == pytest.approx(INNER_HI_PAPER_L2, abs=1e-9)
        assert ac[1].momentum_lo == pytest.approx(INNER_LO_PAPER_L2, abs=1e-9)
        assert ac[1].momentum_hi == pytest.approx(OUTER_LO_L2, abs=1e-9)

    def test_derived_range_nearly_touches_minus_three(self):
        bands = band_structure(model(2.0), (-4.0, -2.0), range_mode="derived")
        ac = sorted((s for s in bands.segments if s.kind == "ac"), key=lambda s: s.e_lo)
        assert len(ac) == 2
        # upper band starts exactly at -3 (kappa = sqrt(3)); the gap below it
        # is O(e^(-2 l sqrt(3))), far smaller than the paper-range gap
        assert ac[1].e_lo == pytest.approx(-3.0, abs=1e-9)
        derived_gap = ac[1].e_lo - ac[0].e_hi
        paper_gap = INNER_HI_PAPER_L2**2 - INNER_LO_PAPER_L2**2
        assert 0.0 <= derived_gap < 0.2 * paper_gap

    @pytest.mark.parametrize("l", [2.0, 5.0, 10.0])
    def test_spectrum_on_both_sides_of_minus_three(self, l):
        inf = spectral_infimum(model(l))
        bands = band_structure(model(l), (inf - 1.0, 0.0))
        ac = [s for s in bands.segments if s.kind == "ac"]
        assert any(s.e_lo < -3.0 for s in ac)
        assert any(s.e_hi > -3.0 for s in ac)

    @pytest.mark.parametrize("l", [0.5, 1.0, 2.0, 5.0])
    def test_infimum_below_minus_three(self, l):
        assert spectral_infimum(model(l)) < -3.0

    def test_negative_band_extends_to_zero_below_threshold(self):
        bands = band_structure(model(1.0), (-6.0, 0.0))
        ac = [s for s in bands.segments if s.kind == "ac"]
        assert abs(max(s.e_hi for s in ac)) <= 1e-9

    def test_negative_band_strictly_below_zero_past_threshold(self):
        bands = band_structure(model(1.3), (-6.0, 0.0))
        ac = [s for s in bands.segments if s.kind == "ac"]
        assert max(s.e_hi for s in ac) < -1e-3


class TestPositiveBands:
    def test_first_band_gap_below_threshold_length(self):
        # computed truth: at l = 1 < 2/sqrt(3) the first positive band is
        # separated from zero (starts near E = 1.067)
        bands = band_structure(model(1.0), (1e-12, 4.0))
        ac = [s for s in bands.segments if s.kind == "ac" and not s.degenerate]
        assert min(s.e_lo for s in ac) == pytest.approx(FIRST_POSITIVE_START_L1, abs=1e-6)

    def test_first_band_starts_at_zero_past_threshold_length(self):
        # computed truth: at l = 1.3 > 2/sqrt(3) it starts at zero
        bands = band_structure(model(1.3), (1e-12, 4.0))
        ac = [s for s in bands.segments if s.kind == "ac" and not s.degenerate]
        assert min(s.e_lo for s in ac) <= 1e-9

    def test_degenerate_point_bands(self):
        for l in (math.pi / 3.0, 2.0 * math.pi / 3.0):
            bands = band_structure(model(l), (0.5, 1.5))
            degs = [s for s in bands.segments if s.degenerate]
            assert len(degs) == 1
            assert degs[0].e_lo == degs[0].e_hi == 1.0

    def test_bands_come_in_pairs_at_high_energy(self):
        l = 2.0
        for m in (10, 20):
            km = math.pi * m / l
            half = math.pi / (2.0 * l)
            bands = band_structure(model(l), ((km - half) ** 2, (km + half) ** 2))
            ac = [s for s in bands.segments if s.kind == "ac" and not s.degenerate]
            assert len(ac) == 2


class TestDegenerateLengths:
    def test_scan_matches_closed_form(self):
        found = degenerate_band_lengths("hexagonal", (0.2, 2.0 * math.pi))
        expected = sorted(b + m * math.pi for b in (math.pi / 3.0, 2.0 * math.pi / 3.0)
                          for m in (0, 1))
        assert list(found.closed_form) == pytest.approx(expected)
        assert len(found.scan) == 4
        for got, want in zip(found.scan, expected):
            assert got == pytest.approx(want, abs=1e-6)


class TestOracle:
    def test_oracle_and_reduction_agree_spot_checks(self):
        m = model(1.5)
        for e in (-4.0, -3.0, -1.0, 0.7, 2.0, 5.5, 9.1):
            assert is_member(m, e, "derived") == brillouin_membership_oracle(m, e)

    def test_oracle_rejects_small_grid(self):
        with pytest.raises(ValueError):
            brillouin_membership_oracle(model(1.0), 1.0, grid_n=32)


def _inside(bands, e: float) -> bool:
    return any(s.e_lo <= e <= s.e_hi for s in bands.segments)


class TestRootPairInOneScanCell:
    """Both edges of a band can fall inside one scan cell near E = 3 (k = sqrt(3))."""

    def test_both_bands_near_three_at_length_6p07(self):
        bands = band_structure(model(6.07007457118372), (-7.032879412291194, 4.2501148530142405))
        ac = [e for s in bands.segments if s.kind == "ac" and 2.5 < s.e_lo < 4.0 for e in (s.e_lo, s.e_hi)]
        assert ac == pytest.approx([2.8370, 3.2569, 3.3108, 3.8048], abs=1e-4)
        assert _inside(bands, 3.791436968047341)

    def test_pair_between_scan_points_at_length_14p887(self):
        m = model(14.887)
        bands = band_structure(m, (-6.8967758341537655, 3.923900815761302))
        assert is_member(m, 3.147435125753348)
        assert _inside(bands, 3.147435125753348)

    @pytest.mark.parametrize("l, edges", [(19.485, [2.7351, 2.8619, 2.8699, 3.0042]),
                                          (16.906, [2.9554, 3.1126, 3.1206, 3.2876])])
    def test_band_pairs_near_three_in_window_0_30(self, l, edges):
        bands = band_structure(model(l), (0.0, 30.0))
        ac = [e for s in bands.segments if s.kind == "ac" and edges[0] - 0.01 < s.e_lo < edges[-1]
              for e in (s.e_lo, s.e_hi)]
        assert ac == pytest.approx(edges, abs=1e-4)
        assert all(is_member(model(l), 0.5 * (a + b)) for a, b in zip(ac[::2], ac[1::2]))

    def test_segments_agree_with_is_member(self):
        rng = np.random.default_rng(20261019)
        window = (-8.0, 12.0)
        differ = []
        for l in rng.uniform(0.05, 30.0, size=60):
            m = model(float(l))
            bands = band_structure(m, window)
            edges = [e for s in bands.segments if s.kind == "ac" for e in (s.e_lo, s.e_hi)]
            for e in np.concatenate([rng.uniform(2.25, 3.75, 20), rng.uniform(*window, 20)]):
                e = float(e)
                if any(abs(e - edge) <= 4.0 * DEFAULT_TOL.root_abs * max(1.0, abs(e)) for edge in edges):
                    continue
                if _inside(bands, e) != is_member(m, e):
                    differ.append((float(l), e))
        assert not differ, differ[:5]


@pytest.mark.parametrize("kind", ["square", "hexagonal"])
@pytest.mark.parametrize("positive", [True, False])
def test_cleared_slope_matches_central_differences(kind, positive):
    for l in (0.4, 1.7, 6.0):
        m = LatticeModel(kind, l)
        xs = np.linspace(0.05, 3.0, 41)
        h = 1e-6 * xs
        (a_hi, b_hi), (a_lo, b_lo) = _cleared(m, xs + h, positive), _cleared(m, xs - h, positive)
        da, db = _cleared_slope(m, xs, positive)
        _, b = _cleared(m, xs, positive)
        assert np.allclose(da, (a_hi - a_lo) / (2.0 * h), rtol=1e-6, atol=1e-6)
        scale = np.abs(db) + np.abs(b) / xs + 1.0
        assert np.all(np.abs(db - (b_hi - b_lo) / (2.0 * h)) <= 1e-6 * scale)
        # scalar evaluation, as the extremum search calls it, matches the grid row
        assert _cleared_slope(m, float(xs[7]), positive)[1] == pytest.approx(float(db[7]), rel=1e-14)


def test_sinh_saturates_like_cosh():
    assert _sinh_safe(1.5) == math.sinh(1.5)
    assert _sinh_safe(700.0) == math.inf
    assert list(_sinh_safe(np.array([1.5, 800.0]))) == [math.sinh(1.5), math.inf]
