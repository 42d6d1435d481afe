"""Cross-cutting band-structure invariants for both lattices."""
import math

import pytest

from qglattice.lattice import (
    LatticeModel,
    band_structure,
    dispersion_sheets,
    flat_bands,
    param_range,
    required_param,
    spectral_infimum,
)
from qglattice.numerics import Bracket, NumericError, find_root


@pytest.mark.parametrize("kind", ["square", "hexagonal"])
@pytest.mark.parametrize("l", [0.6, 1.7, 3.1])
def test_ac_edges_are_range_endpoint_roots(kind, l):
    model = LatticeModel(kind, l)
    window = (-8.0, 22.0)
    pr = param_range(kind, "derived")
    bands = band_structure(model, window, "derived")
    for seg in bands.segments:
        if seg.kind != "ac" or seg.degenerate:
            continue
        for e in (seg.e_lo, seg.e_hi):
            if e in window or e == 0.0:
                continue  # truncated by the window or touching E = 0
            req = required_param(model, e)
            assert req.status == "value"
            dist = min(abs(req.value - pr.lo), abs(req.value - pr.hi))
            # slope of the required parameter in energy stays O(10) here
            assert dist < 1e-7


@pytest.mark.parametrize("kind", ["square", "hexagonal"])
@pytest.mark.parametrize("l", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_negative_spectrum_never_empty(kind, l):
    model = LatticeModel(kind, l)
    inf = spectral_infimum(model)
    bands = band_structure(model, (inf - 1.0, 1.0), "derived")
    negative = [s for s in bands.segments if s.kind == "ac" and s.e_lo < 0.0]
    assert negative
    assert all(s.e_hi <= 1e-9 for s in negative)


@pytest.mark.parametrize("kind,l", [("square", 28.0), ("hexagonal", 17.0)])
def test_infimum_raises_when_the_narrow_band_is_not_resolved(kind, l):
    # the negative band is narrower than the scan resolves; an unbounded
    # window search exhausted memory before this raised
    with pytest.raises(NumericError, match="no negative band"):
        spectral_infimum(LatticeModel(kind, l))


@pytest.mark.parametrize("length", [math.inf, math.nan, -1.0, 0.0])
def test_model_rejects_nonpositive_or_nonfinite_length(length):
    with pytest.raises(ValueError):
        LatticeModel("square", length)


@pytest.mark.parametrize("kind", ["square", "hexagonal"])
def test_segments_stay_inside_window(kind):
    model = LatticeModel(kind, 1.3)
    window = (-4.0, 17.0)
    bands = band_structure(model, window, "derived")
    for seg in bands.segments:
        assert window[0] - 1e-9 <= seg.e_lo <= seg.e_hi <= window[1] + 1e-9


def test_find_root_iteration_budget_is_bounded():
    f = lambda x: x - 1.0
    with pytest.raises(NumericError):
        find_root(f, Bracket(-1e300, 1e300, -1e300 - 1.0, 1e300 - 1.0))


@pytest.mark.parametrize("kind", ["square", "hexagonal"])
def test_oversized_scan_grid_raises_before_allocating(kind):
    # about 1e13 uniform points, 80 TB per array
    model = LatticeModel(kind, 1e9)
    with pytest.raises(NumericError, match="grid points"):
        band_structure(model, (-1e6, -1.0))
    with pytest.raises(NumericError, match="grid points"):
        dispersion_sheets(model, 2, (-1e6, -1.0))


@pytest.mark.parametrize("l,window", [
    (1e9, (0.0, 1e6)),       # 3e11 levels
    (1e300, (1e300, 2e300)),  # indices past float range
])
def test_flat_bands_cap(l, window):
    with pytest.raises(NumericError, match="flat levels"):
        flat_bands(LatticeModel("square", l), window)


def test_flat_bands_of_a_high_window_are_those_of_the_full_ladder():
    l, (e_lo, e_hi) = 1e3, (1e6, 1.001e6)
    ks = (math.pi * m / l for m in range(int(1.1e3 * l / math.pi)))
    expected = [k * k for k in ks if e_lo <= k * k <= e_hi]
    got = flat_bands(LatticeModel("square", l), (e_lo, e_hi))
    assert len(expected) > 100
    assert [s.e_lo for s in got] == expected
