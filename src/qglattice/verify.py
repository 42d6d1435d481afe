"""Desk-scale reproduction of the published band-structure claims.

Every quantitative statement about the square and hexagonal spectra is
registered as a claim, recomputed from the lattice machinery, and emitted
as a ClaimRecord.  Deviations are recorded, never patched over: the three
statements known to disagree with direct computation (the star-graph
energies quoted in reversed order, the Bloch-parameter minimum, and the
square degenerate-length set) are reported as informational records with
both values side by side.

Asymptotic claims are tested through finite surrogates whose tolerances
scale like the stated error terms, with constant 10 (an O(1/m) error term
becomes a tolerance of 10/m, and so on).  Claims whose outcome depends on
the choice of the hexagonal parameter range are evaluated under both the
published and the derived range; since the two ranges differ, the
derived-range record of each pair is informational.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import (
    LatticeModel,
    band_structure,
    degenerate_band_lengths,
    is_member,
    param_range,
    spectral_infimum,
)
from .numerics import DEFAULT_TOL, ToleranceConfig
from .star import bound_states

__all__ = [
    "ClaimRecord",
    "CLAIM_REGISTRY",
    "verify_square",
    "verify_hexagonal",
    "verify_inconsistencies",
]

_SQRT3 = math.sqrt(3.0)

# Static registry: one entry per published band-structure bullet (9 square,
# 8 hexagonal).  Coverage is enforced by the test suite.
CLAIM_REGISTRY: dict[str, str] = {
    "square-negative-band-location": "negative spectrum never empty; E=-1 belongs to it for every edge length; inf sigma < -1",
    "square-negative-strictly-below-zero": "for l>2 the negative band has strictly negative upper edge",
    "square-negative-band-exponential": "for large l the negative band is [-1-2e^-l, -1+2e^-l] up to O(e^-2l), in the -kappa scale",
    "square-negative-extends-to-zero": "for l<=2 the negative band extends to zero",
    "square-infimum-small-length": "inf sigma = -2/l + O(l^-1/2) as l -> 0",
    "square-gaps-infinite": "the number of open gaps is always infinite",
    "square-gaps-centered": "gaps are centered around the flat momenta pi m/l, except the lowest",
    "square-degenerate-lengths": "one positive band degenerates to a point for l = (pi/2)(m - 1/2)",
    "square-gap-asymptotics": "gap width 4/(pi m) + O(m^-2) in momentum, 8/l + O(m^-1) in energy",
    "hex-negative-band-location": "negative spectrum never empty; inf sigma < -3; two bands below and above -3",
    "hex-negative-strictly-below-zero": "for l > 2/sqrt(3) the second negative band has negative upper edge; for l <= 2/sqrt(3) it extends to zero",
    "hex-negative-bands-exponential": "for large l the negative bands around -3 have width ~ 8e^(-l sqrt(3)), separated by a gap of the same size",
    "hex-first-band-small-length": "the first negative band approaches (-2 sqrt(3)/l, -2/l) as l -> 0",
    "hex-positive-threshold": "gaps are infinite in number; the first positive band starts at zero iff l <= 2/sqrt(3)",
    "hex-bands-in-pairs": "at high energies the bands appear in pairs centered around the flat momenta pi m/l",
    "hex-degenerate-lengths": "one positive band degenerates to a point for l in {pi/3, 2pi/3} mod pi",
    "hex-pair-asymptotics": "band-pair widths 4(sqrt(3)-1)/l + O(1/m), gap between the pair 8/l + O(1/m)",
}


@dataclass(frozen=True)
class ClaimRecord:
    """One verified claim: the published value against the computed one."""

    claim_id: str
    paper_ref: str
    paper_value: float | tuple[float, ...]
    computed_value: float | tuple[float, ...]
    tolerance: float
    status: str  # "pass" | "deviation" | "informational"


def _near(paper, computed, tolerance: float) -> bool:
    if isinstance(paper, tuple) != isinstance(computed, tuple):
        return False
    if isinstance(paper, tuple):
        if len(paper) != len(computed):
            return False
        return all(abs(p - c) <= tolerance for p, c in zip(paper, computed))
    return abs(paper - computed) <= tolerance


def _record(base: str, qualifier: str, paper, computed, tolerance: float,
            informational: bool = False, one_sided_below: bool = False) -> ClaimRecord:
    """Build a record; one_sided_below passes when computed <= paper + tolerance."""
    if informational:
        status = "informational"
    elif one_sided_below:
        status = "pass" if computed <= paper + tolerance else "deviation"
    else:
        status = "pass" if _near(paper, computed, tolerance) else "deviation"
    return ClaimRecord(
        claim_id=f"{base}[{qualifier}]",
        paper_ref=CLAIM_REGISTRY.get(base, base),
        paper_value=paper,
        computed_value=computed,
        tolerance=tolerance,
        status=status,
    )


def _negative_band_segments(model: LatticeModel, range_mode: str, tol: ToleranceConfig):
    inf = spectral_infimum(model, range_mode, tol)
    bands = band_structure(model, (inf - 1.0, 0.0), range_mode, tol)
    return inf, [s for s in bands.segments if s.kind == "ac"]


def _gap_around_flat(model: LatticeModel, m: int, range_mode: str,
                     tol: ToleranceConfig) -> tuple[float, float] | None:
    """Momentum edges of the spectral gap containing the flat point pi m / l."""
    l = model.edge_length
    km = math.pi * m / l
    half = math.pi / (2.0 * l)
    window = ((km - half) ** 2, (km + half) ** 2)
    bands = band_structure(model, window, range_mode, tol)
    ac = [s for s in bands.segments if s.kind == "ac" and not s.degenerate]
    below = [s for s in ac if s.momentum_hi <= km]
    above = [s for s in ac if s.momentum_lo >= km]
    if not below or not above:
        return None
    lo = max(s.momentum_hi for s in below)
    hi = min(s.momentum_lo for s in above)
    if hi <= lo:
        return None
    return lo, hi


def verify_square(l_set: tuple[float, ...] = (1.5, 3.0, 10.0),
                  tol: ToleranceConfig = DEFAULT_TOL) -> list[ClaimRecord]:
    """Recompute every registered square-lattice claim."""
    records: list[ClaimRecord] = []
    for l in l_set:
        model = LatticeModel("square", l)
        inf, segs = _negative_band_segments(model, "derived", tol)
        upper = max(s.e_hi for s in segs)
        records.append(_record("square-negative-band-location", f"l={l:g},nonempty",
                               1.0, 1.0 if segs else 0.0, 0.0))
        records.append(_record("square-negative-band-location", f"l={l:g},energy-minus-one",
                               1.0, 1.0 if is_member(model, -1.0, "derived", tol) else 0.0, 0.0))
        records.append(_record("square-negative-band-location", f"l={l:g},infimum",
                               -1.0, inf, 0.0, one_sided_below=True))
        if l > 2.0:
            records.append(_record("square-negative-strictly-below-zero", f"l={l:g}",
                                   0.0, upper, 0.0, one_sided_below=True))
        else:
            records.append(_record("square-negative-extends-to-zero", f"l={l:g}",
                                   0.0, upper, 1e-9))
        if l >= 5.0:
            # the published interval is exact in the -kappa scale up to O(e^-2l)
            lo_seg = min(segs, key=lambda s: s.e_lo)
            computed = (-lo_seg.momentum_lo, -lo_seg.momentum_hi)
            paper = (-1.0 - 2.0 * math.exp(-l), -1.0 + 2.0 * math.exp(-l))
            records.append(_record("square-negative-band-exponential", f"l={l:g}",
                                   paper, computed, 10.0 * math.exp(-2.0 * l)))
        # open gaps up to m = 50
        k_hi = math.pi * 50.5 / l
        bands = band_structure(model, (1e-9, k_hi * k_hi), "derived", tol)
        ac = [s for s in bands.segments if s.kind == "ac" and not s.degenerate]
        open_count = 0
        for m in range(1, 51):
            km = math.pi * m / l
            inside = any(s.momentum_lo < km < s.momentum_hi for s in ac)
            if not inside:
                open_count += 1
        records.append(_record("square-gaps-infinite", f"l={l:g},m<=50", 50.0, float(open_count), 0.0))

    # small-length threshold, fixed probe
    probe = LatticeModel("square", 0.01)
    inf = spectral_infimum(probe, "derived", tol)
    records.append(_record("square-infimum-small-length", "l=0.01",
                           -2.0 / 0.01, inf, 10.0 / math.sqrt(0.01)))

    # gap centers and widths at l = 2
    model = LatticeModel("square", 2.0)
    for m in (20, 50):
        gap = _gap_around_flat(model, m, "derived", tol)
        km = math.pi * m / 2.0
        if gap is None:
            records.append(_record("square-gaps-centered", f"l=2,m={m}", km, math.nan, 10.0 / m))
            continue
        lo, hi = gap
        records.append(_record("square-gaps-centered", f"l=2,m={m}",
                               km, 0.5 * (lo + hi), 10.0 / m))
        records.append(_record("square-gap-asymptotics", f"l=2,m={m},momentum",
                               4.0 / (math.pi * m), hi - lo, 10.0 / m**2))
        records.append(_record("square-gap-asymptotics", f"l=2,m={m},energy",
                               8.0 / 2.0, hi * hi - lo * lo, 10.0 / m))

    # degenerate lengths: published arithmetic set vs the band-width scan
    found = degenerate_band_lengths("square", (0.2, 2.0 * math.pi), tol)
    paper_set = tuple((math.pi / 2.0) * (m - 0.5) for m in range(1, 5))
    records.append(_record("square-degenerate-lengths", "window=(0.2,2pi)",
                           paper_set, found.scan, 1e-6, informational=True))

    records.sort(key=lambda r: r.claim_id)
    return records


def _first_positive_band_start(model: LatticeModel, range_mode: str,
                               tol: ToleranceConfig) -> float:
    bands = band_structure(model, (1e-9, 9.0), range_mode, tol)
    ac = [s for s in bands.segments if s.kind == "ac" and not s.degenerate]
    return min(s.e_lo for s in ac) if ac else math.inf


def verify_hexagonal(l_set: tuple[float, ...] = (0.5, 2.0, 5.0, 10.0),
                     tol: ToleranceConfig = DEFAULT_TOL) -> list[ClaimRecord]:
    """Recompute every registered hexagonal-lattice claim.

    Claims touched by the parameter-range question carry paired records
    (range=paper / range=derived); the derived-range record is informational.
    """
    records: list[ClaimRecord] = []
    threshold = 2.0 / _SQRT3
    for l in l_set:
        model = LatticeModel("hexagonal", l)
        inf, segs = _negative_band_segments(model, "derived", tol)
        upper = max(s.e_hi for s in segs)
        records.append(_record("hex-negative-band-location", f"l={l:g},infimum",
                               -3.0, inf, 0.0, one_sided_below=True))
        below = any(s.e_lo < -3.0 - tol.degenerate_width for s in segs)
        above = any(s.e_hi > -3.0 + tol.degenerate_width for s in segs)
        records.append(_record("hex-negative-band-location", f"l={l:g},both-sides-of-minus-three",
                               1.0, 1.0 if (below and above) else 0.0, 0.0))
        if l > threshold:
            records.append(_record("hex-negative-strictly-below-zero", f"l={l:g}",
                                   0.0, upper, 0.0, one_sided_below=True))
        else:
            records.append(_record("hex-negative-strictly-below-zero", f"l={l:g},extends-to-zero",
                                   0.0, upper, 1e-9))
        # first positive band threshold: published "starts at zero iff l <= 2/sqrt(3)"
        start = _first_positive_band_start(model, "derived", tol)
        paper_start_zero = l <= threshold
        computed_start_zero = start <= 1e-9
        records.append(_record("hex-positive-threshold", f"l={l:g}",
                               1.0 if paper_start_zero else 0.0,
                               1.0 if computed_start_zero else 0.0, 0.0))
        if l >= 5.0:
            pred = 8.0 * math.exp(-_SQRT3 * l)
            for mode in ("paper", "derived"):
                _, msegs = _negative_band_segments(model, mode, tol)
                near3 = sorted((s for s in msegs if -3.5 < s.e_lo and s.e_hi < -2.5),
                               key=lambda s: s.e_lo)
                widths = tuple(s.e_hi - s.e_lo for s in near3)
                gap = near3[1].e_lo - near3[0].e_hi if len(near3) == 2 else 0.0
                records.append(_record("hex-negative-bands-exponential",
                                       f"l={l:g},range={mode},widths",
                                       (pred,) * len(widths), widths, pred, informational=True))
                records.append(_record("hex-negative-bands-exponential",
                                       f"l={l:g},range={mode},gap-at-minus-three",
                                       pred, gap, pred, informational=True))
        records.append(_record("hex-negative-bands-exponential",
                               f"l={l:g},member-at-minus-three,range=paper",
                               0.0, 1.0 if is_member(model, -3.0, "paper", tol) else 0.0,
                               0.0, informational=True))
        records.append(_record("hex-negative-bands-exponential",
                               f"l={l:g},member-at-minus-three,range=derived",
                               0.0, 1.0 if is_member(model, -3.0, "derived", tol) else 0.0,
                               0.0, informational=True))

    # small-length first band, fixed probe, both ranges
    probe = LatticeModel("hexagonal", 0.05)
    paper_edges = (-2.0 * _SQRT3 / 0.05, -2.0 / 0.05)
    slack = 10.0 / math.sqrt(0.05)
    for mode in ("paper", "derived"):
        _, segs = _negative_band_segments(probe, mode, tol)
        first = min(segs, key=lambda s: s.e_lo)
        records.append(_record("hex-first-band-small-length", f"l=0.05,range={mode}",
                               paper_edges, (first.e_lo, first.e_hi), slack,
                               informational=(mode == "derived")))

    # pair structure and asymptotics at l = 2
    model = LatticeModel("hexagonal", 2.0)
    for m in (10, 30):
        km = math.pi * m / 2.0
        half = math.pi / 4.0
        bands = band_structure(model, ((km - half) ** 2, (km + half) ** 2), "derived", tol)
        ac = [s for s in bands.segments if s.kind == "ac" and not s.degenerate]
        records.append(_record("hex-bands-in-pairs", f"l=2,m={m}", 2.0, float(len(ac)), 0.0))
    for m in (50,):
        for mode in ("paper", "derived"):
            km = math.pi * m / 2.0
            half = math.pi / 4.0
            bands = band_structure(model, ((km - half) ** 2, (km + half) ** 2), mode, tol)
            ac = sorted((s for s in bands.segments if s.kind == "ac" and not s.degenerate),
                        key=lambda s: s.e_lo)
            if len(ac) == 2:
                widths = (ac[0].e_hi - ac[0].e_lo, ac[1].e_hi - ac[1].e_lo)
                gap = ac[1].e_lo - ac[0].e_hi
            else:
                widths, gap = (math.nan, math.nan), math.nan
            pw = 4.0 * (_SQRT3 - 1.0) / 2.0
            records.append(_record("hex-pair-asymptotics", f"l=2,m={m},range={mode},widths",
                                   (pw, pw), widths, 10.0 / m,
                                   informational=(mode == "derived")))
            records.append(_record("hex-pair-asymptotics", f"l=2,m={m},range={mode},gap",
                                   8.0 / 2.0, gap, 10.0 / m,
                                   informational=(mode == "derived")))

    # degenerate lengths: closed form and scan agree with the published set
    found = degenerate_band_lengths("hexagonal", (0.2, 2.0 * math.pi), tol)
    paper_set = tuple(sorted(b + m * math.pi for b in (math.pi / 3.0, 2.0 * math.pi / 3.0)
                             for m in (0, 1)))
    records.append(_record("hex-degenerate-lengths", "window=(0.2,2pi),scan",
                           paper_set, found.scan, 1e-6))
    records.append(_record("hex-degenerate-lengths", "window=(0.2,2pi),closed-form",
                           paper_set, found.closed_form, 1e-12))

    records.sort(key=lambda r: r.claim_id)
    return records


def verify_inconsistencies(tol: ToleranceConfig = DEFAULT_TOL) -> list[ClaimRecord]:
    """The three statements where the publication disagrees with computation.

    Each record carries the published value and the independently computed
    one; all three are informational, since documenting the discrepancy is
    the point.
    """
    records: list[ClaimRecord] = []

    # 1. star-graph energies for degrees 3 and 4 are quoted in reversed order;
    #    the lattice statements (E=-1 in the square spectrum for every length,
    #    hexagonal bands around E=-3) corroborate the computed assignment.
    e3 = bound_states(3, tol).energies[0]
    records.append(ClaimRecord(
        claim_id="inconsistency-star-degree-3-energy",
        paper_ref="single negative star eigenvalue quoted as -1 for degree 3 and -3 for degree 4; "
                  "the closed form tan(pi m/N) and the lattice spectra around -3 (degree 3) and -1 "
                  "(degree 4) support the opposite assignment",
        paper_value=-1.0,
        computed_value=e3,
        tolerance=0.0,
        status="informational",
    ))

    # 2. the hexagonal Bloch-parameter interval is quoted as [-1, 3]; the
    #    identity |1 + e^{i t1} + e^{i t2}|^2 = 3 + 2d gives -3/2 at (2pi/3, -2pi/3).
    lo = param_range("hexagonal", "derived").lo
    records.append(ClaimRecord(
        claim_id="inconsistency-bloch-parameter-minimum",
        paper_ref="hexagonal Bloch parameter quoted as ranging over [-1, 3]; grid plus local "
                  "minimization gives a minimum of -3/2, which moves the inner negative band "
                  "edges and closes the gap claimed at E=-3",
        paper_value=-1.0,
        computed_value=lo,
        tolerance=0.0,
        status="informational",
    ))

    # 3. the square degenerate-length set is quoted as (pi/2)(m - 1/2); both
    #    the k=1 mechanism (cos l = 0) and the width scan give pi/2 mod pi.
    found = degenerate_band_lengths("square", (0.2, 2.0 * math.pi), tol)
    paper_set = tuple((math.pi / 2.0) * (m - 0.5) for m in range(1, 5))
    records.append(ClaimRecord(
        claim_id="inconsistency-square-degenerate-lengths",
        paper_ref="square degenerate lengths quoted as (pi/2)(m - 1/2); the vanishing parameter "
                  "coefficient at k=1 requires cos l = 0 and the band-width scan confirms "
                  "pi/2 mod pi",
        paper_value=paper_set,
        computed_value=found.scan,
        tolerance=0.0,
        status="informational",
    ))
    return records
