"""Floquet-Bloch spectra of square and hexagonal lattices with the cyclic coupling.

Conventions used throughout:

* Energies are E = k^2 (k > 0) on the positive half line and E = -kappa^2
  (kappa > 0) on the negative one.  All scans and root refinements run in
  the momentum variable (k or kappa), where the conditions are smooth.
* The spectral conditions are evaluated in cleared-denominator form
  ``beta(x) = alpha(x) * p`` with p the Bloch parameter (c for the square
  lattice, d for the hexagonal one):

      square,    E > 0:  (1 + k^2) cos(k l)            = (1 - k^2) c
      square,    E < 0:  (1 - kappa^2) cosh(kappa l)   = (1 + kappa^2) c
      hexagonal, E > 0:  k^4 - 6 k^2 - 3 - (k^2+3)^2 cos(2 k l)
                                                        = 4 (k^2 - 1) d
      hexagonal, E < 0:  (kappa^2-3)^2 cosh(2 kappa l) - kappa^4 - 6 kappa^2 + 3
                                                        = 4 (kappa^2 + 1) d

  Clearing removes the poles of the printed fractional forms at k = 1,
  kappa = 1 (square) and kappa = sqrt(3) (hexagonal), which sit exactly at
  the physically meaningful energies 1, -1 and -3.
* Where the parameter coefficient alpha vanishes (k = 1 on the positive
  side of either lattice) the condition either holds for every Bloch point
  (a zero-width, infinitely degenerate band) or for none; ``required_param``
  reports this as all_pass / no_pass.
* Flat bands sit at the momenta k_m = pi m / l (m = 0, 1, ...), energy
  (pi m / l)^2, coming from the sin(k l) factor of the secular determinant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import (
    DEFAULT_TOL,
    Bracket,
    NumericError,
    ToleranceConfig,
    find_root,
)

__all__ = [
    "LatticeModel",
    "BlochPoint",
    "ParamRange",
    "ParamRequirement",
    "SpectralSegment",
    "BandStructure",
    "DegenerateLengths",
    "DispersionRoot",
    "bloch_param",
    "param_range",
    "required_param",
    "is_member",
    "flat_bands",
    "band_structure",
    "spectral_infimum",
    "secular_determinant",
    "secular_determinant_factored",
    "SECULAR_CALIBRATION",
    "brillouin_membership_oracle",
    "degenerate_band_lengths",
    "dispersion_sheets",
]

_SQRT3 = math.sqrt(3.0)
_X_FLOOR = 1e-6          # smallest scanned momentum when a window touches E = 0
_ALPHA_SINGULAR = 1e-12  # |alpha| below this counts as the vanishing coefficient
_COSH_CAP = 700.0        # cosh overflows past this argument; saturate to inf
_MAX_SCAN_POINTS = 4_000_000  # uniform scan points per call, ~32 MB per array
_MAX_FLAT_LEVELS = 250_000    # flat levels per window; a default scan puts 16 points on each

KINDS = ("square", "hexagonal")


@dataclass(frozen=True)
class LatticeModel:
    """A periodic lattice: kind ('square' or 'hexagonal') and edge length."""

    kind: str
    edge_length: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if not (math.isfinite(self.edge_length) and self.edge_length > 0.0):
            raise ValueError("edge length must be positive and finite")


@dataclass(frozen=True)
class BlochPoint:
    """Quasimomentum phases (theta1, theta2) on the fundamental torus."""

    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        for t in (self.theta1, self.theta2):
            if not (-math.pi < t <= math.pi):
                raise ValueError("Bloch phases must lie in (-pi, pi]")


@dataclass(frozen=True)
class ParamRange:
    """Range of the Bloch parameter over the torus, with its provenance."""

    lo: float
    hi: float
    provenance: str


@dataclass(frozen=True)
class ParamRequirement:
    """Outcome of solving the spectral condition for the Bloch parameter."""

    status: str  # "value" | "all_pass" | "no_pass"
    value: float | None = None


@dataclass(frozen=True)
class SpectralSegment:
    """One spectral component: a flat band, an ac band, or a degenerate point.

    momentum_lo / momentum_hi are the momenta at the e_lo / e_hi edges
    (kappa values for E < 0, with E = -kappa^2).
    """

    e_lo: float
    e_hi: float
    kind: str  # "flat" | "ac"
    degenerate: bool
    momentum_lo: float
    momentum_hi: float


@dataclass(frozen=True)
class BandStructure:
    model: LatticeModel
    window: tuple[float, float]
    segments: tuple[SpectralSegment, ...]


@dataclass(frozen=True)
class DegenerateLengths:
    """Edge lengths with a zero-width band, found by two independent routes."""

    closed_form: tuple[float, ...]
    scan: tuple[float, ...]


@dataclass(frozen=True)
class DispersionRoot:
    point: BlochPoint
    branch: int
    momentum: float
    energy: float
    residual: float


# --------------------------------------------------------------------------
# Bloch parameter and its range

def bloch_param(model: LatticeModel, point: BlochPoint) -> float:
    """c = cos((t1+t2)/2) cos((t1-t2)/2) or d = cos t1 + cos(t1-t2) + cos t2."""
    t1, t2 = point.theta1, point.theta2
    if model.kind == "square":
        return math.cos(0.5 * (t1 + t2)) * math.cos(0.5 * (t1 - t2))
    return math.cos(t1) + math.cos(t1 - t2) + math.cos(t2)


def param_range(kind: str, mode: str = "derived") -> ParamRange:
    """Admissible Bloch-parameter interval.

    The square parameter spans exactly [-1, 1].  For the hexagonal lattice
    the published interval is [-1, 3]; the identity
    |1 + e^{i t1} + e^{i t2}|^2 = 3 + 2 d >= 0 gives [-3/2, 3] instead (the
    minimum at t1 = -t2 = 2 pi/3, the maximum at the origin), so both are
    available and callers choose through ``mode``.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if mode not in ("derived", "paper"):
        raise ValueError("mode must be 'derived' or 'paper'")
    if kind == "square":
        return ParamRange(-1.0, 1.0, mode)
    if mode == "paper":
        return ParamRange(-1.0, 3.0, "paper")
    return ParamRange(-1.5, 3.0, "derived")


# --------------------------------------------------------------------------
# Cleared spectral conditions

def _saturating(scalar, vector, x):
    """scalar(x) or vector(x) for arguments below _COSH_CAP, inf above it."""
    if np.isscalar(x) or isinstance(x, float):
        return scalar(x) if x < _COSH_CAP else math.inf
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, np.inf)
    ok = x < _COSH_CAP
    out[ok] = vector(x[ok])
    return out


def _cosh_safe(x):
    return _saturating(math.cosh, np.cosh, x)


def _sinh_safe(x):
    return _saturating(math.sinh, np.sinh, x)


def _cleared_positive(model: LatticeModel, k):
    """(alpha, beta) with beta = alpha * param as the spectral condition, E = k^2."""
    l = model.edge_length
    k2 = k * k
    if model.kind == "square":
        return 1.0 - k2, (1.0 + k2) * np.cos(k * l)
    return 4.0 * (k2 - 1.0), k2 * k2 - 6.0 * k2 - 3.0 - (k2 + 3.0) ** 2 * np.cos(2.0 * k * l)


def _cleared_negative(model: LatticeModel, kap):
    """(alpha, beta) for E = -kappa^2."""
    l = model.edge_length
    q2 = kap * kap
    if model.kind == "square":
        return 1.0 + q2, (1.0 - q2) * _cosh_safe(kap * l)
    return 4.0 * (q2 + 1.0), (q2 - 3.0) ** 2 * _cosh_safe(2.0 * kap * l) - q2 * q2 - 6.0 * q2 + 3.0


def _cleared(model: LatticeModel, x, positive: bool):
    return _cleared_positive(model, x) if positive else _cleared_negative(model, x)


def _cleared_slope(model: LatticeModel, x, positive: bool):
    """(alpha', beta'), the momentum derivatives of ``_cleared``; sinh saturates like cosh."""
    l = model.edge_length
    x2 = x * x
    if model.kind == "square":
        if positive:
            return -2.0 * x, 2.0 * x * np.cos(x * l) - l * (1.0 + x2) * np.sin(x * l)
        return 2.0 * x, -2.0 * x * _cosh_safe(x * l) + l * (1.0 - x2) * _sinh_safe(x * l)
    if positive:
        return 8.0 * x, (4.0 * x * (x2 - 3.0) - 4.0 * x * (x2 + 3.0) * np.cos(2.0 * x * l)
                         + 2.0 * l * (x2 + 3.0) ** 2 * np.sin(2.0 * x * l))
    return 8.0 * x, (4.0 * x * (x2 - 3.0) * _cosh_safe(2.0 * x * l)
                     + 2.0 * l * (x2 - 3.0) ** 2 * _sinh_safe(2.0 * x * l) - 4.0 * x * (x2 + 3.0))


def _identity_scale(model: LatticeModel, x: float) -> float:
    k2 = x * x
    if model.kind == "square":
        return 1.0 + k2
    return (k2 + 3.0) ** 2


def required_param(model: LatticeModel, e: float, tol: ToleranceConfig = DEFAULT_TOL) -> ParamRequirement:
    """Bloch parameter value that solves the spectral condition at energy e.

    Where the parameter coefficient vanishes (k = 1 on the positive side)
    the outcome is all_pass when the parameter-free identity holds, meaning
    every Bloch point solves the condition at this single momentum, and
    no_pass otherwise.  e = 0 is rejected; the zero-energy flat band is the
    business of ``flat_bands``.
    """
    if e == 0.0:
        raise ValueError("energy must be nonzero")
    positive = e > 0.0
    x = math.sqrt(abs(e))
    alpha, beta = _cleared(model, x, positive)
    if abs(alpha) <= _ALPHA_SINGULAR:
        if abs(beta) <= tol.residual_zero * _identity_scale(model, x):
            return ParamRequirement("all_pass")
        return ParamRequirement("no_pass")
    return ParamRequirement("value", beta / alpha)


def _is_flat_energy(model: LatticeModel, e: float) -> bool:
    if e < 0.0:
        return False
    kl = math.sqrt(e) * model.edge_length
    m = round(kl / math.pi)
    return abs(kl - m * math.pi) <= 1e-9 * max(1.0, kl)


def is_member(model: LatticeModel, e: float, range_mode: str = "derived",
              tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Spectral membership of energy e via the cleared-denominator reduction."""
    if _is_flat_energy(model, e):
        return True
    return _member_value(model, math.sqrt(abs(e)), e > 0.0, param_range(model.kind, range_mode), tol)


# --------------------------------------------------------------------------
# Flat bands

def flat_bands(model: LatticeModel, window: tuple[float, float],
               tol: ToleranceConfig = DEFAULT_TOL) -> list[SpectralSegment]:
    """Flat (infinitely degenerate) levels (pi m / l)^2 inside the window.

    m = 0 is included: the zero-energy eigenfunctions are constant on the
    elementary loops, so the spectrum contains E = 0 for every edge length.
    A window with more than _MAX_FLAT_LEVELS levels, or with levels past
    index 2^50, raises NumericError.
    """
    e_lo, e_hi = window
    if not e_lo < e_hi:
        raise ValueError("window must be non-degenerate")
    if e_hi < 0.0:
        return []
    l = model.edge_length
    m_lo = math.sqrt(max(e_lo, 0.0)) * l / math.pi
    m_hi = math.sqrt(e_hi) * l / math.pi
    if not (m_hi - m_lo <= _MAX_FLAT_LEVELS and m_hi < 2.0 ** 50):
        raise NumericError(f"energy window {window!r} at edge length {l!r} holds flat levels "
                           f"{m_lo:.3g} to {m_hi:.3g}: more than {_MAX_FLAT_LEVELS} levels "
                           f"or indices past 2^50")
    out: list[SpectralSegment] = []
    m = max(0, int(m_lo) - 1)
    while True:
        km = math.pi * m / l
        em = km * km
        if em > e_hi:
            break
        if em >= e_lo:
            out.append(SpectralSegment(em, em, "flat", False, km, km))
        m += 1
    return out


# --------------------------------------------------------------------------
# Absolutely continuous bands

_LADDER = tuple(10.0 ** (-p) for p in range(2, 16))


def _scan_grid(model: LatticeModel, x_lo: float, x_hi: float, positive: bool,
               tol: ToleranceConfig) -> np.ndarray:
    """Uniform grid at the oscillation-resolving density, plus structural anchors.

    Anchors are the flat momenta pi m / l (the narrow gap/band structure
    clusters around them) and the singular momenta k = 1, kappa = 1 or
    sqrt(3).  Around the singular momenta the envelope functions can dip
    across zero in an exponentially narrow window (narrow negative bands at
    large edge length, range-endpoint grazing), so each singular anchor
    carries a log-spaced ladder of offsets down to machine precision.  A
    range that needs more than _MAX_SCAN_POINTS uniform points raises
    NumericError before anything is allocated.
    """
    l = model.edge_length
    osc = 1.0 if model.kind == "square" else 2.0
    step = math.pi / (tol.scan_density * osc * l)
    count = (x_hi - x_lo) / step
    if not count <= _MAX_SCAN_POINTS:
        raise NumericError(f"scanning momenta [{x_lo!r}, {x_hi!r}] at edge length {l!r} needs "
                           f"{count:.3g} grid points, above the cap of {_MAX_SCAN_POINTS}")
    n = max(64, int(math.ceil(count)) + 1)
    xs = [np.linspace(x_lo, x_hi, n)]
    singular = [1.0] if model.kind == "square" else [1.0, _SQRT3]
    anchors = list(singular)
    for a in singular:
        anchors.extend(a * (1.0 + eps) for eps in _LADDER)
        anchors.extend(a * (1.0 - eps) for eps in _LADDER)
    if positive:
        m = max(1, int(math.floor(x_lo * l / math.pi)))
        while m * math.pi / l < x_hi:
            anchors.append(m * math.pi / l)
            m += 1
    inside = [a for a in anchors if x_lo < a < x_hi]
    if inside:
        xs.append(np.asarray(inside))
    grid = np.unique(np.concatenate(xs))
    return grid


def _member_value(model: LatticeModel, x: float, positive: bool, pr: ParamRange,
                  tol: ToleranceConfig) -> bool:
    alpha, beta = _cleared(model, x, positive)
    if abs(alpha) <= _ALPHA_SINGULAR:
        return abs(beta) <= tol.residual_zero * _identity_scale(model, x)
    v = beta / alpha
    return pr.lo <= v <= pr.hi


def _condition_roots(model: LatticeModel, params, x_lo: float, x_hi: float, positive: bool,
                     tol: ToleranceConfig, touch: float = 0.0) -> list[list[float]]:
    """Roots of f_p(x) = beta(x) - alpha(x) * p on [x_lo, x_hi], one unsorted list per p.

    One scan grid and one evaluation of (alpha, beta) serve every p; rows f_p
    are formed one at a time, so memory stays O(grid).  Roots are strict sign
    changes between grid points (+-inf counts by its sign, NaN never) refined
    by ``find_root``, and grid points with |f_p| <= residual_zero * (1 + |alpha|
    * touch), exact zeros for touch = 0.  Callers merge near-duplicates with
    ``_dedupe``.

    For touch > 0 (band edges) a cell can also hold a root pair: f_p keeps
    one strict sign at both ends while its slope (``_cleared_slope``) points
    toward zero at the left end and away from it at the right end.  The
    extremum between is the slope's root; where f_p changes sign there, one
    root on each side is refined.  Dispersion roots (touch = 0) use the
    sign-change rule alone.
    """
    if not x_lo < x_hi:
        return [[] for _ in params]
    grid = _scan_grid(model, x_lo, x_hi, positive, tol)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, beta = _cleared(model, grid, positive)
        if touch:
            d_alpha, d_beta = _cleared_slope(model, grid, positive)
    zero = tol.residual_zero * (1.0 + np.abs(alpha) * touch) if touch else 0.0
    out: list[list[float]] = []
    for p in params:
        def f(x: float, _p: float = p) -> float:
            a, b = _cleared(model, x, positive)
            return b - a * _p

        def slope(x: float, _p: float = p) -> float:
            da, db = _cleared_slope(model, x, positive)
            return db - da * _p

        fv = beta - alpha * p
        a, b = fv[:-1], fv[1:]
        sign = np.sign(fv)
        ends = sign[:-1] * sign[1:]  # -1 across a strict sign change, +1 on one strict sign
        roots = [find_root(f, Bracket(float(grid[i]), float(grid[i + 1]), float(a[i]), float(b[i])), tol)
                 for i in np.nonzero(ends < 0.0)[0]]
        if touch:
            sv = d_beta - d_alpha * p
            heading = sign * np.sign(sv)  # -1 where |f_p| shrinks, +1 where it grows
            for i in np.nonzero((ends > 0.0) & (heading[:-1] < 0.0) & (heading[1:] > 0.0))[0]:
                x0, x1, f0, f1 = float(grid[i]), float(grid[i + 1]), float(a[i]), float(b[i])
                xm = find_root(slope, Bracket(x0, x1, float(sv[i]), float(sv[i + 1])), tol)
                fm = f(xm)
                if x0 < xm < x1 and (fm <= 0.0 if f0 > 0.0 else fm >= 0.0):
                    roots += [find_root(f, Bracket(x0, xm, f0, fm), tol),
                              find_root(f, Bracket(xm, x1, fm, f1), tol)]
        out.append(roots + grid[np.abs(fv) <= zero].tolist())
    return out


def _dedupe(xs: list[float], tol: ToleranceConfig) -> list[float]:
    """Sorted xs, dropping each value within 4 root_abs (relative above 1) of the last kept one."""
    kept: list[float] = []
    for x in sorted(xs):
        if not kept or x - kept[-1] > 4.0 * tol.root_abs * max(1.0, abs(x)):
            kept.append(x)
    return kept


def _ac_intervals(model: LatticeModel, x_lo: float, x_hi: float, positive: bool,
                  range_mode: str, tol: ToleranceConfig) -> list[tuple[float, float]]:
    """Maximal momentum intervals (x_lo < x_hi) where the spectral condition is solvable.

    Band edges are the momenta where the required parameter hits an end of
    its range: the ``_condition_roots`` of f_p for p at both range
    endpoints, with grid points where f_p nearly vanishes (relative to the
    parameter term) kept as tangential touches, and root pairs that fall
    inside one scan cell found from the slope of f_p.  The cuts of both endpoints
    are deduplicated together, starting from x_lo, and the cells between
    consecutive cuts are classified by membership at their midpoint.
    """
    pr = param_range(model.kind, range_mode)
    lo_cuts, hi_cuts = _condition_roots(model, (pr.lo, pr.hi), x_lo, x_hi, positive, tol,
                                        touch=max(abs(pr.lo), abs(pr.hi)))
    pts = _dedupe([x_lo] + [c for c in lo_cuts + hi_cuts if c < x_hi], tol) + [x_hi]

    intervals: list[tuple[float, float]] = []
    open_start: float | None = None
    for a, b in zip(pts[:-1], pts[1:]):
        if _member_value(model, 0.5 * (a + b), positive, pr, tol):
            if open_start is None:
                open_start = a
        elif open_start is not None:
            intervals.append((open_start, a))
            open_start = None
    if open_start is not None:
        intervals.append((open_start, x_hi))
    return intervals


def _positive_segments(model: LatticeModel, e_lo: float, e_hi: float, range_mode: str,
                       tol: ToleranceConfig) -> list[SpectralSegment]:
    k_lo = math.sqrt(e_lo) if e_lo > 0.0 else _X_FLOOR
    k_hi = math.sqrt(e_hi)
    if k_hi <= k_lo:
        return []
    out = []
    for a, b in _ac_intervals(model, k_lo, k_hi, True, range_mode, tol):
        a, b = float(a), float(b)
        seg_lo = max(e_lo, 0.0) if a == k_lo and e_lo <= 0.0 else a * a
        width = b * b - seg_lo
        out.append(SpectralSegment(seg_lo, b * b, "ac", bool(width < tol.degenerate_width), a, b))
    return out


def _negative_segments(model: LatticeModel, e_lo: float, e_hi: float, range_mode: str,
                       tol: ToleranceConfig) -> list[SpectralSegment]:
    kap_lo = math.sqrt(-e_hi) if e_hi < 0.0 else _X_FLOOR
    kap_hi = math.sqrt(-e_lo)
    if kap_hi <= kap_lo:
        return []
    out = []
    for a, b in _ac_intervals(model, kap_lo, kap_hi, False, range_mode, tol):
        a, b = float(a), float(b)
        seg_hi = min(e_hi, 0.0) if a == kap_lo and e_hi >= 0.0 else -(a * a)
        width = seg_hi - (-(b * b))
        out.append(SpectralSegment(-(b * b), seg_hi, "ac", bool(width < tol.degenerate_width), b, a))
    return out


def _degenerate_point_segments(model: LatticeModel, e_lo: float, e_hi: float,
                               existing: list[SpectralSegment],
                               tol: ToleranceConfig) -> list[SpectralSegment]:
    """Zero-width bands from the all_pass mechanism at k = 1 (energy 1)."""
    if not (e_lo <= 1.0 <= e_hi):
        return []
    if required_param(model, 1.0, tol).status != "all_pass":
        return []
    for seg in existing:
        if seg.kind == "ac" and seg.e_lo - tol.degenerate_width < 1.0 < seg.e_hi + tol.degenerate_width:
            return []
    return [SpectralSegment(1.0, 1.0, "ac", True, 1.0, 1.0)]


def band_structure(model: LatticeModel, window: tuple[float, float],
                   range_mode: str = "derived",
                   tol: ToleranceConfig = DEFAULT_TOL) -> BandStructure:
    """Full spectrum in an energy window: flat bands plus ac segments.

    Zero-width degenerate bands appear as ac segments flagged degenerate;
    they arise through the all_pass mechanism, not through the sin(k l)
    flat-band factor, and the two are kept distinguishable.
    """
    e_lo, e_hi = window
    if not e_lo < e_hi:
        raise ValueError("window must be non-degenerate")
    segments = flat_bands(model, window, tol)
    if e_lo < 0.0:
        segments += _negative_segments(model, e_lo, min(e_hi, 0.0), range_mode, tol)
    if e_hi > 0.0:
        ac_pos = _positive_segments(model, max(e_lo, 0.0), e_hi, range_mode, tol)
        segments += ac_pos
        segments += _degenerate_point_segments(model, e_lo, e_hi, ac_pos, tol)
    segments.sort(key=lambda s: (s.e_lo, s.e_hi, s.kind))
    return BandStructure(model=model, window=(e_lo, e_hi), segments=tuple(segments))


def spectral_infimum(model: LatticeModel, range_mode: str = "derived",
                     tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Bottom of the spectrum: the lowest edge of the lowest negative band.

    The search window in kappa grows until membership fails throughout a
    full decade above the lowest found edge.  Every window covers the
    singular momenta, so one without a band means the scan lost it (at large
    edge lengths the band is narrower than the scan resolves): NumericError.
    """
    l = model.edge_length
    kap_hi = max(4.0, 2.0 * _SQRT3, 3.0 * math.sqrt(2.0 / l))
    for _ in range(40):
        intervals = _ac_intervals(model, _X_FLOOR, kap_hi, False, range_mode, tol)
        if not intervals:
            raise NumericError(f"no negative band resolved for {model.kind} edge length {l!r}")
        if intervals[-1][1] <= kap_hi / 10.0:
            return -intervals[-1][1] ** 2
        kap_hi *= 4.0
    raise NumericError("negative spectrum search did not terminate")


# --------------------------------------------------------------------------
# Secular determinants

SECULAR_CALIBRATION = {"square": 1.0 + 0.0j, "hexagonal": -1.0 + 0.0j}
"""assembled determinant == CALIBRATION * factored closed form, identically."""


def _secular_matrix_square(model: LatticeModel, k: float, point: BlochPoint) -> np.ndarray:
    """Vertex conditions applied to the Bloch cell of the square lattice.

    Columns are the coefficients (a1, b1, a2, b2) of the two independent
    edge waves; rows are the N = 4 cyclic matching conditions with outward
    derivatives, the translated edges carrying the phases w1, w2.
    """
    l = model.edge_length
    w1 = complex(math.cos(point.theta1), math.sin(point.theta1))
    w2 = complex(math.cos(point.theta2), math.sin(point.theta2))
    ee = complex(math.cos(k * l), math.sin(k * l))
    em = ee.conjugate()
    ik = 1j * k
    vals = np.array([
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [w1 * ee, w1 * em, 0, 0],
        [0, 0, w2 * ee, w2 * em],
    ], dtype=complex)
    outs = np.array([
        [ik, -ik, 0, 0],
        [0, 0, ik, -ik],
        [-ik * w1 * ee, ik * w1 * em, 0, 0],
        [0, 0, -ik * w2 * ee, ik * w2 * em],
    ], dtype=complex)
    rows = [vals[(j + 1) % 4] - vals[j] + 1j * (outs[(j + 1) % 4] + outs[j]) for j in range(4)]
    return np.array(rows)


def _secular_matrix_hex(model: LatticeModel, k: float, point: BlochPoint) -> np.ndarray:
    """Vertex conditions on the two-vertex hexagonal cell.

    Columns are (C1+, C1-, C2+, C2-, C3+, C3-).  Edge 1 joins the two
    vertices and is matched smoothly at its midpoint; edges 2 and 3 close
    through the neighboring cells with phases conj(w1), conj(w2).  At both
    vertices the cyclic conditions run through the edges in the order
    1 -> 2 -> 3 with all derivatives taken outward.
    """
    l = model.edge_length
    w1 = complex(math.cos(point.theta1), math.sin(point.theta1))
    w2 = complex(math.cos(point.theta2), math.sin(point.theta2))
    xi = complex(math.cos(0.5 * k * l), math.sin(0.5 * k * l))
    xim = xi.conjugate()
    xi2 = xi * xi
    xim2 = xim * xim
    ik = 1j * k

    def basis(i: int) -> np.ndarray:
        v = np.zeros(6, dtype=complex)
        v[i] = 1.0
        return v

    u = [basis(0) * xi + basis(1) * xim, basis(2) + basis(3), basis(4) + basis(5)]
    du = [
        -ik * (basis(0) * xi - basis(1) * xim),
        ik * (basis(2) - basis(3)),
        ik * (basis(4) - basis(5)),
    ]
    v = [
        basis(0) * xim + basis(1) * xi,
        (basis(2) * xi2 + basis(3) * xim2) / w1,
        (basis(4) * xi2 + basis(5) * xim2) / w2,
    ]
    dv = [
        ik * (basis(0) * xim - basis(1) * xi),
        -ik * (basis(2) * xi2 - basis(3) * xim2) / w1,
        -ik * (basis(4) * xi2 - basis(5) * xim2) / w2,
    ]
    rows = [u[(j + 1) % 3] - u[j] + 1j * (du[(j + 1) % 3] + du[j]) for j in range(3)]
    rows += [v[(j + 1) % 3] - v[j] + 1j * (dv[(j + 1) % 3] + dv[j]) for j in range(3)]
    return np.array(rows)


def secular_determinant(model: LatticeModel, k: float, point: BlochPoint) -> complex:
    """Determinant of the assembled cell-matching system at momentum k > 0."""
    if k <= 0.0:
        raise ValueError("momentum must be positive")
    if model.kind == "square":
        return complex(np.linalg.det(_secular_matrix_square(model, k, point)))
    return complex(np.linalg.det(_secular_matrix_hex(model, k, point)))


def secular_determinant_factored(model: LatticeModel, k: float, point: BlochPoint) -> complex:
    """Factored closed form of the secular determinant; same zero set."""
    if k <= 0.0:
        raise ValueError("momentum must be positive")
    l = model.edge_length
    t1, t2 = point.theta1, point.theta2
    k2 = k * k
    if model.kind == "square":
        phase = complex(math.cos(t1 + t2), math.sin(t1 + t2))
        bracket = (k2 - 1.0) * (math.cos(t1) + math.cos(t2)) + 2.0 * (k2 + 1.0) * math.cos(k * l)
        return 16j * phase * k * math.sin(k * l) * bracket
    phase = complex(math.cos(t1 + t2), -math.sin(t1 + t2))
    d = bloch_param(model, point)
    bracket = 3.0 + 6.0 * k2 - k2 * k2 + 4.0 * d * (k2 - 1.0) + (k2 + 3.0) ** 2 * math.cos(2.0 * k * l)
    return 16j * phase * k2 * math.sin(k * l) * bracket


# --------------------------------------------------------------------------
# Brute-force Brillouin membership oracle

@lru_cache(maxsize=8)
def _param_samples(kind: str, grid_n: int) -> np.ndarray:
    """Smallest and largest Bloch parameter on a torus grid plus its exact critical values.

    The grid is theta = -pi + 2 pi j / grid_n on both axes, joined by the
    exact torus extrema (c = +-1, 0; d = 3, -3/2, -1).  The two values are
    taken from the samples, not set to the nominal range ends, so they stay
    the sampled extremes if grid rounding steps outside that range (for
    grids of 64 to 699 points they equal the nominal ends).
    """
    th = -np.pi + 2.0 * np.pi * np.arange(1, grid_n + 1) / grid_n
    c, s = np.cos(th), np.sin(th)
    if kind == "square":
        vals = 0.5 * (c[:, None] + c[None, :])
        extra = np.array([1.0, -1.0, 0.0])
    else:
        vals = c[:, None] + c[None, :] + (np.outer(c, c) + np.outer(s, s))
        extra = np.array([3.0, -1.5, -1.0])
    vals = np.concatenate([vals.ravel(), extra])
    return np.array([vals.min(), vals.max()])


def brillouin_membership_oracle(model: LatticeModel, e: float, grid_n: int = 512,
                                tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Ground-truth membership from the raw (uncleared) spectral condition.

    True when the condition changes sign over the Bloch parameters sampled
    on a grid_n^2 torus grid, falls below the residual threshold, or e is a
    flat-band energy.  The raw condition is affine in the parameter p, and
    rounded multiply, subtract and divide by a positive number are monotone
    in p, so its sampled min and max are its values at the two sampled
    extremes of p (``_param_samples``); only those two are evaluated, with
    the same answers as evaluating every sample.  This route never touches
    the cleared-denominator reduction and checks it in tests.  It does not
    check the range ends themselves; ``test_derived_range_matches_brute_force``
    does.
    """
    if grid_n < 64:
        raise ValueError("oracle grid must be at least 64 points per axis")
    if e == 0.0 or _is_flat_energy(model, e):
        return True
    l = model.edge_length
    params = _param_samples(model.kind, grid_n)
    x = math.sqrt(abs(e))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if model.kind == "square":
            if e > 0.0:
                coef = (1.0 - x * x) / (1.0 + x * x)
                f = math.cos(x * l) - coef * params
            else:
                coef = (1.0 + x * x) / (1.0 - x * x) if x != 1.0 else math.inf
                f = _cosh_safe(x * l) - coef * params
            scale = 1.0 + abs(coef) if math.isfinite(coef) else 1.0
        else:
            k2 = x * x
            if e > 0.0:
                f = math.cos(2.0 * x * l) - (k2 * k2 - 6.0 * k2 - 3.0 - 4.0 * params * (k2 - 1.0)) / (k2 + 3.0) ** 2
                scale = 1.0 + 4.0 * abs(k2 - 1.0) / (k2 + 3.0) ** 2 * 3.0
            else:
                denom = (k2 - 3.0) ** 2
                f = _cosh_safe(2.0 * x * l) - (k2 * k2 + 6.0 * k2 - 3.0 + 4.0 * params * (k2 + 1.0)) / denom
                coef = 4.0 * (k2 + 1.0) / denom if denom > 0.0 else math.inf
                scale = 1.0 + 3.0 * coef if math.isfinite(coef) else 1.0
    f = f[~np.isnan(f)] if np.isnan(f).any() else f  # +-inf keeps its sign (a pole spans both)
    if f.size == 0:
        return False
    fmin, fmax = float(np.min(f)), float(np.max(f))
    if fmin <= 0.0 <= fmax:
        return True
    return min(abs(fmin), abs(fmax)) <= tol.residual_zero * scale


# --------------------------------------------------------------------------
# Degenerate (zero-width) bands over a range of edge lengths

def _min_positive_band_width(kind: str, l: float, tol: ToleranceConfig) -> float:
    """Smallest positive ac band width (energy units) with momenta in (0, 4].

    Point bands can only sit at k = 1 (the one momentum where the parameter
    coefficient vanishes), so the fixed window covers them with margin.
    Intervals truncated by the window top are ignored.
    """
    model = LatticeModel(kind, l)
    intervals = _ac_intervals(model, _X_FLOOR, 4.0, True, "derived", tol)
    widths = [b * b - a * a for a, b in intervals if b < 4.0 - 1e-9]
    return min(widths) if widths else math.inf


def degenerate_band_lengths(kind: str, l_window: tuple[float, float],
                            tol: ToleranceConfig = DEFAULT_TOL) -> DegenerateLengths:
    """Edge lengths in the window carrying a zero-width (point) band.

    Two independent routes: (i) the closed-form all_pass mechanism at k = 1,
    requiring cos(l) = 0 for the square lattice and cos(2l) = -1/2 for the
    hexagonal one; (ii) a scan of the narrowest-band width over the window,
    refined where a width minimum dips toward zero.  Both lists are
    returned so disagreements stay visible.
    """
    from scipy.optimize import minimize_scalar

    l_lo, l_hi = l_window
    if not (0.0 < l_lo < l_hi):
        raise ValueError("window must be positive and non-degenerate")

    closed: list[float] = []
    if kind == "square":
        base, period = [0.5 * math.pi], math.pi
    else:
        base, period = [math.pi / 3.0, 2.0 * math.pi / 3.0], math.pi
    for b in base:
        m = math.floor((l_lo - b) / period)
        cand = b + m * period
        while cand <= l_hi:
            if cand >= l_lo:
                closed.append(cand)
            cand += period
    closed.sort()

    step = min(0.02, (l_hi - l_lo) / 64.0)
    n = int(math.ceil((l_hi - l_lo) / step)) + 1
    ls = np.linspace(l_lo, l_hi, n)
    widths = np.array([_min_positive_band_width(kind, float(x), tol) for x in ls])

    scan: list[float] = []
    for i in range(n):
        w = widths[i]
        if not (w < 0.3):
            continue
        if i > 0 and widths[i - 1] < w:
            continue
        if i < n - 1 and widths[i + 1] < w:
            continue
        a = max(l_lo, ls[i] - 1.5 * step)
        b = min(l_hi, ls[i] + 1.5 * step)
        res = minimize_scalar(lambda x: _min_positive_band_width(kind, float(x), tol),
                              bounds=(a, b), method="bounded",
                              options={"xatol": 1e-10, "maxiter": 200})
        if res.fun < tol.degenerate_width:
            lstar = float(res.x)
            if not any(abs(lstar - prev) < 1e-6 for prev in scan):
                scan.append(lstar)
    scan.sort()
    return DegenerateLengths(closed_form=tuple(closed), scan=tuple(scan))


# --------------------------------------------------------------------------
# Dispersion data (band sheets over the Brillouin zone)

def dispersion_sheets(model: LatticeModel, grid_n: int, window: tuple[float, float],
                      tol: ToleranceConfig = DEFAULT_TOL) -> list[DispersionRoot]:
    """Momentum roots of the spectral condition on a Bloch-point grid.

    The condition depends on a point only through its Bloch parameter p, and
    grid points share few p values, so both conditions are solved inside the
    window once per distinct p (``_condition_roots``, momenta from 1e-6 up).
    Flat momenta are not sheet roots (the condition is nonzero there).  Output
    order is deterministic: (theta1, theta2, branch), branches sorted by energy.
    """
    if grid_n < 2:
        raise ValueError("grid must have at least 2 points per axis")
    e_lo, e_hi = window
    if not e_lo < e_hi:
        raise ValueError("window must be non-degenerate")
    # the last phase, -pi + 2 pi n / n, can round above pi
    thetas = [min(math.pi, -math.pi + 2.0 * math.pi * (i + 1) / grid_n) for i in range(grid_n)]
    points = [BlochPoint(t1, t2) for t1 in thetas for t2 in thetas]
    params = [bloch_param(model, point) for point in points]
    by_param: dict[float, list[tuple[float, float, float]]] = {p: [] for p in params}  # (E, x, residual)
    for positive, lo, hi in ((False, -e_hi, -e_lo), (True, e_lo, e_hi)):  # x^2 in [lo, hi]
        if hi > 0.0:
            x_lo = max(math.sqrt(max(lo, 0.0)), _X_FLOOR)
            for p, xs in zip(by_param, _condition_roots(model, by_param, x_lo, math.sqrt(hi), positive, tol)):
                by_param[p] += [(x * x if positive else -x * x, x, _condition_residual(model, x, p, positive))
                                for x in _dedupe(xs, tol)]
    return [DispersionRoot(point, branch, momentum, energy, residual)
            for point, p in zip(points, params)
            for branch, (energy, momentum, residual) in enumerate(sorted(by_param[p]))]


def _condition_residual(model: LatticeModel, x: float, p: float, positive: bool) -> float:
    alpha, beta = _cleared(model, x, positive)
    scale = 1.0 + abs(alpha) * max(1.0, abs(p)) + abs(beta)
    return abs(beta - alpha * p) / scale
