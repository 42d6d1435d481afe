"""Independent reference for the dispersion-sheet roots of the seed code.

The seed's ``dispersion_sheets`` scans the cleared spectral condition
f_p(x) = beta(x) - alpha(x) * p on a fixed momentum grid for every Bloch
point and refines each sign change.  This module rebuilds the same grid and
the same sign-change rule, but evaluates one (distinct p x grid) matrix and
bisects all brackets together to full float resolution.  It shares no code
with the library, so it can say which roots the seed found for any seeded
input without storing per-seed goldens.

Only numpy and the standard library are used.
"""
from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)
X_FLOOR = 1e-6
COSH_CAP = 700.0
ROOT_ABS = 1e-12
SCAN_DENSITY = 16
LADDER = tuple(10.0 ** (-p) for p in range(2, 16))


def bloch_thetas(grid_n: int) -> list[float]:
    return [-math.pi + 2.0 * math.pi * (i + 1) / grid_n for i in range(grid_n)]


def bloch_value(kind: str, t1: float, t2: float) -> float:
    if kind == "square":
        return math.cos(0.5 * (t1 + t2)) * math.cos(0.5 * (t1 - t2))
    return math.cos(t1) + math.cos(t1 - t2) + math.cos(t2)


def _cleared(kind: str, l: float, x: np.ndarray, positive: bool):
    x2 = x * x
    if positive:
        if kind == "square":
            return 1.0 - x2, (1.0 + x2) * np.cos(x * l)
        return 4.0 * (x2 - 1.0), x2 * x2 - 6.0 * x2 - 3.0 - (x2 + 3.0) ** 2 * np.cos(2.0 * x * l)
    arg = x * l if kind == "square" else 2.0 * x * l
    ch = np.full_like(arg, np.inf)
    ok = arg < COSH_CAP
    ch[ok] = np.cosh(arg[ok])
    if kind == "square":
        return 1.0 + x2, (1.0 - x2) * ch
    return 4.0 * (x2 + 1.0), (x2 - 3.0) ** 2 * ch - x2 * x2 - 6.0 * x2 + 3.0


def scan_grid(kind: str, l: float, x_lo: float, x_hi: float, positive: bool) -> np.ndarray:
    """The seed's scan grid: uniform oscillation-resolving points plus anchors."""
    osc = 1.0 if kind == "square" else 2.0
    step = math.pi / (SCAN_DENSITY * osc * l)
    n = max(64, int(math.ceil((x_hi - x_lo) / step)) + 1)
    xs = [np.linspace(x_lo, x_hi, n)]
    singular = [1.0] if kind == "square" else [1.0, SQRT3]
    anchors = list(singular)
    for a in singular:
        anchors.extend(a * (1.0 + eps) for eps in LADDER)
        anchors.extend(a * (1.0 - eps) for eps in LADDER)
    if positive:
        m = max(1, int(math.floor(x_lo * l / math.pi)))
        while m * math.pi / l < x_hi:
            anchors.append(m * math.pi / l)
            m += 1
    inside = [a for a in anchors if x_lo < a < x_hi]
    if inside:
        xs.append(np.asarray(inside))
    return np.unique(np.concatenate(xs))


def condition_roots(kind: str, l: float, params: np.ndarray, x_lo: float, x_hi: float,
                    positive: bool) -> list[list[float]]:
    """Sorted, deduplicated roots of f_p on [x_lo, x_hi] for every p in ``params``."""
    out: list[list[float]] = [[] for _ in params]
    if not x_lo < x_hi:
        return out
    x_lo = max(x_lo, X_FLOOR)
    grid = scan_grid(kind, l, x_lo, x_hi, positive)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, beta = _cleared(kind, l, grid, positive)
        fv = beta[None, :] - alpha[None, :] * params[:, None]
    a, b = fv[:, :-1], fv[:, 1:]
    finite = np.isfinite(a) & np.isfinite(b)
    on_grid = finite & (a == 0.0)
    cross = finite & ~on_grid & (((a < 0.0) & (b > 0.0)) | ((b < 0.0) & (a > 0.0)))
    rows, cols = np.nonzero(cross)
    lo, hi = grid[cols].copy(), grid[cols + 1].copy()
    f_lo = a[rows, cols]
    p = params[rows]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        active = (mid > lo) & (mid < hi)
        if not active.any():
            break
        with np.errstate(over="ignore", invalid="ignore"):
            al, be = _cleared(kind, l, mid, positive)
        fm = be - al * p
        same = (fm > 0.0) == (f_lo > 0.0)
        exact = fm == 0.0
        lo = np.where(active & same & ~exact, mid, lo)
        f_lo = np.where(active & same & ~exact, fm, f_lo)
        hi = np.where(active & (~same | exact), mid, hi)
        lo = np.where(exact, mid, lo)
    found = 0.5 * (lo + hi)
    for r, x in zip(rows.tolist(), found.tolist()):
        out[r].append(x)
    for r, c in zip(*np.nonzero(on_grid)):
        out[int(r)].append(float(grid[c]))
    last = fv[:, -1] == 0.0
    for r in np.nonzero(last)[0]:
        out[int(r)].append(float(grid[-1]))
    for i, roots in enumerate(out):
        deduped: list[float] = []
        for x in sorted(roots):
            if not deduped or x - deduped[-1] > 4.0 * ROOT_ABS * max(1.0, abs(x)):
                deduped.append(x)
        out[i] = deduped
    return out


def sheet_roots(kind: str, l: float, grid_n: int, window: tuple[float, float]):
    """Reference roots per Bloch point: {(theta1, theta2): [(positive, momentum), ...]}."""
    e_lo, e_hi = window
    thetas = bloch_thetas(grid_n)
    point_p = {(t1, t2): bloch_value(kind, t1, t2) for t1 in thetas for t2 in thetas}
    distinct = sorted(set(point_p.values()))
    params = np.asarray(distinct)
    by_p: dict[float, list[tuple[bool, float]]] = {p: [] for p in distinct}
    if e_lo < 0.0:
        kap_lo = math.sqrt(-e_hi) if e_hi < 0.0 else X_FLOOR
        for p, roots in zip(distinct, condition_roots(kind, l, params, kap_lo,
                                                      math.sqrt(-e_lo), False)):
            by_p[p].extend((False, x) for x in roots)
    if e_hi > 0.0:
        k_lo = math.sqrt(e_lo) if e_lo > 0.0 else X_FLOOR
        for p, roots in zip(distinct, condition_roots(kind, l, params, k_lo,
                                                      math.sqrt(e_hi), True)):
            by_p[p].extend((True, x) for x in roots)
    return {pt: by_p[p] for pt, p in point_p.items()}


def next_to_unscanned_feature(kind: str, l: float, window: tuple[float, float], energy: float,
                              p_lo: float, p_hi: float) -> bool:
    """True when the band or gap holding ``energy``, or one next to it, holds
    no point of the seed's scan grid for ``band_structure(window)``.

    The seed finds band edges only as sign changes between scan points, so it
    misses both edges of such a feature; it then classifies the cell between
    the cuts it does find at the cell's midpoint, which can land in the
    missed feature.  Bands and gaps are traced with the Bloch-parameter range
    [p_lo, p_hi] on a grid 256 times finer than the scan step, at most 64
    scan steps from ``energy``.
    """
    positive = energy > 0.0
    osc = 1.0 if kind == "square" else 2.0
    h = math.pi / (SCAN_DENSITY * osc * l) / 256.0
    end = window[1] if positive else -window[0]
    grid = scan_grid(kind, l, X_FLOOR, math.sqrt(end), positive)

    def edge(x0: float, direction: float, steps: int):
        """(last fine point with x0's membership, first one without), or None."""
        xs = x0 + direction * h * np.arange(steps * 256 + 1)
        xs = xs[xs > 0.0]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            alpha, beta = _cleared(kind, l, xs, positive)
            v = beta / alpha
        member = (p_lo <= v) & (v <= p_hi)
        change = np.nonzero(member != member[0])[0]
        if not change.size:
            return None
        i = int(change[0])
        return float(xs[i - 1]), float(xs[i])

    def unscanned(a: float, b: float) -> bool:
        lo, hi = min(a, b), max(a, b)
        i = int(np.searchsorted(grid, lo))
        return not (i < grid.size and grid[i] <= hi)

    x = math.sqrt(abs(energy))
    ends = [edge(x, direction, 64) for direction in (-1.0, 1.0)]
    if None not in ends and unscanned(ends[0][0], ends[1][0]):
        return True
    for direction, found in zip((-1.0, 1.0), ends):
        if found is not None:
            beyond = edge(found[1], direction, 1)
            if beyond is not None and unscanned(found[1], beyond[0]):
                return True
    return False
