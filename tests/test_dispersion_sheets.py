"""dispersion_sheets against an independent dense scan at every Bloch point."""
import math

import numpy as np
import pytest

from qglattice.lattice import LatticeModel, bloch_param, dispersion_sheets
from qglattice.numerics import DEFAULT_TOL

X_FLOOR = 1e-6  # the library scans momenta from here when a window touches E = 0
DENSE_POINTS = 400_001


def condition(kind: str, l: float, x: np.ndarray, p: float, positive: bool) -> np.ndarray:
    """The paper's spectral conditions, denominators cleared, as beta - alpha * p."""
    x2 = x * x
    if kind == "square":
        if positive:
            return (1.0 + x2) * np.cos(x * l) - (1.0 - x2) * p
        return (1.0 - x2) * np.cosh(x * l) - (1.0 + x2) * p
    if positive:
        return x2 * x2 - 6.0 * x2 - 3.0 - (x2 + 3.0) ** 2 * np.cos(2.0 * x * l) - 4.0 * (x2 - 1.0) * p
    return (x2 - 3.0) ** 2 * np.cosh(2.0 * x * l) - x2 * x2 - 6.0 * x2 + 3.0 - 4.0 * (x2 + 1.0) * p


def dense_roots(kind: str, l: float, p: float, x_lo: float, x_hi: float, positive: bool) -> list[float]:
    """Sign changes on a dense uniform grid, each bisected to float resolution."""
    xs = np.linspace(x_lo, x_hi, DENSE_POINTS)
    fv = condition(kind, l, xs, p, positive)
    idx = np.nonzero(np.sign(fv[:-1]) * np.sign(fv[1:]) < 0.0)[0]
    lo, hi, f_lo = xs[idx], xs[idx + 1], fv[idx]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        same = np.sign(condition(kind, l, mid, p, positive)) == np.sign(f_lo)
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return (0.5 * (lo + hi)).tolist()


@pytest.mark.parametrize("kind,l,grid_n", [
    ("square", 1.3, 6),
    ("square", 0.8, 5),
    ("hexagonal", 0.9, 6),
    ("hexagonal", 1.7, 5),
])
def test_roots_match_dense_scan_at_every_point(kind, l, grid_n):
    model = LatticeModel(kind, l)
    e_lo, e_hi = -9.0, 16.0  # both sides of E = 0
    roots = dispersion_sheets(model, grid_n, (e_lo, e_hi))
    got: dict[tuple[float, float], list] = {}
    for r in roots:
        got.setdefault((r.point.theta1, r.point.theta2), []).append(r)

    thetas = [min(math.pi, -math.pi + 2.0 * math.pi * (i + 1) / grid_n) for i in range(grid_n)]
    params = {}
    for t1 in thetas:
        for t2 in thetas:
            params[(t1, t2)] = math.cos(0.5 * (t1 + t2)) * math.cos(0.5 * (t1 - t2)) if kind == "square" \
                else math.cos(t1) + math.cos(t1 - t2) + math.cos(t2)
    assert len(set(params.values())) < len(params)  # the grid repeats Bloch parameters

    expected_by_p = {}  # (energy, momentum) pairs sorted by energy
    for p in set(params.values()):
        negative = [(-x * x, x) for x in dense_roots(kind, l, p, X_FLOOR, math.sqrt(-e_lo), False)]
        positive = [(x * x, x) for x in dense_roots(kind, l, p, X_FLOOR, math.sqrt(e_hi), True)]
        expected_by_p[p] = sorted(negative + positive)

    for (t1, t2), p in params.items():
        expected = expected_by_p[p]
        have = got.get((t1, t2), [])
        assert [r.branch for r in have] == list(range(len(have)))
        assert len(have) == len(expected), (t1, t2, [r.energy for r in have], expected)
        for r, (e, x) in zip(have, expected):
            assert bloch_param(model, r.point) == pytest.approx(p, abs=1e-15)
            assert abs(r.momentum - x) <= 4.0 * DEFAULT_TOL.root_abs * max(1.0, x)
            assert r.energy == (1.0 if e > 0.0 else -1.0) * r.momentum * r.momentum
            assert r.residual < 1e-10


def test_near_tangent_root_within_root_abs():
    # At l = 2 the k^2 term of the square condition at p = 1 vanishes, so near
    # l = 2 the small root sits where the condition is nearly tangent and
    # rounding scatters exact zeros over about 3e-12 in momentum.  The
    # reference is the root at theta = (0, 0) to 50 digits (mpmath 1.3.0).
    l = 1.999245194081865
    exact = 0.033659745075527629
    model = LatticeModel("square", l)
    roots = dispersion_sheets(model, 28, (-14.494744127188433, 14.494744127188433))
    at_origin = [r for r in roots if r.point.theta1 == 0.0 and r.point.theta2 == 0.0]
    assert at_origin[0].energy > 0.0
    assert abs(at_origin[0].momentum - exact) <= DEFAULT_TOL.root_abs
