"""The two-point Brillouin oracle against its full-sample evaluation."""
import math
from functools import lru_cache

import numpy as np
import pytest

from qglattice.lattice import LatticeModel, brillouin_membership_oracle
from qglattice.numerics import DEFAULT_TOL


@lru_cache(maxsize=8)
def torus_params(kind: str, grid_n: int) -> np.ndarray:
    """Every Bloch parameter on the grid_n^2 torus grid, plus the exact extrema."""
    th = -np.pi + 2.0 * np.pi * np.arange(1, grid_n + 1) / grid_n
    c, s = np.cos(th), np.sin(th)
    if kind == "square":
        vals = 0.5 * (c[:, None] + c[None, :])
        extra = np.array([1.0, -1.0, 0.0])
    else:
        vals = c[:, None] + c[None, :] + (np.outer(c, c) + np.outer(s, s))
        extra = np.array([3.0, -1.5, -1.0])
    return np.concatenate([vals.ravel(), extra])


def _cosh_sat(x: float) -> float:
    return math.cosh(x) if x < 700.0 else math.inf


def _flat(l: float, e: float) -> bool:
    if e < 0.0:
        return False
    kl = math.sqrt(e) * l
    return abs(kl - round(kl / math.pi) * math.pi) <= 1e-9 * max(1.0, kl)


def sampled_oracle(model: LatticeModel, e: float, grid_n: int, tol=DEFAULT_TOL) -> bool:
    """Membership from the raw condition at every sampled Bloch parameter.

    True when the condition changes sign over the samples or its smallest
    magnitude falls below residual_zero times its scale; NaN samples are
    dropped and +-inf keeps its sign.
    """
    if e == 0.0 or _flat(model.edge_length, e):
        return True
    l = model.edge_length
    params = torus_params(model.kind, grid_n)
    x = math.sqrt(abs(e))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if model.kind == "square":
            if e > 0.0:
                coef = (1.0 - x * x) / (1.0 + x * x)
                f = math.cos(x * l) - coef * params
            else:
                coef = (1.0 + x * x) / (1.0 - x * x) if x != 1.0 else math.inf
                f = _cosh_sat(x * l) - coef * params
            scale = 1.0 + abs(coef) if math.isfinite(coef) else 1.0
        else:
            k2 = x * x
            if e > 0.0:
                f = math.cos(2.0 * x * l) - (k2 * k2 - 6.0 * k2 - 3.0 - 4.0 * params * (k2 - 1.0)) / (k2 + 3.0) ** 2
                scale = 1.0 + 4.0 * abs(k2 - 1.0) / (k2 + 3.0) ** 2 * 3.0
            else:
                denom = (k2 - 3.0) ** 2
                f = _cosh_sat(2.0 * x * l) - (k2 * k2 + 6.0 * k2 - 3.0 + 4.0 * params * (k2 + 1.0)) / denom
                coef = 4.0 * (k2 + 1.0) / denom if denom > 0.0 else math.inf
                scale = 1.0 + 3.0 * coef if math.isfinite(coef) else 1.0
    f = f[~np.isnan(f)]
    if f.size == 0:
        return False
    fmin, fmax = float(np.min(f)), float(np.max(f))
    if fmin <= 0.0 <= fmax:
        return True
    return min(abs(fmin), abs(fmax)) <= tol.residual_zero * scale


def survey(seed: int, n: int):
    """Seeded probes: both kinds, l log-uniform in (0.05, 800) so that cosh
    saturates, E uniform in (-40, 60) or at -1, -3, 1, 3 with offsets 0,
    +-1e-12 and +-1e-9, grids 64, 96 and (for one probe in sixteen, since
    a full evaluation there costs 4 ms) 512."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        kind = ("square", "hexagonal")[i % 2]
        l = float(np.exp(rng.uniform(math.log(0.05), math.log(800.0))))
        if i % 4 < 2:
            e = float(rng.uniform(-40.0, 60.0))
        else:
            e = float(rng.choice([-1.0, -3.0, 1.0, 3.0])) + float(rng.choice([0.0, 1e-12, -1e-12, 1e-9, -1e-9]))
        yield LatticeModel(kind, l), e, int(rng.choice([64, 96, 512], p=[0.47, 0.4675, 0.0625]))


def test_two_point_oracle_equals_sampled_oracle():
    probes = list(survey(20261019, 5400))
    differ = [(m.kind, m.edge_length, e, g) for m, e, g in probes
              if brillouin_membership_oracle(m, e, g) != sampled_oracle(m, e, g)]
    assert not differ, differ[:5]
    # the survey reaches the saturated-cosh and both-answer cases it is meant to cover
    assert any(m.edge_length * math.sqrt(abs(e)) >= 700.0 for m, e, _ in probes if e < 0.0)
    assert {brillouin_membership_oracle(m, e, g) for m, e, g in probes[:200]} == {True, False}


@pytest.mark.parametrize("kind", ["square", "hexagonal"])
@pytest.mark.parametrize("e", [-3.0, -1.0, 1.0, 3.0])
def test_singular_energies_equal_sampled_oracle(kind, e):
    for l in (0.3, 2.0, 29.0, 750.0):
        model = LatticeModel(kind, l)
        assert brillouin_membership_oracle(model, e) == sampled_oracle(model, e, 512)
