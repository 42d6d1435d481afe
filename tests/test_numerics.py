import math

import numpy as np
import pytest

from qglattice.numerics import (
    Bracket,
    DEFAULT_TOL,
    ToleranceConfig,
    find_root,
)


def _bracket(f, lo, hi):
    return Bracket(lo, hi, f(lo), f(hi))


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.root_abs == 1e-12
        assert tol.residual_zero == 1e-9
        assert tol.degenerate_width == 1e-8
        assert tol.scan_density == 16

    @pytest.mark.parametrize("kw", [
        {"root_abs": 0.0},
        {"residual_zero": -1e-9},
        {"degenerate_width": 0.0},
        {"scan_density": 3},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            ToleranceConfig(**kw)


class TestBracket:
    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            Bracket(2.0, 1.0, -1.0, 1.0)

    def test_rejects_same_sign(self):
        with pytest.raises(ValueError):
            Bracket(1.0, 2.0, 1.0, 2.0)

    def test_accepts_zero_endpoint(self):
        Bracket(1.0, 2.0, 0.0, 5.0)


class TestFindRoot:
    def test_sqrt_two(self):
        f = lambda x: x * x - 2.0
        root = find_root(f, _bracket(f, 1.0, 2.0))
        assert abs(root - math.sqrt(2.0)) <= 1e-12

    def test_half_pi(self):
        root = find_root(math.cos, _bracket(math.cos, 1.0, 2.0))
        assert abs(root - 0.5 * math.pi) <= 1e-12

    def test_cosh_edge_against_dense_scan_oracle(self):
        # edge equation of the exponentially narrow negative band at l = 10
        f = lambda k: (1.0 - k * k) * math.cosh(10.0 * k) - (1.0 + k * k)
        root = find_root(f, _bracket(f, 0.99, 1.0))

        xs = np.linspace(0.99, 1.0, 1_000_000)
        fs = (1.0 - xs**2) * np.cosh(10.0 * xs) - (1.0 + xs**2)
        idx = int(np.nonzero(np.diff(np.sign(fs)))[0][0])
        x0, x1 = xs[idx], xs[idx + 1]
        f0, f1 = fs[idx], fs[idx + 1]
        oracle = x0 - f0 * (x1 - x0) / (f1 - f0)
        assert abs(root - oracle) <= 1e-10

    def test_residual_bounded_by_local_slope(self):
        f = lambda x: math.sin(x) - 0.3
        root = find_root(f, _bracket(f, 0.0, 1.0))
        slope = abs(f(root + 1e-6) - f(root - 1e-6)) / 2e-6
        assert abs(f(root)) <= 4.0 * slope * DEFAULT_TOL.root_abs

    def test_endpoint_zero_short_circuits(self):
        f = lambda x: x - 1.0
        assert find_root(f, Bracket(1.0, 2.0, 0.0, 1.0)) == 1.0
