import math

import numpy as np
import pytest

from qglattice.lattice import (
    SECULAR_CALIBRATION,
    BlochPoint,
    LatticeModel,
    secular_determinant,
    secular_determinant_factored,
)
from qglattice.numerics import Bracket, find_root

from conftest import cofactor_det


def random_point(rng) -> BlochPoint:
    t1, t2 = rng.uniform(-math.pi, math.pi, 2)
    return BlochPoint(float(t1), float(t2))


def factored_bracket_roots(model, point, rng, k_lo=0.3, k_hi=6.0, want=1):
    """Random roots of the band-condition factor of the closed form."""
    from qglattice.lattice import _cleared_positive, bloch_param

    p = bloch_param(model, point)

    def f(k):
        alpha, beta = _cleared_positive(model, k)
        return beta - alpha * p

    ks = np.linspace(k_lo, k_hi, 4000)
    alpha, beta = _cleared_positive(model, ks)
    fv = beta - alpha * p
    idx = np.nonzero(fv[:-1] * fv[1:] < 0.0)[0]
    if len(idx) == 0:
        return []
    picks = rng.choice(idx, size=min(want, len(idx)), replace=False)
    return [find_root(f, Bracket(float(ks[i]), float(ks[i + 1]), float(fv[i]), float(fv[i + 1])))
            for i in picks]


class TestCalibration:
    @pytest.mark.parametrize("kind", ["square", "hexagonal"])
    def test_assembled_equals_calibrated_factored(self, kind, rng):
        cal = SECULAR_CALIBRATION[kind]
        for _ in range(60):
            model = LatticeModel(kind, float(rng.uniform(0.3, 3.0)))
            k = float(rng.uniform(0.05, 6.0))
            point = random_point(rng)
            a = secular_determinant(model, k, point)
            f = secular_determinant_factored(model, k, point)
            scale = max(1.0, abs(a), abs(f))
            assert abs(a - cal * f) <= 1e-10 * scale

    def test_rejects_nonpositive_momentum(self):
        model = LatticeModel("square", 1.0)
        with pytest.raises(ValueError):
            secular_determinant(model, 0.0, BlochPoint(0.1, 0.2))
        with pytest.raises(ValueError):
            secular_determinant_factored(model, -1.0, BlochPoint(0.1, 0.2))


class TestDeterminantRoute:
    @pytest.mark.parametrize("kind", ["square", "hexagonal"])
    def test_matches_cofactor_expansion(self, kind, rng):
        from qglattice.lattice import _secular_matrix_hex, _secular_matrix_square

        assemble = _secular_matrix_square if kind == "square" else _secular_matrix_hex
        for _ in range(20):
            model = LatticeModel(kind, float(rng.uniform(0.3, 3.0)))
            k = float(rng.uniform(0.05, 6.0))
            point = random_point(rng)
            m = assemble(model, k, point)
            # Hadamard's bound on |det m|, the scale of rounding in either route
            scale = float(np.prod(np.linalg.norm(m, axis=1)))
            assert abs(secular_determinant(model, k, point) - cofactor_det(m)) <= 1e-12 * scale


class TestZeroSets:
    @pytest.mark.parametrize("kind", ["square", "hexagonal"])
    def test_assembled_vanishes_at_factored_roots(self, kind, rng):
        found = 0
        while found < 100:
            model = LatticeModel(kind, float(rng.uniform(0.4, 3.0)))
            point = random_point(rng)
            for k in factored_bracket_roots(model, point, rng):
                a = secular_determinant(model, k, point)
                scale = max(1.0, abs(secular_determinant(model, k + 0.01, point)),
                            abs(secular_determinant(model, k - 0.01, point)))
                assert abs(a) < 1e-8 * scale
                found += 1

    def test_square_flat_momenta_are_roots_for_any_phase(self, rng):
        l = 1.7
        model = LatticeModel("square", l)
        for m in (1, 2, 5):
            k = math.pi * m / l
            for _ in range(5):
                point = random_point(rng)
                a = secular_determinant(model, k, point)
                scale = max(1.0, abs(secular_determinant(model, k + 0.01, point)))
                assert abs(a) < 1e-10 * scale

    def test_hexagonal_flat_momenta_are_roots(self, rng):
        l = 0.9
        model = LatticeModel("hexagonal", l)
        for m in (1, 3):
            k = math.pi * m / l
            point = random_point(rng)
            a = secular_determinant(model, k, point)
            scale = max(1.0, abs(secular_determinant(model, k + 0.01, point)))
            assert abs(a) < 1e-10 * scale
