import math

import pytest

from qglattice.numerics import DEFAULT_TOL, Bracket, find_root
from qglattice.star import bound_states


def spectral_polynomial(n: int, kappa: float) -> float:
    """Real-valued reduction of the bound-state condition at decay rate kappa.

    (kappa - i)^N + (-1)^(N-1) (kappa + i)^N is purely real for odd N and
    purely imaginary for even N; the corresponding real component is
    returned so roots can be bracketed on the real line.  It overflows once
    (1 + kappa^2)^(N/2) leaves float range, from N = 155 on.
    """
    if n < 3:
        raise ValueError("degree must be at least 3")
    z = complex(kappa, 1.0) ** n
    return 2.0 * (z.real if n % 2 == 1 else z.imag)


def polynomial_roots(n):
    """Oracle: the positive roots of the spectral polynomial, each found by
    bracketed root search between the half-points tan(pi (m -+ 1/2) / n)."""
    roots = []
    for m in range(1, (n - 1) // 2 + 1 if n % 2 == 1 else n // 2):
        closed = math.tan(math.pi * m / n)
        lo = math.tan(math.pi * (m - 0.5) / n)
        # for odd n the last upper half-point sits on the tan pole; any point
        # past the last root keeps the alternating sign
        hi = math.tan(math.pi * (m + 0.5) / n) if 2 * m + 1 < n else closed + 1.0
        bracket = Bracket(lo, hi, spectral_polynomial(n, lo), spectral_polynomial(n, hi))
        roots.append(find_root(lambda x: spectral_polynomial(n, x), bracket, DEFAULT_TOL))
    return roots


class TestSpectralPolynomial:
    def test_root_at_sqrt3_for_degree3(self):
        assert abs(spectral_polynomial(3, math.sqrt(3.0))) < 1e-12

    def test_value_at_one_for_degree3(self):
        # (1-i)^3 + (1+i)^3 = -4
        assert spectral_polynomial(3, 1.0) == pytest.approx(-4.0, abs=1e-12)

    def test_root_at_one_for_degree4(self):
        assert abs(spectral_polynomial(4, 1.0)) < 1e-12

    def test_rejects_small_degree(self):
        with pytest.raises(ValueError):
            spectral_polynomial(2, 1.0)


class TestBoundStates:
    def test_degree3(self):
        assert bound_states(3).energies == pytest.approx((-3.0,), abs=1e-10)

    def test_degree4(self):
        assert bound_states(4).energies == pytest.approx((-1.0,), abs=1e-10)

    def test_degree5(self):
        expected = (-(5.0 - 2.0 * math.sqrt(5.0)), -(5.0 + 2.0 * math.sqrt(5.0)))
        got = sorted(bound_states(5).energies)
        assert got == pytest.approx(sorted(expected), abs=1e-10)

    def test_degree6(self):
        got = sorted(bound_states(6).energies)
        assert got == pytest.approx([-3.0, -1.0 / 3.0], abs=1e-10)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_count_law(self, n):
        expected = (n - 1) // 2 if n % 2 == 1 else n // 2 - 1
        spectrum = bound_states(n)
        assert len(spectrum.kappas) == expected
        assert len(spectrum.energies) == expected

    @pytest.mark.parametrize("n", range(3, 21))
    def test_never_empty_and_sorted(self, n):
        spectrum = bound_states(n)
        assert len(spectrum.kappas) >= 1
        assert list(spectrum.kappas) == sorted(spectrum.kappas)
        assert all(k > 0.0 for k in spectrum.kappas)

    @pytest.mark.parametrize("n", range(3, 21))
    def test_kappas_satisfy_polynomial(self, n):
        for kappa in bound_states(n).kappas:
            scale = 2.0 * (1.0 + kappa * kappa) ** (n / 2.0)
            assert abs(spectral_polynomial(n, kappa)) <= 1e-10 * scale

    def test_energies_match_kappas(self):
        spectrum = bound_states(7)
        for kappa, energy in zip(spectrum.kappas, spectrum.energies):
            assert energy == -kappa * kappa

    def test_rejects_degree_two(self):
        with pytest.raises(ValueError):
            bound_states(2)

    @pytest.mark.parametrize("n", [3, 4, 7, 40, 154])
    def test_matches_polynomial_root_oracle(self, n):
        kappas = bound_states(n).kappas
        roots = polynomial_roots(n)
        assert len(kappas) == len(roots)
        for kappa, root in zip(kappas, roots):
            assert abs(kappa - root) <= 1e-10

    @pytest.mark.parametrize("n,count", [(155, 77), (1000, 499)])
    def test_closed_form_past_polynomial_overflow(self, n, count):
        # the polynomial overflows a float from n = 155 on; the closed form does not
        spectrum = bound_states(n)
        assert len(spectrum.kappas) == count
        assert spectrum.kappas == tuple(math.tan(math.pi * m / n) for m in range(1, count + 1))
        assert list(spectrum.kappas) == sorted(spectrum.kappas)
