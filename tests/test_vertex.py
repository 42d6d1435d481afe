import numpy as np
import pytest

from qglattice.vertex import (
    boundary_pair,
    cyclic_coupling,
    energy_limit,
    s_matrix,
    s_matrix_closed_form,
)

from conftest import elimination_rank


def eta_form(n, k):
    """Oracle: S entry by entry, with eta = (1 - k) / (1 + k).

    The diagonal is -eta (1 - eta^(n-2)) / (1 - eta^n) and entry (i, j),
    i != j, is (1 - eta^2) eta^((j-i-1) mod n) / (1 - eta^n).  |eta| < 1 for
    k in (0, inf), so this is regular, but it loses digits as |eta| -> 1.
    """
    eta = (1.0 - k) / (1.0 + k)
    denom = 1.0 - eta**n
    s = np.empty((n, n), dtype=complex)
    diag = -eta * (1.0 - eta ** (n - 2)) / denom
    off = (1.0 - eta**2) / denom
    for i in range(n):
        for j in range(n):
            s[i, j] = diag if i == j else off * eta ** ((j - i - 1) % n)
    return s


# First column S[:, 0] (S is real) at the float momenta below, evaluated to
# 50 digits with mpmath 1.3.0 from the eta form and from an LU solve of the
# rational form (the two agree to 4e-39), printed to 22 digits.
FIFTY_DIGIT_FIRST_COLUMN = {
    3: {
        1e-12: (-0.3333333333333333333333, 0.666666666666, 0.6666666666673333333333),
        1e-8: (-0.3333333333333332888889, 0.6666666599999999777778, 0.6666666733333333111111),
        1e8: (0.9999999999999996, -1.9999999799999994e-8, 2.0000000199999994e-8),
        1e12: (1.0, -1.999999999998e-12, 2.000000000002e-12),
        1e14: (1.0, -1.99999999999998e-14, 2.00000000000002e-14),
    },
    4: {
        1e-12: (-0.5, 0.499999999999, 0.5, 0.500000000001),
        1e-8: (-0.4999999999999999, 0.49999999, 0.4999999999999999, 0.50000001),
        1e8: (0.4999999999999999, 0.49999999, -0.4999999999999999, 0.50000001),
        1e12: (0.5, 0.499999999999, -0.5, 0.500000000001),
        1e14: (0.5, 0.49999999999999, -0.5, 0.50000000000001),
    },
    5: {
        1e-12: (-0.6, 0.3999999999988, 0.3999999999996, 0.4000000000004, 0.4000000000012),
        1e-8: (-0.59999999999999984, 0.39999998800000004, 0.39999999599999988, 0.40000000399999988, 0.40000001200000004),
        1e8: (0.9999999999999992, -1.9999999399999986e-8, 1.9999999799999978e-8, -2.0000000199999978e-8, 2.0000000599999986e-8),
        1e12: (1.0, -1.999999999994e-12, 1.999999999998e-12, -2.000000000002e-12, 2.000000000006e-12),
        1e14: (1.0, -1.99999999999994e-14, 1.99999999999998e-14, -2.00000000000002e-14, 2.00000000000006e-14),
    },
    6: {
        1e-12: (-0.6666666666666666666667, 0.333333333332, 0.3333333333326666666667, 0.3333333333333333333333, 0.333333333334, 0.3333333333346666666667),
        1e-8: (-0.6666666666666664444444, 0.3333333200000000888889, 0.3333333266666665555556, 0.3333333333333331555556, 0.3333333399999998888889, 0.3333333466666667555556),
        1e8: (0.6666666666666664444444, 0.3333333200000000888889, -0.3333333266666665555556, 0.3333333333333331555556, -0.3333333399999998888889, 0.3333333466666667555556),
        1e12: (0.6666666666666666666667, 0.333333333332, -0.3333333333326666666667, 0.3333333333333333333333, -0.333333333334, 0.3333333333346666666667),
        1e14: (0.6666666666666666666667, 0.33333333333332, -0.3333333333333266666667, 0.3333333333333333333333, -0.33333333333334, 0.3333333333333466666667),
    },
}

# the degree-3 scattering matrix at k = 3 (eta = -1/2), entry by entry
S3_AT_K3 = np.array([
    [2.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0],
    [-1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0],
    [2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0],
])

HIGH_LIMIT_N4 = 0.5 * np.array([
    [1, 1, -1, 1],
    [1, 1, 1, -1],
    [-1, 1, 1, 1],
    [1, -1, 1, 1],
], dtype=float)

LOW_LIMIT_N4 = 0.5 * np.array([
    [-1, 1, 1, 1],
    [1, -1, 1, 1],
    [1, 1, -1, 1],
    [1, 1, 1, -1],
], dtype=float)


class TestCyclicCoupling:
    def test_degree_three_matrix(self):
        u = cyclic_coupling(3).u
        assert np.array_equal(u.real, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
        assert np.all(u.imag == 0.0)

    def test_degree_five_permutation_action(self):
        u = cyclic_coupling(5).u
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.allclose(u @ v, [2.0, 3.0, 4.0, 5.0, 1.0])

    def test_rejects_degree_two(self):
        with pytest.raises(ValueError):
            cyclic_coupling(2)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_unitary(self, n):
        u = cyclic_coupling(n).u
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12


class TestBoundaryPair:
    def test_first_row_is_the_matching_condition(self):
        # row k=1 of a Psi + b Psi' = 0 must read
        # (psi_2 - psi_1) + i (psi'_2 + psi'_1) = 0
        pair = boundary_pair(cyclic_coupling(3))
        assert np.allclose(pair.a[0], [-1.0, 1.0, 0.0])
        assert np.allclose(pair.b[0], [1j, 1j, 0.0])

    @pytest.mark.parametrize("n", range(3, 7))
    def test_stacked_block_has_full_rank(self, n):
        pair = boundary_pair(cyclic_coupling(n))
        block = np.hstack([pair.a, pair.b])
        assert elimination_rank(block) == n

    def test_a_star_b_hermitian(self):
        pair = boundary_pair(cyclic_coupling(4))
        m = pair.a.conj().T @ pair.b
        assert np.max(np.abs(m - m.conj().T)) < 1e-12


class TestSMatrix:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_k_one_is_the_coupling_matrix(self, n):
        c = cyclic_coupling(n)
        assert np.array_equal(s_matrix(c, 1.0).s, c.u)

    def test_degree3_k3_golden(self):
        sm = s_matrix(cyclic_coupling(3), 3.0)
        assert np.max(np.abs(sm.s - S3_AT_K3)) < 1e-12

    def test_low_momentum_approaches_projection_form(self):
        sm = s_matrix(cyclic_coupling(3), 1e-6)
        target = (np.full((3, 3), 2.0) - 3.0 * np.eye(3)) / 3.0
        assert np.max(np.abs(sm.s - target)) < 1e-5

    def test_rejects_nonpositive_momentum(self):
        with pytest.raises(ValueError):
            s_matrix(cyclic_coupling(3), 0.0)

    def test_unitarity_random(self, rng):
        for _ in range(40):
            n = int(rng.integers(3, 9))
            k = float(rng.uniform(1e-3, 100.0))
            sm = s_matrix(cyclic_coupling(n), k)
            assert sm.unitarity_residual() < 1e-10

    def test_commutes_with_coupling(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            k = float(rng.uniform(0.01, 50.0))
            c = cyclic_coupling(n)
            s = s_matrix(c, k).s
            assert np.max(np.abs(s @ c.u - c.u @ s)) < 1e-10

    def test_circulant_structure(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            k = float(rng.uniform(0.01, 50.0))
            s = s_matrix(cyclic_coupling(n), k).s
            for i in range(n):
                for j in range(n):
                    assert abs(s[i, j] - s[(i + 1) % n, (j + 1) % n]) < 1e-12

    def test_constant_vector_is_fixed(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 9))
            k = float(rng.uniform(1e-6, 100.0))
            s = s_matrix(cyclic_coupling(n), k).s
            ones = np.ones(n)
            assert np.max(np.abs(s @ ones - ones)) < 1e-10

    def test_naive_low_energy_limit_fails_on_constant_vector(self):
        # the constant vector keeps eigenvalue +1 all the way down, so the
        # formal limit -I is wrong as a matrix statement
        s = s_matrix(cyclic_coupling(4), 1e-6).s
        ones = np.ones(4)
        assert np.max(np.abs(s @ ones - (-ones))) >= 1.0

    @pytest.mark.parametrize("n", range(3, 9))
    def test_reversion_symmetry_is_broken(self, n):
        r = np.eye(n)[::-1]
        s = s_matrix(cyclic_coupling(n), 1.0).s
        assert np.max(np.abs(r @ s @ r - s)) >= 1.0


class TestClosedForm:
    def test_degree4_row_is_cyclic_in_eta_powers(self):
        k = 2.0
        eta = (1.0 - k) / (1.0 + k)
        s = s_matrix_closed_form(4, k).s
        pref = 1.0 / (1.0 + eta * eta)
        row = pref * np.array([-eta, 1.0, eta, eta * eta])
        for i in range(4):
            assert np.allclose(s[i], np.roll(row, i), atol=1e-14)

    def test_degree3_diagonal_at_k3(self):
        s = s_matrix_closed_form(3, 3.0).s
        eta = -0.5
        expected = -eta * (1.0 - eta) / (1.0 - eta**3)
        assert abs(s[0, 0] - expected) < 1e-15
        assert abs(expected - 2.0 / 3.0) < 1e-15

    def test_matches_inverse_form_degree5(self):
        a = s_matrix_closed_form(5, 2.0).s
        b = s_matrix(cyclic_coupling(5), 2.0).s
        assert np.max(np.abs(a - b)) < 1e-12

    def test_matches_inverse_form_everywhere(self, rng):
        for n in range(3, 9):
            c = cyclic_coupling(n)
            for k in rng.uniform(1e-3, 100.0, size=100):
                a = s_matrix_closed_form(n, float(k)).s
                b = s_matrix(c, float(k)).s
                assert np.max(np.abs(a - b)) < 1e-10


class TestEigenvalueRoute:
    @pytest.mark.parametrize("n,k", [(n, k) for n, col in FIFTY_DIGIT_FIRST_COLUMN.items()
                                     for k in col])
    def test_matches_fifty_digit_table(self, n, k):
        s = s_matrix_closed_form(n, k).s
        assert np.max(np.abs(s[:, 0] - np.array(FIFTY_DIGIT_FIRST_COLUMN[n][k]))) <= 1e-15

    @pytest.mark.parametrize("n", range(3, 9))
    def test_unitary_over_all_momenta(self, n):
        for k in np.logspace(-12, 14, 53):
            assert s_matrix_closed_form(n, float(k)).unitarity_residual() <= 1e-15

    @pytest.mark.parametrize("n,count", [(40, 53), (41, 53), (1000, 6)])
    def test_unitary_at_large_degree(self, n, count):
        for k in np.logspace(-12, 14, count):
            assert s_matrix_closed_form(n, float(k)).unitarity_residual() <= 1e-14

    def test_matches_eta_oracle(self, rng):
        for n in range(3, 9):
            for k in rng.uniform(1e-3, 100.0, size=50):
                a = s_matrix_closed_form(n, float(k)).s
                assert np.max(np.abs(a - eta_form(n, float(k)))) < 1e-10

    @pytest.mark.parametrize("n", range(3, 9))
    def test_k_one_is_the_coupling_matrix(self, n):
        assert np.array_equal(s_matrix_closed_form(n, 1.0).s, cyclic_coupling(n).u)

    @pytest.mark.parametrize("n", [3, 4, 7, 8, 41])
    def test_extreme_momenta_reach_the_energy_limits(self, n):
        high = s_matrix_closed_form(n, 1e20).s
        low = s_matrix_closed_form(n, 1e-20).s
        assert np.max(np.abs(high - energy_limit(n, "high"))) < 1e-15
        assert np.max(np.abs(low - energy_limit(n, "low"))) < 1e-15

    @pytest.mark.parametrize("k", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_momentum_outside_the_half_line(self, k):
        with pytest.raises(ValueError):
            s_matrix_closed_form(4, k)


class TestEnergyLimits:
    def test_odd_high_limit_is_identity(self):
        assert np.allclose(energy_limit(3, "high"), np.eye(3), atol=1e-15)

    def test_degree4_high_limit(self):
        assert np.allclose(energy_limit(4, "high"), HIGH_LIMIT_N4, atol=1e-15)

    def test_degree4_low_limit(self):
        assert np.allclose(energy_limit(4, "low"), LOW_LIMIT_N4, atol=1e-15)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_limits_match_extreme_momenta(self, n):
        c = cyclic_coupling(n)
        high = s_matrix(c, 1e6).s
        low = s_matrix(c, 1e-6).s
        assert np.max(np.abs(high - energy_limit(n, "high"))) < 1e-5
        assert np.max(np.abs(low - energy_limit(n, "low"))) < 1e-5

    @pytest.mark.parametrize("n", range(3, 9))
    def test_limits_match_spectral_projections(self, n):
        # low end -I + 2 P(+1), high end I - 2 P(-1), with P(-1) = 0 for odd n
        eye = np.eye(n)
        alternating = np.array([(-1.0) ** j for j in range(n)])
        p_minus = np.outer(alternating, alternating) / n if n % 2 == 0 else 0.0 * eye
        assert np.max(np.abs(energy_limit(n, "low") - (-eye + 2.0 / n))) < 1e-15
        assert np.max(np.abs(energy_limit(n, "high") - (eye - 2.0 * p_minus))) < 1e-15

    def test_rejects_unknown_end(self):
        with pytest.raises(ValueError):
            energy_limit(4, "middle")
