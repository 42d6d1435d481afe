"""Rotation-preferring vertex coupling and its on-shell scattering matrices.

The coupling on a degree-N vertex is defined by the cyclic shift matrix U
acting on edge boundary values through A Psi + B Psi' = 0 with A = U - I,
B = i(U + I).  Component-wise the matching conditions read

    (psi_{j+1} - psi_j) + i (psi'_{j+1} + psi'_j) = 0,   j mod N,

which single out a direction of circulation around the vertex: they are not
invariant under reversing the edge order.  The scattering matrix at momentum
k > 0 is the rational function S(k) = (k - 1 + (k + 1) U) / (k + 1 + (k - 1) U)
of U, so S is circulant, commutes with U, and fixes the constant vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "VertexCoupling",
    "BoundaryPair",
    "ScatteringMatrix",
    "cyclic_coupling",
    "boundary_pair",
    "s_matrix",
    "s_matrix_closed_form",
    "energy_limit",
]


@dataclass(frozen=True)
class VertexCoupling:
    """A unitary N x N matrix defining self-adjoint matching at a vertex."""

    degree: int
    u: np.ndarray


@dataclass(frozen=True)
class BoundaryPair:
    """Matrices (a, b) of the boundary form a Psi + b Psi' = 0."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class ScatteringMatrix:
    """On-shell N x N scattering matrix at momentum k > 0."""

    k: float
    s: np.ndarray

    def unitarity_residual(self) -> float:
        n = self.s.shape[0]
        return float(np.max(np.abs(self.s.conj().T @ self.s - np.eye(n))))


def cyclic_coupling(n: int) -> VertexCoupling:
    """The cyclic-shift coupling of degree n: row j has its 1 in column j+1 mod n.

    Degrees below 3 are rejected; the matching conditions collapse to nothing
    new for n < 3.
    """
    if n < 3:
        raise ValueError("cyclic coupling is non-trivial only for degree >= 3")
    u = np.zeros((n, n), dtype=complex)
    u[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return VertexCoupling(degree=n, u=u)


def boundary_pair(coupling: VertexCoupling) -> BoundaryPair:
    """Boundary matrices a = U - I and b = i (U + I) of the coupling."""
    eye = np.eye(coupling.degree, dtype=complex)
    return BoundaryPair(a=coupling.u - eye, b=1j * (coupling.u + eye))


def s_matrix(coupling: VertexCoupling, k: float) -> ScatteringMatrix:
    """Scattering matrix of any coupling at momentum k, by a dense linear solve.

    For the cyclic coupling ``s_matrix_closed_form`` is exact where this solve
    loses accuracy (4e-4 at degree 6, k = 1e14) and is what the CLI prints.

    At k = 1 the matrix is U itself; that value is returned exactly rather
    than through the solver, since it is the designed maximum-rotation point.
    """
    if k <= 0.0:
        raise ValueError("momentum must be positive")
    n = coupling.degree
    if k == 1.0:
        return ScatteringMatrix(k=k, s=coupling.u.copy())
    eye = np.eye(n, dtype=complex)
    lhs = (k + 1.0) * eye + (k - 1.0) * coupling.u
    rhs = (k - 1.0) * eye + (k + 1.0) * coupling.u
    return ScatteringMatrix(k=k, s=np.linalg.solve(lhs, rhs))


def _circulant(lam: np.ndarray) -> np.ndarray:
    """Circulant S[i, j] = ifft(lam)[(i - j) mod n]: eigenvalue lam[m] on the
    Fourier mode v_j = e^(2 pi i j m / n), on which U acts as e^(2 pi i m / n)."""
    n = len(lam)
    c = np.fft.ifft(lam)
    idx = np.arange(n)
    return c[(idx[:, None] - idx[None, :]) % n]


def s_matrix_closed_form(n: int, k: float) -> ScatteringMatrix:
    """Scattering matrix of the degree-n cyclic coupling from the eigenvalues of U.

    On U's m-th mode S(k) is z / conj(z), z = k cos(pi m / n) + i sin(pi m / n),
    evaluated as exp(2 i atan2(...)).  The cosine is set to exactly 0 at
    2m = n, where its rounding error times a large k would move the eigenvalue
    off -1.  At k = 1 the matrix is U itself, returned exactly.
    """
    if n < 3:
        raise ValueError("cyclic coupling is non-trivial only for degree >= 3")
    if not 0.0 < k < np.inf:
        raise ValueError("momentum must be positive and finite")
    if k == 1.0:
        return ScatteringMatrix(k=k, s=cyclic_coupling(n).u)
    half_angle = np.pi * np.arange(n) / n
    cos = np.cos(half_angle)
    if n % 2 == 0:
        cos[n // 2] = 0.0
    lam = np.exp(2j * np.arctan2(np.sin(half_angle), k * cos))
    return ScatteringMatrix(k=k, s=_circulant(lam))


def energy_limit(n: int, end: str) -> np.ndarray:
    """Limit of S(k) at the spectral ends, from the limits of its eigenvalues.

    As k -> 0 every eigenvalue tends to -1 except the +1 of the constant
    vector (m = 0); as k -> inf every eigenvalue tends to +1 except the -1
    of the alternating vector (m = n/2, even n only).  Naive substitution
    into the rational form of S is 0/0 on exactly those modes.
    """
    if n < 3:
        raise ValueError("cyclic coupling is non-trivial only for degree >= 3")
    lam = np.ones(n, dtype=complex)
    if end == "low":
        lam[1:] = -1.0
    elif end == "high":
        if n % 2 == 0:
            lam[n // 2] = -1.0
    else:
        raise ValueError("end must be 'low' or 'high'")
    return _circulant(lam)
