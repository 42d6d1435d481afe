"""Negative spectrum of the star graph with the cyclic coupling.

A decaying edge state c_j e^(-kappa x) satisfies the matching conditions
exactly when (kappa - i)^N + (-1)^(N-1) (kappa + i)^N = 0, whose positive
roots are kappa = tan(pi m / N); the graph Hamiltonian has the eigenvalues
-kappa^2.  The count is (N-1)/2 for odd N and N/2 - 1 for even N, so the
discrete spectrum is never empty for N >= 3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import DEFAULT_TOL, ToleranceConfig

__all__ = ["StarSpectrum", "bound_states"]


@dataclass(frozen=True)
class StarSpectrum:
    degree: int
    kappas: tuple[float, ...]
    energies: tuple[float, ...]


def _root_count(n: int) -> int:
    return (n - 1) // 2 if n % 2 == 1 else n // 2 - 1


def bound_states(n: int, tol: ToleranceConfig = DEFAULT_TOL) -> StarSpectrum:
    """Bound-state decay rates and energies of the degree-n star graph.

    The decay rates are the closed form tan(pi m / n), m = 1 ... _root_count(n),
    which rise with m.  kappa = 0 is a formal root of the polynomial but not a
    normalizable state, so values at or below root_abs are dropped.
    """
    if n < 3:
        raise ValueError("degree must be at least 3")
    closed = (math.tan(math.pi * m / n) for m in range(1, _root_count(n) + 1))
    kappas = tuple(k for k in closed if k > tol.root_abs)
    return StarSpectrum(
        degree=n,
        kappas=kappas,
        energies=tuple(-k * k for k in kappas),
    )
