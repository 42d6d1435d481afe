"""Shared numeric substrate: tolerances and bracketed root finding.

Everything here is pure and reentrant; no shared mutable state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "NumericError",
    "ToleranceConfig",
    "Bracket",
    "DEFAULT_TOL",
    "find_root",
]

_MAX_ITERATIONS = 200


class NumericError(RuntimeError):
    """A routine could not resolve its result within its iteration or size budget."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances shared across the library.

    root_abs: absolute accuracy of refined roots, in the scan variable.
    residual_zero: threshold below which a function value counts as zero.
    degenerate_width: energy width below which a band counts as a point.
    scan_density: grid points per oscillation of the fastest cosine.
    """

    root_abs: float = 1e-12
    residual_zero: float = 1e-9
    degenerate_width: float = 1e-8
    scan_density: int = 16

    def __post_init__(self) -> None:
        if self.root_abs <= 0.0 or self.residual_zero <= 0.0 or self.degenerate_width <= 0.0:
            raise ValueError("tolerances must be strictly positive")
        if self.scan_density < 4:
            raise ValueError("scan_density must be at least 4")


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class Bracket:
    """A sign-change interval: f(lo) and f(hi) have opposite (or zero) sign."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.f_lo * self.f_hi > 0.0:
            raise ValueError("bracket endpoints must not have the same sign")


def find_root(f: Callable[[float], float], bracket: Bracket, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Locate a sign change of ``f`` inside ``bracket`` to ``tol.root_abs``.

    Secant steps accelerate convergence, but every other iteration bisects,
    so convergence is guaranteed for any continuous sign-changing function.
    """
    lo, hi = bracket.lo, bracket.hi
    f_lo, f_hi = bracket.f_lo, bracket.f_hi
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    use_secant = True
    for _ in range(_MAX_ITERATIONS):
        width = hi - lo
        if width <= 2.0 * tol.root_abs:
            return 0.5 * (lo + hi)
        x = 0.5 * (lo + hi)
        if use_secant and f_hi != f_lo and math.isfinite(f_lo) and math.isfinite(f_hi):
            xs = hi - f_hi * width / (f_hi - f_lo)
            # keep the step strictly interior so the interval always shrinks
            guard = 0.01 * width
            if lo + guard < xs < hi - guard:
                x = float(xs)
        fx = float(f(x))
        if fx == 0.0:
            return x
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
        else:
            hi, f_hi = x, fx
        use_secant = not use_secant
    raise NumericError(f"root refinement did not converge on [{bracket.lo}, {bracket.hi}]")
