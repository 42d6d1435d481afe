"""Spectra of quantum-graph lattices with a rotation-preferring vertex coupling.

The package computes, verifies, and exports the spectral objects attached
to the cyclic (maximum-rotation) vertex coupling: bound states of star
graphs, on-shell scattering matrices, and Floquet-Bloch band structures of
square and hexagonal lattices, each backed by independent brute-force
cross-checks.
"""
from . import lattice, numerics, star, verify, vertex
from .numerics import *
from .vertex import *
from .star import *
from .lattice import *
from .verify import *

__version__ = "0.1.0"

__all__ = [*numerics.__all__, *vertex.__all__, *star.__all__, *lattice.__all__,
           *verify.__all__, "__version__"]
