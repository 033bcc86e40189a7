"""
poisswell: a pseudo-spectral laboratory for the Pauli-Poisswell equation,
its WKB hydrodynamic form, and the Euler-Poisswell limit, with diagnostics
for conservation laws, a priori functionals and the semiclassical limit.
"""

from .grid import Grid
from .states import HydroState, Potentials, SimParams

__all__ = ["Grid", "HydroState", "Potentials", "SimParams"]
__version__ = "0.1.0"
