"""
Named initial-data families.  All are smooth, band-limited and periodic;
amplitudes are normalized so the mean density is one (matching the
neutralizing-background convention) unless stated otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .grid import Grid
from .states import HydroState


def _spinor(profile, spin_angle=0.0):
    a = np.zeros((2,) + profile.shape, dtype=complex)
    a[0] = np.cos(spin_angle) * profile
    a[1] = np.sin(spin_angle) * profile
    return a


def uniform(grid: Grid, epsilon=0.1) -> HydroState:
    """Spin-up state of unit density at rest: the neutral fixed point."""
    return HydroState(grid, a=_spinor(np.ones(grid.shape)), S=np.zeros(grid.shape), epsilon=epsilon)


def periodic_bump(grid: Grid, width, center):
    """
    Smooth periodic bump exp(kappa (cos(2 pi (x-c)/L) - 1)) per axis,
    normalized to peak 1; kappa chosen so the core matches a Gaussian of
    the given width.
    """
    xs = grid.coordinates()
    out = np.ones(grid.shape)
    for i in range(grid.dim):
        L = grid.lengths[i]
        c = center[i] if center is not None else 0.5 * L
        kappa = (L / (2.0 * np.pi * width)) ** 2
        out = out * np.exp(kappa * (np.cos(2.0 * np.pi * (xs[i] - c) / L) - 1.0))
    return out


def gaussian_bump(
    grid: Grid,
    amplitude=0.2,
    width=0.8,
    center=None,
    phase_amplitude=0.1,
    spin_angle=0.0,
    epsilon=0.1,
) -> HydroState:
    """
    Density 1 + amplitude (bump - mean) with a gentle sinusoidal phase;
    the workhorse family for conservation and limit studies.
    """
    g = periodic_bump(grid, width, center)
    rho = 1.0 + amplitude * (g - g.mean())
    if rho.min() <= 0:
        raise ValidationError("bump amplitude drives the density negative", key="amplitude")
    xs = grid.coordinates()
    S = np.zeros(grid.shape)
    for i in range(grid.dim):
        S = S + phase_amplitude * np.sin(2.0 * np.pi * xs[i] / grid.lengths[i]) * (
            grid.lengths[i] / (2.0 * np.pi)
        )
    return HydroState(grid, a=_spinor(np.sqrt(rho), spin_angle), S=S, epsilon=epsilon)


def plane_wave(grid: Grid, modes=(1, 0, 0), epsilon=0.1) -> HydroState:
    """
    Unit-density traveling state: velocity eps k on integer torus modes,
    carried by ``u_mean`` so the phase stays representable.
    """
    u_mean = np.zeros(3)
    for i in range(3):
        m = int(modes[i]) if i < len(modes) else 0
        if m and i >= grid.dim:
            raise ValidationError("plane-wave mode on an inactive axis", key="modes")
        if i < grid.dim:
            u_mean[i] = epsilon * m * 2.0 * np.pi / grid.lengths[i]
    return HydroState(grid, a=_spinor(np.ones(grid.shape)), S=np.zeros(grid.shape),
                      u_mean=u_mean, epsilon=epsilon)


def compressive(grid: Grid, beta=3.0, epsilon=0.0) -> HydroState:
    """
    Unit density with focusing velocity u = -beta sin(x1): characteristics
    cross in finite time, driving the blow-up monitor.
    """
    xs = grid.coordinates()
    L = grid.lengths[0]
    S = beta * np.cos(2.0 * np.pi * xs[0] / L) * (L / (2.0 * np.pi)) ** 2 * np.ones(
        grid.shape
    )
    return HydroState(grid, a=_spinor(np.ones(grid.shape)), S=S, epsilon=epsilon)


FAMILIES = {
    "uniform": uniform,
    "gaussian-bump": gaussian_bump,
    "plane-wave": plane_wave,
    "compressive": compressive,
}


def make_initial_state(grid: Grid, family: str, epsilon, options=None) -> HydroState:
    if family not in FAMILIES:
        raise ValidationError(f"unknown initial-data family {family!r}", key="initial_data")
    options = dict(options or {})
    return FAMILIES[family](grid, epsilon=epsilon, **options)
