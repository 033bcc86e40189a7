"""
Hot pointwise kernels: the spinor rotation applied every split step and
the density/spin-density reductions, the only per-point loops that show up
next to the FFTs in profiles.
"""

from __future__ import annotations

import numpy as np


def spinor_density(psi):
    """Pointwise |psi_1|^2 + |psi_2|^2."""
    p = np.asarray(psi)
    return (p.real**2 + p.imag**2).sum(axis=0)


def spin_density(psi):
    """The three real fields conj(psi) sigma_k psi, stacked."""
    p = np.asarray(psi)
    z = np.conj(p[0]) * p[1]
    out = np.empty((3,) + p.shape[1:], dtype=float)
    out[0] = 2.0 * z.real
    out[1] = 2.0 * z.imag
    out[2] = (p[0].real**2 + p[0].imag**2) - (p[1].real**2 + p[1].imag**2)
    return out


def phase_sigma_rotate(psi, scalar_phase, B, half_angle_scale):
    """
    Pointwise unitary ``exp(-i scalar_phase) * exp(i half_angle_scale sigma.B)``
    applied to a 2-spinor; the two factors commute so this is exact.

    ``exp(i theta n.sigma) = cos(theta) I + i sin(theta) n.sigma`` with
    ``theta = half_angle_scale * |B|``.
    """
    p = np.asarray(psi)
    bmag = np.sqrt(B[0] ** 2 + B[1] ** 2 + B[2] ** 2)
    theta = half_angle_scale * bmag
    c = np.cos(theta)
    # sin(theta)/|B| stays finite as |B| -> 0
    small = bmag < 1e-300
    s_over_b = np.where(small, half_angle_scale, np.sin(theta) / np.where(small, 1.0, bmag))
    phase = np.exp(-1j * scalar_phase)
    sb0 = s_over_b * B[0]
    sb1 = s_over_b * B[1]
    sb2 = s_over_b * B[2]
    out = np.empty_like(p)
    out[0] = phase * (c * p[0] + 1j * (sb2 * p[0] + (sb0 - 1j * sb1) * p[1]))
    out[1] = phase * (c * p[1] + 1j * ((sb0 + 1j * sb1) * p[0] - sb2 * p[1]))
    return out
