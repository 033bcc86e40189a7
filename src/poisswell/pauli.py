"""Pauli matrix algebra and the Stern-Gerlach coupling term."""

from __future__ import annotations

import numpy as np

from . import kernels

SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def apply_sigma_dot(B, psi):
    """(sigma . B) psi without materializing the matrix field."""
    B = np.asarray(B)
    psi = np.asarray(psi)
    out = np.empty_like(psi)
    out[0] = B[2] * psi[0] + (B[0] - 1j * B[1]) * psi[1]
    out[1] = (B[0] + 1j * B[1]) * psi[0] - B[2] * psi[1]
    return out


def spin_density(psi):
    """The 3 real fields conj(psi) sigma_k psi (a 3-vector field)."""
    return kernels.spin_density(psi)


def stern_gerlach_reality(psi, B):
    """Max over the grid of |Re(i conj(psi).(sigma.B) psi)|; zero in theory."""
    sb = apply_sigma_dot(B, psi)
    val = 1j * (np.conj(psi) * sb).sum(axis=0)
    return float(np.max(np.abs(val.real))) if val.size else 0.0
