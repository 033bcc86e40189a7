"""Properties of the pointwise spinor rotation kernel."""

import numpy as np
import pytest

from poisswell import kernels

from conftest import random_band_limited
from poisswell.grid import Grid


@pytest.fixture
def spinor_and_fields(rng):
    g = Grid((16, 16))
    psi = random_band_limited(g, rng, components=2, complex_=True)
    W = random_band_limited(g, rng)
    B = random_band_limited(g, rng, components=3)
    return psi, W, B


def test_rotation_is_unitary(spinor_and_fields):
    psi, W, B = spinor_and_fields
    out = kernels.phase_sigma_rotate(psi, W, B, 0.2)
    assert np.max(
        np.abs(kernels.spinor_density(out) - kernels.spinor_density(psi))
    ) < 1e-13


def test_rotation_zero_field_is_phase_only(spinor_and_fields):
    psi, W, _ = spinor_and_fields
    out = kernels.phase_sigma_rotate(psi, W, np.zeros((3,) + psi.shape[1:]), 0.2)
    assert np.max(np.abs(out - np.exp(-1j * W) * psi)) < 1e-14


def test_rotation_constant_b3_matrix_exponential(rng):
    # with B = (0,0,b) the rotation is exp(i scale b sigma_3): diagonal phases
    g = Grid((16,))
    psi = random_band_limited(g, rng, components=2, complex_=True)
    b = 0.8
    scale = 0.31
    B = np.zeros((3,) + g.shape)
    B[2] = b
    out = kernels.phase_sigma_rotate(psi, np.zeros(g.shape), B, scale)
    assert np.max(np.abs(out[0] - np.exp(1j * scale * b) * psi[0])) < 1e-13
    assert np.max(np.abs(out[1] - np.exp(-1j * scale * b) * psi[1])) < 1e-13
