"""
Rotation covariance of the solvers.  A 90 degree rotation of the cubic torus
about z or about x maps the grid onto itself, so one step of either solver
must commute with it up to roundoff.  Scalar fields move their points,
vector fields also rotate their components, and spinors are also multiplied
by the spin rotation ``exp(-i pi/4 sigma_n)``.  An axis or component mix-up
anywhere on a spectral path (derivative tables, the currents, curls, the
screened solve) breaks the commutation.
"""

import numpy as np
import pytest

from poisswell.grid import Grid
from poisswell.hydro import HydroSolver
from poisswell.initial_data import gaussian_bump
from poisswell.pauli import SIGMA, spin_density
from poisswell.pauli_solver import PauliSolver
from poisswell.states import HydroState, SimParams, reconstruct_spinor

# rotation axis n and the pair (b, c) it turns: e_b -> e_c, e_c -> -e_b
AXES = {"z": (2, 0, 1), "x": (0, 1, 2)}
EPS, DT = 0.2, 0.01


def rotate(f, axis, kind="scalar"):
    """``f`` rotated about ``axis``: f'(x) = f(R^-1 x), with R acting on vector
    components and the spin rotation on spinor components."""
    n, b, c = AXES[axis]
    idx = np.indices(f.shape[-3:])
    src = list(idx)
    src[b], src[c] = idx[c], (-idx[b]) % f.shape[-3 + b]
    out = f[(...,) + tuple(src)]
    if kind == "vector":
        out[b], out[c] = -out[c], out[b].copy()
    elif kind == "spinor":
        spin = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * SIGMA[n]
        out = np.einsum("ij,j...->i...", spin, out)
    return out


def rel_diff(x, y):
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


@pytest.fixture(scope="module")
def bump():
    # off-centre, with a tilted spin: no symmetry of its own to hide behind
    g = Grid((16, 16, 16))
    return g, gaussian_bump(g, amplitude=0.3, width=0.9, center=(2.5, 3.6, 2.9),
                            phase_amplitude=0.2, spin_angle=0.7, epsilon=EPS)


@pytest.mark.parametrize("axis", sorted(AXES))
def test_rotation_maps_spin_density_as_a_vector(bump, axis):
    # the spin rotation that goes with R: conj(U psi) sigma (U psi) = R (conj(psi) sigma psi)
    g, st = bump
    s = spin_density(rotate(st.a, axis, "spinor"))
    assert rel_diff(s, rotate(spin_density(st.a), axis, "vector")) < 1e-14


@pytest.mark.parametrize("axis", sorted(AXES))
def test_pauli_step_commutes_with_rotation(bump, axis):
    g, st = bump
    solver = PauliSolver(g, SimParams(epsilon=EPS, T=DT))
    psi = reconstruct_spinor(g, st)
    stepped = solver.step(rotate(psi, axis, "spinor"), DT)
    assert rel_diff(stepped, rotate(solver.step(psi, DT), axis, "spinor")) < 1e-12


@pytest.mark.parametrize("axis", sorted(AXES))
def test_hydro_step_commutes_with_rotation(bump, axis):
    g, st = bump
    solver = HydroSolver(g, SimParams(epsilon=EPS, T=DT))
    turned = HydroState(a=rotate(st.a, axis, "spinor"), u=rotate(st.u, axis, "vector"),
                        S=rotate(st.S, axis), epsilon=EPS)
    stepped = solver.step_rk4(turned, DT)
    expected = solver.step_rk4(st.copy(), DT)
    assert rel_diff(stepped.a, rotate(expected.a, axis, "spinor")) < 1e-12
    assert rel_diff(stepped.u, rotate(expected.u, axis, "vector")) < 1e-12
    assert rel_diff(stepped.S, rotate(expected.S, axis)) < 1e-12
