"""
Symmetry covariance of the solvers.  A 90 degree rotation of the cubic torus
about z or about x, the parity ``x -> -x`` and a translation by whole cells
map the grid onto itself, so one step of either solver, the potentials of
either solver's state and the scalar diagnostics of a sample must commute
with them up to roundoff.

Under a rotation scalar fields move their points, vector fields also rotate
their components, and spinors are also multiplied by the spin rotation
``exp(-i pi/4 sigma_n)``.  An axis or component mix-up anywhere on a spectral
path (derivative tables, the currents, curls, the screened solve) breaks the
commutation.  Under parity (index ``i -> -i mod N`` on every axis) polar
vectors (``u``, ``A``, ``J``) also flip sign, while spinors and the axial
vectors (``B``, the spin density) only move their points; a mix-up of polar
and axial vectors, which no rotation sees, breaks it.  A translation changes
no component, and only a field tied to a fixed grid point breaks it.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from poisswell.grid import Grid
from poisswell.hydro import HydroSolver
from poisswell.initial_data import gaussian_bump
from poisswell.operators import curl
from poisswell.pauli import SIGMA, spin_density
from poisswell.pauli_solver import PauliSolver
from poisswell.states import HydroState, SimParams, reconstruct_spinor

# rotation axis n and the pair (b, c) it turns: e_b -> e_c, e_c -> -e_b
AXES = {"z": (2, 0, 1), "x": (0, 1, 2)}
EPS, DT = 0.2, 0.01


def rotate(f, axis, kind="scalar", dim=3):
    """``f`` rotated about ``axis``: f'(x) = f(R^-1 x), with R acting on vector
    components and the spin rotation on spinor components; a 2d field turns
    in its plane, about z."""
    n, b, c = AXES[axis]
    idx = np.indices(f.shape[-dim:])
    src = list(idx)
    src[b], src[c] = idx[c], (-idx[b]) % f.shape[-dim + b]
    out = f[(...,) + tuple(src)]
    if kind == "vector":
        out[b], out[c] = -out[c], out[b].copy()
    elif kind == "spinor":
        spin = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * SIGMA[n]
        out = np.einsum("ij,j...->i...", spin, out)
    return out


def reflect(f, kind="scalar"):
    """``f`` under parity: f'(x) = f(-x), and a polar vector also flips sign."""
    out = f[(...,) + np.ix_(*[(-np.arange(n)) % n for n in f.shape[-3:]])]
    return -out if kind == "polar" else out


def translate(f, kind="scalar"):
    """``f`` moved by whole cells: f'(x) = f(x - s), every component alike."""
    return np.roll(f, (5, -3, 7), axis=(-3, -2, -1))


MAPS = {"parity": reflect, "translation": translate}


def mapped_state(st, m):
    """The WKB state ``st`` under the point map ``m`` of :data:`MAPS`."""
    return HydroState(st.grid, a=m(st.a, "spinor"), S=m(st.S), epsilon=st.epsilon)


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
    turned = HydroState(g, a=rotate(st.a, axis, "spinor"), S=rotate(st.S, axis), epsilon=EPS)
    stepped = solver.step_rk4(turned, DT)
    expected = solver.step_rk4(copy.deepcopy(st), DT)
    assert rel_diff(stepped.a, rotate(expected.a, axis, "spinor")) < 1e-12
    assert rel_diff(stepped.u, rotate(expected.u, axis, "vector")) < 1e-12
    assert rel_diff(stepped.S, rotate(expected.S, axis)) < 1e-12


@pytest.mark.parametrize("name", sorted(MAPS))
def test_pauli_step_commutes_with_point_maps(bump, name):
    m, (g, st) = MAPS[name], bump
    solver = PauliSolver(g, SimParams(epsilon=EPS, T=DT))
    psi = reconstruct_spinor(g, st)
    stepped = solver.step(m(psi, "spinor"), DT)
    assert rel_diff(stepped, m(solver.step(psi, DT), "spinor")) < 1e-12


@pytest.mark.parametrize("name", sorted(MAPS))
def test_hydro_step_commutes_with_point_maps(bump, name):
    m, (g, st) = MAPS[name], bump
    solver = HydroSolver(g, SimParams(epsilon=EPS, T=DT))
    stepped = solver.step_rk4(mapped_state(st, m), DT)
    expected = solver.step_rk4(copy.deepcopy(st), DT)
    assert rel_diff(stepped.a, m(expected.a, "spinor")) < 1e-12
    assert rel_diff(stepped.u, m(expected.u, "polar")) < 1e-12
    assert rel_diff(stepped.S, m(expected.S)) < 1e-12


@pytest.mark.parametrize("name", sorted(MAPS))
def test_potentials_commute_with_point_maps(bump, name):
    # both paths: the spinor solver's from psi, the WKB solver's from (a, u);
    # V is a scalar, A polar and B = curl A axial
    m, (g, st) = MAPS[name], bump
    params = SimParams(epsilon=EPS, T=DT)
    pauli, hydro = PauliSolver(g, params), HydroSolver(g, params)
    psi = reconstruct_spinor(g, st)
    for pots, moved in (
        (pauli.potentials(psi), pauli.potentials(m(psi, "spinor"))),
        (hydro.potentials(st), hydro.potentials(mapped_state(st, m))),
    ):
        assert rel_diff(moved.V, m(pots.V)) < 1e-12
        assert rel_diff(moved.A, m(pots.A, "polar")) < 1e-12
        assert rel_diff(curl(g, moved.A), m(curl(g, pots.A), "axial")) < 1e-12


@pytest.mark.parametrize("name", sorted(MAPS))
def test_sample_record_is_invariant_under_point_maps(bump, name):
    # every scalar diagnostic of a WKB and of a spinor sample
    m, (g, st) = MAPS[name], bump
    params = SimParams(epsilon=EPS, T=DT)
    hydro, pauli = HydroSolver(g, params), PauliSolver(g, params)
    psi = reconstruct_spinor(g, st)
    pairs = [
        (hydro._record(0.0, s, hydro.potentials(s), None) for s in (st, mapped_state(st, m))),
        (pauli._record(0.0, p, pauli.potentials(p), None) for p in (psi, m(psi, "spinor"))),
    ]
    for rec, moved in pairs:
        values, moved = rec.as_dict(), moved.as_dict()
        checked = [k for k, v in values.items() if v is not None]
        assert len(checked) >= 4
        for key in checked:
            assert abs(moved[key] - values[key]) <= 1e-12 * abs(values[key]), key


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(
    amplitude=st_.floats(0.05, 0.4),
    width=st_.floats(0.6, 1.2),
    center=st_.tuples(st_.floats(0.0, 2 * np.pi), st_.floats(0.0, 2 * np.pi)),
    spin_angle=st_.floats(0.0, np.pi),
)
def test_steps_commute_with_in_plane_rotation(amplitude, width, center, spin_angle):
    # a 2d state turned by 90 degrees in its plane, about z: one Pauli step
    # and one WKB step of the turned state are the turned steps
    g = Grid((16, 16))
    st = gaussian_bump(g, amplitude=amplitude, width=width, center=center,
                       phase_amplitude=0.2, spin_angle=spin_angle, epsilon=EPS)

    def turn(f, kind="scalar"):
        return rotate(f, "z", kind, dim=2)

    params = SimParams(epsilon=EPS, T=DT)
    pauli, hydro = PauliSolver(g, params), HydroSolver(g, params)
    psi = reconstruct_spinor(g, st)
    stepped = pauli.step(turn(psi, "spinor"), DT)
    assert rel_diff(stepped, turn(pauli.step(psi, DT), "spinor")) < 1e-12
    turned = HydroState(g, a=turn(st.a, "spinor"), S=turn(st.S), epsilon=EPS)
    stepped = hydro.step_rk4(turned, DT)
    expected = hydro.step_rk4(copy.deepcopy(st), DT)
    assert rel_diff(stepped.a, turn(expected.a, "spinor")) < 1e-12
    assert rel_diff(stepped.u, turn(expected.u, "vector")) < 1e-12
    assert rel_diff(stepped.S, turn(expected.S)) < 1e-12
