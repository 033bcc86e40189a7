import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from poisswell.grid import Grid
from poisswell.hydro import HydroSolver
from poisswell.pauli import SIGMA, apply_sigma_dot, spin_density, stern_gerlach_reality
from poisswell.pauli_solver import PauliSolver
from poisswell.states import HydroState, Potentials, SimParams

from conftest import random_band_limited

finite_vec = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=3, max_size=3
)


class TestPauliMatrices:
    def test_hermitian_traceless_involutive(self):
        for k in range(3):
            s = SIGMA[k]
            assert np.allclose(s, s.conj().T)
            assert abs(np.trace(s)) == 0.0
            assert np.allclose(s @ s, np.eye(2))

    def test_cyclic_products(self):
        assert np.allclose(SIGMA[0] @ SIGMA[1], 1j * SIGMA[2])
        assert np.allclose(SIGMA[1] @ SIGMA[2], 1j * SIGMA[0])
        assert np.allclose(SIGMA[2] @ SIGMA[0], 1j * SIGMA[1])

    def test_sigma_dot_e3_is_sigma3(self, rng):
        g = Grid((8,))
        B = np.zeros((3,) + g.shape)
        B[2] = 1.0
        psi = random_band_limited(g, rng, components=2, complex_=True)
        assert np.allclose(apply_sigma_dot(B, psi), np.einsum("ij,j...->i...", SIGMA[2], psi))

    def test_sigma_dot_zero(self, rng):
        g = Grid((8,))
        psi = random_band_limited(g, rng, components=2, complex_=True)
        assert np.max(np.abs(apply_sigma_dot(np.zeros((3,) + g.shape), psi))) == 0.0

    def test_sigma_dot_pointwise_assembly(self):
        # direct 2x2 assembly oracle for B = (1, 1, 0), applied to the basis spinors
        expected = np.array([[0.0, 1.0 - 1.0j], [1.0 + 1.0j, 0.0]])
        B = np.array([1.0, 1.0, 0.0]).reshape(3, 1)
        for j in range(2):
            e = np.zeros((2, 1), dtype=complex)
            e[j] = 1.0
            assert np.allclose(apply_sigma_dot(B, e)[:, 0], expected[:, j])

    def test_sigma_dot_hermitian_field(self, rng):
        # <phi, (sigma.B) psi> = <(sigma.B) phi, psi> at every point
        g = Grid((16,))
        B = random_band_limited(g, rng, components=3)
        phi, psi = (random_band_limited(g, rng, components=2, complex_=True) for _ in range(2))
        lhs = np.sum(np.conj(phi) * apply_sigma_dot(B, psi), axis=0)
        rhs = np.sum(np.conj(apply_sigma_dot(B, phi)) * psi, axis=0)
        assert np.allclose(lhs, rhs)

    def test_apply_matches_matrix(self, rng):
        g = Grid((16,))
        B = random_band_limited(g, rng, components=3)
        psi = random_band_limited(g, rng, components=2, complex_=True)
        direct = apply_sigma_dot(B, psi)
        M = np.einsum("kij,k...->ij...", SIGMA, B)
        via_matrix = np.einsum("ij...,j...->i...", M, psi)
        assert np.max(np.abs(direct - via_matrix)) < 1e-13


def identity_sides(a, b, psi):
    """Both sides of (a.sigma)(b.sigma) psi = (a.b) psi + i ((a x b).sigma) psi
    for constant real 3-vectors, through ``apply_sigma_dot``."""
    a, b = (np.asarray(v, dtype=float).reshape(3, 1) for v in (a, b))
    lhs = apply_sigma_dot(a, apply_sigma_dot(b, psi))
    rhs = float(a[:, 0] @ b[:, 0]) * psi + 1j * apply_sigma_dot(np.cross(a, b, axis=0), psi)
    return lhs, rhs


BASIS = np.eye(2, dtype=complex).reshape(2, 2, 1)


class TestVectorIdentity:
    def test_e3_squared_is_identity(self):
        for e in BASIS:
            lhs, rhs = identity_sides([0, 0, 1], [0, 0, 1], e)
            assert np.allclose(lhs, e)
            assert np.allclose(rhs, e)

    def test_e1_e2_gives_i_sigma3(self):
        for e in BASIS:
            lhs, rhs = identity_sides([1, 0, 0], [0, 1, 0], e)
            assert np.allclose(lhs, 1j * np.einsum("ij,j...->i...", SIGMA[2], e))
            assert np.allclose(rhs, lhs)

    @settings(max_examples=50, deadline=None)
    @given(a=finite_vec, b=finite_vec)
    def test_identity_holds_for_random_vectors(self, a, b):
        for e in BASIS:
            lhs, rhs = identity_sides(a, b, e)
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale


class TestSternGerlach:
    def test_reality_on_random_states(self, rng):
        # acceptance 4: Re(i conj(a) (sigma.B) a) == 0 pointwise
        g = Grid((64,))
        for _ in range(5):
            a = random_band_limited(g, rng, components=2, complex_=True)
            B = random_band_limited(g, rng, components=3)
            assert stern_gerlach_reality(a, B) <= 1e-12

    def test_spin_density_real_and_consistent(self, rng):
        g = Grid((32,))
        a = random_band_limited(g, rng, components=2, complex_=True)
        s = spin_density(a)
        for k in range(3):
            expected = np.einsum("i...,ij,j...->...", np.conj(a), SIGMA[k], a)
            assert np.max(np.abs(expected.imag)) < 1e-13
            assert np.max(np.abs(s[k] - expected.real)) < 1e-13


def pauli_generator(grid, psi, V, A, eps):
    """
    ``-(i/eps) H psi`` with ``H = (sigma.pi)^2/2 + V`` and ``pi = -i eps grad - A``,
    ``sigma.pi`` applied twice, each derivative from numpy's full-grid
    transforms: the Pauli Hamiltonian by its definition, with its
    Stern-Gerlach term ``-(eps/2) sigma.B`` left implicit.
    """
    axes = tuple(range(-grid.dim, 0))
    ks = [2 * np.pi * np.fft.fftfreq(n, d=L / n) for n, L in zip(grid.shape, grid.lengths)]
    ks = np.meshgrid(*ks, indexing="ij")

    def sigma_pi(f):
        out = np.zeros_like(f)
        for j in range(3):
            pi_f = -A[j] * f
            if j < grid.dim:
                pi_f += eps * np.fft.ifftn(ks[j] * np.fft.fftn(f, axes=axes), axes=axes)
            out += np.einsum("ab,b...->a...", SIGMA[j], pi_f)
        return out

    return -(1j / eps) * (0.5 * sigma_pi(sigma_pi(psi)) + V * psi)


class TestPauliHamiltonian:
    # both solvers against -(i/eps)(1/2 (sigma.pi)^2 + V) psi for fixed V and
    # band-limited psi and A: this fixes the Stern-Gerlach term's sign
    eps = 0.1

    def fields(self, rng):
        g = Grid((32, 32))
        psi = random_band_limited(g, rng, components=2, complex_=True, kmax=2)
        V = random_band_limited(g, rng, kmax=2, amplitude=0.5)
        A = random_band_limited(g, rng, components=3, kmax=2, amplitude=0.4)
        return g, psi, V, A

    def test_wkb_rhs_at_zero_phase_is_the_pauli_generator(self, rng):
        # at S = 0, psi = a and d_t psi = d_t a + (i/eps) a d_t S
        g, a, V, A = self.fields(rng)
        solver = HydroSolver(g, SimParams(epsilon=self.eps))
        da, dS = solver.rhs(HydroState(g, a=a, S=np.zeros(g.shape), epsilon=self.eps),
                            Potentials(V=V, A=A))
        expected = pauli_generator(g, a, V, A, self.eps)
        err = np.max(np.abs(da + (1j / self.eps) * a * dS - expected))
        assert err <= 1e-12 * np.max(np.abs(expected))

    def test_spinor_step_generator_is_the_pauli_generator(self, rng, monkeypatch):
        # (step(psi, dt) - psi)/dt -> -(i/eps) H psi, the error halving with dt
        g, psi, V, A = self.fields(rng)
        solver = PauliSolver(g, SimParams(epsilon=self.eps))
        monkeypatch.setattr(solver, "potentials", lambda psi, guess=None: Potentials(V=V, A=A))
        expected = pauli_generator(g, psi, V, A, self.eps)
        errs = [np.max(np.abs((solver.step(psi, dt) - psi) / dt - expected))
                for dt in (4e-3, 2e-3, 1e-3)]
        assert errs[-1] <= 0.01 * np.max(np.abs(expected))
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.8 <= coarse / fine <= 2.2
