import numpy as np
import pytest

from poisswell.errors import PoisswellError, WignerNotReal
from poisswell.grid import Grid
from poisswell.operators import gradient, l2_norm
from poisswell.states import HydroState, charge_density, pauli_current, reconstruct_spinor
from poisswell.wigner import (
    concentration_fraction,
    export_slice_csv,
    monokinetic_defect,
    wigner_slice,
)

from conftest import random_band_limited


def plane_wave(grid, k):
    x = grid.coordinates()[0]
    psi = np.zeros((2,) + grid.shape, dtype=complex)
    psi[0] = np.exp(1j * k * x) * np.ones(grid.shape)
    return psi


class TestSlice:
    def test_plane_wave_concentrates_at_eps_k(self):
        g = Grid((64,))
        eps, k = 0.25, 4
        slc = wigner_slice(g, plane_wave(g, k), eps, [(16,)])
        f = slc.values[0]
        peak_bin = int(np.argmax(f))
        assert slc.xi[0][peak_bin] == pytest.approx(eps * k, abs=1e-12)
        assert f[peak_bin] * slc.bin_widths[0] >= 0.99 * np.abs(f).sum() * slc.bin_widths[0]

    def test_lost_reality_is_a_typed_error(self, monkeypatch):
        # an imaginary part the Hermitian correlation cannot produce
        g = Grid((32,))
        fftn = np.fft.fftn
        monkeypatch.setattr(np.fft, "fftn", lambda a, *args, **kw: 1j * fftn(a, *args, **kw))
        with pytest.raises(WignerNotReal, match="imaginary part") as info:
            wigner_slice(g, plane_wave(g, 2), 0.25, [(3,)])
        assert isinstance(info.value, PoisswellError)

    def test_zero_state(self):
        g = Grid((32,))
        slc = wigner_slice(g, np.zeros((2,) + g.shape, dtype=complex), 0.1, [(0,)])
        assert np.max(np.abs(slc.values)) == 0.0

    def test_marginal_equals_density(self, rng):
        g = Grid((64,))
        eps = 0.2
        psi = 1.0 + random_band_limited(g, rng, components=2, complex_=True, amplitude=0.4)
        rho = charge_density(psi)
        slc = wigner_slice(g, psi, eps, [(0,), (13,), (40,)])
        for p, idx in enumerate(slc.base_indices):
            assert abs(slc.marginal(p) - rho[idx]) <= 1e-8 * np.max(rho)

    def test_wkb_state_concentrates_near_grad_S(self):
        g = Grid((128,))
        eps = 0.05
        x = g.coordinates()[0].ravel()
        S = 0.3 * np.sin(x)
        st = HydroState(
            g,
            a=np.stack([np.ones(g.shape, dtype=complex), np.zeros(g.shape, dtype=complex)]),
            S=S,
            epsilon=eps,
        )
        psi = reconstruct_spinor(g, st)
        i0 = 32
        slc = wigner_slice(g, psi, eps, [(i0,)])
        frac = concentration_fraction(slc, 0, (st.u[0][i0],), window_bins=3)
        assert frac >= 0.9

    def test_reality_symmetrization(self, rng):
        g = Grid((32,))
        psi = random_band_limited(g, rng, components=2, complex_=True)
        slc = wigner_slice(g, psi, 0.3, [(5,)])
        assert np.isrealobj(slc.values)

    def test_csv_export_roundtrip_header(self, tmp_path):
        g = Grid((16,))
        slc = wigner_slice(g, plane_wave(g, 1), 0.5, [(0,)])
        path = tmp_path / "slice.csv"
        export_slice_csv(slc, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# {")
        assert lines[1] == "x_index,xi1,f"
        assert len(lines) == 2 + 32


class TestMoments:
    def test_plane_wave_current_both_routes(self):
        g = Grid((64,))
        eps, k = 0.25, 4
        psi = plane_wave(g, k)
        rho, J = charge_density(psi), pauli_current(g, psi, np.zeros((3,) + g.shape), eps)
        assert np.max(np.abs(rho - 1.0)) < 1e-12
        assert np.max(np.abs(J[0] - eps * k)) < 1e-10
        slc = wigner_slice(g, psi, eps, [(7,)])
        assert slc.first_moment(0, 0) == pytest.approx(eps * k, rel=1e-10)

    def test_zero_state_zero_moments(self):
        g = Grid((32,))
        psi = np.zeros((2,) + g.shape, dtype=complex)
        rho, J = charge_density(psi), pauli_current(g, psi, np.zeros((3,) + g.shape), 0.1)
        assert np.max(np.abs(rho)) == 0.0
        assert np.max(np.abs(J)) == 0.0

    def test_first_moment_matches_kinetic_current(self, rng):
        # quadrature cross-check of the canonical first moment
        g = Grid((64,))
        eps = 0.2
        psi = 1.0 + random_band_limited(g, rng, components=2, complex_=True, amplitude=0.3)
        from poisswell.states import kinetic_current

        jkin = eps * kinetic_current(g, psi)
        slc = wigner_slice(g, psi, eps, [(10,), (33,)])
        for p, idx in enumerate(slc.base_indices):
            assert slc.first_moment(p, 0) == pytest.approx(jkin[0][idx], abs=1e-8)


class TestDefect:
    def test_exact_eigenrelation_constant_amplitude(self):
        g = Grid((64,))
        eps = 0.125
        x = g.coordinates()[0].ravel()
        S = 0.2 * np.sin(x)
        st = HydroState(
            g,
            a=np.stack([np.ones(g.shape, dtype=complex), np.zeros(g.shape, dtype=complex)]),
            S=S,
            epsilon=eps,
        )
        psi = reconstruct_spinor(g, st)
        assert monokinetic_defect(g, psi, st.u, eps) <= 1e-20

    def test_wkb_expansion_identity(self, rng):
        # defect = eps^2 ||grad a||^2 when u = grad S exactly
        g = Grid((128,))
        eps = 0.1
        a = 1.0 + random_band_limited(g, rng, components=2, complex_=True, amplitude=0.3)
        S = random_band_limited(g, rng, amplitude=0.2)
        st = HydroState(g, a=a, S=S, epsilon=eps)
        psi = reconstruct_spinor(g, st)
        expected = eps**2 * sum(
            l2_norm(g, gradient(g, a[s])) ** 2 for s in range(2)
        )
        assert monokinetic_defect(g, psi, st.u, eps) == pytest.approx(expected, rel=1e-8)

    def test_plane_wave_at_rest_velocity(self):
        # u = 0, psi = e^{ix/eps}: defect = ||1||^2 = vol
        g = Grid((64,))
        eps = 0.25
        psi = plane_wave(g, round(1 / eps))
        val = monokinetic_defect(g, psi, np.zeros((3,) + g.shape), eps)
        assert val == pytest.approx(np.prod(g.lengths), rel=1e-12)

    def test_quadratic_eps_scaling(self, rng):
        g = Grid((128,))
        a = 1.0 + random_band_limited(g, rng, components=2, complex_=True, amplitude=0.3)
        S = random_band_limited(g, rng, amplitude=0.2)
        vals = {}
        for eps in (0.2, 0.1):
            st = HydroState(g, a=a, S=S, epsilon=eps)
            psi = reconstruct_spinor(g, st)
            vals[eps] = monokinetic_defect(g, psi, st.u, eps)
        assert vals[0.1] / vals[0.2] <= 0.3
