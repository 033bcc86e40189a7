import numpy as np
import pytest

from poisswell.errors import MissingPhase
from poisswell.grid import Grid, k2, k3
from poisswell.operators import curl, l2_norm
from poisswell.pauli import spin_density
from poisswell.states import (
    HydroState,
    charge_density,
    kinetic_current,
    normalize_charge,
    pauli_current,
    phase_velocity,
    reconstruct_spinor,
    wkb_current,
)

from conftest import random_band_limited


def spinup(field):
    a = np.zeros((2,) + field.shape, dtype=complex)
    a[0] = field
    return a


class TestDensity:
    def test_uniform(self):
        g = Grid((32,))
        a = spinup(np.ones(g.shape))
        assert np.allclose(charge_density(a), 1.0)

    def test_phase_invariance(self):
        g = Grid((64,))
        x = g.coordinates()[0].ravel()
        a = spinup(np.exp(1j * x))
        assert np.max(np.abs(charge_density(a) - 1.0)) < 1e-14

    def test_two_component_pointwise(self):
        g = Grid((64,))
        x = g.coordinates()[0].ravel()
        a = np.zeros((2,) + g.shape, dtype=complex)
        a[0] = np.cos(x)
        a[1] = np.sin(x)
        assert np.max(np.abs(charge_density(a) - 1.0)) < 1e-14

    def test_integral_equals_charge_squared(self, rng):
        g = Grid((32,))
        a = random_band_limited(g, rng, components=2, complex_=True)
        rho = charge_density(a)
        assert float(np.sum(rho) * g.cell_volume) == pytest.approx(
            l2_norm(g, a) ** 2, rel=1e-12
        )


class TestPhaseCurrent:
    # the kinetic current Im(conj(a) grad a), which is minus the phase current
    # (i/2)(conj(a) grad a - a grad conj(a))
    def test_uniform_is_zero(self):
        g = Grid((32,))
        w = kinetic_current(g, spinup(np.ones(g.shape)))
        assert np.max(np.abs(w)) < 1e-14

    def test_plane_wave_amplitude(self):
        # oracle: Im(conj(a) a') with a = e^{ix} gives Im(i) = 1
        g = Grid((64,))
        x = g.coordinates()[0].ravel()
        w = kinetic_current(g, spinup(np.exp(1j * x)))
        assert np.max(np.abs(w[0] - 1.0)) < 1e-12
        assert np.max(np.abs(w[1:])) < 1e-13

    def test_quadratic_scaling(self):
        g = Grid((64,))
        x = g.coordinates()[0].ravel()
        c = 1.7
        w = kinetic_current(g, spinup(c * np.exp(1j * x)))
        assert np.max(np.abs(w[0] - c**2)) < 1e-11

    @pytest.mark.parametrize("shape", [(64,), (16, 12), (12, 8, 10)])
    def test_streamed_current_is_the_gradient_formula(self, shape, rng):
        # reference: Im(conj(a) . grad a) with grad a from the full-spectrum
        # gradient of each component; the current streams one-axis derivatives
        from poisswell.operators import gradient

        g = Grid(shape)
        a = random_band_limited(g, rng, components=2, complex_=True, kmax=3)
        grad = np.stack([gradient(g, c) for c in a], axis=1)  # (3, 2, *shape)
        expected = np.sum(np.conj(a) * grad, axis=1).imag
        w = kinetic_current(g, a)
        assert np.max(np.abs(w - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestPauliCurrent:
    def test_uniform_zero(self):
        g = Grid((32,))
        J = pauli_current(g, spinup(np.ones(g.shape)), np.zeros((3,) + g.shape), 0.1)
        assert np.max(np.abs(J)) < 1e-14

    def test_plane_wave_unit_current(self):
        # Im(conj(psi) eps grad psi) = eps * (1/eps) = 1
        g = Grid((64,))
        eps = 0.125
        x = g.coordinates()[0].ravel()
        psi = spinup(np.exp(1j * x / eps))
        J = pauli_current(g, psi, np.zeros((3,) + g.shape), eps)
        assert np.max(np.abs(J[0] - 1.0)) < 1e-11

    def test_uniform_with_constant_potential(self):
        # Im(conj(psi)(-iA)psi) = -rho A
        g = Grid((32,))
        alpha = 0.6
        A = np.zeros((3,) + g.shape)
        A[0] = alpha
        J = pauli_current(g, spinup(np.ones(g.shape)), A, 0.2)
        assert np.max(np.abs(J[0] + alpha)) < 1e-13


class TestWkbCurrent:
    def test_eps_zero_reduces_to_transport(self, rng):
        g = Grid((32,))
        a = random_band_limited(g, rng, components=2, complex_=True)
        u = random_band_limited(g, rng, components=3)
        A = random_band_limited(g, rng, components=3)
        J = wkb_current(g, a, u, A, 0.0)
        rho = charge_density(a)
        assert np.max(np.abs(J - rho * (u - A))) < 1e-13

    def test_uniform_rest_state(self):
        g = Grid((32,))
        J = wkb_current(
            g, spinup(np.ones(g.shape)), np.zeros((3,) + g.shape), np.zeros((3,) + g.shape), 0.3
        )
        assert np.max(np.abs(J)) < 1e-14

    def test_unit_transport(self):
        g = Grid((32,))
        u = np.zeros((3,) + g.shape)
        u[0] = 1.0
        J = wkb_current(g, spinup(np.ones(g.shape)), u, np.zeros((3,) + g.shape), 0.3)
        assert np.max(np.abs(J[0] - 1.0)) < 1e-13

    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_matches_pauli_current_on_reconstruction(self, rng, eps):
        # acceptance 5: the algebraic identity behind the WKB current split
        g = Grid((128,))
        a = 1.0 + random_band_limited(g, rng, components=2, complex_=True, amplitude=0.3)
        S = random_band_limited(g, rng, amplitude=0.2)
        A = random_band_limited(g, rng, components=3, amplitude=0.3)
        state = HydroState(g, a=a, S=S, epsilon=eps)
        psi = reconstruct_spinor(g, state)
        J_psi = pauli_current(g, psi, A, eps)
        J_wkb = wkb_current(g, a, state.u, A, eps)
        assert l2_norm(g, J_psi - J_wkb) <= 1e-10 * max(1e-30, l2_norm(g, J_wkb))

    def test_epsilon_part_scales_linearly(self, rng):
        g = Grid((64,))
        a = 1.0 + random_band_limited(g, rng, components=2, complex_=True, amplitude=0.3)
        # u = A = None: the O(eps) part alone
        n1 = l2_norm(g, wkb_current(g, a, None, None, 0.2))
        n2 = l2_norm(g, wkb_current(g, a, None, None, 0.1))
        assert n2 == pytest.approx(0.5 * n1, rel=1e-12)


def batched_phase_velocity(grid, S_hat, u_mean):
    """``u`` and ``Lap S`` as rows of one inverse, ``Lap S`` a view of its last row."""
    ks = k3(grid, half=True)
    multipliers = [1j * ks[i] for i in range(grid.dim)] + [-k2(grid, half=True)]
    table = grid.irfft(np.stack([m * S_hat for m in multipliers]))
    u = np.zeros((3,) + grid.shape)
    u[: grid.dim] = table[: grid.dim]
    u += np.reshape(u_mean, (3,) + (1,) * grid.dim)
    return u, table[grid.dim]


class TestPhaseVelocity:
    @pytest.mark.parametrize("shape", [(64,), (16, 12), (8, 8, 8)])
    def test_divergence_owns_its_data(self, shape, rng):
        # a row of the inverse kept the whole inverse alive while it was held
        g = Grid(shape)
        S_hat = g.rfft(random_band_limited(g, rng))
        u_mean = np.array([0.5, -0.25, 0.125])
        u, lap_S = phase_velocity(g, S_hat, u_mean, laplacian=True)
        assert lap_S.flags.owndata and lap_S.base is None
        expected_u, expected_lap = batched_phase_velocity(g, S_hat, u_mean)
        assert np.array_equal(u, expected_u)
        assert np.array_equal(lap_S, expected_lap)
        assert np.array_equal(phase_velocity(g, S_hat, u_mean), expected_u)


class TestLazyVelocity:
    @pytest.mark.parametrize("shape", [(64,), (16, 12), (8, 8, 8)])
    def test_caller_made_state_builds_u_when_first_read(self, shape, rng, monkeypatch):
        from poisswell import states

        g = Grid(shape)
        S = random_band_limited(g, rng)
        a = spinup(1.0 + 0.1 * random_band_limited(g, rng))
        u_mean = np.array([0.25, 0.0, -0.5])
        eager = HydroState(g, a, S, u_mean, S_hat=g.rfft(S)).u
        calls, made = [], states.phase_velocity
        monkeypatch.setattr(states, "phase_velocity",
                            lambda *args, **kwargs: calls.append(1) or made(*args, **kwargs))
        state = HydroState(g, a, S, u_mean)
        assert calls == []
        u = state.u
        assert state.u is u and calls == [1]  # built once
        assert np.array_equal(u, eager)


class TestReconstruct:
    def test_zero_phase(self):
        g = Grid((32,))
        st = HydroState(g, a=spinup(np.ones(g.shape)), S=np.zeros(g.shape), epsilon=0.5)
        psi = reconstruct_spinor(g, st)
        assert np.max(np.abs(psi - st.a)) < 1e-14

    def test_linear_phase_from_mean_velocity(self):
        g = Grid((64,))
        eps = 0.25
        x = g.coordinates()[0].ravel()
        st = HydroState(
            g,
            a=spinup(np.ones(g.shape)),
            S=np.zeros(g.shape),
            u_mean=np.array([eps, 0.0, 0.0]),
            epsilon=eps,
        )
        psi = reconstruct_spinor(g, st)
        assert np.max(np.abs(psi[0] - np.exp(1j * x))) < 1e-12

    def test_density_preserved(self, rng):
        g = Grid((32,))
        a = random_band_limited(g, rng, components=2, complex_=True)
        S = random_band_limited(g, rng)
        st = HydroState(g, a=a, S=S, epsilon=0.1)
        psi = reconstruct_spinor(g, st)
        assert np.max(np.abs(charge_density(psi) - charge_density(a))) < 1e-12

    def test_missing_phase_raises(self):
        # a WKB state is (a, S): without its phase it is not made at all
        g = Grid((32,))
        with pytest.raises(MissingPhase, match="phase"):
            HydroState(g, a=spinup(np.ones(g.shape)), S=None, epsilon=0.1)


def test_normalize_charge(rng):
    g = Grid((64,))
    a = random_band_limited(g, rng, components=2, complex_=True)
    scaled = normalize_charge(g, a)
    assert l2_norm(g, scaled) == pytest.approx(1.0, abs=1e-10)


def test_source_term_pieces(rng):
    g = Grid((64,))
    a = 1.0 + random_band_limited(g, rng, components=2, complex_=True, amplitude=0.3)
    S = random_band_limited(g, rng, amplitude=0.2)
    st = HydroState(g, a=a, S=S, epsilon=0.2)
    rho = charge_density(st.a)
    w = kinetic_current(g, st.a)
    J = wkb_current(g, st.a, st.u, np.zeros((3,) + g.shape), st.epsilon)
    assert rho.min() >= 0.0
    assert np.isrealobj(w) and np.isrealobj(J)
    # J with A = 0 decomposes into transport plus the eps-order piece, and
    # A = None (the screened solve's source) reads as A = 0
    eps_part = st.epsilon * (w - curl(g, spin_density(st.a)))
    assert np.max(np.abs(J - (rho * st.u + eps_part))) < 1e-12
    assert np.max(np.abs(wkb_current(g, st.a, st.u, None, st.epsilon) - J)) < 1e-12
    assert np.max(np.abs(wkb_current(g, st.a, None, None, st.epsilon) - eps_part)) < 1e-12


class StandIn:
    """A solver stand-in for ``run_loop`` with zero potentials."""

    def __init__(self, **params):
        from poisswell.states import SimParams

        self.params = SimParams(**params)

    def potentials(self, state):
        from poisswell.states import Potentials

        return Potentials(V=np.zeros(1), A=np.zeros(1))

    def dt_bound(self, state, pots):
        return np.inf

    def _dealias(self, state):
        return state

    def _record(self, t, state, pots, previous):
        from poisswell.diagnostics import DiagnosticsRecord

        return DiagnosticsRecord(t=t, charge=1.0)


@pytest.mark.parametrize("n_samples", [None, 4])
def test_run_loop_places_samples(n_samples):
    # n_samples = 4 over T = 0.1 from dt = 0.01: the sample interval 0.025
    # takes per = 3 steps of 0.025 / 3, and samples land on T k / 4
    from poisswell.states import run_loop

    solver = StandIn(T=0.1, dt=0.01, sample_every=2)
    steps, sampled = [], []

    def advance(now, dt, sample):
        steps.append(dt)
        if sample:
            sampled.append(len(steps))
        return now

    run = run_loop(solver, np.zeros(1), advance, n_samples=n_samples)
    assert run.status == "completed"
    if n_samples is None:
        assert run.params is solver.params
        assert len(steps) == 10 and run.times == pytest.approx([0, 0.02, 0.04, 0.06, 0.08, 0.1])
        assert sampled == [2, 4, 6, 8, 10]
    else:
        assert run.params.sample_every == 3
        assert run.params.dt == pytest.approx(0.025 / 3, rel=1e-15)
        assert len(steps) == 12 and run.dt == pytest.approx(0.1 / 12, rel=1e-15)
        assert run.times == pytest.approx([0.1 * k / 4 for k in range(5)], rel=1e-15)
        assert sampled == [3, 6, 9, 12]


def test_run_loop_empties_the_holder_of_its_data():
    # data handed over in a one-slot holder reaches _dealias, and the loop
    # leaves the holder empty; advance steps from the loop's [state, pots]
    from poisswell.states import run_loop

    solver, data, dealiased, started = StandIn(T=0.02, dt=0.01), np.zeros(1), [], []
    solver._dealias = lambda state: dealiased.append(state) or state

    def advance(now, dt, sample):
        started.append(now[0])
        return now

    held = [data]
    run = run_loop(solver, held, advance)
    assert run.status == "completed" and held == []
    assert len(dealiased) == 1 and dealiased[0] is data
    assert len(started) == 2 and all(state is data for state in started)


def test_run_loop_zero_horizon_takes_no_step():
    from poisswell.states import run_loop

    solver = StandIn(T=0.0, dt=0.01)

    def advance(now, dt, sample):
        raise AssertionError("a T = 0 run takes no step")

    run = run_loop(solver, np.zeros(1), advance, n_samples=4)
    assert run.status == "completed" and run.times == [0.0]
    assert run.params is solver.params


@pytest.mark.parametrize("kind", ["hydro", "pauli"])
def test_keep_reads_every_sample(kind, monkeypatch):
    # a keep reads each sample's record, state and potentials, the very
    # objects its record was made from
    from poisswell.hydro import HydroSolver
    from poisswell.initial_data import gaussian_bump
    from poisswell.pauli_solver import PauliSolver
    from poisswell.states import SimParams

    g = Grid((32,))
    init = gaussian_bump(g, epsilon=0.2, amplitude=0.3)
    cls = HydroSolver if kind == "hydro" else PauliSolver
    seen, record = [], cls._record

    def spied_record(self, t, state, pots, previous):
        seen.append((state, pots))
        return record(self, t, state, pots, previous)

    monkeypatch.setattr(cls, "_record", spied_record)
    solver = cls(g, SimParams(epsilon=0.2, T=0.02))
    kept = []
    run = solver.run(init if kind == "hydro" else reconstruct_spinor(g, init), 4,
                     keep=lambda *sample: kept.append(sample))
    assert len(run.times) == len(seen) == len(kept) == 5
    assert all(r is rec for (r, _, _), rec in zip(kept, run.records))
    assert all(s is state and p is pots for (_, s, p), (state, pots) in zip(kept, seen))
