import numpy as np
import pytest

from poisswell.errors import StabilityViolation
from poisswell.grid import Grid
from poisswell.initial_data import gaussian_bump
from poisswell.operators import curl, l2_norm
from poisswell.pauli_solver import PauliSolver
from poisswell.states import (
    Potentials,
    SimParams,
    charge_density,
    default_dt,
    reconstruct_spinor,
)

from conftest import random_band_limited, sampled_run


def plane_wave_psi(grid, k):
    x = grid.coordinates()[0]
    psi = np.zeros((2,) + grid.shape, dtype=complex)
    psi[0] = np.exp(1j * k * x) * np.ones(grid.shape)
    return psi


class TestPotentials:
    def test_uniform_neutral_state(self):
        g = Grid((64,))
        solver = PauliSolver(g, SimParams(epsilon=0.2))
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = 1.0
        pots = solver.potentials(psi)
        assert np.max(np.abs(pots.V)) < 1e-13
        assert np.max(np.abs(pots.A)) < 1e-13
        assert np.max(np.abs(curl(g, pots.A))) < 1e-13

    def test_plane_wave_constant_mode_algebra(self):
        # rho = 1, kinetic current = (1,0,0): (-Delta + 1) A = e1 => A = e1
        g = Grid((64,))
        eps = 0.25
        solver = PauliSolver(g, SimParams(epsilon=eps))
        psi = plane_wave_psi(g, round(1 / eps))
        pots = solver.potentials(psi)
        assert np.max(np.abs(pots.A[0] - 1.0)) < 1e-10
        assert np.max(np.abs(curl(g, pots.A))) < 1e-10

    def test_dense_oracle_for_screened_coupling(self):
        # same dense-matrix oracle as the elliptic tests, via the solver path
        g = Grid((32,))
        x = g.coordinates()[0].ravel()
        eps = 0.5
        solver = PauliSolver(g, SimParams(epsilon=eps))
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = np.sqrt(1.0 + 0.1 * np.cos(x))
        pots = solver.potentials(psi)
        from poisswell.elliptic import apply_screened

        rho = charge_density(psi)
        res = apply_screened(g, pots.A, rho)
        from poisswell.states import kinetic_current
        from poisswell.pauli import spin_density

        rhs = eps * (kinetic_current(g, psi) - curl(g, spin_density(psi)))
        assert l2_norm(g, res - rhs) <= 1e-8 * max(1e-30, l2_norm(g, rhs))


    def test_potentials_make_no_transform_after_the_solve(self, transform_count,
                                                          monkeypatch):
        # the potentials are V and A alone: once the screened solve returns A,
        # no transform follows (a cached B = curl A took one more rfft and
        # irfft, of 3 components each)
        from collections import Counter

        from poisswell import states

        g = Grid((16, 16))
        solver = PauliSolver(g, SimParams(epsilon=0.2))
        psi = reconstruct_spinor(g, gaussian_bump(g, epsilon=0.2, phase_amplitude=0.2,
                                                  spin_angle=0.6))
        solve = states.solve_screened_vector
        at_return = []

        def solve_and_count(*args, **kwargs):
            A = solve(*args, **kwargs)
            at_return.append((Counter(transform_count), Counter(transform_count.components)))
            return A

        monkeypatch.setattr(states, "solve_screened_vector", solve_and_count)
        transform_count.clear()
        pots = solver.potentials(psi)
        assert np.any(pots.A)
        assert at_return == [(Counter(transform_count), Counter(transform_count.components))]


class TestStep:
    def test_zero_dt_is_identity(self, rng):
        g = Grid((32,))
        solver = PauliSolver(g, SimParams(epsilon=0.3))
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = 1.0 + 0.1 * np.cos(g.coordinates()[0].ravel())
        out = solver.step(psi, 0.0)
        assert np.array_equal(out, psi)

    def test_uniform_state_stationary(self):
        g = Grid((32,))
        solver = PauliSolver(g, SimParams(epsilon=0.2))
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = 1.0
        out = solver.step(psi, 0.01)
        assert np.max(np.abs(out - psi)) < 1e-12

    def test_free_plane_wave_exact(self):
        # kinetic propagator alone is exact: e^{ikx} -> e^{i(kx - eps k^2 t/2)}
        g = Grid((64,))
        eps, k, T = 0.5, 3, 1.0
        params = SimParams(epsilon=eps, dt=0.05, T=T, coupling=False)
        _, samples = sampled_run(PauliSolver(g, params), plane_wave_psi(g, k))
        x = g.coordinates()[0]
        exact = np.exp(1j * (k * x - 0.5 * eps * k**2 * T)) * np.ones(g.shape)
        assert np.max(np.abs(samples.states[-1][0] - exact)) < 1e-12
        assert np.max(np.abs(samples.states[-1][1])) < 1e-14

    def test_unitarity_of_multiply(self, rng):
        g = Grid((32,))
        solver = PauliSolver(g, SimParams(epsilon=0.2))
        psi = np.zeros((2,) + g.shape, dtype=complex)
        x = g.coordinates()[0].ravel()
        psi[0] = np.sqrt(1.0 + 0.2 * np.cos(x))
        psi[1] = 0.1 * np.exp(1j * x)
        pots = solver.potentials(psi)
        out = solver._multiply(psi, 0.01, pots, curl(g, pots.A))
        assert abs(l2_norm(g, out) - l2_norm(g, psi)) < 1e-13

    def test_transport_is_the_physical_midpoint_rule(self, rng):
        # the transport half step builds its midpoint in spectral space; the
        # reference is the same midpoint rule with every derivative and mask
        # taken by the physical-space operators
        from poisswell.operators import advect, dealias, divergence

        g = Grid((16, 12))
        solver = PauliSolver(g, SimParams(epsilon=0.3))
        psi = random_band_limited(g, rng, components=2, complex_=True, kmax=3)
        A = random_band_limited(g, rng, components=3, kmax=3, amplitude=0.5)
        pots = Potentials(V=np.zeros(g.shape), A=A)
        divA = divergence(g, A)

        def rhs(f):
            return dealias(g, advect(g, A, f) + 0.5 * divA * f)

        tau = 0.05
        expected = psi + tau * rhs(psi + 0.5 * tau * rhs(psi))
        got = solver._transport(psi, tau, pots, divA)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(psi))

    @pytest.mark.parametrize("shape", [(64,), (16, 12), (8, 8, 8)])
    def test_step_matches_the_physical_space_step(self, shape):
        # the reference takes every substep from physical-space operators
        # and transforms psi afresh for each
        from poisswell.grid import dealias_mask, k2
        from poisswell.operators import advect, dealias, divergence

        g = Grid(shape)
        eps = 0.3
        solver = PauliSolver(g, SimParams(epsilon=eps))
        st = gaussian_bump(g, amplitude=0.3, width=0.8, epsilon=eps,
                           phase_amplitude=0.2, spin_angle=0.6)
        psi0 = solver._dealias(reconstruct_spinor(g, st))
        dt = 0.5 * default_dt(solver, psi0, solver.potentials(psi0))
        tau = 0.5 * dt

        def kinetic(psi, mask=True):
            return g.ifft(g.fft(psi) * np.exp(-0.5j * eps * tau * k2(g)) * mask)

        def transport(psi, pots):
            divA = divergence(g, pots.A)

            def rhs(f):
                return dealias(g, advect(g, pots.A, f) + 0.5 * divA * f)

            return psi + tau * rhs(psi + 0.5 * tau * rhs(psi))

        # the predictor steps with the potentials of psi0, the step's start
        start = solver.potentials(psi0)
        assert np.any(start.A)
        psi = kinetic(psi0)
        predicted = solver._multiply(transport(psi, start), tau, start, curl(g, start.A))
        pots = solver.potentials(predicted, guess=start.A)
        B = curl(g, pots.A)
        psi = transport(solver._multiply(transport(psi, pots), dt, pots, B), pots)
        expected = kinetic(psi, dealias_mask(g))
        got = solver.step(psi0, dt)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_step_transform_budget(self, transform_count):
        # a coupled 32^3 step given its predictor potentials, as a run's
        # steps are, makes 118 transformed components: psi is transformed
        # once on entry and once on exit, the midpoint solve is the only
        # one, and it iterates in spectral space; the six transport passes
        # and the midpoint's current stream psi's derivatives from transform
        # pairs along each axis, 4 components each where inverting psi's
        # spectrum once per axis made 6, and its current's 8 (134 in all)
        g = Grid((32, 32, 32))
        params = SimParams(epsilon=0.2, T=0.05)
        solver = PauliSolver(g, params)
        st = gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2)
        psi = solver._dealias(reconstruct_spinor(g, st))
        pots = solver.potentials(psi)
        dt = default_dt(solver, psi, pots)
        fields = solver._fields(pots)
        transform_count.clear()
        solver.step(psi, dt, fields)
        assert sum(transform_count.components.values()) <= 118

    def test_stability_violation_raised(self):
        g = Grid((32,))
        x = g.coordinates()[0].ravel()
        solver = PauliSolver(g, SimParams(epsilon=0.01))
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = np.sqrt(1.0 + 0.5 * np.cos(x))
        with pytest.raises(StabilityViolation):
            solver.step(psi, 10.0)


class TestRun:
    def test_zero_horizon_returns_initial(self):
        g = Grid((32,))
        psi = plane_wave_psi(g, 1)
        params = SimParams(epsilon=0.5, T=0.0, coupling=False)
        run, samples = sampled_run(PauliSolver(g, params), psi)
        assert len(run.times) == len(samples) == 1
        assert np.max(np.abs(samples.states[0] - psi)) < 1e-13

    def test_charge_conservation_wkb_bump(self):
        # acceptance 2 (spinor side): d=1, N=128, eps=0.1, T=0.5
        g = Grid((128,))
        state = gaussian_bump(g, epsilon=0.1)
        psi0 = reconstruct_spinor(g, state)
        run = PauliSolver(g, SimParams(epsilon=0.1, T=0.5, sample_every=8)).run(psi0)
        assert run.status == "completed"
        assert run.charge_drift <= 1e-6

    def test_self_convergence_order_two(self):
        g = Grid((64,))
        state = gaussian_bump(g, epsilon=0.25, amplitude=0.3)
        psi0 = reconstruct_spinor(g, state)
        ends = {}
        for dt in (2e-3, 1e-3, 5e-4):
            params = SimParams(epsilon=0.25, dt=dt, T=0.2, sample_every=10**6)
            ends[dt] = sampled_run(PauliSolver(g, params), psi0)[1].states[-1]
        d1 = l2_norm(g, ends[2e-3] - ends[1e-3])
        d2 = l2_norm(g, ends[1e-3] - ends[5e-4])
        assert d1 / d2 >= 3.5  # order ~ 2

    def test_warnings_recorded_not_lost(self, recwarn, monkeypatch):
        # the shared run loop keeps a spinor run's warnings, as a WKB run's
        import warnings

        from poisswell import pauli_solver

        tail = pauli_solver.spectral_tail_fraction

        def warning_tail(*args):
            warnings.warn("tail sample warned")
            return tail(*args)

        monkeypatch.setattr(pauli_solver, "spectral_tail_fraction", warning_tail)
        g = Grid((32,))
        run = PauliSolver(g, SimParams(epsilon=0.5, T=0.03, dt=0.01)).run(plane_wave_psi(g, 2))
        assert run.warnings == ["tail sample warned"]
        assert len(recwarn) == 0

    def test_run_invariants(self):
        g = Grid((64,))
        state = gaussian_bump(g, epsilon=0.2)
        params = SimParams(epsilon=0.2, T=0.1, sample_every=3)
        run = PauliSolver(g, params).run(reconstruct_spinor(g, state))
        assert all(b > a for a, b in zip(run.times, run.times[1:]))
        c0 = run.records[0].charge
        for rec in run.records:
            assert abs(rec.charge - c0) <= run.charge_drift * c0 + 1e-15

    def test_energy_conservation_without_magnetic(self):
        g = Grid((128,))
        state = gaussian_bump(g, epsilon=0.25, amplitude=0.3)
        psi0 = reconstruct_spinor(g, state)
        params = SimParams(epsilon=0.25, dt=1e-3, T=0.25, magnetic=False, sample_every=50)
        run = PauliSolver(g, params).run(psi0)
        e = [r.energy for r in run.records]
        drift = max(abs(v - e[0]) for v in e) / abs(e[0])
        assert drift <= 1e-4


def tilted_spin_psi(grid, eps=0.2):
    return reconstruct_spinor(grid, gaussian_bump(grid, epsilon=eps, amplitude=0.3,
                                                  phase_amplitude=0.2, spin_angle=0.5))


class TestRunScheme:
    """A magnetic run's steps predict from extrapolated potentials."""

    def test_one_screened_solve_per_step(self, monkeypatch):
        # each solve notes how many steps had begun: the initial solve, then
        # one per step, and none at the samples taken after every step
        from poisswell import states

        begun, solves = [], []
        solve, step = states.solve_screened_vector, PauliSolver.step

        def counted_solve(*args, **kwargs):
            solves.append(len(begun))
            return solve(*args, **kwargs)

        def counted_step(self, *args, **kwargs):
            begun.append(1)
            return step(self, *args, **kwargs)

        monkeypatch.setattr(states, "solve_screened_vector", counted_solve)
        monkeypatch.setattr(PauliSolver, "step", counted_step)
        g = Grid((16, 16))
        params = SimParams(epsilon=0.2, T=0.05, dt=0.01, sample_every=1)
        run = PauliSolver(g, params).run(tilted_spin_psi(g))
        assert run.status == "completed" and len(run.times) == 6
        assert len(begun) == 5
        assert solves == [0, 1, 2, 3, 4, 5]

    def test_predictor_extrapolates_the_solved_points(self, monkeypatch):
        # step 1 takes P_0, step 2 2 P_1/2 - P_0, later steps
        # 1.5 P_n-1/2 - 0.5 P_n-3/2 for V and A; the solved points are kept
        # as potentials, and B and div A are taken from the extrapolated A,
        # within round-off of the extrapolated B and div A of the points
        seen = []  # (predictor fields, midpoint potentials) per step
        step = PauliSolver.step

        def spy(self, psi, dt, fields=None, solved=None, history=None):
            out = step(self, psi, dt, fields, solved, history)
            seen.append((fields, solved[-1]))
            return out

        monkeypatch.setattr(PauliSolver, "step", spy)
        g = Grid((16, 16))
        solver = PauliSolver(g, SimParams(epsilon=0.2, T=0.04, dt=0.01))
        _, samples = sampled_run(solver, tilted_spin_psi(g))
        assert len(seen) == 4
        points = [samples.potentials[0]] + [mid for _, mid in seen]
        assert all(type(p) is Potentials for p in points)
        first = seen[0][0]
        assert first[0] is samples.potentials[0]
        assert all(np.array_equal(a, b) for a, b in zip(first[1:], solver._fields(points[0])[1:]))
        for n, (fields, _) in enumerate(seen[1:], start=1):
            w = 1.0 if n == 1 else 0.5
            p0, p1 = points[n - 1], points[n]
            assert np.array_equal(fields[0].V, (1 + w) * p1.V - w * p0.V)
            assert np.array_equal(fields[0].A, (1 + w) * p1.A - w * p0.A)
            derived = solver._fields(fields[0])[1:]
            assert all(np.array_equal(a, b) for a, b in zip(fields[1:], derived))
            (B0, d0), (B1, d1) = solver._magnetic(p0.A), solver._magnetic(p1.A)
            for got, x0, x1 in zip(fields[1:], (B0, d0), (B1, d1)):
                line = (1 + w) * x1 - w * x0
                assert np.max(np.abs(got - line)) <= 1e-13 * np.max(np.abs(line))

    def test_first_step_is_the_standalone_step(self):
        # a lone step solves the potentials of psi, which are the run's P_0
        g = Grid((16, 16))
        solver = PauliSolver(g, SimParams(epsilon=0.2, T=0.01, dt=0.01))
        psi0 = tilted_spin_psi(g)
        _, samples = sampled_run(solver, psi0)
        assert np.array_equal(samples.states[-1], solver.step(solver._dealias(psi0), 0.01))

    def test_sample_A_is_the_cold_solve_of_the_stored_state(self):
        # a sample's potentials keep V and the sample's spinor; A, solved
        # when first read, has the bits of an eager cold solve
        g = Grid((16, 16))
        solver = PauliSolver(g, SimParams(epsilon=0.2, T=0.04, dt=0.01, sample_every=2))
        _, samples = sampled_run(solver, tilted_spin_psi(g))
        assert len(samples) == 3
        for _, psi, pots in samples[1:]:
            held = [v for v in vars(pots).values() if isinstance(v, np.ndarray)]
            assert len(held) == 2 and held[0] is pots.V and held[1] is psi
        for _, psi, pots in samples:
            assert np.array_equal(pots.A, solver.potentials(psi).A)
            assert np.array_equal(pots.V, solver.potentials(psi).V)

    def test_self_convergence_order_two_2d(self):
        # 32^2 tilted-spin data with the magnetic coupling: the errors
        # against dt = 1.25e-4 fall at second order (4.01 and 4.05 seen)
        g = Grid((32, 32))
        eps = 0.25
        psi0 = tilted_spin_psi(g, eps)
        ends = {}
        for dt in (4e-3, 2e-3, 1e-3, 1.25e-4):
            params = SimParams(epsilon=eps, dt=dt, T=0.1, sample_every=10**6, magnetic=True)
            run, samples = sampled_run(PauliSolver(g, params), psi0)
            assert run.status == "completed"
            ends[dt] = samples.states[-1]
        e = [l2_norm(g, ends[dt] - ends[1.25e-4]) for dt in (4e-3, 2e-3, 1e-3)]
        assert e[0] / e[1] >= 3.9
        assert e[1] / e[2] >= 3.9


class TestStopRules:
    """How a spinor run ends: each failure ends it as a blow-up."""

    @staticmethod
    def run(monkeypatch=None, change=None, keep=None):
        """
        A 4-step magnetic run sampled after every step, which hands each
        sample to ``keep``; ``change(n, psi)`` returns the n-th step's result
        in place of ``psi``.
        """
        if change is not None:
            step, calls = PauliSolver.step, []

            def changed(self, *args, **kwargs):
                calls.append(1)
                return change(len(calls), step(self, *args, **kwargs))

            monkeypatch.setattr(PauliSolver, "step", changed)
        g = Grid((16, 16))
        return PauliSolver(g, SimParams(epsilon=0.2, T=0.04, dt=0.01)).run(tilted_spin_psi(g),
                                                                           keep=keep)

    @pytest.mark.parametrize("fail_at", [2, 4])  # the midpoint solves of steps 1 and 3
    def test_failed_midpoint_solve_ends_the_run(self, elliptic_spy, fail_at):
        elliptic_spy.fail_at = fail_at
        run = self.run()
        assert run.status == "blowup" and run.stop_reason == "elliptic solve diverged"
        assert len(run.times) == fail_at - 1

    def test_crossed_bound_ends_the_run_with_its_message(self, monkeypatch):
        def violate(n, psi):
            if n == 2:
                raise StabilityViolation("dt=0.01 exceeds stability bound 0.005")
            return psi

        run = self.run(monkeypatch, violate)
        assert run.status == "blowup"
        assert run.stop_reason == "dt=0.01 exceeds stability bound 0.005"
        assert len(run.times) == 2

    def test_non_finite_state_ends_the_run_unsolved(self, monkeypatch, elliptic_spy):
        # step 2 returns a NaN: the run ends, and no solve sees it
        def poison(n, psi):
            if n == 2:
                psi[0, 3, 5] = np.nan
            return psi

        run = self.run(monkeypatch, poison)
        assert run.status == "blowup" and run.stop_reason == "non-finite state"
        assert len(run.times) == 2
        assert elliptic_spy.finite and all(elliptic_spy.finite)

    def test_samples_are_the_states_the_steps_returned(self, monkeypatch):
        # every sample a keep reads keeps the bits its step returned
        returned, states = [], []

        def change(n, psi):
            returned.append(psi.copy())
            return psi

        run = self.run(monkeypatch, change, keep=lambda record, psi, pots: states.append(psi))
        assert run.status == "completed" and len(states) == 5
        assert all(np.array_equal(psi, ref) for psi, ref in zip(states[1:], returned))
