import copy
from dataclasses import replace

import numpy as np
import pytest

from poisswell.diagnostics import MonitorThresholds
from poisswell.elliptic import apply_screened
from poisswell.errors import InsufficientHistory, StabilityViolation
from poisswell.grid import Grid, dealias_mask, k2, k3
from poisswell.hydro import HydroSolver, euler_fields_form, residual_window
from poisswell.initial_data import compressive, gaussian_bump, plane_wave, uniform
from poisswell.operators import curl, derivative_table, divergence, gradient, l2_norm, laplacian
from poisswell.states import (
    HydroState,
    Potentials,
    SimParams,
    charge_density,
    default_dt,
    phase_velocity,
    self_consistent_potentials,
)

from conftest import random_band_limited, sampled_run


def random_state(grid, rng, eps=0.1, amp=0.25):
    a = 1.0 + random_band_limited(grid, rng, components=2, complex_=True, amplitude=amp)
    S = random_band_limited(grid, rng, amplitude=0.2)
    return HydroState(grid, a=a, S=S, epsilon=eps)


class TestPotentials:
    def test_uniform_rest(self):
        g = Grid((64,))
        solver = HydroSolver(g, SimParams(epsilon=0.1))
        pots = solver.potentials(uniform(g))
        assert np.max(np.abs(pots.V)) < 1e-13
        assert np.max(np.abs(pots.A)) < 1e-13

    def test_euler_unit_density_cosine_velocity(self):
        # eps=0, rho=1, u=(cos x,0,0): (-Delta+1)A = cos x => A = cos x / 2
        g = Grid((64,))
        x = g.coordinates()[0].ravel()
        st = HydroState(g, a=uniform(g).a, S=np.sin(x), epsilon=0.0)
        solver = HydroSolver(g, SimParams(epsilon=0.0))
        pots = solver.potentials(st)
        assert np.max(np.abs(pots.A[0] - np.cos(x) / 2.0)) < 1e-10

    def test_vector_equation_residual(self, rng):
        # residual substitution oracle for the screened A equation
        g = Grid((64,))
        st = random_state(g, rng)
        solver = HydroSolver(g, SimParams(epsilon=st.epsilon))
        pots = solver.potentials(st)
        from poisswell.states import kinetic_current
        from poisswell.pauli import spin_density

        rho = charge_density(st.a)
        rhs = rho * st.u + st.epsilon * (
            kinetic_current(g, st.a) - curl(g, spin_density(st.a))
        )
        res = apply_screened(g, pots.A, rho) - rhs
        assert l2_norm(g, res) <= 1e-10 * l2_norm(g, rhs)


class TestRhs:
    def test_uniform_fixed_point(self):
        g = Grid((32,))
        solver = HydroSolver(g, SimParams(epsilon=0.1))
        st = uniform(g)
        da, dS = solver.rhs(st, solver.potentials(st))
        assert np.max(np.abs(da)) < 1e-13
        assert np.max(np.abs(dS)) < 1e-13

    def test_velocity_derivative_is_phase_gradient(self, rng):
        # the record's d_t u is the gradient of the rhs's d_t S, taken from
        # its dealiased spectrum: to the bit, and d_t S is that spectrum inverted
        from poisswell.diagnostics import functionals

        g = Grid((64,))
        st = random_state(g, rng)
        solver = HydroSolver(g, SimParams(epsilon=st.epsilon))
        pots = solver.potentials(st)
        dS_hat = solver._phase_rhs(st.u, pots)
        dS = solver.rhs(st, pots)[1]
        assert np.array_equal(g.irfft(dS_hat), dS)
        du = derivative_table(g, dS_hat)
        assert l2_norm(g, du[0] - gradient(g, dS)[0]) <= 1e-12 * l2_norm(g, du)
        rec = solver._record(0.0, st, pots, None)
        assert rec.xs_eps_dtu == functionals(g, st, solver.params.s, dt_u=du).xs_eps_dtu

    def test_frozen_constant_potential_is_inert(self):
        # a=(1,0), u=0, A=(alpha,0,0) constant: all derivatives vanish
        g = Grid((32,))
        st = uniform(g)
        solver = HydroSolver(g, SimParams(epsilon=0.1))
        pots = solver.potentials(st)
        pots.A[0] = 0.4
        da, dS = solver.rhs(st, pots)
        assert np.max(np.abs(da)) < 1e-13
        # dS picks up the constant -|A|^2/2 only: a uniform phase shift
        assert np.max(np.abs(dS + 0.08)) < 1e-13

    def test_euler_reduces_to_euler_poisson_without_magnetic(self, rng):
        # A=0, eps=0, real a: d_t u + u.grad u + grad V = 0 with d_t u = grad d_t S
        g = Grid((64,))
        st = random_state(g, rng, eps=0.0)
        st.a = np.abs(st.a.real).astype(complex)
        solver = HydroSolver(g, SimParams(epsilon=0.0, magnetic=False))
        pots = solver.potentials(st)
        du = gradient(g, solver.rhs(st, pots)[1])
        from poisswell.operators import advect

        expected = -advect(g, st.u, st.u) - gradient(g, pots.V)
        assert np.max(np.abs(du - expected)) < 1e-11

    def test_density_form_identity(self, rng):
        # d_t rho from the amplitude equation matches -div(rho(u-A))
        g = Grid((64,))
        st = random_state(g, rng, eps=0.0, amp=0.2)
        solver = HydroSolver(g, SimParams(epsilon=0.0))
        pots = solver.potentials(st)
        da, dS = solver.rhs(st, pots)
        dt_rho = 2.0 * np.einsum("i...,i...->...", np.conj(st.a), da).real
        res = l2_norm(g, dt_rho + divergence(g, charge_density(st.a) * (st.u - pots.A)))
        assert res <= 1e-10 * max(1.0, l2_norm(g, charge_density(st.a)))

    def test_spectral_amplitude_derivative(self, rng):
        # _nonlinear hands over the masked spectra of d_t a and d_t S: zero
        # above the band, and the physical derivatives once inverted, which
        # the rhs of the same state at eps = 0, without dispersion, returns
        g = Grid((32,))
        st = random_state(g, rng)
        solver = HydroSolver(g, SimParams(epsilon=st.epsilon))
        pots = solver.potentials(st)
        da_hat, dS_hat = solver._nonlinear(st.a, st.u, laplacian(g, st.S), pots)
        da, dS = solver.rhs(replace(st, epsilon=0.0), pots)
        assert np.all(da_hat[:, ~dealias_mask(g)] == 0.0)
        assert np.all(dS_hat[~dealias_mask(g, half=True)] == 0.0)
        assert np.array_equal(g.ifft(da_hat), da)
        assert np.array_equal(g.irfft(dS_hat), dS)


class TestStep:
    def test_uniform_state_unchanged(self):
        g = Grid((32,))
        solver = HydroSolver(g, SimParams(epsilon=0.1))
        st = uniform(g)
        out = solver.step_rk4(st, 0.01)
        assert np.max(np.abs(out.a - st.a)) < 1e-14

    def test_linear_advection_order_four(self):
        # d_t a + c d_x a = 0 through the real right-hand side: no coupling,
        # eps = 0 and the constant velocity u = u_mean = (c, 0, 0), which the
        # step keeps; dt-halving study
        g = Grid((64,))
        c = 1.0
        x = g.coordinates()[0].ravel()
        solver = HydroSolver(g, SimParams(epsilon=0.0, coupling=False))

        def advance(dt, n):
            u = np.zeros((3,) + g.shape)
            u[0] = c
            st = HydroState(
                g,
                a=np.exp(np.sin(x))[None, :] * np.ones((2, 1)) + 0j,
                S=np.zeros(g.shape),
                u_mean=np.array([c, 0.0, 0.0]),
                epsilon=0.0,
            )
            for _ in range(n):
                st = solver.step_rk4(st, dt)
            assert np.array_equal(st.u, u)
            return st.a

        T = 0.5
        errs = []
        for n in (8, 16):
            aT = advance(T / n, n)
            exact = np.exp(np.sin(x - c * T))[None, :] * np.ones((2, 1))
            errs.append(np.max(np.abs(aT - exact)))
        order = np.log2(errs[0] / errs[1])
        assert order >= 3.8

    def test_cfl_violation_raises(self):
        g = Grid((64,))
        solver = HydroSolver(g, SimParams(epsilon=0.5))
        st = gaussian_bump(g, epsilon=0.5)
        # the bound is dx / ||u - A||_inf = 1.88 (0.98 if A were 0)
        with pytest.raises(StabilityViolation):
            solver.step_rk4(st, 4.0)

    def test_bound_of_the_given_potentials(self):
        # u = 0, so only A sets the bound: dt is checked against the bound of
        # the potentials the step is handed, not against one with A = 0
        g = Grid((64,))
        solver = HydroSolver(g, SimParams(epsilon=0.2))
        st = gaussian_bump(g, epsilon=0.2, amplitude=0.3, phase_amplitude=0.0)
        pots = solver.potentials(st)
        bound = solver.dt_bound(st, pots)
        assert np.max(np.abs(st.u)) == 0.0 and np.isfinite(bound)
        with pytest.raises(StabilityViolation, match=r"dt=.* exceeds bound .* at t=0"):
            solver.step_rk4(st, 5.0 * bound, pots)

    def test_dt_above_old_dispersive_bound_accepted(self):
        # the old bound dx / (||u||_inf + eps k_max / 2) no longer applies
        g = Grid((64,))
        eps = 0.5
        solver = HydroSolver(g, SimParams(epsilon=eps))
        st = gaussian_bump(g, epsilon=eps)
        pots = solver.potentials(st)
        dx = g.spacings[0]
        rel_inf = float(np.max(np.abs(st.u - pots.A)))
        old_bound = dx / (rel_inf + 0.5 * eps * float(np.max(np.abs(k3(g)[0]))))
        assert solver.dt_bound(st, pots) == dx / rel_inf
        dt = 0.5 * solver.dt_bound(st, pots)
        assert dt > 10.0 * old_bound
        out = solver.step_rk4(st, dt, pots)
        assert np.all(np.isfinite(out.a)) and np.all(np.isfinite(out.u))


class TestIntegratingFactor:
    def test_free_flow_oracle(self):
        # no coupling, u = S = 0: one step is the exact free Schroedinger flow
        g = Grid((64,))
        eps = 0.2
        x = g.coordinates()[0]
        a = np.stack([np.exp(-2.0 * (x - np.pi) ** 2), 0.5j * np.exp(-(x - 2.0) ** 2)])
        solver = HydroSolver(g, SimParams(epsilon=eps, coupling=False))
        st = solver._dealias(HydroState(g, a=a, S=np.zeros(g.shape), epsilon=eps))
        old_bound = g.spacings[0] / (0.5 * eps * float(np.max(np.abs(k3(g)[0]))))
        dt = 10.0 * old_bound
        out = solver.step_rk4(st, dt)
        exact = g.ifft(np.exp(-0.5j * eps * dt * k2(g)) * g.fft(st.a))
        assert np.max(np.abs(out.a - exact)) <= 1e-12
        assert np.max(np.abs(out.u)) == 0.0

    @pytest.mark.parametrize("eps", [0.0, 0.2])
    def test_step_leaves_no_energy_above_the_band(self, eps, rng):
        # a' is cut to the 2/3 band: masked as a spectrum before its one
        # inverse, at eps > 0 and at eps = 0 alike
        g = Grid((32,))
        a = rng.standard_normal((2, 32)) + 1j * rng.standard_normal((2, 32))
        solver = HydroSolver(g, SimParams(epsilon=eps, coupling=False))
        st = HydroState(g, a=a, S=np.zeros(32), epsilon=eps)
        out = solver.step_rk4(st, 0.01)
        assert np.max(np.abs(g.fft(out.a)[:, ~dealias_mask(g)])) < 1e-13

    def test_coupled_order_four(self):
        # dt-halving of the final-state error against a dt/8 reference, at
        # steps above the old dispersive bound
        g = Grid((64,))
        eps, T, dt = 0.2, 0.4, 0.1
        init = gaussian_bump(g, epsilon=eps, amplitude=0.3)

        def final(h):
            params = SimParams(epsilon=eps, dt=h, T=T, sample_every=10**6)
            return sampled_run(HydroSolver(g, params), init)[1].states[-1]

        ref = final(dt / 8)
        errs = []
        for h in (dt, dt / 2):
            st = final(h)
            errs.append(l2_norm(g, st.a - ref.a) + l2_norm(g, st.u - ref.u))
        assert np.log2(errs[0] / errs[1]) >= 3.8

    def test_euler_step_is_classical_rk4(self, rng):
        # eps = 0: the factor is 1 and the step is classical RK4 on the full
        # rhs of (a_hat, S_hat), to the last bit (A = 0, so no screened solve
        # varies); k1 reads the state's own a and each later stage the inverse
        # of its stage spectrum, and u and div u come from S_hat at each stage
        g = Grid((64,))
        st = random_state(g, rng, eps=0.0)
        params = SimParams(epsilon=0.0, magnetic=False)
        solver = HydroSolver(g, params)
        dt = 0.01

        def full_rhs(a, S_hat):
            u, lap_S = phase_velocity(g, S_hat, st.u_mean, laplacian=True)
            pots = self_consistent_potentials(g, params, a, 0.0, u)
            return solver._nonlinear(a, u, lap_S, pots)

        y = (g.fft(st.a), g.rfft(st.S))
        ks = [full_rhs(st.a, y[1])]
        for frac in (0.5, 0.5, 1.0):
            a_hat, S_hat = (x + (frac * dt) * dx for x, dx in zip(y, ks[-1]))
            ks.append(full_rhs(g.ifft(a_hat), S_hat))
        combo = [(a + 2.0 * b + 2.0 * c + d) / 6.0 for a, b, c, d in zip(*ks)]
        a_hat, S_hat = (x + dt * dx for x, dx in zip(y, combo))
        S_hat = S_hat * dealias_mask(g, half=True)
        out = solver.step_rk4(st, dt)
        assert np.array_equal(out.a, g.ifft(a_hat * dealias_mask(g)))
        assert np.array_equal(out.S, g.irfft(S_hat))
        assert np.array_equal(out.u, phase_velocity(g, S_hat, st.u_mean))


class TestTransformCounts:
    def test_step_keeps_the_amplitude_spectral(self, transform_count):
        # eps > 0, no coupling: the stage derivatives of a and S arrive as
        # masked spectra; each stage inverts a from the stage spectrum, u and
        # div u from the stage's S_hat in one batched inverse, and streams
        # a's derivatives from a transform pair along each axis, which count
        # 2 full transforms in 3d (28 in all; 32 when each stage inverted
        # the stage spectrum once per axis, 3 full transforms)
        g = Grid((16, 16, 16))
        solver = HydroSolver(g, SimParams(epsilon=0.2, coupling=False))
        st = solver._dealias(gaussian_bump(g, epsilon=0.2))
        transform_count.clear()
        solver.step_rk4(st, 0.01)
        assert sum(transform_count.values()) == 28

    def test_coupled_step_transform_budget(self, transform_count):
        # a coupled 32^3 step and the potentials of its result: one spectrum
        # per field and stage, u from S_hat and spectral CG make 297
        # transformed components; the bound leaves room for two more CG
        # iterations (six components each), whose count the data can move
        g = Grid((32, 32, 32))
        solver = HydroSolver(g, SimParams(epsilon=0.2, T=0.05))
        st = solver._dealias(gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2))
        pots = solver.potentials(st)
        dt = default_dt(solver, st, pots)
        transform_count.clear()
        new = solver.step_rk4(st, dt, pots)
        solver.potentials(new, guess=pots.A)
        assert sum(transform_count.components.values()) <= 310

    def test_record_transforms_each_field_once(self, transform_count):
        # one 32^3 sample: one spectrum each of a, u and d_t S (d_t u = grad
        # d_t S is normed from i k times it); the inverses make 3 first and
        # 6 second derivatives of a's 2 components, and 3 first derivatives
        # of u's 3, whose second derivatives nothing reads
        g = Grid((32, 32, 32))
        solver = HydroSolver(g, SimParams(epsilon=0.2, T=0.05))
        st = solver._dealias(gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2))
        pots = solver.potentials(st)
        transform_count.clear()
        solver._record(0.0, st, pots, None)
        assert (transform_count["fft"], transform_count["rfft"]) == (1, 2)
        assert dict(transform_count.components) == {"fft": 2, "rfft": 4, "ifft": 18, "irfft": 9}


class TestRun:
    def test_uniform_trajectory_constant(self):
        g = Grid((32,))
        run, samples = sampled_run(HydroSolver(g, SimParams(epsilon=0.1, T=0.2, dt=0.02)),
                                   uniform(g))
        assert run.status == "completed"
        final = samples.states[-1]
        assert np.max(np.abs(final.a - samples.states[0].a)) < 1e-12
        assert np.max(np.abs(final.u)) < 1e-12

    def test_warnings_recorded_not_lost(self, recwarn):
        # s < 7/2 makes every diagnostics sample warn; the run keeps the
        # message once and lets none escape
        g = Grid((32,))
        params = SimParams(epsilon=0.1, T=0.04, dt=0.01, s=3.0)
        run = HydroSolver(g, params).run(gaussian_bump(g, epsilon=0.1))
        assert run.warnings == ["regularity s=3.0 below the 7/2 hypothesis"]
        assert len(recwarn) == 0
        quiet = HydroSolver(g, replace(params, s=4.0)).run(gaussian_bump(g, epsilon=0.1))
        assert quiet.warnings == []

    def test_sample_velocity_derivative_bitwise(self):
        # every sample's d_t u is the gradient of the rhs's d_t S, from its
        # spectrum, to the bit
        from poisswell.diagnostics import functionals

        g = Grid((64,))
        params = SimParams(epsilon=0.2, T=0.04, dt=0.01)
        run, samples = sampled_run(HydroSolver(g, params), gaussian_bump(g, epsilon=0.2))
        solver = HydroSolver(g, run.params)
        for rec, st, pots in samples:
            dS_hat = solver._phase_rhs(st.u, pots)
            assert np.array_equal(g.irfft(dS_hat), solver.rhs(st, pots)[1])
            fn = functionals(g, st, run.params.s, dt_u=derivative_table(g, dS_hat))
            assert rec.xs_eps_dtu == fn.xs_eps_dtu

    def test_charge_conservation_bump(self):
        # acceptance 2 (hydro side): d=1, N=128, eps=0.1, T=0.5
        g = Grid((128,))
        params = SimParams(epsilon=0.1, T=0.5, sample_every=8)
        run = HydroSolver(g, params).run(gaussian_bump(g, epsilon=0.1))
        assert run.status == "completed"
        assert run.charge_drift <= 1e-6

    def test_gradient_consistency_and_irrotationality(self):
        g = Grid((128,))
        params = SimParams(epsilon=0.1, T=0.2, sample_every=4)
        _, samples = sampled_run(HydroSolver(g, params), gaussian_bump(g, epsilon=0.1))
        for st in samples.states[1:]:
            u_norm = l2_norm(g, st.u)
            assert l2_norm(g, curl(g, st.u)) <= 1e-8 * u_norm
            assert l2_norm(g, st.u - gradient(g, st.S)) <= 1e-8 * u_norm

    def test_zero_horizon(self):
        g = Grid((32,))
        run, samples = sampled_run(HydroSolver(g, SimParams(epsilon=0.1, T=0.0)), uniform(g))
        assert len(run.times) == len(samples) == 1

    def test_screened_solves_per_step(self, cg_iterations):
        # one solve for the initial potentials, then four per RK4 step: the
        # first stage reuses the potentials the run loop already holds
        g = Grid((64,))
        n = 5
        params = SimParams(epsilon=0.1, T=n * 0.01, dt=0.01, sample_every=2)
        run = HydroSolver(g, params).run(gaussian_bump(g, epsilon=0.1))
        assert run.status == "completed"
        assert len(cg_iterations) == 1 + 4 * n

    def test_every_step_solve_extrapolates_A(self, monkeypatch):
        # the solve after each step starts from the polynomial through the
        # last four post-step A's at the next step: the last A, the line
        # through two, the quadratic through three, then the cubic.  The
        # solve after step n (0: the initial one) returns A = p(n), cubic in
        # n, so from step 4 on the guess is p(n) itself, which no lower
        # order gives
        g = Grid((16,))
        solver = HydroSolver(g, SimParams(epsilon=0.1, T=0.06, dt=0.01, sample_every=2))
        guesses = []

        def p(n):
            return 1.0 + n - 2.0 * n**2 + 0.5 * n**3

        def potentials(state, guess=None):
            guesses.append(None if guess is None else float(guess[0, 0]))
            return Potentials(V=np.zeros(g.shape), A=np.full((3,) + g.shape, p(len(guesses) - 1)))

        monkeypatch.setattr(solver, "potentials", potentials)
        monkeypatch.setattr(solver, "step_rk4",
                            lambda state, dt, pots, history: replace(state, t=state.t + dt))
        run = solver.run(uniform(g))
        assert run.status == "completed"
        assert guesses[0] is None
        assert guesses[1:] == pytest.approx(
            [p(0), 2 * p(1) - p(0), p(0) - 3 * p(1) + 3 * p(2), p(4), p(5), p(6)], abs=1e-12
        )

    def test_warm_started_solves_are_cheaper(self, cg_iterations):
        # every solve after the first starts from a nearby A: the RK4 stages
        # and the post-step solve from the run's history of post-step A's
        g = Grid((64,))
        n = 5
        params = SimParams(epsilon=0.1, T=n * 0.01, dt=0.01, sample_every=2)
        run = HydroSolver(g, params).run(gaussian_bump(g, epsilon=0.1))
        assert run.status == "completed"
        cold, warm = cg_iterations[0], cg_iterations[1:]
        assert len(warm) == 4 * n
        assert np.mean(warm) < cold

    def test_compressive_triggers_monitor(self):
        # caustic formation: u0 = -3 sin x steepens and the monitor fires
        g = Grid((128,))
        params = SimParams(epsilon=0.0, T=2.0, sample_every=2)
        solver = HydroSolver(g, params, thresholds=MonitorThresholds(ratio=30.0))
        run = solver.run(compressive(g, beta=3.0))
        assert run.status == "blowup"
        assert run.times[-1] < 2.0

    def test_uniform_euler_fixed_point(self):
        g = Grid((32,))
        run, samples = sampled_run(HydroSolver(g, SimParams(epsilon=0.0, T=1.0, dt=0.05)),
                                   uniform(g, epsilon=0.0))
        assert run.status == "completed"
        assert np.max(np.abs(samples.states[-1].a - samples.states[0].a)) < 1e-12
        assert np.max(np.abs(samples.states[-1].u)) < 1e-12

    def test_two_dimensional_run(self):
        g = Grid((32, 32))
        init = gaussian_bump(g, epsilon=0.1, amplitude=0.2, width=1.0)
        params = SimParams(epsilon=0.1, T=0.05, sample_every=2)
        run, samples = sampled_run(HydroSolver(g, params), init)
        assert run.status == "completed"
        assert run.charge_drift <= 1e-8
        for st in samples.states[1:]:
            assert l2_norm(g, curl(g, st.u)) <= 1e-8 * max(1e-30, l2_norm(g, st.u))

    def test_euler_continuity_order_two(self):
        # the eps = 0 density-form residual drops by >= 4x under dt halving
        g = Grid((64,))
        init = gaussian_bump(g, epsilon=0.0, amplitude=0.3)
        res = {}
        for dt in (8e-3, 4e-3):
            run = HydroSolver(g, SimParams(epsilon=0.0, dt=dt, T=0.12, sample_every=1)).run(
                init, keep=residual_window(g))
            res[dt] = run.records[len(run.records) // 2].continuity_residual
        assert res[8e-3] / res[4e-3] >= 3.8

    def test_plane_wave_state_translates_exactly(self):
        # uniform density, constant u: A = u (constant-mode algebra), so the
        # transport velocity u - A vanishes and the state is stationary
        g = Grid((64,))
        st = plane_wave(g, modes=(2, 0, 0), epsilon=0.25)
        run, samples = sampled_run(HydroSolver(g, SimParams(epsilon=0.25, T=0.1, dt=0.01)), st)
        assert run.status == "completed"
        assert np.max(np.abs(samples.states[-1].a - st.a)) < 1e-10


def step_calls(monkeypatch, change):
    """
    Route ``HydroSolver.step_rk4`` through ``change(n, result)``, which
    returns the n-th step's result (n counts from 1).
    """
    step, calls = HydroSolver.step_rk4, []

    def changed(self, *args, **kwargs):
        calls.append(1)
        return change(len(calls), step(self, *args, **kwargs))

    monkeypatch.setattr(HydroSolver, "step_rk4", changed)


def bump_run(thresholds=MonitorThresholds()):
    """A 4-step WKB run sampled after every step; ``tail = 0.0`` warns at the first sample."""
    g = Grid((32,))
    params = SimParams(epsilon=0.1, T=0.04, dt=0.01)
    return HydroSolver(g, params, thresholds).run(gaussian_bump(g, epsilon=0.1))


WARN = MonitorThresholds(tail=0.0)


class TestStopRules:
    """
    How a WKB run ends.  Before a monitor warning an elliptic breakdown or a
    crossed bound raises; after one it ends the run as a blow-up.  The
    screened solves are the initial one, then four per step: three RK4
    stages and the solve of the new state.
    """

    @pytest.mark.parametrize("fail_at", [2, 5])
    @pytest.mark.parametrize("thresholds", [MonitorThresholds(), WARN], ids=["quiet", "warned"])
    def test_nonconvergence_before_a_warning_raises(self, elliptic_spy, fail_at, thresholds):
        # the first sample, and so the first warning, follows step 1's solves
        from poisswell.errors import NonConvergence

        elliptic_spy.fail_at = fail_at
        with pytest.raises(NonConvergence):
            bump_run(thresholds)

    @pytest.mark.parametrize("fail_at", [6, 9])  # step 2: a stage, the new state's solve
    def test_nonconvergence_after_a_warning_ends_the_run(self, elliptic_spy, fail_at):
        elliptic_spy.fail_at = fail_at
        run = bump_run(WARN)
        assert run.status == "blowup" and run.stop_reason == "elliptic solve diverged"
        assert len(run.times) == 2

    def test_stability_violation_before_a_warning_raises(self, monkeypatch):
        def violate(n, state):
            raise StabilityViolation("forced")

        step_calls(monkeypatch, violate)
        with pytest.raises(StabilityViolation, match="forced"):
            bump_run(WARN)

    def test_stability_violation_after_a_warning_ends_the_run(self, monkeypatch):
        def violate(n, state):
            if n == 2:
                raise StabilityViolation("forced")
            return state

        step_calls(monkeypatch, violate)
        run = bump_run(WARN)
        assert run.status == "blowup" and run.stop_reason == "stability bound crossed"
        assert len(run.times) == 2

    def test_non_finite_state_ends_the_run_unsolved(self, monkeypatch, elliptic_spy):
        # step 2 returns a NaN amplitude: the run ends, and no solve sees it
        def poison(n, state):
            if n == 2:
                state.a[0, 3] = np.nan
            return state

        step_calls(monkeypatch, poison)
        run = bump_run()
        assert run.status == "blowup" and run.stop_reason == "non-finite state"
        assert len(run.times) == 2
        assert elliptic_spy.finite and all(elliptic_spy.finite)

    def test_non_finite_phase_ends_the_run_unsolved(self, monkeypatch, elliptic_spy):
        # step 2 returns a NaN phase next to a finite u: that state is
        # non-finite too, and no solve sees what follows from it
        def poison(n, state):
            if n == 2:
                state.S[3] = np.nan
            return state

        step_calls(monkeypatch, poison)
        run = bump_run()
        assert run.status == "blowup" and run.stop_reason == "non-finite state"
        assert len(run.times) == 2
        assert elliptic_spy.finite and all(elliptic_spy.finite)

    def test_samples_are_the_states_the_steps_returned(self, monkeypatch):
        # every sample a keep reads keeps the bits its step returned
        returned = []

        def keep(n, state):
            returned.append(copy.deepcopy(state))
            return state

        step_calls(monkeypatch, keep)
        g = Grid((32,))
        run, samples = sampled_run(HydroSolver(g, SimParams(epsilon=0.1, T=0.04, dt=0.01)),
                                   gaussian_bump(g, epsilon=0.1))
        assert run.status == "completed" and len(samples) == 5
        for st, ref in zip(samples.states[1:], returned):
            for name in ("a", "u", "S", "u_mean"):
                assert np.array_equal(getattr(st, name), getattr(ref, name))
            assert st.t == ref.t


class TestFieldsForm:
    def test_static_state_zero_fields(self):
        g = Grid((32,))
        _, samples = sampled_run(HydroSolver(g, SimParams(epsilon=0.0, T=0.1, dt=0.01)),
                                 uniform(g, epsilon=0.0))
        E, B, u_field = euler_fields_form(g, samples, 1)
        assert np.max(np.abs(E)) < 1e-12
        assert np.max(np.abs(B)) < 1e-12

    def test_first_snapshot_raises(self):
        g = Grid((32,))
        _, samples = sampled_run(HydroSolver(g, SimParams(epsilon=0.0, T=0.1, dt=0.01)),
                                 uniform(g, epsilon=0.0))
        with pytest.raises(InsufficientHistory):
            euler_fields_form(g, samples, 0)

    def test_gauss_law_and_field_poisson(self):
        # the electrostatic part of E satisfies the neutralized Gauss law
        # exactly; -Delta B = curl(rho u_field) is the curl of the A equation
        g = Grid((128,))
        _, samples = sampled_run(HydroSolver(g, SimParams(epsilon=0.0, T=0.1, sample_every=2)),
                                 gaussian_bump(g, epsilon=0.0, amplitude=0.3))
        idx = len(samples) // 2
        E, B, u_field = euler_fields_form(g, samples, idx)
        rho = charge_density(samples.states[idx].a)
        electrostatic = -gradient(g, samples.potentials[idx].V)
        gauss = divergence(g, electrostatic) - (rho - rho.mean())
        assert l2_norm(g, gauss) <= 1e-10 * l2_norm(g, rho)
        lhs = -np.stack([laplacian(g, B[i]) for i in range(3)])
        rhs = curl(g, rho * u_field)
        assert l2_norm(g, lhs - rhs) <= 1e-8 * max(1e-30, l2_norm(g, rhs))
