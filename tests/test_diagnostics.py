import numpy as np
import pytest

from poisswell import diagnostics as diag
from poisswell.errors import InsufficientHistory
from poisswell.grid import Grid
from poisswell.hydro import HydroSolver, residual_window
from poisswell.initial_data import gaussian_bump, uniform
from poisswell.operators import gradient
from poisswell.states import HydroState, SimParams

from conftest import random_band_limited, sampled_run


class TestCharge:
    def test_uniform_spinor(self):
        g = Grid((64,))
        a = np.zeros((2,) + g.shape, dtype=complex)
        a[0] = 1.0
        assert diag.charge(g, a) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-13)

    def test_zero(self):
        g = Grid((32,))
        assert diag.charge(g, np.zeros((2,) + g.shape)) == 0.0

    def test_normalized_bump(self):
        from poisswell.states import normalize_charge

        g = Grid((64,))
        st = gaussian_bump(g)
        a = normalize_charge(g, st.a)
        assert diag.charge(g, a) == pytest.approx(1.0, abs=1e-10)


class TestFieldEnergy:
    @pytest.mark.parametrize("shape", [(64,), (16, 12), (8, 6, 10)])
    def test_parseval_matches_gradient_quadrature(self, shape, rng):
        # white-noise fields, so every mode, Nyquist lines included, counts
        from poisswell.operators import l2_norm, spectrum

        g = Grid(shape)
        eps = 0.3
        psi = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
        V = rng.standard_normal(shape)
        quadrature = eps**2 * sum(
            l2_norm(g, gradient(g, psi[j])) ** 2 for j in range(2)
        ) + l2_norm(g, gradient(g, V)) ** 2
        for field in (psi, spectrum(g, psi)):
            energy = diag.field_energy(g, field, V, eps)
            assert energy == pytest.approx(quadrature, rel=1e-13)


class TestFunctionals:
    def test_zero_state(self):
        g = Grid((32,))
        st = HydroState(
            g,
            a=np.zeros((2,) + g.shape, dtype=complex),
            S=np.zeros(g.shape),
            epsilon=0.0,
        )
        fn = diag.functionals(g, st, s=4.0)
        assert fn.xs == 0.0
        assert fn.xs_eps == 0.0
        assert fn.monitor == pytest.approx(1.0)

    def test_cos_amplitude_at_rest(self):
        # E_s reduces to the H^{s-1} norm of a; monitor is 1 + sup|a|
        g = Grid((128,))
        x = g.coordinates()[0].ravel()
        a = np.zeros((2,) + g.shape, dtype=complex)
        a[0] = np.cos(x)
        st = HydroState(g, a=a, S=np.zeros(g.shape), epsilon=0.0)
        fn = diag.functionals(g, st, s=4.0)
        from poisswell.operators import sobolev_norm

        assert fn.xs == pytest.approx(sobolev_norm(g, a, 3.0), rel=1e-12)
        assert fn.monitor == pytest.approx(2.0, abs=1e-12)

    def test_zero_weight_collapses_to_base(self, rng):
        g = Grid((64,))
        a = 1.0 + random_band_limited(g, rng, components=2, complex_=True, amplitude=0.3)
        S = random_band_limited(g, rng)
        # eps weighs the H^s part of xs_eps: at eps = 0 it is xs
        st = HydroState(g, a=a, S=S, epsilon=0.0)
        fn = diag.functionals(g, st, s=4.0)
        assert fn.xs_eps == fn.xs

    def test_shared_spectra_change_no_value(self, rng):
        # the monitor, blow-up sum and tail fraction from the shared spectra
        # equal their definitions evaluated field by field, to the last bit
        from poisswell.operators import pointwise_norms, sobolev_norm, spectral_tail_fraction

        g = Grid((16, 16, 16))
        a = 1.0 + random_band_limited(g, rng, components=2, complex_=True, amplitude=0.3)
        S = random_band_limited(g, rng)
        st = HydroState(g, a=a, S=S, epsilon=0.2)
        fn = diag.functionals(g, st, s=4.0)
        pa, pu = pointwise_norms(g, a), pointwise_norms(g, st.u)
        h1 = sobolev_norm(g, a, 1.0)
        assert fn.monitor == 1.0 + pu.w1_inf + pa.l_inf + 0.2 * (h1 + pa.w1_inf + pa.w2_3)
        assert fn.blowup_sum == h1 + pa.w1_inf + pa.w2_3 + pu.w1_inf
        assert fn.tail_fraction == spectral_tail_fraction(g, a)

    def test_weighted_ordering(self, rng):
        g = Grid((64,))
        a = 1.0 + random_band_limited(g, rng, components=2, complex_=True, amplitude=0.3)
        S = random_band_limited(g, rng)
        st = HydroState(g, a=a, S=S, epsilon=0.2)
        du = random_band_limited(g, rng, components=3)
        fn = diag.functionals(g, st, s=4.0, dt_u=du)
        assert fn.xs_eps_dtu >= fn.xs_eps >= fn.xs

    def test_low_s_warns(self, rng):
        g = Grid((32,))
        st = uniform(g)
        with pytest.warns(UserWarning):
            diag.functionals(g, st, s=2.0)

    def test_sub_unit_s_rejected(self):
        g = Grid((32,))
        st = uniform(g)
        with pytest.raises(ValueError):
            diag.functionals(g, st, s=0.5)


class TestResiduals:
    def test_stationary_window_zero(self):
        g = Grid((32,))
        rho = np.ones(g.shape)
        J = np.zeros((3,) + g.shape)
        window = [(0.0, rho, J), (0.1, rho, J), (0.2, rho, J)]
        assert diag.continuity_residual(g, window) <= 1e-12

    def test_solenoidal_static_current(self, rng):
        from poisswell.operators import curl

        g = Grid((16, 16))
        A = random_band_limited(g, rng, components=3)
        J = curl(g, A)
        rho = np.ones(g.shape)
        window = [(0.0, rho, J), (0.1, rho, J), (0.2, rho, J)]
        assert diag.continuity_residual(g, window) <= 1e-10

    def test_needs_three_snapshots(self):
        g = Grid((32,))
        with pytest.raises(InsufficientHistory):
            diag.continuity_residual(g, [(0.0, np.ones(g.shape), np.zeros((3,) + g.shape))])

    def test_gauge_static_reports_div_A(self, rng):
        g = Grid((32,))
        V = np.zeros(g.shape)
        A = random_band_limited(g, rng, components=3)
        window = [(0.0, V, A), (0.1, V, A), (0.2, V, A)]
        from poisswell.operators import divergence, l2_norm

        expected = l2_norm(g, divergence(g, A))
        assert diag.gauge_residual(g, window, 0.3) == pytest.approx(expected, rel=1e-12)

    def test_uneven_window_quadratic_in_time_is_exact(self):
        # rho = 1 + t cos x + t^2 cos 2x on the spacing of a run's forced
        # final sample (t = 0.40, 0.48, 0.50); J at t1 carries exactly
        # -d_t rho, and V and A obey the gauge condition the same way.  The
        # difference (x2 - x0)/(t2 - t0) would leave t1 (t0 + t2 - 2 t1) cos 2x
        from poisswell.operators import l2_norm

        g = Grid((32,))
        x = g.coordinates()[0]
        times = (0.40, 0.48, 0.50)
        t1 = times[1]
        rho = [1.0 + t * np.cos(x) + t**2 * np.cos(2 * x) for t in times]
        J = np.zeros((3,) + g.shape)
        J[0] = -(np.sin(x) + t1 * np.sin(2 * x))
        window = [(t, r, J) for t, r in zip(times, rho)]
        assert diag.continuity_residual(g, window) <= 1e-12
        stale = l2_norm(g, (rho[2] - rho[0]) / (times[2] - times[0]) - np.cos(x)
                        - 2 * t1 * np.cos(2 * x))
        assert stale > 1e-2

        eps = 0.3
        A = eps * J  # div A = -eps d_t V with V = rho
        window = [(t, v, A) for t, v in zip(times, rho)]
        assert diag.gauge_residual(g, window, eps) <= 1e-12

    def test_continuity_residual_halves_by_four_hydro(self):
        # acceptance 3 behaviour at module level: order >= 2 in dt
        g = Grid((64,))
        residuals = {}
        for dt in (8e-3, 4e-3):
            run = HydroSolver(g, SimParams(epsilon=0.1, dt=dt, T=0.12, sample_every=1)).run(
                gaussian_bump(g, epsilon=0.1, amplitude=0.3), keep=residual_window(g)
            )
            mid = len(run.records) // 2
            residuals[dt] = run.records[mid].continuity_residual
        assert residuals[8e-3] / residuals[4e-3] >= 3.6


class TestEnvelope:
    def _record(self, t, e, nsup):
        return diag.DiagnosticsRecord(
            t=t, charge=1.0, xs_eps=e, monitor=nsup, monitor_sup=nsup
        )

    def test_constant_trajectory_small_constant(self):
        recs = [self._record(t, 2.0, 1.5) for t in np.linspace(0, 1, 5)]
        rep = diag.envelope_check(recs, s=4.0)
        assert rep.passed
        assert rep.constant <= 1.0

    def test_zero_state_trivially_passes(self):
        recs = [self._record(t, 0.0, 1.0) for t in np.linspace(0, 1, 5)]
        rep = diag.envelope_check(recs, s=4.0)
        assert rep.passed
        assert rep.constant == 0.0

    def test_monotone_in_constant(self):
        recs = [self._record(t, 2.0 * np.exp(3 * t), 1.2) for t in np.linspace(0, 1, 9)]
        rep = diag.envelope_check(recs, s=4.0)
        assert rep.passed
        power = 2 * 4.0 + 3

        def ok(c):
            return all(
                r.xs_eps <= c * r.monitor_sup**power * recs[0].xs_eps * np.exp(c * r.monitor_sup**power * r.t)
                for r in recs
            )

        assert ok(rep.constant * 2.0)
        assert not ok(rep.constant * 0.2)

    def test_violation_reported(self):
        # growth too fast for any C <= c_max given N == 1
        recs = [self._record(t, np.exp(50 * t), 1.0) for t in np.linspace(0, 1, 11)]
        rep = diag.envelope_check(recs, s=4.0, c_max=10.0)
        assert not rep.passed


class TestMonitor:
    def test_monitor_sup_is_running_max(self):
        g = Grid((64,))
        run = HydroSolver(g, SimParams(epsilon=0.1, T=0.2, sample_every=2)).run(
            gaussian_bump(g, epsilon=0.1, amplitude=0.3)
        )
        running = -np.inf
        for rec in run.records:
            running = max(running, rec.monitor)
            assert rec.monitor_sup == running

    def test_uniform_run_never_triggers(self):
        g = Grid((32,))
        run = HydroSolver(g, SimParams(epsilon=0.1, T=1.0, dt=0.05)).run(uniform(g))
        th = diag.MonitorThresholds()
        s0 = run.records[0].blowup_sum
        for r in run.records:
            assert diag.blowup_monitor(r, th, s0) is diag.MonitorStatus.OK

    def test_threshold_infinite_never_triggers(self):
        rec = diag.DiagnosticsRecord(t=0.0, charge=1.0, blowup_sum=1e12, tail_fraction=0.0)
        th = diag.MonitorThresholds(ratio=np.inf)
        assert diag.blowup_monitor(rec, th, 1.0) is diag.MonitorStatus.OK

    def test_tail_warning(self):
        rec = diag.DiagnosticsRecord(t=0.0, charge=1.0, blowup_sum=1.0, tail_fraction=0.5)
        assert (
            diag.blowup_monitor(rec, diag.MonitorThresholds(), 1.0)
            is diag.MonitorStatus.WARNING
        )


class TestEnergyIdentity:
    def test_energy_relation_discrete(self):
        # the two sides of the eps-weighted energy relation
        # -2 eps d/dt Int u.w + eps^2 d/dt ||grad a||^2 + 2 eps Int w . d_t u = 0
        # agree to O(dt^2) along a discrete trajectory with A == 0
        g = Grid((128,))
        eps = 0.25
        params = SimParams(epsilon=eps, dt=2e-3, T=0.1, magnetic=False, sample_every=5)
        run, samples = sampled_run(HydroSolver(g, params),
                                   gaussian_bump(g, epsilon=eps, amplitude=0.3))
        from poisswell.operators import gradient as grad_op
        from poisswell.operators import l2_norm
        from poisswell.states import kinetic_current

        solver = HydroSolver(g, params)

        def pieces(i):
            st = samples.states[i]
            w = -kinetic_current(g, st.a)  # the phase current
            uw = float(np.sum(st.u * w) * g.cell_volume)
            ga = sum(l2_norm(g, grad_op(g, st.a[s])) ** 2 for s in range(2))
            du = grad_op(g, solver.rhs(st, samples.potentials[i])[1])
            wdu = float(np.sum(w * du) * g.cell_volume)
            return uw, ga, wdu

        i = len(samples) // 2
        t_m, t_p = run.times[i - 1], run.times[i + 1]
        uw_m, ga_m, _ = pieces(i - 1)
        uw_p, ga_p, _ = pieces(i + 1)
        _, _, wdu = pieces(i)
        d_uw = (uw_p - uw_m) / (t_p - t_m)
        d_ga = (ga_p - ga_m) / (t_p - t_m)
        lhs = -2 * eps * d_uw + eps**2 * d_ga + 2 * eps * wdu
        scale = abs(2 * eps * d_uw) + abs(eps**2 * d_ga) + abs(2 * eps * wdu)
        assert abs(lhs) <= 1e-3 * max(scale, 1e-12)
