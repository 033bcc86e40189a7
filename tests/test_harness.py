import inspect
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poisswell import harness
from poisswell.config import parse_config
from poisswell.diagnostics import MonitorThresholds
from poisswell.errors import PoisswellError
from poisswell.grid import Grid
from poisswell.harness import (
    _rung_errors,
    epsilon_ladder,
    fit_loglog_slope,
    monokinetic_study,
    phase_aligned_distance,
    spinor_vs_wkb,
)
from poisswell.initial_data import gaussian_bump, plane_wave, uniform
from poisswell.hydro import HydroSolver
from poisswell.operators import l2_norm, sobolev_norm
from poisswell.pauli_solver import PauliSolver
from poisswell.states import HydroState, SimParams, reconstruct_spinor, wkb_current

from conftest import sampled_run

LADDER_CFG = Path(__file__).resolve().parent.parent / "configs" / "ladder.cfg"


@pytest.fixture(scope="module")
def small_ladder():
    g = Grid((64,))
    init = gaussian_bump(g, epsilon=0.1, amplitude=0.3)
    params = SimParams(epsilon=0.1, T=0.1, s=4.0)
    report, runs = epsilon_ladder(
        g, init, params, [0.4, 0.2, 0.1], n_samples=5, preflight=False
    )
    return g, report, runs


class TestSlopeFit:
    def test_exact_power_law(self):
        eps = [0.4, 0.2, 0.1, 0.05]
        errs = [3.0 * e**1.5 for e in eps]
        assert fit_loglog_slope(eps, errs) == pytest.approx(1.5, rel=1e-12)

    def test_too_few_points(self):
        assert fit_loglog_slope([0.1, 0.05], [1.0, 0.5]) is None

    def test_zero_errors_skipped(self):
        assert fit_loglog_slope([0.4, 0.2, 0.1], [0.0, 0.0, 0.0]) is None

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(points=st.lists(
        st.tuples(st.floats(1e-4, 10.0),
                  st.one_of(st.floats(1e-12, 1e12), st.sampled_from([0.0, -1.0, np.nan]))),
        min_size=3, max_size=10))
    def test_closed_form_is_the_polyfit_slope(self, points):
        # the reference is numpy's least-squares line through the kept
        # points; the logs carry rounding relative to their own size, so a
        # slope near zero is compared against max |log y| / range of log x
        xs, ys = zip(*points)
        kept = [(x, y) for x, y in points if y > 0]
        lx, ly = np.log([p[0] for p in kept]), np.log([p[1] for p in kept])
        got = fit_loglog_slope(xs, ys)
        if len(kept) < 3:
            assert got is None
            return
        assume(np.ptp(lx) > 1e-3)
        expected = np.polyfit(lx, ly, 1)[0]
        assert abs(got - expected) <= 1e-12 * max(abs(expected), np.max(np.abs(ly)) / np.ptp(lx))


class TestLadder:
    def test_errors_monotone_and_slope(self, small_ladder):
        _, report, _ = small_ladder
        xs = report.metric("xs_error")
        assert all(b < a for a, b in zip(xs, xs[1:]))
        assert report.slopes["xs_error"] >= 0.8

    def test_uniform_data_degenerate(self):
        g = Grid((32,))
        params = SimParams(epsilon=0.1, T=0.05, s=4.0)
        report, _ = epsilon_ladder(
            g, uniform(g), params, [0.4, 0.2, 0.1], n_samples=3, preflight=False
        )
        assert report.degenerate
        assert report.slopes["xs_error"] is None

    def test_single_epsilon_no_slope(self):
        g = Grid((32,))
        params = SimParams(epsilon=0.1, T=0.05, s=4.0)
        report, _ = epsilon_ladder(
            g,
            gaussian_bump(g, epsilon=0.1),
            params,
            [0.2],
            n_samples=3,
            preflight=False,
        )
        assert report.degenerate
        assert report.slopes["xs_error"] is None

    def test_increasing_list_rejected(self):
        g = Grid((32,))
        with pytest.raises(PoisswellError):
            epsilon_ladder(
                g, uniform(g), SimParams(T=0.01), [0.1, 0.2], preflight=False
            )

    def test_blown_up_rungs_reported_not_raised(self):
        # caustic-forming data past the caustic time: rungs stop early and
        # carry no errors, but the ladder still returns a report
        from poisswell.initial_data import compressive

        g = Grid((128,))
        init = compressive(g, beta=3.0)
        params = SimParams(epsilon=0.1, T=1.5, s=4.0)
        report, runs = epsilon_ladder(
            g, init, params, [0.2, 0.1, 0.05], n_samples=8, preflight=False
        )
        assert any(r.status == "blowup" for r in report.rungs)
        for r in report.rungs:
            if r.status == "blowup":
                assert r.xs_error is None
                assert r.stop_time < 1.5

    def test_preflight_rejects_caustic_horizon(self):
        from poisswell.initial_data import compressive

        g = Grid((128,))
        init = compressive(g, beta=3.0)
        with pytest.raises(PoisswellError):
            epsilon_ladder(
                g, init, SimParams(epsilon=0.1, T=1.5, s=4.0), [0.2, 0.1], n_samples=4
            )

    def test_preflight_continues_the_reference_to_the_caustic(self):
        # the Euler monitor of these data triggers at t ~ 0.93: past 1.5 T
        # for T = 0.5, inside [T, 1.5 T] for T = 0.65, where only the
        # continuation of the reference past T reaches it, and before T for
        # T = 1.5, where the reference's samples are 0.75 apart but the
        # error still places the stop by step
        from poisswell.initial_data import compressive

        g = Grid((128,))
        init = compressive(g, beta=3.0)
        report, _ = epsilon_ladder(
            g, init, SimParams(epsilon=0.1, T=0.5, s=4.0), [0.2, 0.1], n_samples=4)
        assert report.euler_status == "completed"
        for T, n_samples in ((0.65, 4), (1.5, 2)):
            with pytest.raises(PoisswellError, match="pre-flight Euler run stopped") as raised:
                epsilon_ladder(g, init, SimParams(epsilon=0.1, T=T, s=4.0), [0.2], n_samples)
            stop = float(re.search(r"t=([0-9.]+)", str(raised.value)).group(1))
            assert 0.9 < stop < 0.95

    def test_preflight_makes_the_euler_steps_once(self, step_count):
        # the eps = 0 steps over [0, T] are made once: the reference's n,
        # then n/2 more from its sample at T to 1.5 T, at its dt
        g = Grid((32,))
        params = SimParams(epsilon=0.1, T=0.05, s=4.0)
        _, runs = epsilon_ladder(g, gaussian_bump(g, epsilon=0.1), params, [0.2, 0.1], n_samples=2)
        euler = [t for eps, t in step_count.wkb if eps == 0.0]
        n = round(params.T / runs.euler.dt)
        assert n % 2 == 0 and len(euler) == n + n // 2
        assert euler[n] == pytest.approx(params.T, abs=1e-12)

    def test_small_ladder_peak_within_budget(self, traced_peak):
        # the small_ladder fixture's ladder: 0.15 MB traced when each rung
        # measures its samples as they are taken and stores none; 0.26 MB
        # when every rung run holds its states and potentials
        g = Grid((64,))
        init = gaussian_bump(g, epsilon=0.1, amplitude=0.3)
        params = SimParams(epsilon=0.1, T=0.1, s=4.0)
        (report, runs), peak = traced_peak(
            epsilon_ladder, g, init, params, [0.4, 0.2, 0.1], n_samples=5, preflight=False)
        assert all(r.xs_error is not None for r in report.rungs)
        assert peak <= 0.2 * 2**20

    def test_snapshots_share_sample_times(self, small_ladder):
        _, report, runs = small_ladder
        ref = runs.euler.times
        for run in runs.hydro.values():
            assert np.allclose(run.times, ref, atol=1e-12)

    def test_ladder_deterministic(self, small_ladder):
        g, report, _ = small_ladder
        init = gaussian_bump(g, epsilon=0.1, amplitude=0.3)
        params = SimParams(epsilon=0.1, T=0.1, s=4.0)
        report2, _ = epsilon_ladder(
            g, init, params, [0.4, 0.2, 0.1], n_samples=5, preflight=False
        )
        assert report.as_dict() == report2.as_dict()

    def test_threaded_matches_sequential(self, small_ladder):
        g, report, _ = small_ladder
        init = gaussian_bump(g, epsilon=0.1, amplitude=0.3)
        params = SimParams(epsilon=0.1, T=0.1, s=4.0)
        report2, _ = epsilon_ladder(
            g, init, params, [0.4, 0.2, 0.1], n_samples=5, preflight=False, threads=3
        )
        assert report.as_dict() == report2.as_dict()


class TestSpinorVsWkb:
    def test_free_plane_wave_exact(self):
        g = Grid((64,))
        eps = 0.25
        init = plane_wave(g, modes=(2, 0, 0), epsilon=eps)
        params = SimParams(epsilon=eps, T=0.5, dt=0.02, coupling=False)
        rep = spinor_vs_wkb(g, init, params, n_samples=5)
        assert rep.distances[0] <= 1e-12
        assert max(rep.distances) <= 1e-10

    def test_time_zero_distance_zero(self):
        g = Grid((64,))
        init = gaussian_bump(g, epsilon=0.2)
        rep = spinor_vs_wkb(g, init, SimParams(epsilon=0.2, T=0.05), n_samples=2)
        assert rep.distances[0] <= 1e-12

    def test_dt_halving_contracts(self):
        g = Grid((64,))
        eps = 0.25
        init = gaussian_bump(g, epsilon=eps, amplitude=0.3)
        dists = {}
        for dt in (4e-3, 2e-3):
            params = SimParams(epsilon=eps, T=0.1, dt=dt)
            rep = spinor_vs_wkb(g, init, params, n_samples=5)
            dists[dt] = rep.distances[-1]
        assert dists[4e-3] / dists[2e-3] >= 3.9

    def test_spin_mixed_data_stays_consistent(self):
        # populate both spinor components so sigma.B genuinely mixes them;
        # the two routes must still converge to each other under dt halving
        g = Grid((64,))
        eps = 0.25
        init = gaussian_bump(g, epsilon=eps, amplitude=0.3, spin_angle=0.5)
        dists = {}
        for dt in (4e-3, 2e-3):
            rep = spinor_vs_wkb(g, init, SimParams(epsilon=eps, T=0.1, dt=dt), n_samples=5)
            dists[dt] = rep.distances[-1]
        assert dists[4e-3] / dists[2e-3] >= 3.5

    def test_one_solver_per_route(self, monkeypatch):
        # each run places its own samples: no solver is built to size dt
        from poisswell import harness

        built = []
        for name in ("HydroSolver", "PauliSolver"):
            cls = getattr(harness, name)

            def counted(*args, _cls=cls, **kwargs):
                built.append(_cls.__name__)
                return _cls(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        g = Grid((32,))
        rep = spinor_vs_wkb(g, gaussian_bump(g, epsilon=0.2), SimParams(epsilon=0.2, T=0.02),
                            n_samples=2)
        assert sorted(built) == ["HydroSolver", "PauliSolver"]
        assert rep.times == pytest.approx([0.0, 0.01, 0.02])

    @pytest.mark.parametrize("shape", [(64,), (32, 16), (16, 16, 16)], ids=["1d", "2d", "3d"])
    def test_band_round_trip_reproduces_the_spinor(self, monkeypatch, shape):
        # the comparison holds each spinor sample as the 2/3 rule's kept
        # modes of its spectrum, and the WKB run remakes the spinor from them
        # when it measures the sample of that index, then drops the band;
        # spin-mixed data and a traveling u_mean ride along
        sampled, remade, stored = [], [], []
        record, run, distance = PauliSolver._record, PauliSolver.run, harness.phase_aligned_distance

        def spied_record(self, t, psi, *args):
            sampled.append(psi.copy())
            return record(self, t, psi, *args)

        def spied_run(self, psi0, n_samples, keep):
            done = run(self, psi0, n_samples, keep=keep)
            # the bands the spinor run's keep filled, before the WKB run takes any
            stored.extend(band.nbytes for band in inspect.getclosurevars(keep).nonlocals["bands"])
            return done

        def spied_distance(grid, psi, wkb):
            remade.append(psi.copy())
            return distance(grid, psi, wkb)

        monkeypatch.setattr(PauliSolver, "_record", spied_record)
        monkeypatch.setattr(PauliSolver, "run", spied_run)
        monkeypatch.setattr(harness, "phase_aligned_distance", spied_distance)
        g, eps = Grid(shape), 0.2
        bump = gaussian_bump(g, epsilon=eps, amplitude=0.3, phase_amplitude=0.3, spin_angle=0.5)
        wave = plane_wave(g, modes=(2, 1, 1)[: g.dim], epsilon=eps)
        traveling = HydroState(g, bump.a, bump.S, wave.u_mean, epsilon=eps)
        kept = np.prod([2 * (n // 3) + 1 for n in shape])  # the kept modes
        for state in (bump, traveling):
            for seen in (sampled, remade, stored):
                seen.clear()
            rep = spinor_vs_wkb(g, state, SimParams(epsilon=eps, T=0.02), n_samples=2)
            assert len(rep.distances) == len(sampled) == len(remade) == 3
            assert stored == [16 * 2 * kept] * 3
            for psi, back in zip(sampled, remade):
                assert l2_norm(g, back - psi) <= 1e-15 * l2_norm(g, psi)

    @pytest.mark.parametrize("shape", [(64,), (16, 16, 16)], ids=["1d", "3d"])
    def test_distances_equal_those_of_the_full_samples(self, shape):
        # an oracle: both runs store every sample whole, and each distance
        # is taken between the samples of one index
        g, eps = Grid(shape), 0.2
        init = gaussian_bump(g, epsilon=eps, amplitude=0.3, phase_amplitude=0.3, spin_angle=0.5)
        params = SimParams(epsilon=eps, T=0.05, dt=0.005)
        rep = spinor_vs_wkb(g, init, params, n_samples=5)
        hrun, hydro = sampled_run(HydroSolver(g, params), init, 5)
        _, spinor = sampled_run(PauliSolver(g, params), reconstruct_spinor(g, init), 5)
        expected = [phase_aligned_distance(g, psi, reconstruct_spinor(g, state))
                    for psi, state in zip(spinor.states, hydro.states)]
        assert len(rep.distances) == len(expected) == 6
        charge = hrun.records[0].charge
        assert max(abs(d - e) for d, e in zip(rep.distances, expected)) <= 1e-12 * charge

    def test_phase_alignment_closed_form(self, rng):
        g = Grid((32,))
        psi = np.zeros((2,) + g.shape, dtype=complex)
        psi[0] = 1.0
        rotated = np.exp(1j * 0.7) * psi
        assert phase_aligned_distance(g, psi, rotated) <= 1e-12
        assert phase_aligned_distance(g, psi, 0.0 * rotated) == pytest.approx(
            np.sqrt(2 * np.pi), rel=1e-12
        )


class TestMonokinetic:
    def test_defect_ratios_and_concentration(self, small_ladder):
        g, report, runs = small_ladder
        mono = monokinetic_study(runs, [(12,), (44,)])
        assert all(d is not None for d in mono.defects)
        assert all(r <= 0.3 for r in mono.defect_ratios)
        assert mono.slice_epsilon == 0.1

    def test_uniform_data_zero_defect(self):
        g = Grid((32,))
        params = SimParams(epsilon=0.1, T=0.05, s=4.0)
        _, runs = epsilon_ladder(
            g, uniform(g), params, [0.2, 0.1], n_samples=2, preflight=False
        )
        mono = monokinetic_study(runs, [(8,)])
        assert all(d <= 1e-18 for d in mono.defects)

    def test_spinor_runs_take_the_ladders_thresholds(self, small_ladder):
        # a tail threshold of 0 fires on every spinor run of the study, and
        # the report names each; with the default thresholds it names none
        g, _, runs = small_ladder
        assert not any(k.startswith("spinor_") for k in monokinetic_study(runs, [(12,)]).as_dict())
        tight = replace(runs, thresholds=MonitorThresholds(tail=0.0))
        doc = monokinetic_study(tight, [(12,)]).as_dict()
        eps = [repr(e) for e in (0.4, 0.2, 0.1)]
        assert doc["spinor_status"] == dict.fromkeys(eps, "completed")
        assert doc["spinor_stop_reason"] == dict.fromkeys(eps, "spectral tail warning")

    def test_no_defect_without_the_euler_reference_at_T(self):
        # the Euler reference of these data stops at its sample t = 1.0,
        # short of T: the spinors at T have no Euler velocity to meet
        from poisswell.initial_data import compressive

        g = Grid((128,))
        params = SimParams(epsilon=0.1, T=1.5, s=4.0)
        _, runs = epsilon_ladder(
            g, compressive(g, beta=3.0), params, [0.2], n_samples=3, preflight=False)
        assert runs.euler.status == "blowup" and runs.euler.times[-1] < params.T
        mono = monokinetic_study(runs, [(32,)])
        assert mono.stops[0.2][0] == "completed" and mono.slice_epsilon == 0.2
        assert mono.defects == [None] and mono.concentration == [None]


def test_reference_ladder_dt_halving_below_one_percent():
    # the ladder's slopes measure eps, not dt: on each rung of the reference
    # ladder, halving dt moves xs, rho and the current by <= 1 % of that
    # rung's eps-error
    cfg = parse_config(LADDER_CFG.read_text(encoding="utf-8"))
    grid, params = cfg.build_grid(), cfg.sim_params()
    init = cfg.build_initial(grid)
    report, _ = epsilon_ladder(
        grid, init, params, cfg.epsilons, n_samples=cfg.ladder_samples, preflight=False
    )
    s = params.s
    for rung in report.rungs:
        # the ladder holds no rung's samples: each is rerun, collecting them
        run, samples = sampled_run(HydroSolver(grid, replace(params, epsilon=rung.epsilon)), init,
                                   cfg.ladder_samples)
        p = run.params
        half_p = replace(p, dt=p.dt / 2, sample_every=2 * p.sample_every)
        half, half_samples = sampled_run(HydroSolver(grid, half_p), init)
        assert half.status == "completed" and len(half.times) == len(run.times)
        pairs = [((a, pa), (b, pb)) for (_, a, pa), (_, b, pb) in zip(samples, half_samples)]
        errors = [_rung_errors(grid, a, b, s) for a, b in pairs]
        xs_d, rho_d = (max(e[k] for e in errors) for k in (0, 1))
        cur_d = max(
            sobolev_norm(
                grid,
                wkb_current(grid, a.a, a.u, pa.A, a.epsilon)
                - wkb_current(grid, b.a, b.u, pb.A, b.epsilon),
                s - 3.0,
            )
            for (a, pa), (b, pb) in pairs
        )
        assert xs_d <= 0.01 * rung.xs_error
        assert rho_d <= 0.01 * rung.rho_error
        assert cur_d <= 0.01 * rung.current_error


def test_reference_ladder_step_counts(step_count):
    # a sampled run steps at cfl_safety x dt_bound, capped only by the
    # sample spacing T / 15 = 0.02, which binds on every run: 15 steps per
    # run, and 7 more from T to 1.5 T for the pre-flight.  With the fixed
    # caps T/16 and 1e-2 they were 165 WKB steps, 120 spinor steps and 790
    # screened solves
    cfg = parse_config(LADDER_CFG.read_text(encoding="utf-8"))
    grid = cfg.build_grid()
    _, runs = epsilon_ladder(grid, cfg.build_initial(grid), cfg.sim_params(), cfg.epsilons,
                             n_samples=cfg.ladder_samples)
    monokinetic_study(runs, cfg.default_base_points(grid))
    assert (len(step_count.wkb), len(step_count.spinor), step_count.screened) == (82, 60, 398)


def test_c14_comparison_step_counts(step_count):
    # the comparison of the c14 data, as the smoke-3d benchmark runs it: each
    # route steps once per sample, 10 steps where the T/16 cap made 20, and
    # 52 screened solves where it made 102
    g = Grid((32, 32, 32))
    init = gaussian_bump(g, epsilon=0.2, amplitude=0.2, width=1.2)
    rep = spinor_vs_wkb(g, init, SimParams(epsilon=0.2, T=0.05), n_samples=10)
    assert rep.dt_hydro == rep.dt_spinor == 0.05 / 10
    assert (len(step_count.wkb), len(step_count.spinor), step_count.screened) == (10, 10, 52)


def test_reference_monokinetic_dt_halving_below_one_percent(step_count):
    # the spinor twin of the test above: halving the dt of each monokinetic
    # spinor run of the reference ladder (0.02 -> 0.01, samples every 2
    # steps) moves each defect and concentration by <= 1 % of itself
    cfg = parse_config(LADDER_CFG.read_text(encoding="utf-8"))
    grid, params = cfg.build_grid(), cfg.sim_params()
    _, runs = epsilon_ladder(grid, cfg.build_initial(grid), params, cfg.epsilons,
                             n_samples=cfg.ladder_samples, preflight=False)
    base_points = cfg.default_base_points(grid)
    step_count.spinor.clear()
    mono = monokinetic_study(runs, base_points)
    # one spinor step per sample: each run steps at the sample spacing
    assert len(step_count.spinor) == len(cfg.epsilons) * cfg.ladder_samples
    dt = params.T / cfg.ladder_samples
    step_count.spinor.clear()
    half = monokinetic_study(replace(runs, params=replace(params, dt=dt / 2)), base_points)
    assert len(step_count.spinor) == 2 * len(cfg.epsilons) * cfg.ladder_samples
    for coarse, fine in ((mono.defects, half.defects), (mono.concentration, half.concentration)):
        assert all(c is not None for c in coarse)
        assert all(abs(f - c) <= 0.01 * abs(c) for c, f in zip(coarse, fine))
