"""
What a run holds and computes: the peak of one RK4 step and of one hydro
sample's diagnostics, the derivatives of the amplitude that no screened
solve sees, the input each step frees, the data handed to the comparison's
runs, the initial state a WKB run leaves to its caller and
whose velocity it never reads, the samples a spinor run keeps alive, the
samples no run holds once it returns, the WKB state a ``pauli`` run does
not hold, the spinor its writer hands over and the run's peak, the peak of
writing a snapshot, the release of the spinor samples before the WKB run of
the comparison and the comparison's peak, and the residuals that only
:func:`~poisswell.hydro.residual_window` makes.
"""

import inspect
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from poisswell import harness
from poisswell.cli import main
from poisswell.config import RunConfig
from poisswell.diagnostics import continuity_residual, gauge_residual
from poisswell.grid import Grid
from poisswell.hydro import HydroSolver, residual_window
from poisswell.initial_data import gaussian_bump
from poisswell.io import write_field
from poisswell.pauli_solver import PauliSolver
from poisswell.states import (
    HydroState,
    SimParams,
    charge_density,
    reconstruct_spinor,
    wkb_current,
)

from conftest import sampled_run


def c14_step_peak(traced_peak, n, dt):
    """The traced peak of one coupled step of the c14 data on n^3, its tables made by a step before."""
    g = Grid((n, n, n))
    solver = HydroSolver(g, SimParams(epsilon=0.2, T=0.05))
    state = solver._dealias(gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2))
    pots = solver.potentials(state)
    solver.step_rk4(state, dt, pots)
    return traced_peak(solver.step_rk4, state, dt, pots)[1]


def test_rk4_step_peak_within_budget(traced_peak):
    # 16^3: 1.77 MiB traced when the derivatives of a stream into the
    # stage's current and advection one axis at a time, so none is alive
    # through a stage solve; 2.07 MiB when each stage held a's derivative
    # table through its solve, and div u owns its data and the stage solves
    # read their guesses in place, hold four half spectra and one real
    # buffer, which ends as A, and invert in a spent spectrum; 2.47 MiB when
    # div u keeps the whole inverse of the phase alive and the solves hold
    # five half spectra, a copy of the guess, A beside the work buffer and
    # irfftn's fresh arrays; 2.63 MiB when y2, y3 and y4 stay referenced
    # through the stage solves, and 3.37 MB when also k1..k3 stay
    # referenced until the step returns
    assert c14_step_peak(traced_peak, 16, 0.05 / 8) <= 1.9 * 2**20


def test_rk4_step_peak_at_32_within_budget(traced_peak):
    # 32^3 at the c14 data's unsampled dt, T/16: 13.82 MB traced with the
    # streamed derivatives of test_rk4_step_peak_within_budget, 16.77 MB with
    # a's derivative table held through each stage solve, and 20.25 MB with
    # the 2.47 MiB stage solves and div u
    assert c14_step_peak(traced_peak, 32, 0.05 / 16) <= 14.5 * 10**6


def test_screened_solves_see_no_derivative_of_the_amplitude(monkeypatch):
    # each WKB stage streams the derivatives of a into its current before
    # its screened solve and into its advection after it, and a spinor step
    # those of psi into its transport and its midpoint current: every one
    # comes from partials, and none is alive while a solve runs
    from poisswell import operators, states

    made, alive = [], []
    partials, solve = operators.partials, states.solve_screened_vector

    def spied_partials(*args, **kwargs):
        for d in partials(*args, **kwargs):
            made.append(weakref.ref(d))
            yield d

    def spied_solve(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        return solve(*args, **kwargs)

    for module in (operators, states):
        monkeypatch.setattr(module, "partials", spied_partials)
    monkeypatch.setattr(states, "solve_screened_vector", spied_solve)
    g = Grid((16, 16, 16))
    params = SimParams(epsilon=0.2, T=0.05)
    init = gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2)
    hydro = HydroSolver(g, params)
    state = hydro._dealias(init)
    pots = hydro.potentials(state)
    made.clear()
    alive.clear()
    hydro.step_rk4(state, 0.05 / 8, pots)
    # stage 1 advects; stages 2-4 make a current and advect: 3 axes each
    assert alive == [0, 0, 0] and len(made) == 21
    pauli = PauliSolver(g, params)
    psi = pauli._dealias(reconstruct_spinor(g, init))
    fields = pauli._fields(pauli.potentials(psi))
    made.clear()
    alive.clear()
    pauli.step(psi, 0.05 / 8, fields)
    # six transport passes and the midpoint's current
    assert alive == [0] and len(made) == 21


# a popped call argument is held by the callee's frame alone from CPython 3.11
# on; 3.10 keeps it in the caller's frame until the call returns
handed_arguments = pytest.mark.skipif(sys.version_info < (3, 11),
                                      reason="CPython 3.10 holds a call's arguments in its caller")


@handed_arguments
def test_wkb_step_frees_its_input_by_its_second_stage(monkeypatch):
    # the step keeps only t, eps and u_mean of the state it is handed and
    # only A of its potentials: handed over, both are dead at the solve of
    # its second stage, called alone or in a run, whose loop and advance
    # keep no reference to them; each state the run samples is the next
    # step's input.  When the loop held them through the step, every step's
    # state, its velocity included, was alive through all its solves
    from poisswell import hydro

    handed, alive = [], []
    solve, record = hydro.self_consistent_potentials, HydroSolver._record

    def spied_solve(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in handed))
        return solve(*args, **kwargs)

    def spied_record(self, t, state, pots, previous):
        handed.extend([weakref.ref(state), weakref.ref(pots)])
        return record(self, t, state, pots, previous)

    g, params = Grid((16, 16, 16)), SimParams(epsilon=0.2, T=0.05)
    init = gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2)
    solver = HydroSolver(g, params)
    now = [solver._dealias(init)]
    now.append(solver.potentials(now[0]))
    handed.extend(weakref.ref(item) for item in now)
    monkeypatch.setattr(hydro, "self_consistent_potentials", spied_solve)
    solver.step_rk4(now.pop(0), 0.05 / 8, now.pop())
    assert alive == [0, 0, 0]
    handed.clear()
    alive.clear()
    monkeypatch.setattr(HydroSolver, "_record", spied_record)
    run = HydroSolver(g, replace(params, dt=0.05 / 4)).run(init)
    assert run.status == "completed" and len(handed) == 2 * 5
    # three stage solves and the new state's solve per step, the initial solve first
    assert len(alive) == 1 + 4 * 4 and not any(alive)


@handed_arguments
def test_spinor_step_frees_its_input_after_its_first_transform(monkeypatch):
    # the step reads the spinor it is handed only through its first
    # transform: handed over, it is dead at the first kinetic half, called
    # alone or in a run, whose loop and advance keep no reference to it and
    # drop a sample's potentials, which hold their spinor, before the step
    handed, alive = [], []
    kinetic, record = PauliSolver._kinetic, PauliSolver._record

    def spied_kinetic(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in handed))
        return kinetic(self, *args, **kwargs)

    def spied_record(self, t, psi, *args):
        handed.append(weakref.ref(psi))
        return record(self, t, psi, *args)

    g = Grid((32, 32))
    init = gaussian_bump(g, epsilon=0.2, amplitude=0.3, phase_amplitude=0.2, spin_angle=0.5)
    params = SimParams(epsilon=0.2, T=0.04, dt=0.01)
    solver = PauliSolver(g, params)
    now = [solver._dealias(reconstruct_spinor(g, init))]
    fields = solver._fields(solver.potentials(now[0]))
    handed.append(weakref.ref(now[0]))
    monkeypatch.setattr(PauliSolver, "_kinetic", spied_kinetic)
    solver.step(now.pop(), 0.01, fields)
    assert alive == [0, 0]
    handed.clear()
    alive.clear()
    monkeypatch.setattr(PauliSolver, "_record", spied_record)
    run = solver.run([reconstruct_spinor(g, init)])
    assert run.status == "completed" and len(handed) == 5
    assert alive == [0] * 8


def test_spinor_vs_wkb_hands_over_its_data(monkeypatch):
    # the comparison makes the initial spinor first and hands it to the
    # spinor run, which runs first and frees it after its dealiasing; the
    # WKB run is handed the initial state, which it frees after its
    # dealiasing.  The spinor is dead in every step of both runs; the state
    # is alive in every spinor step, held for the WKB run, and dead in
    # every WKB step
    made, alive = {}, []
    pauli_run, hydro_step, pauli_step = PauliSolver.run, HydroSolver.step_rk4, PauliSolver.step

    def spied_pauli_run(self, psi0, *args, **kwargs):
        made["psi0"] = weakref.ref(psi0[0])
        return pauli_run(self, psi0, *args, **kwargs)

    def spied(step, kind):
        def spy(self, *args, **kwargs):
            alive.append((kind, *(name for name, ref in made.items() if ref() is not None)))
            return step(self, *args, **kwargs)
        return spy

    def initial(g):
        state = gaussian_bump(g, epsilon=0.2, amplitude=0.2, width=1.0)
        made["state"] = weakref.ref(state)
        return state

    monkeypatch.setattr(PauliSolver, "run", spied_pauli_run)
    monkeypatch.setattr(HydroSolver, "step_rk4", spied(hydro_step, "wkb"))
    monkeypatch.setattr(PauliSolver, "step", spied(pauli_step, "spinor"))
    g = Grid((32, 32))
    report = harness.spinor_vs_wkb(g, [initial(g)], SimParams(epsilon=0.2, T=0.02), n_samples=4)
    assert len(report.distances) == 5
    # every step of both runs, the spinor run's first
    kinds = [kind for kind, *_ in alive]
    assert "spinor" in kinds and "wkb" in kinds
    assert alive == [("spinor", "state")] * kinds.count("spinor") + [("wkb",)] * kinds.count("wkb")


def test_record_peak_within_budget(traced_peak):
    # one 32^3 sample of the c14 data, its spectral tables made by a sample
    # before: 8.81 MB traced when each derivative of a is inverted alone
    # into a real table of magnitudes; 16.13 MB when each order's
    # multipliers are stacked on a's spectrum and inverted in one batch
    g = Grid((32, 32, 32))
    solver = HydroSolver(g, SimParams(epsilon=0.2, T=0.05))
    state = solver._dealias(gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2))
    pots = solver.potentials(state)
    solver._record(0.0, state, pots, None)
    _, peak = traced_peak(solver._record, 0.0, state, pots, None)
    assert peak <= 10 * 10**6


def test_wkb_run_takes_its_initial_state_uncopied(monkeypatch):
    # the run hands the caller's arrays to the loop, whose dealiasing makes
    # the run's own at the run's eps, and leaves the caller's state as it was
    g = Grid((64,))
    init = gaussian_bump(g, epsilon=0.3, amplitude=0.3)
    arrays = {name: getattr(init, name) for name in ("a", "S", "u", "u_mean")}
    values = {name: arr.copy() for name, arr in arrays.items()}
    handed, dealias = [], HydroSolver._dealias

    def spied_dealias(self, state):
        handed.append(state)
        return dealias(self, state)

    monkeypatch.setattr(HydroSolver, "_dealias", spied_dealias)
    run, samples = sampled_run(HydroSolver(g, SimParams(epsilon=0.1, T=0.02)), init, 2)
    assert run.status == "completed" and samples.states[0].epsilon == 0.1
    assert handed[0].a is arrays["a"] and handed[0].S is arrays["S"]
    assert samples.states[0].a is not arrays["a"]
    assert init.epsilon == 0.3
    for name, arr in arrays.items():
        assert getattr(init, name) is arr and np.array_equal(arr, values[name])


def test_wkb_run_never_reads_the_initial_velocity():
    # the loop reads its initial state only through _dealias, which makes
    # the run's state from a and S: a caller-made state never builds its u
    class Watched(HydroState):
        reads = 0

        @property
        def u(self):
            Watched.reads += 1
            return HydroState.u.fget(self)

    g = Grid((64,))
    init = gaussian_bump(g, epsilon=0.1, amplitude=0.3)
    watched = Watched(g, init.a, init.S, init.u_mean, init.t, init.epsilon)
    run = HydroSolver(g, SimParams(epsilon=0.1, T=0.02)).run(watched, 2)
    assert run.status == "completed" and len(run.times) == 3
    assert Watched.reads == 0


def test_spinor_run_keeps_no_earlier_sample_alive(monkeypatch):
    # a sample's potentials hold its psi until their A is read; passed on to
    # the steps after it they kept it alive through the next step
    sampled, alive, step = [], [], PauliSolver.step

    def spied_step(self, psi, *args, **kwargs):
        alive.append(sum(ref() is not None and ref() is not psi for ref in sampled))
        return step(self, psi, *args, **kwargs)

    monkeypatch.setattr(PauliSolver, "step", spied_step)
    g = Grid((32, 32))
    psi0 = reconstruct_spinor(g, gaussian_bump(g, epsilon=0.2, amplitude=0.2, width=1.0))
    params = SimParams(epsilon=0.2, T=0.04, dt=0.005, sample_every=2)
    run = PauliSolver(g, params).run(
        psi0, keep=lambda record, psi, pots: sampled.append(weakref.ref(psi)))
    assert run.status == "completed" and len(run.times) == len(sampled) == 5
    assert alive == [0] * 8


@pytest.mark.parametrize("kind", ["wkb", "spinor"])
def test_run_without_keep_holds_no_sample(monkeypatch, kind):
    # a run stores no sample: with no keep, every state and potentials a
    # sample's record read are dead once the run returns, the run alive
    solver_cls = HydroSolver if kind == "wkb" else PauliSolver
    record, sampled = solver_cls._record, []

    def spied_record(self, t, state, pots, previous):
        sampled.extend([weakref.ref(state), weakref.ref(pots)])
        return record(self, t, state, pots, previous)

    monkeypatch.setattr(solver_cls, "_record", spied_record)
    g = Grid((32, 32))
    init = gaussian_bump(g, epsilon=0.2, amplitude=0.2, width=1.0)
    params = SimParams(epsilon=0.2, T=0.04, dt=0.01)
    run = solver_cls(g, params).run(init if kind == "wkb" else reconstruct_spinor(g, init))
    assert run.status == "completed" and len(sampled) == 2 * len(run.times) == 10
    assert not any(ref() is not None for ref in sampled)


PAULI_TILTED = """
[run]
kind = pauli

[grid]
points = [64, 64]

[params]
epsilon = 0.2
T = 0.01
sample_every = 2

[initial]
family = gaussian-bump
amplitude = 0.3
phase_amplitude = 0.2
spin_angle = 0.5
"""


def test_pauli_run_holds_no_wkb_state(tmp_path, monkeypatch):
    # the writer hands the run the reconstructed spinor; the WKB state it was
    # made from was held by the writer through every step
    made, alive = [], []
    build, step = RunConfig.build_initial, PauliSolver.step

    def spied_build(self, *args, **kwargs):
        state = build(self, *args, **kwargs)
        made.append(weakref.ref(state))
        return state

    def spied_step(self, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in made))
        return step(self, *args, **kwargs)

    monkeypatch.setattr(RunConfig, "build_initial", spied_build)
    monkeypatch.setattr(PauliSolver, "step", spied_step)
    cfg = tmp_path / "pauli.cfg"
    cfg.write_text(PAULI_TILTED)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(made) == 1 and len(alive) == 16 and not any(alive)


def test_pauli_writer_frees_the_spinor_it_hands_the_run(tmp_path, monkeypatch):
    # the writer hands the run the reconstructed spinor in a one-slot
    # holder, which the run empties once it has dealiased it: the spinor is
    # dead from the first step on, where the writer and the run held it
    # through every step
    handed, alive = [], []
    run, step = PauliSolver.run, PauliSolver.step

    def spied_run(self, psi0, *args, **kwargs):
        handed.append(weakref.ref(psi0[0]))
        return run(self, psi0, *args, **kwargs)

    def spied_step(self, *args, **kwargs):
        alive.append(handed[0]() is not None)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(PauliSolver, "run", spied_run)
    monkeypatch.setattr(PauliSolver, "step", spied_step)
    cfg = tmp_path / "pauli.cfg"
    cfg.write_text(PAULI_TILTED)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(handed) == 1 and len(alive) == 16 and not any(alive)


def test_pauli_run_peak_within_budget(tmp_path, traced_peak):
    # a 64^2 tilted-spin run through the writer, its tables made by a run
    # before: 1.90 MiB traced when the writer and the loop hand the spinor
    # over and each step frees its input after its first transform and
    # runs its first kinetic half in place; 2.19 MiB when the predictor keeps the solved points as
    # V and A, the run holds no WKB state and the step drops its first
    # kinetic spectrum after the first transports; 2.84 MiB with B and
    # div A kept beside each point, the WKB state held and the spectrum
    # kept to the step's end
    cfg = tmp_path / "pauli.cfg"
    cfg.write_text(PAULI_TILTED)
    assert main(["run", str(cfg), "--out", str(tmp_path / "warm")]) == 0
    code, peak = traced_peak(main, ["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert peak <= 2.1 * 2**20


def test_snapshot_written_uncopied(tmp_path, traced_peak):
    # a 128^2 spinor goes to disk through its buffer: 4.8 KiB traced, where
    # a little-endian copy and its bytes took 1 MiB
    psi = np.ones((2, 128, 128), dtype=complex)
    _, peak = traced_peak(write_field, tmp_path / "psi.pwf", psi)
    assert peak <= 64 * 2**10


def test_spinor_samples_freed_before_the_wkb_run(monkeypatch):
    # the comparison keeps the spinor samples as their dealiased bands: no
    # spinor the spinor run sampled is alive once the WKB run starts, and
    # that run holds the five bands, each the 21 x 21 kept modes of a 32^2
    # spinor
    samples, seen, held = [], [], []
    record, hydro_run = PauliSolver._record, HydroSolver.run

    def spied_record(self, t, psi, *args):
        samples.append(weakref.ref(psi))
        return record(self, t, psi, *args)

    def spied_hydro(self, *args, keep, **kwargs):
        # the bands the WKB run's keep measures against
        held.append(inspect.getclosurevars(keep).nonlocals["bands"])
        seen.append((sum(ref() is not None for ref in samples), [band.shape for band in held[0]]))
        return hydro_run(self, *args, keep=keep, **kwargs)

    monkeypatch.setattr(PauliSolver, "_record", spied_record)
    monkeypatch.setattr(HydroSolver, "run", spied_hydro)
    g = Grid((32, 32))
    init = gaussian_bump(g, epsilon=0.2, amplitude=0.2, width=1.0)
    report = harness.spinor_vs_wkb(g, init, SimParams(epsilon=0.2, T=0.02), n_samples=4)
    assert len(report.distances) == 5 and len(samples) == 5
    assert seen == [(0, [(2, 21, 21)] * 5)]
    # the WKB run spends each band as it measures the sample of its index
    assert held == [[]]


def test_spinor_vs_wkb_peak_within_budget(traced_peak):
    # the c14 comparison on 16^3, the caller holding its state: 2.89 MiB
    # traced when the spinor run goes first and stores its samples as their
    # dealiased bands, which the WKB run spends as it measures; 3.04 MiB
    # when the WKB run went first and stored its bands, the initial spinor
    # made first and handed to the spinor run, which frees it after its
    # dealiasing, and each step frees its input; 3.27 MiB with the spinor
    # held through its run and the 1.77 MiB steps of
    # test_rk4_step_peak_within_budget; 3.57 MiB with the 2.07 MiB ones and
    # 3.97 MiB with the 2.47 MiB ones, when the WKB run stores its samples
    # as bands and no potentials; 5.1 MiB when it stores them as spinors,
    # and 7.4 MB when it holds its states and potentials until it ends and
    # is reconstructed after
    g = Grid((16, 16, 16))
    init = gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2)
    report, peak = traced_peak(harness.spinor_vs_wkb, g, init, SimParams(epsilon=0.2, T=0.05))
    assert len(report.distances) == 11
    assert peak <= 3.0 * 2**20


def wkb_run(n_samples=8, keep=None):
    g = Grid((64,))
    params = SimParams(epsilon=0.1, T=0.08)
    return HydroSolver(g, params).run(gaussian_bump(g, epsilon=0.1, amplitude=0.3), n_samples, keep)


def test_run_leaves_residuals_unset():
    run = wkb_run()
    assert len(run.records) == 9
    assert all(r.continuity_residual is None and r.gauge_residual is None for r in run.records)


def test_windowed_residuals_equal_the_all_sample_ones():
    # residual_window reads three samples at a time as they are taken; the
    # residuals are bitwise those made from the densities and currents of
    # every sample, which the same keep stores here for the reference
    g, samples = Grid((64,)), []
    residuals = residual_window(g)

    def keep(record, state, pots):
        residuals(record, state, pots)
        samples.append((state, pots))

    run = wkb_run(keep=keep)
    times, states, pots = run.times, [s for s, _ in samples], [p for _, p in samples]
    rho = [charge_density(s.a) for s in states]
    J = [wkb_current(g, s.a, s.u, p.A, s.epsilon) for s, p in zip(states, pots)]
    expected = []
    for i in range(1, len(times) - 1):
        window = [(times[j], rho[j], J[j]) for j in (i - 1, i, i + 1)]
        win_pot = [(times[j], pots[j].V, pots[j].A) for j in (i - 1, i, i + 1)]
        expected.append((continuity_residual(g, window),
                         gauge_residual(g, win_pot, states[i].epsilon)))
    got = [(r.continuity_residual, r.gauge_residual) for r in run.records[1:-1]]
    assert got == expected
    assert np.all(np.array(expected) > 0)
    ends = run.records[0], run.records[-1]
    assert all(r.continuity_residual is None and r.gauge_residual is None for r in ends)
