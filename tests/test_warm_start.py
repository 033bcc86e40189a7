"""
The warm starts of the screened solves: the extrapolation a run's
:class:`~poisswell.states.SolveHistory` makes, that a warm-started run
solves the same potentials as a cold one, and the work the warm starts save.
"""

import numpy as np
import pytest

from poisswell.grid import Grid
from poisswell.hydro import HydroSolver
from poisswell.initial_data import gaussian_bump
from poisswell.pauli_solver import PauliSolver
from poisswell.states import SimParams, SolveHistory, reconstruct_spinor

from conftest import sampled_run


def polynomial(coefficients, t):
    return sum(c * t**j for j, c in enumerate(coefficients))


@pytest.mark.parametrize("nodes", [(0.0, 1.0, 2.0, 3.0), (0.0, 0.5, 1.5, 2.5)])
@pytest.mark.parametrize("offset", [0.5, 1.0])
def test_extrapolation_exact_below_its_point_count(rng, nodes, offset):
    # the run's nodes: whole steps for the WKB post-step A's, the initial
    # point then midpoints for the spinor; a history of n points is exact
    # for array-valued polynomials of degree below n, and only for those
    for n in range(1, len(nodes) + 1):
        history = SolveHistory(n)
        coefficients = rng.standard_normal((n + 1, 3, 8))
        for t in nodes:  # the history keeps the last n
            history.push(t, polynomial(coefficients[:n], t))
        target = nodes[-1] + offset
        exact = polynomial(coefficients[:n], target)
        got = history.ahead(offset)
        assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
        # a term of degree n is not reproduced
        history = SolveHistory(n)
        for t in nodes:
            history.push(t, polynomial(coefficients, t))
        miss = np.max(np.abs(history.ahead(offset) - polynomial(coefficients, target)))
        assert miss > 1e-6 * np.max(np.abs(coefficients[n]))


def test_defect_is_the_solved_minus_the_extrapolation():
    # a stage starts from the extrapolation plus its last defect and leaves
    # the new one; the guess handed back is spent
    history = SolveHistory(2)
    history.push(0, np.full(4, 1.0))
    history.push(1, np.full(4, 2.0))
    guess = history.ahead(0.5, site=2)
    assert np.array_equal(guess, np.full(4, 2.5))
    history.solved(2, guess, np.full(4, 2.75))
    assert np.array_equal(history.defects[2], np.full(4, 0.25))
    history.push(2, np.full(4, 3.0))
    guess = history.ahead(0.5, site=2)
    assert np.array_equal(guess, np.full(4, 3.75))
    history.solved(2, guess, np.full(4, 3.5))
    assert np.array_equal(history.defects[2], np.full(4, 0.0))
    assert 3 not in history.defects


def relative_gap(x, y):
    return np.max(np.abs(x - y)) / np.max(np.abs(y))


def cold(monkeypatch):
    """Make every screened solve start from zero."""
    from poisswell import states

    solve = states.solve_screened_vector

    def unguessed(*args, guess=None, **kwargs):
        return solve(*args, **kwargs)

    monkeypatch.setattr(states, "solve_screened_vector", unguessed)


def wkb_run():
    """A coupled 16^3 WKB run and its samples."""
    g = Grid((16, 16, 16))
    params = SimParams(epsilon=0.2, T=0.08, dt=0.01, sample_every=2)
    return sampled_run(HydroSolver(g, params),
                       gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2))


def spinor_run():
    """A coupled 64^2 spinor run and its samples."""
    g = Grid((64, 64))
    psi = reconstruct_spinor(g, gaussian_bump(g, epsilon=0.2, amplitude=0.3,
                                              phase_amplitude=0.2, spin_angle=0.5))
    return sampled_run(PauliSolver(g, SimParams(epsilon=0.2, T=0.08, dt=0.01, sample_every=2)),
                       psi)


def test_warm_and_cold_runs_agree(monkeypatch):
    # the guesses change the work of each solve, not its answer: every
    # sampled state and potential of a run agrees with those of the same run
    # made with every solve cold (5e-12 seen; the solves meet 1e-11)
    warm = wkb_run(), spinor_run()
    cold(monkeypatch)
    unwarmed = wkb_run(), spinor_run()
    for (run, samples), (ref, ref_samples) in zip(warm, unwarmed):
        assert run.status == ref.status == "completed"
        assert len(samples) == len(ref_samples) == 5
    for st, ref in zip(warm[0][1].states, unwarmed[0][1].states):
        assert relative_gap(st.a, ref.a) <= 1e-9 and relative_gap(st.S, ref.S) <= 1e-9
    assert all(relative_gap(psi, ref) <= 1e-9
               for psi, ref in zip(warm[1][1].states, unwarmed[1][1].states))
    for (_, samples), (_, ref_samples) in zip(warm, unwarmed):
        for pots, pref in zip(samples.potentials, ref_samples.potentials):
            assert relative_gap(pots.V, pref.V) <= 1e-9 and relative_gap(pots.A, pref.A) <= 1e-9


def test_iteration_budget_once_the_history_fills(cg_iterations):
    # inverse transforms per solve (iterations plus true-residual tests).
    # A coupled 32^3 WKB run of 8 steps solves 1 + 4 per step: from step 5
    # on, with four post-step A's held, stages and post-step solves make at
    # most 3 (1-2 iterations; the in-step guesses made 4 to 6).  A 64^2
    # spinor run solves 1 + 1 per step: from step 4, with three midpoints
    # held, each makes 4 (the predictor's A made 6 or 7).
    g = Grid((32, 32, 32))
    params = SimParams(epsilon=0.2, T=0.05, dt=0.05 / 8, sample_every=8)
    run = HydroSolver(g, params).run(gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2))
    assert run.status == "completed" and len(cg_iterations) == 1 + 4 * 8
    assert max(cg_iterations[1 + 4 * 4:]) <= 3
    cg_iterations.clear()
    spinor, _ = spinor_run()
    assert spinor.status == "completed" and len(cg_iterations) == 1 + 8
    assert max(cg_iterations[4:]) <= 4


def test_first_steps_no_more_work_than_the_in_step_guesses(cg_iterations):
    # until a stage holds a defect taken against a line through two
    # post-step A's, it starts from the in-step guesses; so the stage solves
    # of steps 1-3 of a coupled 32^3 run do no more CG work than the same
    # steps made without a history (a defect off the constant trend cost
    # step 2 three more inverse transforms)
    g = Grid((32, 32, 32))
    dt = 0.05 / 8
    params = SimParams(epsilon=0.2, T=3 * dt, dt=dt)
    init = gaussian_bump(g, amplitude=0.2, width=1.2, epsilon=0.2)
    run, samples = sampled_run(HydroSolver(g, params), init)
    assert run.status == "completed" and len(cg_iterations) == 1 + 4 * 3
    with_history = [sum(cg_iterations[2 + 4 * n: 5 + 4 * n]) for n in range(3)]
    solver, without = HydroSolver(g, params), []
    for _, state, pots in samples[:3]:
        cg_iterations.clear()
        solver.step_rk4(state, dt, pots)
        without.append(sum(cg_iterations))
    assert all(h <= w for h, w in zip(with_history, without))
