"""
Method-of-lines integration of the WKB hydrodynamic system in the variables
of the ansatz ``psi = a exp(iS/eps)``,

    d_t a + (u - A).grad a + (a/2) div(u - A) = (i eps/2) Lap a + (i/2)(sigma.B) a
    d_t S + |u|^2/2 - A.u + (|A|^2/2 + V) = 0,        u = u_mean + grad S,

with potentials recomputed at every stage.  The velocity is not evolved:
each stage reads ``u`` and ``div u = Lap S`` from one batched inverse
transform of the spectrum of ``S``, so ``u`` is a gradient (plus its
constant mean) by construction.  The dispersion term ``(i eps/2) Lap a`` is
the only linear one and the only stiff one; the stepper solves it exactly
with the integrating factor ``E(t) = exp(-i eps |k|^2 t/2)`` (Lawson
integrating-factor RK4) and takes the rest with the four stages of classical
RK4, so the step is bounded by advection alone.  eps = 0 is the pressureless
Euler limit: there the factor is 1 and the same step is classical RK4.
"""

from __future__ import annotations

import collections

import numpy as np

from .diagnostics import (
    DiagnosticsRecord,
    MonitorStatus,
    MonitorThresholds,
    blowup_monitor,
    charge,
    continuity_residual,
    functionals,
    gauge_residual,
)
from .errors import InsufficientHistory, NonConvergence, StabilityViolation
from .grid import Grid, dealias_mask, dispersion_factor, k3
from .operators import (
    curl,
    curl_divergence,
    dealias,
    directional,
    gradient,
    laplacian,
    spectrum,
)
from .pauli import apply_sigma_dot
from .states import (
    HydroState,
    Potentials,
    Run,
    RunStopped,
    SimParams,
    SolveHistory,
    charge_density,
    finite,
    phase_velocity,
    run_loop,
    self_consistent_potentials,
    wkb_current,
)


class HydroSolver:
    def __init__(self, grid: Grid, params: SimParams,
                 thresholds: MonitorThresholds = MonitorThresholds()):
        self.grid = grid
        self.params = params
        self.thresholds = thresholds
        self._dispersion = {}  # dispersion_factor's tables

    def potentials(self, state: HydroState, guess=None) -> Potentials:
        """The potentials of ``state``; ``B`` is left to :meth:`_nonlinear`."""
        return self_consistent_potentials(
            self.grid, self.params, state.a, state.epsilon, state.u, guess=guess,
        )

    # -- right-hand sides ------------------------------------------------------

    def rhs(self, state: HydroState, pots: Potentials):
        """
        Time derivatives (d_t a, d_t S), assembled pseudo-spectrally: the
        dealiased :meth:`_nonlinear` part, which the stepper integrates,
        plus the dispersion term ``(i eps/2) Lap a``.
        """
        g = self.grid
        da, dS = self._nonlinear(state.a, state.u, laplacian(g, state.S), pots)
        da, dS = g.ifft(da), g.irfft(dS)
        if state.epsilon > 0:
            da = da + 0.5j * state.epsilon * laplacian(g, state.a)
        return da, dS

    def _nonlinear(self, a, u, lap_S, pots: Potentials):
        """
        The dealiased spectra of ``(d_t a, d_t S)`` without the dispersion
        term, at the amplitude ``a``, the velocity ``u`` and its divergence
        ``lap_S``; the advection streams the derivatives of ``a``
        (:func:`~poisswell.operators.directional`), and ``d_t S`` comes as
        its half spectrum (:meth:`_phase_rhs`).  ``B = curl A`` and
        ``div A`` come from one transform of ``A``; a zero ``A`` has none.
        """
        g = self.grid
        div_rel, B = lap_S, None
        if np.any(pots.A):
            B, div_A = curl_divergence(g, pots.A)
            div_rel = lap_S - div_A
        da = -directional(g, u - pots.A, a) - 0.5 * a * div_rel
        if B is not None:
            da = da + 0.5j * apply_sigma_dot(B, a)
        return g.fft(da) * dealias_mask(g), self._phase_rhs(u, pots)

    def _phase_rhs(self, u, pots: Potentials):
        """The dealiased half spectrum of ``d_t S = -|u|^2/2 + A.u - (|A|^2/2 + V)``."""
        g = self.grid
        a_sq = 0.5 * np.sum(pots.A**2, axis=0)
        dS = -0.5 * np.sum(u**2, axis=0) + np.sum(pots.A * u, axis=0) - (a_sq + pots.V)
        return g.rfft(dS) * dealias_mask(g, half=True)

    # -- stepping ---------------------------------------------------------------

    def dt_bound(self, state: HydroState, pots: Potentials):
        """
        The advective dt bound  dx / ||u - A||_inf, c = 1.  The dispersion
        term sets none: :meth:`step_rk4` solves it exactly.
        """
        rel_inf = float(np.max(np.abs(state.u - pots.A)))
        dx = min(self.grid.spacings)
        return dx / rel_inf if rel_inf > 0 else np.inf

    def _dealias(self, state: HydroState):
        """``state`` cut to the dealiased band in new arrays, at the run's eps."""
        g = self.grid
        S_hat = g.rfft(state.S) * dealias_mask(g, half=True)
        return HydroState(g, dealias(g, state.a), g.irfft(S_hat), state.u_mean, state.t,
                          self.params.epsilon, S_hat=S_hat)

    def step_rk4(self, state: HydroState, dt, pots=None, history: SolveHistory = None):
        """
        One Lawson integrating-factor RK4 step, its result cut to the
        dealiased band.

        With ``E(t) = exp(-i eps |k|^2 t/2)`` the exact flow of the
        dispersion term and ``k1 .. k4`` the nonlinear derivatives at the
        stages

            a2 = E(h/2) (a + h/2 k1)
            a3 = E(h/2) a + h/2 k2
            a4 = E(h) a + h E(h/2) k3
            a' = E(h) a + h/6 (E(h) k1 + 2 E(h/2) k2 + 2 E(h/2) k3 + k4),

        the amplitude advances in spectral space: the stage derivatives arrive
        as dealiased spectra, and ``a'`` is masked before its one inverse.
        The phase takes the same four stages in spectral space with E = 1,
        which is classical RK4; at eps = 0, where E = 1, the amplitude does
        too.  Each stage inverts the spectrum of its amplitude once into
        ``a``, and the spectrum of its phase once into ``u`` and ``div u``
        (:func:`~poisswell.states.phase_velocity`);
        ``A`` is transformed once, for ``B`` and ``div A``.  The current of
        the stage's solve, before it, and the advection of ``a``, after it,
        each stream the derivatives of ``a``
        (:func:`~poisswell.operators.partials`): none is alive in a solve.

        ``pots`` are the potentials of ``state``; they are computed when not
        given.  They serve the first stage and set the bound dt is checked
        against: a dt above :meth:`dt_bound` raises StabilityViolation.

        The screened solve of each later stage starts from a nearby A: the
        in-step guesses, by which the two half-step stages start from the A
        of the stage before and the full-step stage from the line
        ``2 A_3 - A_1`` through the first and third.  A run passes its
        ``history`` of post-step A's, the last of them ``pots.A``
        (:class:`~poisswell.states.SolveHistory`).  Stage ``s`` (2, 3 or 4)
        leaves there its defect against their extrapolation to its time,
        ``t + dt/2`` or ``t + dt``, once the history holds two points, and
        from the next step on starts from that extrapolation plus the defect
        instead of the in-step guess.

        The step holds what its next stage reads: of ``state`` it keeps only
        ``t``, eps and ``u_mean`` once the spectra of ``a`` and ``S`` are
        taken, and of ``pots`` only ``A`` (for the guesses) once the first
        stage has read them, so a caller that hands both over frees them
        there; each stage's amplitude and phase spectra are dropped once
        that stage has inverted them, before its screened solve, a stage's
        spent guess before its advection, and ``k1 .. k3`` are folded into
        the running sum of the last line, added left to right, before stage
        4.  The in-step guesses keep the stage A's until the step returns,
        and only while they are used.
        """
        if pots is None:
            pots = self.potentials(state)
        bound = self.dt_bound(state, pots)
        if dt > bound * (1.0 + 1e-9):
            raise StabilityViolation(f"dt={dt:g} exceeds bound {bound:g} at t={state.t:g}")
        g = self.grid
        t, epsilon, u_mean = state.t, state.epsilon, state.u_mean
        half = full = None  # E = 1 at eps = 0
        if epsilon > 0:
            half = dispersion_factor(g, epsilon, 0.5 * dt, self._dispersion)
            full = dispersion_factor(g, epsilon, dt, self._dispersion)

        # (a_hat, S_hat); E acts on a_hat only
        def prop(y, factor):
            return y if factor is None else (factor * y[0], y[1])

        def axpy(y, h, k):
            return tuple(x + h * dx for x, dx in zip(y, k))

        stage_A = [pots.A]  # the in-step guesses' points, while a stage uses them

        def inverted(y, a=None):
            a = g.ifft(y[0]) if a is None else a
            return (a,) + phase_velocity(g, y[1], u_mean, laplacian=True)

        def stage(a, u, lap_S, site):
            offset = 0.5 if site < 4 else 1.0
            defect = history is not None and site in history.defects
            if defect:
                guess = history.ahead(offset, site)
            else:
                guess = stage_A[-1] if len(stage_A) < 3 else 2.0 * stage_A[-1] - stage_A[0]
            stage_pots = self_consistent_potentials(g, self.params, a, epsilon, u, guess=guess)
            if defect:
                history.solved(site, guess, stage_pots.A)
            else:
                stage_A.append(stage_pots.A)
                # a defect off a constant trend would carry this step's slope into later guesses
                if history is not None and len(history.points) > 1:
                    history.solved(site, history.ahead(offset), stage_pots.A)
            del guess  # one made here is freed before the advection
            return self._nonlinear(a, u, lap_S, stage_pots)

        a = state.a
        y = (g.fft(a), g.rfft(state.S))
        del state  # of the input only t, eps and u_mean are read past here
        k1 = self._nonlinear(*inverted(y, a), pots)
        del a, pots  # the in-step guesses and the history hold the A they read
        k2 = stage(*inverted(prop(axpy(y, 0.5 * dt, k1), half)), 2)
        f3 = inverted(axpy(prop(y, half), 0.5 * dt, k2))
        # the running sum E(h) k1 + 2 E(h/2) k2 + ..., added left to right
        combo = tuple(a + 2.0 * b for a, b in zip(prop(k1, full), prop(k2, half)))
        del k1, k2
        k3 = stage(*f3, 3)
        del f3
        k3 = prop(k3, half)
        f4 = inverted(axpy(prop(y, full), dt, k3))
        for c, dc in zip(combo, k3):
            c += 2.0 * dc
        del k3
        k4 = stage(*f4, 4)
        del f4
        for c, dc in zip(combo, k4):
            c += dc
            c /= 6.0
        del k4
        a_hat, S_hat = axpy(prop(y, full), dt, combo)
        a = g.ifft(a_hat * dealias_mask(g))
        S_hat = S_hat * dealias_mask(g, half=True)
        return HydroState(g, a, g.irfft(S_hat), u_mean, t + dt, epsilon, S_hat=S_hat)

    # -- full run -----------------------------------------------------------------

    def _record(self, t, state: HydroState, pots: Potentials, previous):
        # the state carries its own time; ``t`` is the loop's n * dt
        g, ks = self.grid, k3(self.grid, half=True)
        dS_hat = self._phase_rhs(state.u, pots)
        # d_t u = grad d_t S, whose norm reads only its spectrum
        dt_u = spectrum(g, None, np.stack([1j * ks[i] * dS_hat for i in range(g.dim)]))
        fn = functionals(g, state, self.params.s, dt_u=dt_u)
        sup = fn.monitor if previous is None else max(previous.monitor_sup, fn.monitor)
        return DiagnosticsRecord(
            t=state.t,
            charge=charge(g, state.a),
            xs=fn.xs,
            xs_eps=fn.xs_eps,
            xs_eps_dtu=fn.xs_eps_dtu,
            monitor=fn.monitor,
            monitor_sup=sup,
            blowup_sum=fn.blowup_sum,
            tail_fraction=fn.tail_fraction,
        )

    def run(self, init: HydroState, n_samples=None, keep=None) -> Run:
        """
        The shared run loop with the WKB policy.  With a magnetic coupling
        the run keeps a :class:`~poisswell.states.SolveHistory` of the last
        four post-step A's: each step's stages start from it
        (:meth:`step_rk4`), and the solve of the new state's potentials
        after each step starts from the polynomial through them, at the
        next step: the last A, then the line through the last two, the
        quadratic through three, and the cubic through four.  A crossed dt
        bound or an elliptic breakdown after a monitor warning ends the run
        as a blow-up (before a warning they raise); a non-finite state and
        the monitor end it at any time.  ``n_samples`` places the samples at
        ``T k / n_samples``, and ``keep``, when given, reads each as it is
        taken; the run stores none (:func:`~poisswell.states.run_loop`).
        ``init`` is not copied: the loop reads it only through
        :meth:`_dealias`, and empties a one-slot holder ``[init]`` there.
        Each step is handed the loop's state and potentials and frees them
        once read (:meth:`step_rk4`).
        """
        warned = False
        history = SolveHistory(4) if self.params.magnetic and self.params.coupling else None

        def advance(now, dt, sample):
            try:
                if history is not None and not history.points:
                    history.push(0, now[1].A)
                # popped into the call: the step holds the only reference to its input
                state = finite(self.step_rk4(now.pop(0), dt, now.pop(), history))
                if history is None:
                    return state, self.potentials(state)
                pots = self.potentials(state, guess=history.ahead(1.0))
                history.push(history.nodes[-1] + 1, pots.A)
                return state, pots
            except StabilityViolation as exc:
                if warned:
                    raise RunStopped("stability bound crossed") from exc
                raise
            except NonConvergence as exc:
                # elliptic breakdown mid-collapse is blow-up phenomenology;
                # on a healthy trajectory it should surface
                if warned:
                    raise RunStopped("elliptic solve diverged") from exc
                raise

        def watch(records):
            nonlocal warned
            verdict = blowup_monitor(records[-1], self.thresholds, records[0].blowup_sum)
            if verdict is MonitorStatus.TRIGGERED:
                raise RunStopped("monitor triggered")
            warned = warned or verdict is MonitorStatus.WARNING

        return run_loop(self, init, advance, watch, n_samples, keep)


def residual_window(grid: Grid):
    """
    A ``keep`` that sets the continuity and gauge residuals of each inner
    sample's record, which :meth:`HydroSolver.run` leaves unset, once the
    next sample is taken: it holds a window of three samples.
    """
    window = collections.deque(maxlen=3)  # (record, (t, rho, J), (t, V, A)) per sample

    def keep(record, state, pots):
        J = wkb_current(grid, state.a, state.u, pots.A, state.epsilon)
        window.append((record, (record.t, charge_density(state.a), J), (record.t, pots.V, pots.A)))
        if len(window) == 3:
            records, currents, potentials = zip(*window)
            records[1].continuity_residual = continuity_residual(grid, currents)
            records[1].gauge_residual = gauge_residual(grid, potentials, state.epsilon)

    return keep


def euler_fields_form(grid: Grid, samples, index: int):
    """
    Field-form variables at sample ``index`` of ``samples``, the
    ``(record, state, pots)`` triples of a run as a ``keep`` collects them:
    E = -grad V - d_t A (centered difference of the potential history),
    B = curl A, and the transformed velocity u - A.
    """
    if index <= 0 or index >= len(samples) - 1:
        raise InsufficientHistory("field form needs both time neighbours")
    (before, _, pots_m), (_, state, pots), (after, _, pots_p) = samples[index - 1:index + 2]
    dA = (pots_p.A - pots_m.A) / (after.t - before.t)
    E = -gradient(grid, pots.V) - dA
    B = curl(grid, pots.A)
    u_field = state.u - pots.A
    return E, B, u_field
