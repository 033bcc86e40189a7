"""
Method-of-lines integration of the WKB hydrodynamic system

    d_t a + (u - A).grad a + (a/2) div(u - A) = (i eps/2) Lap a + (i/2)(sigma.B) a
    d_t u + (u - A).grad u - (grad A)^T u + grad(|A|^2/2 + V) = 0
    d_t S + |u|^2/2 - A.u + (|A|^2/2 + V) = 0

with potentials recomputed at every stage.  The dispersion term
``(i eps/2) Lap a`` is the only linear one and the only stiff one; the
stepper solves it exactly with the integrating factor
``E(t) = exp(-i eps |k|^2 t/2)`` (Lawson integrating-factor RK4) and takes
the rest with the four stages of classical RK4, so the step is bounded by
advection alone.  eps = 0 is the pressureless Euler limit: there the
factor is 1, no transform is made, and the step is classical RK4.

The velocity equation is the exact gradient of the phase equation; the
term ``(grad A)^T u`` (components sum_j u_j d_i A_j) is what that gradient
produces, and keeping it in that form makes ``d_t u = grad(d_t S)`` an
identity whenever curl u = 0, so the phase stays reconstructible.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import (
    DiagnosticsRecord,
    MonitorStatus,
    MonitorThresholds,
    blowup_monitor,
    charge,
    functionals,
)
from .errors import InsufficientHistory, NonConvergence, StabilityViolation
from .grid import Grid, dealias_mask, dispersion_factor
from .grid import k3 as wavenumbers
from .operators import (
    curl,
    dealias,
    derivative_table,
    directional,
    gradient,
    gradient_part,
    laplacian,
)
from .pauli import apply_sigma_dot
from .states import (
    HydroState,
    Potentials,
    Run,
    RunStopped,
    SimParams,
    charge_density,
    finite,
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

    def potentials(self, state: HydroState, guess=None, grad_a=None) -> Potentials:
        """The potentials of ``state``; ``B`` is left to :meth:`_derivatives`."""
        return self_consistent_potentials(
            self.grid, self.params, state.a, state.epsilon, state.u, guess=guess,
            grad_a=grad_a,
        )

    # -- right-hand sides ------------------------------------------------------

    def rhs(self, state: HydroState, pots: Potentials):
        """
        Time derivatives (d_t a, d_t u, d_t S), assembled pseudo-spectrally:
        :meth:`nonlinear_rhs` plus the dispersion term ``(i eps/2) Lap a``.
        """
        da, du, dS = self.nonlinear_rhs(state, pots)
        if state.epsilon > 0:
            da = da + 0.5j * state.epsilon * laplacian(self.grid, state.a)
        return da, du, dS

    def nonlinear_rhs(self, state: HydroState, pots: Potentials, spectral=False):
        """
        :meth:`rhs` without the dispersion term; what the stepper integrates.
        ``spectral`` returns ``d_t a`` as its dealiased spectrum.
        """
        grad_a = derivative_table(self.grid, self.grid.fft(state.a), half=False)
        return self._nonlinear(state, grad_a, pots, spectral)

    def _nonlinear(self, state: HydroState, grad_a, pots: Potentials, spectral):
        """:meth:`nonlinear_rhs` from ``grad_a``, the derivative table of ``a``."""
        g = self.grid
        a, u = state.a, state.u
        da = -directional(g, u - pots.A, grad_a)
        div_rel, adv_u, jtp, B = self._derivatives(u, pots.A)
        da = da - 0.5 * a * div_rel
        if B is not None and np.any(B):
            da = da + 0.5j * apply_sigma_dot(B, a)
        da = g.fft(da) * dealias_mask(g) if spectral else dealias(g, da)

        a_sq = 0.5 * np.sum(pots.A**2, axis=0)
        dS = -0.5 * np.sum(u**2, axis=0) + np.sum(pots.A * u, axis=0) - (a_sq + pots.V)
        dS = dealias(g, dS)
        return da, self._velocity(adv_u, jtp, pots), dS

    def velocity_rhs(self, u, pots: Potentials):
        """d_t u alone, dealiased."""
        _, adv_u, jtp, _ = self._derivatives(u, pots.A)
        return self._velocity(adv_u, jtp, pots)

    def _derivatives(self, u, A):
        """
        ``div(u - A)``, ``(u - A).grad u``, ``(grad A)^T u`` (components
        sum_j u_j d_i A_j) and ``B = curl A``, all from one Jacobian table
        each of ``u`` and ``A`` (one forward and one batched inverse transform
        per field); each table is dropped once read.  A zero ``A`` has no
        table: its terms are 0 and ``B`` is None.
        """
        g = self.grid
        axes = range(g.dim)
        du = derivative_table(g, g.rfft(u), half=True)
        div_rel = sum(du[i, i] for i in axes)
        adv_u = directional(g, u - A, du)
        del du
        if not np.any(A):
            return div_rel, adv_u, 0.0, None
        dA = derivative_table(g, g.rfft(A), half=True)
        div_rel = div_rel - sum(dA[i, i] for i in axes)
        jtp = np.zeros_like(u)
        for i in axes:
            jtp[i] = np.sum(u * dA[i], axis=0)

        def d(i, j):  # d_i A_j, zero along inactive axes
            return dA[i, j] if i < g.dim else 0.0

        B = np.zeros_like(A)
        B[0] = d(1, 2) - d(2, 1)
        B[1] = d(2, 0) - d(0, 2)
        B[2] = d(0, 1) - d(1, 0)
        return div_rel, adv_u, jtp, B

    def _velocity(self, adv_u, jtp, pots: Potentials):
        """
        ``d_t u = -(u - A).grad u + (grad A)^T u - grad(|A|^2/2 + V)``,
        dealiased; the gradient is taken and the mask applied in one spectrum.
        """
        g = self.grid
        ks = wavenumbers(g, half=True)
        wh = g.rfft(0.5 * np.sum(pots.A**2, axis=0) + pots.V)
        duh = g.rfft(jtp - adv_u)
        for i in range(g.dim):
            duh[i] -= 1j * ks[i] * wh
        return g.irfft(duh * dealias_mask(g, half=True))

    # -- stepping ---------------------------------------------------------------

    def dt_bound(self, state: HydroState, pots: Potentials):
        """
        The advective dt bound  dx / ||u - A||_inf, c = 1.  The dispersion
        term sets none: :meth:`step_rk4` solves it exactly.
        """
        rel_inf = float(np.max(np.abs(state.u - pots.A)))
        dx = min(self.grid.spacings)
        return dx / rel_inf if rel_inf > 0 else np.inf

    def _dealias(self, state: HydroState, amplitude=True):
        """
        Truncate ``a`` and ``S`` to the dealiased band and project the
        velocity onto (constant mean) + (zero-mean gradient), so curl u
        stays at spectral zero and the phase remains consistent with u.
        ``amplitude=False`` leaves ``a``, for a caller that masked it already.
        """
        g = self.grid
        if amplitude:
            state.a = g.ifft(g.fft(state.a) * dealias_mask(g))
        if state.S is not None:
            state.S = dealias(g, state.S)
        state.u = gradient_part(g, state.u) + state.u_mean.reshape(3, *(1,) * g.dim)
        return state

    def step_rk4(self, state: HydroState, dt, pots=None):
        """
        One Lawson integrating-factor RK4 step followed by :meth:`_dealias`.

        With ``E(t) = exp(-i eps |k|^2 t/2)`` the exact flow of the
        dispersion term and ``k1 .. k4`` the nonlinear derivatives at the
        stages

            a2 = E(h/2) (a + h/2 k1)
            a3 = E(h/2) a + h/2 k2
            a4 = E(h) a + h E(h/2) k3
            a' = E(h) a + h/6 (E(h) k1 + 2 E(h/2) k2 + 2 E(h/2) k3 + k4),

        the amplitude advances in spectral space: the stage derivatives arrive
        as dealiased spectra, and ``a'`` is masked before its one inverse.
        Each stage inverts the spectrum of its amplitude once into ``a`` and
        its derivative table, which the kinetic current of the potentials and
        the advection of ``a`` share; ``u`` and ``A`` are transformed once
        each, in :meth:`_derivatives`.  ``u`` and ``S`` take the same
        four stages with E = 1, which is classical RK4; at eps = 0 the
        amplitude does too, in physical space, with no transform.

        ``pots`` are the potentials of ``state``; they are computed when not
        given.  They serve the first stage and set the bound dt is checked
        against: a dt above :meth:`dt_bound` raises StabilityViolation.
        The screened solve of each later stage starts from a nearby A: the
        two half-step stages from the A of the stage before, the full-step
        stage from the line ``2 A_3 - A_1`` through the first and third.
        """
        if pots is None:
            pots = self.potentials(state)
        bound = self.dt_bound(state, pots)
        if dt > bound * (1.0 + 1e-9):
            raise StabilityViolation(f"dt={dt:g} exceeds bound {bound:g} at t={state.t:g}")
        g = self.grid
        spectral = state.epsilon > 0
        if spectral:
            half = dispersion_factor(g, state.epsilon, 0.5 * dt, self._dispersion)
            full = dispersion_factor(g, state.epsilon, dt, self._dispersion)
            fwd, inv = g.fft, g.ifft
        else:
            half = full = None
            fwd = inv = lambda f: f

        # (a, u, S) with a in the transform space of fwd; E acts on a only
        def prop(y, factor):
            return y if factor is None else (factor * y[0],) + tuple(y[1:])

        def axpy(y, h, k):
            return tuple(None if x is None else x + h * dx for x, dx in zip(y, k))

        def at(y, dt_frac):
            return HydroState(a=inv(y[0]), u=y[1], S=y[2], u_mean=state.u_mean,
                              t=state.t + dt_frac, epsilon=state.epsilon)

        def a_table(y, s):  # the derivative table of a, from the spectrum of y[0]
            return derivative_table(g, y[0] if spectral else g.fft(s.a), half=False)

        stage_A = [pots.A]

        def stage(y, dt_frac):
            a1, a_last = stage_A[0], stage_A[-1]
            guess = a_last if len(stage_A) < 3 else 2.0 * a_last - a1
            s = at(y, dt_frac)
            grad_a = a_table(y, s)
            stage_pots = self.potentials(s, guess=guess, grad_a=grad_a)
            stage_A.append(stage_pots.A)
            return self._nonlinear(s, grad_a, stage_pots, spectral)

        y = (fwd(state.a), state.u, state.S)
        k1 = self._nonlinear(state, a_table(y, state), pots, spectral)
        k2 = stage(prop(axpy(y, 0.5 * dt, k1), half), 0.5 * dt)
        k3 = stage(axpy(prop(y, half), 0.5 * dt, k2), 0.5 * dt)
        k4 = stage(axpy(prop(y, full), dt, prop(k3, half)), dt)
        combo = tuple(
            (a + 2.0 * b + 2.0 * c + d) / 6.0
            for a, b, c, d in zip(prop(k1, full), prop(k2, half), prop(k3, half), k4)
        )
        y = axpy(prop(y, full), dt, combo)
        if spectral:
            y = (y[0] * dealias_mask(g),) + y[1:]
        return self._dealias(at(y, dt), amplitude=not spectral)

    # -- full run -----------------------------------------------------------------

    def _record(self, t, state: HydroState, pots: Potentials, previous):
        # the state carries its own time; ``t`` is the loop's n * dt
        g = self.grid
        fn = functionals(g, state, self.params.s, dt_u=self.velocity_rhs(state.u, pots))
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

    def run(self, init: HydroState, n_samples=None) -> Run:
        """
        The shared run loop with the WKB policy.  Each step is followed by
        the solve of the new state's potentials, started from the last A,
        then from the line ``2 A_n - A_{n-1}`` through the last two.  A
        crossed dt bound or an elliptic breakdown after a monitor warning
        ends the run as a blow-up (before a warning they raise); a
        non-finite state and the monitor end it at any time.  ``n_samples``
        places the samples at ``T k / n_samples``
        (:func:`~poisswell.states.run_loop`).
        """
        state = init.copy()
        state.epsilon = self.params.epsilon
        warned, prev_A = False, None

        def advance(state, dt, pots, sample):
            nonlocal prev_A
            try:
                state = finite(self.step_rk4(state, dt, pots))
                guess = pots.A if prev_A is None else 2.0 * pots.A - prev_A
                prev_A = pots.A
                return state, self.potentials(state, guess=guess)
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

        run = run_loop(self, state, advance, watch, n_samples)
        self._fill_residuals(run)
        return run

    def _fill_residuals(self, run: Run):
        from .diagnostics import continuity_residual, gauge_residual

        g = self.grid
        times, states, pots, records = run.times, run.states, run.potentials, run.records
        if len(times) < 3:
            return
        rho = [charge_density(s.a) for s in states]
        J = [
            wkb_current(g, s.a, s.u, p.A, s.epsilon)
            for s, p in zip(states, pots)
        ]
        for i in range(1, len(times) - 1):
            win_rho = [(times[j], rho[j], J[j]) for j in (i - 1, i, i + 1)]
            records[i].continuity_residual = continuity_residual(g, win_rho)
            win_pot = [(times[j], pots[j].V, pots[j].A) for j in (i - 1, i, i + 1)]
            records[i].gauge_residual = gauge_residual(
                g, win_pot, states[i].epsilon
            )


def euler_fields_form(grid: Grid, run: Run, index: int):
    """
    Field-form variables at sample ``index``: E = -grad V - d_t A (centered
    difference of the potential history), B = curl A, and the transformed
    velocity u - A.
    """
    if index <= 0 or index >= len(run.times) - 1:
        raise InsufficientHistory("field form needs both time neighbours")
    tm, tp = run.times[index - 1], run.times[index + 1]
    Am, Ap = run.potentials[index - 1].A, run.potentials[index + 1].A
    dA = (Ap - Am) / (tp - tm)
    pots = run.potentials[index]
    E = -gradient(grid, pots.V) - dA
    B = curl(grid, pots.A)
    u_field = run.states[index].u - pots.A
    return E, B, u_field
