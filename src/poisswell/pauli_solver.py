"""
Time integration of the scaled spinor equation

    i eps d_t psi = -(1/2)(eps grad - iA)^2 psi + V psi - (eps/2)(sigma.B) psi

with self-consistently coupled potentials, by Strang splitting: the kinetic
flow is exact in spectral space; the potential/Stern-Gerlach multiplication
is an exact pointwise unitary; the advective piece ``A.grad + (div A)/2`` is
integrated by an explicit midpoint rule inside each nonlinear half-step.

A step keeps psi spectral between substeps where it can: the first kinetic
half hands its spectrum to both transport passes, which build their
midpoints from it; the last transport half hands its spectrum straight to
the last kinetic half.  The transport and the midpoint's current take the
derivatives of psi one at a time, each from a transform along its own axis
(:func:`~poisswell.operators.partials`).  The potentials are V and A alone;
the step takes ``B = curl A``, which only the multiplication reads, and
``div A`` from one transform of A.

A run makes one screened solve per step, at the step's midpoint.  Each
step's predictor takes the potentials at its start extrapolated linearly
in time from the last two solved points (the initial potentials and the
midpoints), which the run keeps as their V and A alone; the predictor's
``B`` and ``div A`` are taken from the extrapolated A.  The midpoint solve
starts from the quadratic through the A's of the last three.  A sample
solves V alone; its A is solved from the sample's spinor when first read.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .diagnostics import DiagnosticsRecord, MonitorThresholds, charge, field_energy
from .elliptic import solve_poisson_neutral
from .errors import NonConvergence, StabilityViolation
from .grid import Grid, dealias_mask, dispersion_factor
from .operators import (
    curl_divergence,
    directional,
    spectral_tail_fraction,
    spectrum,
)
from .states import (
    LazyPotentials,
    Potentials,
    Run,
    RunStopped,
    SimParams,
    SolveHistory,
    charge_density,
    finite,
    run_loop,
    self_consistent_potentials,
)


class PauliSolver:
    """Strang-splitting integrator on one grid; stateless between calls."""

    def __init__(self, grid: Grid, params: SimParams,
                 thresholds: MonitorThresholds = MonitorThresholds()):
        if params.epsilon <= 0:
            raise ValueError("the spinor solver needs eps > 0")
        self.grid = grid
        self.params = params
        self.thresholds = thresholds
        self._dispersion = {}  # dispersion_factor's tables

    def potentials(self, psi, guess=None) -> Potentials:
        return self_consistent_potentials(
            self.grid, self.params, psi, self.params.epsilon, guess=guess,
        )

    def _sample_potentials(self, psi) -> Potentials:
        """
        The potentials of a sample: ``V`` now, which its record's energy
        reads, and ``A`` solved from ``psi``, the sample's spinor, when first
        read; that ``A`` is :meth:`potentials`' cold solve, bit for bit.
        """
        if not (self.params.magnetic and self.params.coupling):
            return self.potentials(psi)
        V = solve_poisson_neutral(self.grid, charge_density(psi))
        return LazyPotentials(V, psi, self.potentials)

    def _fields(self, pots):
        """The fields a step's predictor takes: ``(pots, B, div A)``."""
        return (pots, *self._magnetic(pots.A))

    # -- single step ---------------------------------------------------------

    def dt_bound(self, psi, pots: Potentials):
        """dt bound 0.5 min(dx/||A||_inf, eps/||V + |A|^2/2||_inf)."""
        dx = min(self.grid.spacings)
        a_inf = float(np.max(np.abs(pots.A)))
        w_inf = float(np.max(np.abs(pots.V + 0.5 * np.sum(pots.A**2, axis=0))))
        bound = np.inf
        if a_inf > 0:
            bound = min(bound, dx / a_inf)
        if w_inf > 0:
            bound = min(bound, self.params.epsilon / w_inf)
        return 0.5 * bound

    def _advect_rhs(self, psi, A, divA):
        """The dealiased spectrum of ``A.grad psi + (div A/2) psi``."""
        g = self.grid
        rhs = directional(g, A, psi)
        rhs += 0.5 * divA * psi
        rhs_hat = g.fft(rhs)
        rhs_hat *= dealias_mask(g)
        return rhs_hat

    def _transport(self, psi, tau, pots, divA, psi_hat=None, spectral=False):
        """
        The explicit midpoint rule for ``d_t psi = A.grad psi + (div A/2) psi``
        (``divA`` is None when A vanishes).  ``psi_hat``, the spectrum of
        ``psi``, is taken when the caller holds it; otherwise ``psi`` is
        transformed once.  The midpoint's spectrum is assembled from the
        first pass's dealiased derivative, so the second pass needs no
        forward transform of the midpoint.  ``spectral`` returns the
        spectrum of the result instead.
        """
        g = self.grid
        if divA is None:
            return g.fft(psi) if spectral else psi
        if psi_hat is None:
            psi_hat = g.fft(psi)
        mid_hat = psi_hat + 0.5 * tau * self._advect_rhs(psi, pots.A, divA)
        mid = g.ifft(mid_hat)
        rhs_hat = self._advect_rhs(mid, pots.A, divA)
        if spectral:
            return psi_hat + tau * rhs_hat
        return psi + tau * g.ifft(rhs_hat)

    def _magnetic(self, A):
        """
        ``B = curl A`` and ``div A`` (None when A vanishes), both from one
        transform of A.
        """
        if not np.any(A):
            return np.zeros_like(A), None
        return curl_divergence(self.grid, A)

    def _multiply(self, psi, tau, pots, B):
        """The exact potential and Stern-Gerlach flow over ``tau``; ``B = curl A``."""
        eps = self.params.epsilon
        W = pots.V + 0.5 * np.sum(pots.A**2, axis=0)
        return kernels.phase_sigma_rotate(psi, (tau / eps) * W, B, 0.5 * tau)

    def _kinetic(self, psi_hat, dt, dealias=False):
        """
        The exact kinetic flow over ``dt``, on the spectrum ``psi_hat``, in
        place; ``dealias`` also masks the result.
        """
        g = self.grid
        psi_hat *= dispersion_factor(g, self.params.epsilon, dt, self._dispersion)
        if dealias:
            psi_hat *= dealias_mask(g)
        return psi_hat

    def step(self, psi, dt, fields=None, solved=None, history: SolveHistory = None):
        """
        One Strang step, kinetic halves outside:

            K_{dt/2}  T_{dt/2}  M_dt  T_{dt/2}  K_{dt/2}

        The self-consistent potentials are evaluated at mid-step: the
        density is insensitive to the multiplication flow, so after the
        kinetic half it is midpoint-accurate to O(dt^2), which is what
        keeps the nonlinear coupling second order.  Without a magnetic
        coupling that is the step's one solve.  With one, the current
        (hence A) also moves with the transport and the multiplication
        phase at O(dt), so a predictor first applies half of each with the
        potentials at the step's start; the midpoint potentials are solved
        from the predicted psi and drive the step.

        ``fields``, the predictor's ``(pots, B, div A)``, are the potentials
        of ``psi``, solved here, when not given; :meth:`run` passes them
        extrapolated, so its steps make one screened solve each.  ``solved``,
        a list, receives the midpoint's potentials.  The midpoint solve starts
        from ``history``'s extrapolation one step past its last point
        (:class:`~poisswell.states.SolveHistory`), and from the predictor's
        A without one.  The stability bound is checked with the potentials
        the step starts from.

        psi is transformed once on entry and inverted once on exit; the
        input is not read after its transform, so a caller that hands it
        over frees it there.  The spectrum after the first kinetic half
        serves both first transport passes and is dropped once they have
        read it; the last transport half returns its spectrum to the last
        kinetic half.
        """
        if dt == 0.0:
            return psi.copy()
        g, tau, p = self.grid, 0.5 * dt, self.params
        magnetic = p.magnetic and p.coupling
        if magnetic and fields is None:
            fields = self._fields(self.potentials(psi))
        psi_hat = g.fft(psi)
        del psi  # spent: a caller that handed it over frees it here
        psi = g.ifft(self._kinetic(psi_hat, tau))
        pots, B, divA = fields if magnetic else self._fields(self.potentials(psi))
        bound = self.dt_bound(psi, pots)
        if dt > bound * (1.0 + 1e-9):
            raise StabilityViolation(f"dt={dt:g} exceeds stability bound {bound:g}")
        if magnetic:
            predicted = self._transport(psi, tau, pots, divA, psi_hat)
            predicted = self._multiply(predicted, tau, pots, B)
            # of the predictor's fields at most A, the guess, is held across
            # the midpoint solve; it goes with the predicted psi once it returns
            guess, fields, pots, B, divA = pots.A, None, None, None, None
            if history is not None:
                guess = history.ahead(1.0)
            pots = self.potentials(predicted, guess=guess)
            predicted = guess = None
            B, divA = self._magnetic(pots.A)
            if solved is not None:
                solved.append(pots)
        psi = self._transport(psi, tau, pots, divA, psi_hat)
        del psi_hat  # both first transports have read it
        psi = self._multiply(psi, dt, pots, B)
        psi_hat = self._transport(psi, tau, pots, divA, spectral=True)
        return g.ifft(self._kinetic(psi_hat, tau, dealias=True))

    def _dealias(self, psi):
        g = self.grid
        return g.ifft(g.fft(np.asarray(psi, dtype=complex)) * dealias_mask(g))

    # -- full run --------------------------------------------------------------

    def _record(self, t, psi, pots, previous):
        g = self.grid
        spec = spectrum(g, psi)
        return DiagnosticsRecord(
            t=t,
            charge=charge(g, psi),
            energy=field_energy(g, spec, pots.V, self.params.epsilon),
            tail_fraction=spectral_tail_fraction(g, spec),
        )

    def run(self, psi0, n_samples=None, keep=None) -> Run:
        """
        The shared run loop.  A crossed stability bound, an elliptic breakdown
        or a non-finite state ends the run as a blow-up with the samples
        taken so far; a completed run whose spectral tail passed
        ``thresholds.tail`` carries that as its stop reason.  ``n_samples``
        places the samples at ``T k / n_samples``, and ``keep``, when given,
        reads each as it is taken; the run stores none
        (:func:`~poisswell.states.run_loop`).  The loop
        reads ``psi0`` only through :meth:`_dealias`, and empties a one-slot
        holder ``[psi0]`` there.  Each step is handed the loop's spinor and
        frees it after its first transform (:meth:`step`); a sample's
        potentials, which hold their spinor, are dropped before it.

        With a magnetic coupling each step's predictor takes the potentials
        at its start, extrapolated linearly in time from the last two solved
        points: the initial potentials P_0 at t = 0 and each step's midpoint
        potentials at t_n + dt/2.  Step 1 takes P_0, step 2
        ``2 P_{1/2} - P_0`` and later steps ``1.5 P_{n-1/2} - 0.5 P_{n-3/2}``.
        The run, not the solver, keeps the two points, as their V and A
        alone; the predictor takes B and div A from the extrapolated A
        (:meth:`_fields`).  Each step makes one screened solve, at its
        midpoint.  That solve starts from the polynomial
        through the A's of the last three solved points, the two plus one
        older, at the new midpoint: P_0 at step 1, the line ``3 A_{1/2} -
        2 A_0`` at step 2, and quadratics after that; from step 4 the
        midpoint at ``n + 1/2`` starts from ``A_{n-5/2} - 3 A_{n-3/2} +
        3 A_{n-1/2}``.  A sample's potentials hold V and solve A from the
        sample's spinor when first read (:meth:`_sample_potentials`).
        """
        magnetic = self.params.magnetic and self.params.coupling
        solved = []  # the potentials of the last two solved points, oldest first
        history = SolveHistory(3)  # their A's and one older, at their times in steps
        taken = 0

        def predictor(pots):
            if not magnetic:
                return None
            if not solved:
                solved.append(pots)  # the first step's pots are P_0
                history.push(0.0, pots.A)
                return self._fields(pots)
            # the step starts half a step past the last midpoint, which lies
            # half a step past P_0 and a whole step past an earlier midpoint
            return self._fields(_extrapolate(1.0 if taken == 1 else 0.5, *solved))

        def advance(now, dt, sample):
            nonlocal taken
            try:
                # popped into the call: the step holds the only reference to its input
                psi = finite(self.step(now.pop(0), dt, predictor(now.pop()), solved, history))
            except StabilityViolation as exc:
                raise RunStopped(str(exc)) from exc
            except NonConvergence as exc:
                raise RunStopped("elliptic solve diverged") from exc
            taken += 1
            if magnetic:
                history.push(taken - 0.5, solved[-1].A)
            del solved[:-2]
            # no step past the first reads pots, and a sample's would keep its psi alive
            return psi, self._sample_potentials(psi) if sample else None

        run = run_loop(self, psi0, advance, n_samples=n_samples, keep=keep)
        if run.status == "completed" and any(
            r.tail_fraction > self.thresholds.tail for r in run.records[1:]
        ):
            run.stop_reason = "spectral tail warning"
        return run


def _extrapolate(w, older, last):
    """``(1 + w) last - w older`` of two solved points' :class:`Potentials`."""
    return Potentials(V=(1.0 + w) * last.V - w * older.V, A=(1.0 + w) * last.A - w * older.A)
