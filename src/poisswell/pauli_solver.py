"""
Time integration of the scaled spinor equation

    i eps d_t psi = -(1/2)(eps grad - iA)^2 psi + V psi - (eps/2)(sigma.B) psi

with self-consistently coupled potentials, by Strang splitting: the kinetic
flow is exact in spectral space; the potential/Stern-Gerlach multiplication
is an exact pointwise unitary; the advective piece ``A.grad + (div A)/2`` is
integrated by an explicit midpoint rule inside each nonlinear half-step.

A step keeps psi spectral between substeps where it can: the first kinetic
half hands its spectrum, and the derivative table taken from it, to the
kinetic current and the first transport pass; the last transport half hands
its spectrum straight to the last kinetic half.  The potentials are V and A
alone; the step takes ``B = curl A``, which only the multiplication reads,
and ``div A`` from one transform of A.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .diagnostics import DiagnosticsRecord, MonitorThresholds, charge, field_energy
from .errors import StabilityViolation
from .grid import Grid, dealias_mask, dispersion_factor
from .operators import (
    curl_divergence,
    derivative_table,
    directional,
    spectral_tail_fraction,
    spectrum,
)
from .states import (
    Potentials,
    Run,
    RunStopped,
    SimParams,
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

    def potentials(self, psi, guess=None, grad_a=None) -> Potentials:
        return self_consistent_potentials(
            self.grid, self.params, psi, self.params.epsilon, guess=guess,
            grad_a=grad_a,
        )

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

    def _advect_rhs(self, psi, psi_hat, A, divA, table=None):
        """
        The dealiased spectrum of ``A.grad psi + (div A/2) psi``, from ``psi_hat``
        or from its derivative ``table`` when the caller holds it.
        """
        g = self.grid
        if table is None:
            table = derivative_table(g, psi_hat, half=False)
        return g.fft(directional(g, A, table) + 0.5 * divA * psi) * dealias_mask(g)

    def _transport(self, psi, tau, pots, divA, psi_hat=None, first_hat=None,
                   spectral=False):
        """
        The explicit midpoint rule for ``d_t psi = A.grad psi + (div A/2) psi``
        (``divA`` is None when A vanishes).  ``psi_hat``, the spectrum of
        ``psi``, and ``first_hat``, the first pass's :meth:`_advect_rhs`, are
        taken when the caller holds them; otherwise ``psi`` is transformed
        once.  The midpoint's spectrum is assembled from the first pass's
        dealiased derivative, so the second pass needs no forward transform
        of the midpoint.  ``spectral`` returns the spectrum of the result
        instead.
        """
        g = self.grid
        if divA is None:
            return g.fft(psi) if spectral else psi
        if psi_hat is None:
            psi_hat = g.fft(psi)
        if first_hat is None:
            first_hat = self._advect_rhs(psi, psi_hat, pots.A, divA)
        mid_hat = psi_hat + 0.5 * tau * first_hat
        first_hat = None  # not held through the second pass
        mid = g.ifft(mid_hat)
        rhs_hat = self._advect_rhs(mid, mid_hat, pots.A, divA)
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
        The exact kinetic flow over ``dt``, on the spectrum ``psi_hat``;
        ``dealias`` also masks the result.
        """
        g = self.grid
        psi_hat = psi_hat * dispersion_factor(g, self.params.epsilon, dt, self._dispersion)
        if dealias:
            psi_hat *= dealias_mask(g)
        return psi_hat

    def step(self, psi, dt):
        """
        One Strang step, kinetic halves outside:

            K_{dt/2}  T_{dt/2}  M_dt  T_{dt/2}  K_{dt/2}

        The self-consistent potentials are evaluated at mid-step: the
        density is insensitive to the multiplication flow, so after the
        kinetic and transport halves it is midpoint-accurate to O(dt^2),
        which is what keeps the nonlinear coupling second order.  The
        transport half preceding the refresh is run once with predictor
        potentials and then redone with the midpoint ones.

        psi is transformed once on entry and inverted once on exit.  The
        spectrum after the first kinetic half is kept through the step; its
        derivative table serves the first potentials' kinetic current and the
        first pass of the predictor transport, and is taken again from the
        spectrum for the corrector transport rather than held across the
        midpoint solve.  The last transport half returns its spectrum to the
        last kinetic half.
        """
        if dt == 0.0:
            return psi.copy()
        g, tau = self.grid, 0.5 * dt
        psi_hat = self._kinetic(g.fft(psi), tau)
        psi = g.ifft(psi_hat)
        table = derivative_table(g, psi_hat, half=False)
        pots = self.potentials(psi, grad_a=table)
        bound = self.dt_bound(psi, pots)
        if dt > bound * (1.0 + 1e-9):
            raise StabilityViolation(f"dt={dt:g} exceeds stability bound {bound:g}")
        B, divA = self._magnetic(pots.A)
        if divA is not None:
            # the current (hence A) is sensitive to both transport and the
            # multiply phase at O(dt), so the predictor applies half of each;
            # its first pass takes the table, which is dropped before the
            # second pass takes the midpoint's
            first_hat = self._advect_rhs(psi, psi_hat, pots.A, divA, table)
            table = None
            predicted = self._transport(psi, tau, pots, divA, psi_hat, first_hat)
            first_hat = None
            predicted = self._multiply(predicted, tau, pots, B)
            # of the predictor's fields only A, the guess, is held across
            # the midpoint solve; it goes with the predicted psi once it returns
            guess, pots, B, divA = pots.A, None, None, None
            pots = self.potentials(predicted, guess=guess)
            predicted = guess = None
            B, divA = self._magnetic(pots.A)
        psi = self._transport(psi, tau, pots, divA, psi_hat)
        psi = self._multiply(psi, dt, pots, B)
        psi_hat = self._transport(psi, tau, pots, divA, spectral=True)
        return g.ifft(self._kinetic(psi_hat, tau, dealias=True))

    def _dealias(self, psi):
        return self.grid.ifft(self.grid.fft(psi) * dealias_mask(self.grid))

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

    def run(self, psi0, n_samples=None) -> Run:
        """
        The shared run loop.  A crossed stability bound or an elliptic breakdown
        ends the run as a blow-up with the samples taken so far; a completed
        run whose spectral tail passed ``thresholds.tail`` carries that as its
        stop reason.  ``n_samples`` places the samples at ``T k / n_samples``
        (:func:`~poisswell.states.run_loop`).
        """

        def advance(psi, dt, pots):
            try:
                return self.step(psi, dt)
            except StabilityViolation as exc:
                raise RunStopped(str(exc)) from exc

        run = run_loop(self, np.asarray(psi0, dtype=complex), advance,
                       tolerate=lambda: True, n_samples=n_samples)
        if run.status == "completed" and any(
            r.tail_fraction > self.thresholds.tail for r in run.records[1:]
        ):
            run.stop_reason = "spectral tail warning"
        return run
