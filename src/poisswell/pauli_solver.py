"""
Time integration of the scaled spinor equation

    i eps d_t psi = -(1/2)(eps grad - iA)^2 psi + V psi - (eps/2)(sigma.B) psi

with self-consistently coupled potentials, by Strang splitting: the kinetic
flow is exact in spectral space; the potential/Stern-Gerlach multiplication
is an exact pointwise unitary; the advective piece ``A.grad + (div A)/2`` is
integrated by an explicit midpoint rule inside each nonlinear half-step.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .diagnostics import DiagnosticsRecord, charge, field_energy
from .errors import StabilityViolation
from .grid import Grid, dealias_mask, dispersion_factor
from .operators import derivative_table, directional, divergence, spectral_tail_fraction
from .states import (
    Potentials,
    Run,
    RunStopped,
    SimParams,
    default_dt,
    run_loop,
    self_consistent_potentials,
)


class PauliSolver:
    """Strang-splitting integrator on one grid; stateless between calls."""

    def __init__(self, grid: Grid, params: SimParams):
        if params.epsilon <= 0:
            raise ValueError("the spinor solver needs eps > 0")
        self.grid = grid
        self.params = params
        self._dispersion = {}  # dispersion_factor's tables

    def potentials(self, psi, guess=None) -> Potentials:
        return self_consistent_potentials(
            self.grid, self.params, psi, self.params.epsilon, guess=guess
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

    def _advect_rhs(self, psi, psi_hat, A, divA):
        """The dealiased spectrum of ``A.grad psi + (div A/2) psi``, from ``psi_hat``."""
        g = self.grid
        rhs = directional(g, A, derivative_table(g, psi_hat, half=False)) + 0.5 * divA * psi
        return g.fft(rhs) * dealias_mask(g)

    def _transport(self, psi, tau, pots, divA):
        """
        The explicit midpoint rule for ``d_t psi = A.grad psi + (div A/2) psi``
        (``divA`` is None when A vanishes).  ``psi`` is transformed once: the
        midpoint's spectrum is assembled from it and the first pass's
        dealiased derivative, so the second pass needs no forward transform
        of the midpoint.
        """
        if divA is None:
            return psi
        g = self.grid
        psi_hat = g.fft(psi)
        mid_hat = psi_hat + 0.5 * tau * self._advect_rhs(psi, psi_hat, pots.A, divA)
        mid = g.ifft(mid_hat)
        return psi + tau * g.ifft(self._advect_rhs(mid, mid_hat, pots.A, divA))

    def _divergence(self, pots):
        return divergence(self.grid, pots.A) if np.any(pots.A) else None

    def _multiply(self, psi, tau, pots):
        eps = self.params.epsilon
        W = pots.V + 0.5 * np.sum(pots.A**2, axis=0)
        return kernels.phase_sigma_rotate(psi, (tau / eps) * W, pots.B, 0.5 * tau)

    def _kinetic(self, psi, dt, dealias=False):
        """The exact kinetic flow over ``dt``; ``dealias`` also masks the result."""
        g = self.grid
        factor = dispersion_factor(g, self.params.epsilon, dt, self._dispersion)
        psi_hat = g.fft(psi) * factor
        if dealias:
            psi_hat *= dealias_mask(g)
        return g.ifft(psi_hat)

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
        """
        if dt == 0.0:
            return psi.copy()
        tau = 0.5 * dt
        psi = self._kinetic(psi, tau)
        pots = self.potentials(psi)
        bound = self.dt_bound(psi, pots)
        if dt > bound * (1.0 + 1e-9):
            raise StabilityViolation(f"dt={dt:g} exceeds stability bound {bound:g}")
        divA = self._divergence(pots)
        if divA is not None:
            # the current (hence A) is sensitive to both transport and the
            # multiply phase at O(dt), so the predictor applies half of each
            predicted = self._multiply(self._transport(psi, tau, pots, divA), tau, pots)
            pots = self.potentials(predicted, guess=pots.A)
            divA = self._divergence(pots)
        psi = self._transport(psi, tau, pots, divA)
        psi = self._multiply(psi, dt, pots)
        psi = self._transport(psi, tau, pots, divA)
        return self._kinetic(psi, tau, dealias=True)

    def _dealias(self, psi):
        return self.grid.ifft(self.grid.fft(psi) * dealias_mask(self.grid))

    # -- full run --------------------------------------------------------------

    def default_dt(self, psi0):
        return default_dt(self, psi0)

    def _record(self, t, psi, pots, previous):
        g = self.grid
        return DiagnosticsRecord(
            t=t,
            charge=charge(g, psi),
            energy=field_energy(g, psi, pots.V, self.params.epsilon),
            tail_fraction=spectral_tail_fraction(g, psi),
        )

    def run(self, psi0, tail_warn=0.10) -> Run:
        """
        The shared run loop.  A crossed stability bound or an elliptic breakdown
        ends the run as a blow-up with the samples taken so far; a completed
        run whose spectral tail passed ``tail_warn`` carries that as its stop reason.
        """

        def advance(psi, dt, pots):
            try:
                return self.step(psi, dt)
            except StabilityViolation as exc:
                raise RunStopped(str(exc)) from exc

        run = run_loop(self, np.asarray(psi0, dtype=complex), advance,
                       tolerate=lambda: True)
        if run.status == "completed" and any(
            r.tail_fraction > tail_warn for r in run.records[1:]
        ):
            run.stop_reason = "spectral tail warning"
        return run


def run_pauli(grid: Grid, psi0, params: SimParams) -> Run:
    return PauliSolver(grid, params).run(psi0)
