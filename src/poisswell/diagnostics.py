"""
Every monitored functional: charge, the Schrödinger-Poisson energy, the
Sobolev energy functionals and their weighted variants, the pointwise
regularity monitor and its running sup, the blow-up norm sum, continuity
and gauge residuals, the a priori growth-envelope check, and the blow-up monitor.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientHistory
from .grid import Grid, k2
from .operators import (
    divergence,
    l2_norm,
    pointwise_norms,
    sobolev_norm,
    spectral_tail_fraction,
    spectrum,
)


@dataclass
class DiagnosticsRecord:
    """Per-sample values of all monitored quantities (None = not computed)."""

    t: float
    charge: float
    energy: Optional[float] = None
    xs: Optional[float] = None
    xs_eps: Optional[float] = None
    xs_eps_dtu: Optional[float] = None
    monitor: Optional[float] = None
    monitor_sup: Optional[float] = None
    blowup_sum: Optional[float] = None
    continuity_residual: Optional[float] = None
    gauge_residual: Optional[float] = None
    tail_fraction: Optional[float] = None

    def as_dict(self):
        return asdict(self)


class MonitorStatus(enum.Enum):
    OK = "ok"
    WARNING = "warning"
    TRIGGERED = "triggered"


@dataclass(frozen=True)
class MonitorThresholds:
    """Blow-up monitor knobs; the theory gives limits, not numbers."""

    ratio: float = 100.0
    tail: float = 0.10


@dataclass
class EnvelopeReport:
    """Result of fitting the smallest admissible envelope constant."""

    constant: float
    max_violation: float
    passed: bool


def charge(grid: Grid, a):
    """Total charge ||a||_2 by grid quadrature."""
    return l2_norm(grid, a)


def field_energy(grid: Grid, psi, V, epsilon):
    """
    ||eps grad psi||_2^2 + ||grad V||_2^2 (conserved when A == 0), as the
    Parseval sums ``eps^2 sum |k|^2 |psi_hat|^2 + sum |k|^2 |V_hat|^2`` from
    the spectra of ``psi`` (or its :class:`Spectrum`) and ``V``.
    """
    psi, V = spectrum(grid, psi), spectrum(grid, V)
    kin = np.sum(k2(grid, psi.half) * psi.power)
    pot = np.sum(k2(grid, V.half) * V.power)
    return float((epsilon**2 * kin + pot) * grid.cell_volume / grid.npoints)


@dataclass(frozen=True)
class Functionals:
    xs: float
    xs_eps: float
    xs_eps_dtu: Optional[float]
    monitor: float
    blowup_sum: float
    tail_fraction: float


def functionals(grid: Grid, state, s, dt_u=None):
    """
    Evaluate the Sobolev energy ladder on a hydro state: the state norm
    ``xs = ||a||_{H^{s-1}} + ||u||_{H^s}`` and its weighted variants, the
    regularity monitor

        1 + ||u||_{W^{1,inf}} + ||a||_{inf} + eps(||a||_{H^1} + ||a||_{W^{1,inf}} + ||a||_{W^{2,3}}),

    the unweighted norm sum whose divergence signals finite-time blow-up,
    and the spectral tail fraction of ``a``.  ``a``, ``u`` and ``dt_u`` are
    each transformed once; every quantity shares those spectra.

    ``dt_u`` is the velocity time-derivative ``grad d_t S`` from the phase
    equation (not a finite difference); when omitted the doubly-weighted
    functional is skipped.  The theory needs s > 7/2; any s >= 1 is
    accepted with a warning for exploratory runs.
    """
    if s < 1.0:
        raise ValueError("regularity index must be >= 1")
    if s <= 3.5:
        warnings.warn(f"regularity s={s} below the 7/2 hypothesis", stacklevel=2)
    eps = state.epsilon
    a, u = spectrum(grid, state.a), spectrum(grid, state.u)
    pa, pu = pointwise_norms(grid, a), pointwise_norms(grid, u, second=False)
    h1_a, hs_a = sobolev_norm(grid, a, 1.0), sobolev_norm(grid, a, s)
    base = sobolev_norm(grid, a, s - 1.0) + sobolev_norm(grid, u, s)
    weighted = base + eps * hs_a
    doubly = None
    if dt_u is not None:
        doubly = base + eps * hs_a + sobolev_norm(grid, dt_u, s - 1.0)
    return Functionals(
        xs=base,
        xs_eps=weighted,
        xs_eps_dtu=doubly,
        monitor=1.0 + pu.w1_inf + pa.l_inf + eps * (h1_a + pa.w1_inf + pa.w2_3),
        blowup_sum=h1_a + pa.w1_inf + pa.w2_3 + pu.w1_inf,
        tail_fraction=spectral_tail_fraction(grid, a),
    )


def _middle_derivative(t0, x0, t1, x1, t2, x2):
    """
    d/dt at ``t1`` of the quadratic through three samples, exact for
    quadratics whatever the spacing; the centred difference when it is even.
    """
    h0, h1 = t1 - t0, t2 - t1
    return (h0**2 * (x2 - x1) + h1**2 * (x1 - x0)) / (h0 * h1 * (h0 + h1))


def continuity_residual(grid: Grid, window: Sequence):
    """
    L2 norm of ``d_t rho + div J`` at the middle of a 3-snapshot window;
    the time derivative is that of the quadratic through the three densities.

    ``window`` holds (t, rho, J) triples at consecutive sample times, which
    need not be evenly spaced (a run's forced final sample is not).
    """
    if len(window) < 3:
        raise InsufficientHistory("continuity residual needs 3 snapshots")
    (t0, rho0, _), (t1, rho1, J1), (t2, rho2, _) = window[-3:]
    dt_rho = _middle_derivative(t0, rho0, t1, rho1, t2, rho2)
    return l2_norm(grid, dt_rho + divergence(grid, J1))


def gauge_residual(grid: Grid, window: Sequence, epsilon):
    """
    L2 norm of the Lorenz-gauge defect ``div A + eps d_t V`` at the middle
    of a 3-snapshot window of (t, V, A), with ``d_t V`` taken as in
    :func:`continuity_residual`; reported, never enforced.
    """
    if len(window) < 3:
        raise InsufficientHistory("gauge residual needs 3 snapshots")
    (t0, V0, _), (t1, V1, A1), (t2, V2, _) = window[-3:]
    dt_V = _middle_derivative(t0, V0, t1, V1, t2, V2)
    return l2_norm(grid, divergence(grid, A1) + epsilon * dt_V)


def blowup_monitor(record: DiagnosticsRecord, thresholds: MonitorThresholds, initial_sum):
    """Classify one diagnostics record against the blow-up thresholds."""
    s = record.blowup_sum
    if s is not None and not np.isfinite(s):
        return MonitorStatus.TRIGGERED
    if s is not None and initial_sum > 0 and s > thresholds.ratio * initial_sum:
        return MonitorStatus.TRIGGERED
    if record.tail_fraction is not None and record.tail_fraction > thresholds.tail:
        return MonitorStatus.WARNING
    return MonitorStatus.OK


def envelope_check(records: Sequence[DiagnosticsRecord], s, c_max=1e3, tol=1e-4):
    """
    Fit the smallest C such that for all recorded t

        E(t) <= C N(t)^{2s+3} E(0) exp(C N(t)^{2s+3} t)

    with E the eps-weighted Sobolev energy and N the running monitor sup.
    The admissible set of C is an up-set, so bisection applies.
    """
    recs = [r for r in records if r.xs_eps is not None and r.monitor_sup is not None]
    if not recs:
        return EnvelopeReport(constant=0.0, max_violation=0.0, passed=True)
    e0 = recs[0].xs_eps
    power = 2.0 * s + 3.0

    def violation(c):
        worst = 0.0
        for r in recs:
            k = r.monitor_sup**power
            log_bound = np.log(c * k * e0) + c * k * r.t if c > 0 else -np.inf
            if log_bound == -np.inf:
                ratio = np.inf if r.xs_eps > 0 else 0.0
            elif log_bound > 700.0:
                ratio = 0.0
            else:
                ratio = r.xs_eps / np.exp(log_bound)
            worst = max(worst, ratio)
        return worst

    if e0 == 0.0:
        peak = max(r.xs_eps for r in recs)
        return EnvelopeReport(constant=0.0, max_violation=peak, passed=peak <= tol)
    if violation(c_max) > 1.0:
        return EnvelopeReport(constant=c_max, max_violation=violation(c_max), passed=False)
    lo, hi = 0.0, c_max
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if violation(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return EnvelopeReport(constant=hi, max_violation=violation(hi), passed=True)

