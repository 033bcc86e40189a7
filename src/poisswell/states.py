"""
Physical state containers and the algebraic source-term formulas: charge
density, the kinetic, WKB and Pauli currents, and the spinor reconstruction
of a WKB state.  Also the pieces both solvers share: the self-consistent
potentials, the default step size and the run loop with its ``Run`` record.
The loop owns the time grid, the sampling and the run status; each solver's
``advance`` owns its potentials and its stop rules.
"""

from __future__ import annotations

import collections
import itertools
import math
import warnings
from dataclasses import InitVar, dataclass, field, replace
from typing import List, Optional

import numpy as np

from . import kernels
from .elliptic import solve_poisson_neutral, solve_screened_vector
from .errors import MissingPhase, ValidationError
from .grid import Grid, k2, k3
from .operators import curl, l2_norm, partials
from .pauli import spin_density


@dataclass
class Potentials:
    """
    The scalar potential ``V`` and the vector potential ``A`` of a state.
    ``B = curl A`` enters only the Stern-Gerlach term, and each solver takes
    it there, with ``div A``, from one transform of ``A``.
    """

    V: np.ndarray
    A: np.ndarray


class LazyPotentials(Potentials):
    """
    ``V`` now and ``A = solve(state).A`` when first read; until then it
    holds ``V``, ``state`` and ``solve`` and no other array.
    """

    def __init__(self, V, state, solve):
        self.V = V
        self._state, self._solve = state, solve

    @property
    def A(self):
        if self._solve is not None:
            self._A = self._solve(self._state).A
            self._state = self._solve = None
        return self._A


@dataclass
class SimParams:
    """Run parameters shared by the solvers and the diagnostics."""

    epsilon: float = 0.1
    dt: Optional[float] = None
    T: float = 0.5
    s: float = 4.0
    cfl_safety: float = 0.4
    sample_every: int = 1
    magnetic: bool = True
    coupling: bool = True

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.T < 0:
            raise ValueError("T must be >= 0")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be > 0")


@dataclass
class HydroState:
    """
    WKB state of the ansatz ``psi = a exp(iS/eps)``: spinor amplitude ``a``,
    phase ``S`` and a constant mean velocity ``u_mean``, carried separately
    so traveling (plane-wave) data stays representable on the torus; for the
    default families ``u_mean`` is zero.

    The velocity ``u = u_mean + grad S`` is derived data, computed once:
    when the state is made, from ``S_hat``, the half spectrum of ``S``, when
    the maker holds it (the solver's states), and otherwise from a transform
    of ``S`` when ``u`` is first read, so a caller-made state that is only
    dealiased (a run's initial state) never builds it.  A state without
    ``S`` raises :class:`~poisswell.errors.MissingPhase`.
    """

    grid: Grid
    a: np.ndarray
    S: np.ndarray
    u_mean: np.ndarray = field(default_factory=lambda: np.zeros(3))
    t: float = 0.0
    epsilon: float = 0.1
    S_hat: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, S_hat):
        if self.S is None:
            raise MissingPhase("a WKB state needs its phase S")
        self._u = None if S_hat is None else phase_velocity(self.grid, S_hat, self.u_mean)

    @property
    def u(self):
        if self._u is None:
            self._u = phase_velocity(self.grid, self.grid.rfft(self.S), self.u_mean)
        return self._u


def phase_velocity(grid: Grid, S_hat, u_mean, laplacian=False):
    """
    ``u = u_mean + grad S`` from ``S_hat``, the half spectrum of the phase, in
    one batched inverse transform; ``laplacian`` also returns ``div u =
    Lap S`` from the same inverse, as an array of its own: a row of the
    inverse would keep the whole inverse alive as long as it is held.
    """
    ks = k3(grid, half=True)
    multipliers = [1j * ks[i] for i in range(grid.dim)]
    if laplacian:
        multipliers.append(-k2(grid, half=True))
    # the rows live only inside the stack: held across the inverse they raise peak memory
    table = grid.irfft(np.stack([m * S_hat for m in multipliers]))
    u = np.zeros((3,) + grid.shape)
    u[: grid.dim] = table[: grid.dim]
    u += np.reshape(u_mean, (3,) + (1,) * grid.dim)
    return (u, table[grid.dim].copy()) if laplacian else u


def charge_density(psi):
    """rho = |psi_1|^2 + |psi_2|^2 >= 0; invariant under phase factors."""
    return kernels.spinor_density(psi)


def kinetic_current(grid: Grid, a):
    """
    ``Im(conj(a) . grad a)`` summed over spinor components, the current the
    Pauli kinetic term produces, each component from one derivative of
    ``a`` (:func:`~poisswell.operators.partials`) that is freed before the
    next is made.
    """
    a = np.asarray(a)
    conj_a = np.conj(a)
    out = np.zeros((3,) + grid.shape)
    for i, d in enumerate(partials(grid, a)):
        out[i] = np.sum(np.multiply(conj_a, d, out=d), axis=0).imag
        del d
    return out


def pauli_current(grid: Grid, psi, A, epsilon):
    """
    The Pauli current ``Im(conj(psi)(eps grad - iA)psi) - eps curl(conj(psi) sigma psi)``,
    :func:`wkb_current` of ``psi`` with no velocity; with it the continuity
    law reads ``d_t rho + div J = 0`` (the convention every residual
    diagnostic uses).
    """
    return wkb_current(grid, psi, None, A, epsilon)


def wkb_current(grid: Grid, a, u, A, epsilon, rho=None):
    """
    The Pauli current of ``a exp(iS/eps)`` in closed form,
    ``rho (u - A) + eps (Im(conj(a) grad a) - curl(conj(a) sigma a))``;
    algebraically identical to :func:`pauli_current` on reconstructed
    spinors.  A ``None`` for ``u`` or ``A`` reads as zero: with both None
    it is the O(eps) part, and with ``A = None`` the screened solve's source.
    At eps = 0 it is ``rho (u - A)``, made without a transform.  ``rho`` is
    taken when given.
    """
    if rho is None:
        rho = charge_density(a)
    if A is not None:
        u = -A if u is None else u - A
    J = np.zeros((3,) + grid.shape) if u is None else rho * u
    if epsilon > 0:
        eps_part = kinetic_current(grid, a)
        eps_part -= curl(grid, spin_density(a))
        eps_part *= epsilon
        J += eps_part
    return J


SCREENED_TOL, SCREENED_MAX_ITERS = 1e-11, 200  # of every screened solve


def self_consistent_potentials(grid: Grid, params: SimParams, a, epsilon, u=None,
                               guess=None):
    """
    V from the neutralized Poisson solve; A from the screened problem
    ``(-Delta + rho) A = eps (Im(conj(a) grad a) - curl(conj(a) sigma a)) + rho u``,
    obtained by moving the ``-rho A`` part of the current to the left.

    The spinor solver passes ``psi`` and no ``u``; the WKB solver passes its
    amplitude and velocity, and at eps = 0 its source reduces to ``rho u``.
    ``guess``, when given, is the starting iterate of the screened solve
    (a nearby state's A); it changes the work done, not the tolerance met.
    The derivatives of ``a`` that :func:`kinetic_current` takes are all
    freed before the screened solve starts.
    """
    if not params.coupling:
        return Potentials(V=np.zeros(grid.shape), A=np.zeros((3,) + grid.shape))
    rho = charge_density(a)
    V = solve_poisson_neutral(grid, rho)
    if not params.magnetic:
        return Potentials(V=V, A=np.zeros((3,) + grid.shape))
    # the source is passed unnamed, so it is freed once the solve holds its spectrum
    A = solve_screened_vector(grid, wkb_current(grid, a, u, None, epsilon, rho=rho), rho,
                              tol=SCREENED_TOL, max_iters=SCREENED_MAX_ITERS,
                              guess=guess)
    return Potentials(V=V, A=A)


def lagrange_weights(nodes, x):
    """
    The weights ``w`` with ``p(x) = sum_j w_j p(nodes[j])`` for every
    polynomial ``p`` of degree below ``len(nodes)``, whose distinct nodes
    need not be evenly spaced: Lagrange interpolation, or extrapolation for
    an ``x`` past the nodes.
    """
    return [math.prod((x - m) / (n - m) for m in nodes if m != n) for n in nodes]


class SolveHistory:
    """
    What a run keeps of one screened-solve site to start its next solves
    warm (Fischer 1998, successive right-hand sides): the A's of its last
    ``depth`` solved points with their times in steps, and per stage site
    the *defect*, that stage's last solved A minus the points' extrapolation
    to its time.  A guess changes the work of a solve, not the tolerance it
    meets.
    """

    def __init__(self, depth):
        self.nodes = collections.deque(maxlen=depth)
        self.points = collections.deque(maxlen=depth)
        self.defects = {}

    def push(self, node, A):
        self.nodes.append(node)
        self.points.append(A)

    def ahead(self, offset, site=None):
        """
        A new array: the polynomial through the held points at ``offset``
        steps past the last, plus the defect of ``site`` when one is held.
        """
        w = lagrange_weights(self.nodes, self.nodes[-1] + offset)
        guess = w[0] * self.points[0]
        for wj, A in zip(w[1:], itertools.islice(self.points, 1, None)):
            guess += wj * A
        if site in self.defects:
            guess += self.defects[site]
        return guess

    def solved(self, site, guess, A):
        """
        Take the defect of ``site`` from its solved ``A`` and the ``guess``
        :meth:`ahead` gave it, whose buffer this spends.
        """
        miss = np.subtract(A, guess, out=guess)
        if site in self.defects:
            self.defects[site] += miss
        else:
            self.defects[site] = miss


def reconstruct_spinor(grid: Grid, state: HydroState, epsilon=None):
    """
    psi_j = a_j exp(i S / eps), including the traveling-phase factor from
    ``u_mean`` (which must sit on integer torus modes to be periodic), at
    ``epsilon`` when given and at the state's eps otherwise.
    """
    eps = state.epsilon if epsilon is None else epsilon
    if eps <= 0:
        raise MissingPhase("reconstruction needs eps > 0")
    phase = state.S / eps
    if np.any(state.u_mean):
        xs = grid.coordinates()
        for i in range(grid.dim):
            m = state.u_mean[i] * grid.lengths[i] / (2.0 * np.pi * eps)
            m_int = round(m)
            if abs(m - m_int) > 1e-8:
                raise MissingPhase(
                    f"mean velocity {state.u_mean[i]} is not an integer torus mode"
                )
            phase = phase + (2.0 * np.pi * m_int / grid.lengths[i]) * xs[i]
        if any(abs(state.u_mean[i]) > 0 for i in range(grid.dim, 3)):
            raise MissingPhase("mean velocity along an inactive axis")
    return np.asarray(state.a) * np.exp(1j * phase)


def normalize_charge(grid: Grid, a, target=1.0):
    """Rescale so the total charge ||a||_2 equals ``target``."""
    norm = l2_norm(grid, a)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero field")
    return np.asarray(a) * (target / norm)


# -- the run loop both solvers share -----------------------------------------


@dataclass
class Run:
    """
    Trajectory of a solver run plus its diagnostics stream: ``times`` and
    ``records`` of every sample, and no sample's state or potentials, which
    only the run's ``keep`` sees (:func:`run_loop`).  ``warnings`` holds the
    distinct messages of the Python warnings the run raised, in first-seen
    order.
    """

    times: List[float]
    records: list
    params: SimParams
    dt: float
    status: str = "completed"
    stop_reason: str = ""
    warnings: List[str] = field(default_factory=list)

    @property
    def charge_drift(self):
        c0 = self.records[0].charge
        return max(abs(r.charge - c0) for r in self.records) / c0 if c0 else 0.0


class RunStopped(Exception):
    """Raised inside :func:`run_loop` to end a run with status ``blowup``."""


MAX_STEPS = 100_000  # of a run; about 50 times the most that any test or reference config takes


def default_dt(solver, state, pots, cap=None):
    """
    ``cfl_safety`` times the solver's dt bound at ``state`` with its potentials
    ``pots``, capped at ``cap`` (a sampled run's sample spacing), else at T/16 and 1e-2.
    """
    p = solver.params
    cap = min(p.T / 16.0 if p.T > 0 else 1e-2, 1e-2) if cap is None else cap
    return max(min(p.cfl_safety * solver.dt_bound(state, pots), cap), 1e-8)


def finite(state):
    """``state``, or :class:`RunStopped` ("non-finite state") if it holds a NaN or an infinity."""
    arrays = (state.a, state.S) if isinstance(state, HydroState) else (state,)
    if not all(np.all(np.isfinite(x)) for x in arrays):
        raise RunStopped("non-finite state")
    return state


def holder(data):
    """``data`` as a one-slot holder, a one-item list: ``data`` itself when it is one."""
    return data if isinstance(data, list) else [data]


def run_loop(solver, state, advance, watch=None, n_samples=None, keep=None) -> Run:
    """
    Integrate ``state`` from its own time ``t`` (0 for a spinor, which
    carries none) to T, and sample it every ``sample_every`` steps and at
    the end.  ``state`` is the initial data or a one-slot holder of it
    (:func:`holder`), which the loop empties once ``_dealias`` has made the
    run's own state from it: a caller that hands its data over so keeps
    none of it alive through the run.

    dt is ``params.dt`` or :func:`default_dt` of the dealiased initial
    state and its potentials: ``cfl_safety`` times the solver's dt bound,
    capped by the sample spacing ``(T - t0) / n_samples`` in a sampled run
    and by T/16 and 1e-2 in an unsampled one.  A dt that would take more
    than :data:`MAX_STEPS` steps raises a ValidationError naming ``dt`` or,
    for the default, ``cfl_safety``.  ``n_samples`` places the samples on
    the shared times ``T k / n_samples`` of a run from t = 0: dt shrinks to
    ``T / n_samples / per`` for the least ``per`` that does not raise it,
    samples are taken every ``per`` steps, and ``Run.params`` records that
    dt and ``sample_every``.

    ``solver`` supplies ``params``, ``potentials(state)``, ``dt_bound(state,
    pots)`` (for the default dt), ``_dealias(state)`` and ``_record(t,
    state, pots, previous)``.  ``advance(now, dt, sample)`` takes one step
    from ``now``, the list ``[state, potentials]`` of the current state and
    the potentials ``advance`` returned last (the initial ones first), and
    returns ``(new state, potentials)``: the potentials its next step
    reads, if any, and, when ``sample`` is set, those the record reads.
    The loop keeps no other reference to the items of ``now``: an
    ``advance`` that pops them into its step's call (``now.pop(0)``) hands
    the step the only reference to its input, which the step can free once
    read (on CPython 3.11 and later, which move a call's arguments into
    the callee's frame).
    ``keep(record, state, pots)``, when given, reads each sample as it is
    taken, once its record is made; what it returns is ignored.  The run
    stores no sample: a caller that needs a sample's state or potentials
    after ``keep`` returns holds them itself, uncopied.
    ``advance`` owns its stop rules: it ends the run as a blow-up by
    raising :class:`RunStopped`, through :func:`finite` on a non-finite
    state before it solves any of that state's potentials.
    ``watch(records)``, which judges each new sample, can do the same.
    Python warnings raised during the run are kept, not shown: their
    distinct messages go to ``Run.warnings``.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = _integrate(solver, state, advance, watch, n_samples, keep)
    run.warnings = list(dict.fromkeys(str(w.message) for w in caught))
    return run


def _integrate(solver, data, advance, watch, n_samples, keep) -> Run:
    """The body of :func:`run_loop`."""
    p = solver.params
    held = holder(data)
    state = solver._dealias(held[0])
    held.clear()
    t0 = float(getattr(state, "t", 0.0))  # a spinor carries no time
    span = p.T - t0
    pots = solver.potentials(state)
    sample_dt = span / n_samples if n_samples is not None and span > 0 else None
    dt = p.dt if p.dt is not None else default_dt(solver, state, pots, sample_dt)
    if span / dt > MAX_STEPS:
        key = "cfl_safety" if p.dt is None else "dt"
        raise ValidationError(f"T / dt = {span / dt:.3g} steps, over {MAX_STEPS}", key=key)
    if sample_dt is not None:
        per = max(1, math.ceil(sample_dt / dt - 1e-12))
        dt = sample_dt / per
    n_steps = 0 if span == 0 else max(1, int(round(span / dt)))
    dt = span / n_steps if n_steps else dt
    if sample_dt is not None:  # the run records the dt it steps with
        p = replace(p, dt=dt, sample_every=per)

    run = Run(times=[t0], records=[solver._record(t0, state, pots, None)], params=p, dt=dt)
    if keep is not None:
        keep(run.records[0], state, pots)
    now = [state, pots]  # the one reference the loop keeps to them, handed to advance
    del state, pots
    for n in range(1, n_steps + 1):
        sample = n % p.sample_every == 0 or n == n_steps
        try:
            now[:] = advance(now, dt, sample)
            if sample:
                rec = solver._record(t0 + n * dt, *now, run.records[-1])
                run.times.append(rec.t)
                run.records.append(rec)
                if keep is not None:
                    keep(rec, *now)
                if watch is not None:
                    watch(run.records)
        except RunStopped as stop:
            run.status, run.stop_reason = "blowup", str(stop)
            break
    return run
