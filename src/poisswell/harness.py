"""
Headline experiments: the epsilon-ladder semiclassical limit against the
shared Euler reference, spinor-vs-WKB consistency, the density/current
limit, and the monokinetic concentration study.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from .diagnostics import MonitorThresholds
from .errors import PoisswellError
from .grid import Grid, dealias_band
from .hydro import HydroSolver
from .operators import l2_norm, sobolev_norm
from .pauli_solver import PauliSolver
from .states import (
    HydroState,
    Run,
    SimParams,
    charge_density,
    holder,
    reconstruct_spinor,
    wkb_current,
)
from .wigner import concentration_fraction, monokinetic_defect, wigner_slice


def distinct_warnings(runs):
    """The distinct warning messages of several runs, in first-seen order."""
    return list(dict.fromkeys(w for run in runs for w in run.warnings))


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log y against log x, ``sum dx dy / sum dx^2`` about
    the means (no LAPACK call); None when degenerate."""
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0 and np.isfinite(y)]
    if len(pairs) < 3:
        return None
    lx = np.log([p[0] for p in pairs])
    ly = np.log([p[1] for p in pairs])
    dx = lx - lx.mean()
    dx_sq = np.sum(dx * dx)
    return None if dx_sq == 0.0 else float(np.sum(dx * (ly - ly.mean())) / dx_sq)


@dataclass
class LadderRung:
    epsilon: float
    status: str
    stop_time: float
    xs_error: Optional[float] = None
    rho_error: Optional[float] = None
    current_error: Optional[float] = None
    eps_term_norm: Optional[float] = None
    defect: Optional[float] = None
    wall_clock: float = 0.0


@dataclass
class LadderReport:
    """Per-epsilon sup-in-time errors against the shared Euler reference."""

    s: float
    T: float
    epsilons: List[float]
    rungs: List[LadderRung]
    slopes: Dict[str, Optional[float]] = field(default_factory=dict)
    degenerate: bool = False
    euler_status: str = "completed"
    warnings: List[str] = field(default_factory=list)  # of every run made

    def metric(self, name):
        return [getattr(r, name) for r in self.rungs]

    def as_dict(self):
        doc = {
            "s": self.s,
            "T": self.T,
            "epsilons": list(self.epsilons),
            "slopes": dict(self.slopes),
            "degenerate": self.degenerate,
            "euler_status": self.euler_status,
            # every rung field but the wall clock, which stays out of the report
            "rungs": [{k: v for k, v in asdict(r).items() if k != "wall_clock"}
                      for r in self.rungs],
        }
        if self.warnings:  # absent when empty: a warning-free report reads as before
            doc["warnings"] = list(self.warnings)
        return doc


@dataclass
class LadderRuns:
    """The runs behind a report, and the Euler reference's samples as (state, pots) pairs."""

    grid: Grid
    initial: HydroState
    euler: Run
    samples: list
    hydro: Dict[float, Run]
    params: SimParams
    n_samples: int
    thresholds: MonitorThresholds


def _rung_errors(grid, sample, reference, s):
    """The rung errors of one ``(state, potentials)`` sample against the Euler one of its index."""
    (se, pots), (s0, pots0) = sample, reference
    xs_err = (sobolev_norm(grid, se.a - s0.a, s - 3.0)
              + sobolev_norm(grid, se.u - s0.u, s - 2.0))
    rho_eps = charge_density(se.a)
    rho0 = charge_density(s0.a)
    rho_err = sobolev_norm(grid, rho_eps - rho0, s - 3.0)
    J_eps = wkb_current(grid, se.a, se.u, pots.A, se.epsilon)
    cur_err = sobolev_norm(grid, J_eps - rho0 * (s0.u - pots0.A), s - 3.0)
    eps_term = sobolev_norm(grid, J_eps - rho_eps * (se.u - pots.A), s - 3.0)
    return xs_err, rho_err, cur_err, eps_term


def epsilon_ladder(
    grid: Grid,
    initial: HydroState,
    params: SimParams,
    epsilons,
    n_samples: int = 15,
    thresholds: MonitorThresholds = MonitorThresholds(),
    preflight: bool = True,
    threads: int = 1,
):
    """
    Run the WKB system at each epsilon and at epsilon = 0 from the same
    (epsilon-independent) data; errors are measured in the X^{s-2} family
    of norms, sup over the shared sample times.  Each run places its
    ``n_samples`` samples at ``T k / n_samples`` itself, from its own dt
    (:func:`~poisswell.states.run_loop`).  Each rung measures each sample
    as it is taken against the Euler sample of the same index; the ladder
    holds the Euler reference's samples, and no rung's.

    With ``preflight`` (and T > 0) the ladder checks that T lies below the
    caustic: it continues the Euler reference from its sample at T to 1.5 T
    at its dt, the blow-up monitor still judging against the t = 0 sum, and
    raises a PoisswellError if either run stops.

    Returns (LadderReport, LadderRuns).  A rung that blows up is reported
    and excluded from slope fits; the ladder itself continues.
    """
    epsilons = [float(e) for e in epsilons]
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise PoisswellError("epsilon list must be strictly decreasing")

    samples = []  # of the Euler reference, as (state, potentials) pairs
    euler = HydroSolver(grid, replace(params, epsilon=0.0), thresholds).run(
        initial, n_samples, keep=lambda record, state, pots: samples.append((state, pots))
    )
    runs_made = [euler]
    if preflight and params.T > 0:
        # the check continues the reference from T, so its monitor's base is s(T): the
        # ratio scaled by s(0) / s(T) triggers past ratio * s(0).  A reference that
        # stopped is run again from 0, so that the error places its stop by step
        start, monitor = initial, thresholds
        if euler.status == "completed":
            ratio = thresholds.ratio * euler.records[0].blowup_sum / euler.records[-1].blowup_sum
            start, monitor = samples[-1][0], replace(thresholds, ratio=ratio)
        pf = HydroSolver(grid, replace(params, epsilon=0.0, T=1.5 * params.T, dt=euler.dt),
                         monitor).run(start)
        runs_made.append(pf)
        if pf.status != "completed":
            raise PoisswellError(f"pre-flight Euler run stopped at t={pf.times[-1]:.4g} "
                                 f"({pf.stop_reason}); lower T below the caustic time")

    def run_rung(eps):
        start = time.perf_counter()
        # each sample meets the Euler sample of its index as it is taken; the rung holds none
        references = iter(samples)
        errors = [0.0] * 4  # sup over the samples taken so far

        def keep(record, state, pots):
            reference = next(references, None)
            if reference is not None and euler.status == "completed":
                errors[:] = map(max, errors, _rung_errors(grid, (state, pots), reference, params.s))

        solver = HydroSolver(grid, replace(params, epsilon=eps), thresholds)
        run = solver.run(initial, n_samples, keep)
        rung = LadderRung(
            epsilon=eps,
            status=run.status,
            stop_time=run.times[-1],
            wall_clock=time.perf_counter() - start,
        )
        if run.status == "completed" and euler.status == "completed":
            (rung.xs_error, rung.rho_error, rung.current_error, rung.eps_term_norm) = errors
        return rung, run

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_rung, epsilons))
    else:
        results = [run_rung(e) for e in epsilons]

    rungs = [r for r, _ in results]
    runs = {e: run for e, (_, run) in zip(epsilons, results)}

    ok = [r for r in rungs if r.xs_error is not None]
    degenerate = len(ok) < 3 or any(r.xs_error == 0.0 for r in ok)
    slopes = {
        name: None if degenerate
        else fit_loglog_slope([r.epsilon for r in ok], [getattr(r, name) for r in ok])
        for name in ("xs_error", "rho_error", "current_error", "eps_term_norm")
    }
    report = LadderReport(
        s=params.s,
        T=params.T,
        epsilons=epsilons,
        rungs=rungs,
        slopes=slopes,
        degenerate=degenerate,
        euler_status=euler.status,
        warnings=distinct_warnings(runs_made + list(runs.values())),
    )
    return report, LadderRuns(
        grid=grid, initial=initial, euler=euler, samples=samples, hydro=runs,
        params=params, n_samples=n_samples, thresholds=thresholds,
    )


def density_current_limit(report: LadderReport):
    """
    The density/current section of a completed ladder: the per-epsilon
    sup-in-time Sobolev errors are already in the report; this adds the
    halving ratios of the O(eps) current part for adjacent rungs with
    eps ratio 1/2.
    """
    out = {
        "rho_errors": report.metric("rho_error"),
        "current_errors": report.metric("current_error"),
        "eps_term_norms": report.metric("eps_term_norm"),
        "rho_slope": report.slopes.get("rho_error"),
        "current_slope": report.slopes.get("current_error"),
        "eps_term_slope": report.slopes.get("eps_term_norm"),
        "halving_ratios": [],
    }
    rungs = [r for r in report.rungs if r.eps_term_norm is not None]
    for hi, lo in zip(rungs, rungs[1:]):
        if abs(lo.epsilon / hi.epsilon - 0.5) < 1e-9 and hi.eps_term_norm:
            out["halving_ratios"].append(lo.eps_term_norm / hi.eps_term_norm)
    return out


@dataclass
class ComparisonReport:
    """Phase-invariant distance between the two solution routes."""

    times: List[float]
    distances: List[float]
    epsilon: float
    dt_hydro: float
    dt_spinor: float
    warnings: List[str] = field(default_factory=list)  # of both runs
    stops: Dict[str, tuple] = field(default_factory=dict)  # run: (status, stop reason)

    def as_dict(self):
        doc = {
            "times": self.times,
            "distances": self.distances,
            "epsilon": self.epsilon,
            "dt_hydro": self.dt_hydro,
            "dt_spinor": self.dt_spinor,
        }
        # absent for a clean run and without warnings: such a report reads as before
        for name, (status, reason) in self.stops.items():
            if status != "completed" or reason:
                doc[f"{name}_status"], doc[f"{name}_stop_reason"] = status, reason
        if self.warnings:
            doc["warnings"] = self.warnings
        return doc


def phase_aligned_distance(grid: Grid, psi, phi):
    """
    min over a global phase of ||psi - e^{i theta} phi||_2.  The optimal
    theta comes from the L2 inner product in closed form; the norm itself
    is evaluated on the aligned difference (the algebraic expression
    sqrt(n1 + n2 - 2|<.,.>|) loses half the digits to cancellation).
    """
    inner = np.sum(np.conj(psi) * phi) * grid.cell_volume
    theta = -np.angle(inner) if inner != 0 else 0.0
    return l2_norm(grid, psi - np.exp(1j * theta) * phi)


def spinor_vs_wkb(
    grid: Grid,
    initial: HydroState,
    params: SimParams,
    n_samples: int = 10,
    thresholds: MonitorThresholds = MonitorThresholds(),
) -> ComparisonReport:
    """
    Feed the same WKB data to both solvers and track the distance between
    the spinor solution and the reconstructed hydro solution at the shared
    sample times ``T k / n_samples``, which each run places from its own dt,
    minimized over the free global phase.  The distances stop at the
    shorter run; the report keeps each run's status and stop reason.

    ``initial`` may come in a one-slot holder, by which a caller hands it
    over: the initial spinor is made from it first and handed to the spinor
    run, which runs first and frees it once dealiased; the WKB run then
    empties the holder once it has dealiased the state.
    The comparison holds each spinor sample as its dealiased band, the
    modes of its spectrum that :func:`~poisswell.grid.dealias_band` keeps
    (296 kB of a 1,049 kB spinor on 32^3).  The WKB run measures each
    sample as it is taken against the spinor remade from the band of its
    index, which it drops at once.
    """
    if params.epsilon <= 0:
        raise PoisswellError("the comparison needs eps > 0")
    initial = holder(initial)
    bands, distances = [], []
    prun = PauliSolver(grid, params, thresholds).run(
        [reconstruct_spinor(grid, initial[0])], n_samples,
        keep=lambda record, psi, _: bands.append(grid.fft(psi)[dealias_band(grid)]))

    def measure(record, state, pots):
        if bands:
            psi_hat = np.zeros((2,) + grid.shape, complex)
            psi_hat[dealias_band(grid)] = bands.pop(0)
            psi = grid.ifft(psi_hat, out=psi_hat)
            distances.append(phase_aligned_distance(grid, psi, reconstruct_spinor(grid, state)))

    hrun = HydroSolver(grid, params, thresholds).run(initial, n_samples, keep=measure)
    return ComparisonReport(
        times=hrun.times[:len(distances)],
        distances=distances,
        epsilon=params.epsilon,
        dt_hydro=hrun.dt,
        dt_spinor=prun.dt,
        warnings=distinct_warnings([hrun, prun]),
        stops={"hydro": (hrun.status, hrun.stop_reason),
               "spinor": (prun.status, prun.stop_reason)},
    )


@dataclass
class MonokineticReport:
    epsilons: List[float]
    defects: List[Optional[float]]
    defect_ratios: List[float]
    slice_epsilon: Optional[float]
    base_points: List
    concentration: List[Optional[float]]
    targets: List
    slice_data: Optional[object] = None  # WignerSlice of the final state
    warnings: List[str] = field(default_factory=list)  # of the spinor runs
    stops: Dict[float, tuple] = field(default_factory=dict)  # eps: (status, stop reason)

    def as_dict(self):
        doc = {
            "epsilons": self.epsilons,
            "defects": self.defects,
            "defect_ratios": self.defect_ratios,
            "slice_epsilon": self.slice_epsilon,
            "base_points": [list(b) for b in self.base_points],
            "concentration": self.concentration,
            "targets": [list(t) for t in self.targets],
        }
        if self.slice_data is not None and len(self.slice_data.xi) == 1:
            doc["xi"] = [float(v) for v in self.slice_data.xi[0]]
            doc["values"] = [
                [float(v) for v in row] for row in self.slice_data.values
            ]
        # as in ComparisonReport: only the runs that did not complete cleanly
        for eps, (status, reason) in self.stops.items():
            if status != "completed" or reason:
                doc.setdefault("spinor_status", {})[repr(eps)] = status
                doc.setdefault("spinor_stop_reason", {})[repr(eps)] = reason
        return doc


def monokinetic_study(ladder: LadderRuns, base_points) -> MonokineticReport:
    """
    Spinor runs at each ladder epsilon from the reconstructed shared data;
    the concentration defect is measured against the Euler velocity at the
    final time, and Wigner slices at the smallest epsilon are checked for
    single-peak concentration at the transport-consistent momentum, the
    Euler velocity ``u`` (the field-form velocity ``u - A`` shifted back by
    A).  Without an Euler reference that reached T, every defect and
    concentration is None, as the ladder's rung errors are.
    """
    grid = ladder.grid
    params = ladder.params
    epsilons = list(ladder.hydro)
    # the Euler velocity at T; none when the reference stopped short of T
    u_final = ladder.samples[-1][0].u if ladder.euler.status == "completed" else None

    defects, spinor_runs, last = [], {}, {}
    for eps in epsilons:
        # a run is handed its spinor and holds its last sample only; the study reads no other
        run = PauliSolver(grid, replace(params, epsilon=eps), ladder.thresholds).run(
            [reconstruct_spinor(grid, ladder.initial, eps)], ladder.n_samples,
            keep=lambda record, psi, pots: last.update(psi=psi))
        spinor_runs[eps] = run
        measured = run.status == "completed" and u_final is not None
        defects.append(monokinetic_defect(grid, last["psi"], u_final, eps) if measured else None)

    ratios = [d_lo / d_hi for d_hi, d_lo in zip(defects, defects[1:]) if d_hi and d_lo is not None]

    eps_min = epsilons[-1]
    slc = None
    if spinor_runs[eps_min].status == "completed":
        slc = wigner_slice(grid, last["psi"], eps_min, base_points)
    if slc is not None and u_final is not None:
        targets = [tuple(u_final[ax][idx] for ax in range(grid.dim)) for idx in slc.base_indices]
        concentration = [concentration_fraction(slc, p, t) for p, t in enumerate(targets)]
    else:
        targets = [(0.0,) * grid.dim for _ in base_points]
        concentration = [None for _ in base_points]

    return MonokineticReport(
        epsilons=list(epsilons),
        defects=defects,
        defect_ratios=ratios,
        slice_epsilon=eps_min if slc is not None else None,
        base_points=list(base_points),
        concentration=concentration,
        targets=targets,
        slice_data=slc,
        warnings=distinct_warnings(spinor_runs.values()),
        stops={eps: (run.status, run.stop_reason) for eps, run in spinor_runs.items()},
    )
