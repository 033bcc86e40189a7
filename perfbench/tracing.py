"""
Span tracing of a poisswell process from outside the package.

``install`` replaces each traced function on the name its callers look
up: a method on its class, a module function on every loaded
``poisswell`` module attribute that holds it (so both ``module.f`` calls
and ``from .module import f`` bindings are covered).  Each call records a
span - name, start, end, parent - in flat arrays kept in memory; the
summary and the span file are written when the run ends.

A few wrappers do extra work after their span has closed (recomputing the
screened-solve residual, sizing written files and retained run data).
That work runs inside a ``trace.extra`` span and is subtracted from every
enclosing span, so layer times exclude it; it still counts in the traced
wall time, i.e. in the tracing overhead.  Counting transformed points is
a single addition made before the span opens, so it is left in the
enclosing span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name).  "Class.method" attributes are patched
# on the class; plain names on every poisswell module that binds them.
TARGETS = [
    ("grid", "Grid.fft", "grid.transform"),
    ("grid", "Grid.ifft", "grid.transform"),
    ("grid", "Grid.ifft_real", "grid.transform"),
    ("elliptic", "solve_screened_vector", "elliptic.screened"),
    ("elliptic", "apply_screened", "elliptic.apply_screened"),
    ("elliptic", "solve_poisson_neutral", "elliptic.poisson"),
    ("hydro", "HydroSolver.run", "hydro.run"),
    ("hydro", "HydroSolver.step_rk4", "hydro.step"),
    ("hydro", "HydroSolver.rhs", "hydro.rhs"),
    ("hydro", "HydroSolver.potentials", "hydro.potentials"),
    ("pauli_solver", "PauliSolver.run", "pauli_solver.run"),
    ("pauli_solver", "PauliSolver.step", "pauli_solver.step"),
    ("pauli_solver", "PauliSolver.potentials", "pauli_solver.potentials"),
    ("pauli_solver", "PauliSolver._kinetic", "pauli_solver.kinetic"),
    ("pauli_solver", "PauliSolver._transport", "pauli_solver.transport"),
    ("pauli_solver", "PauliSolver._multiply", "pauli_solver.multiply"),
    ("kernels", "spinor_density", "kernels.spinor_density"),
    ("kernels", "spin_density", "kernels.spin_density"),
    ("kernels", "phase_sigma_rotate", "kernels.phase_sigma_rotate"),
    ("diagnostics", "functionals", "diagnostics.functionals"),
    ("diagnostics", "continuity_residual", "diagnostics.residuals"),
    ("diagnostics", "gauge_residual", "diagnostics.residuals"),
    ("operators", "sobolev_norm", "operators.sobolev_norm"),
    ("operators", "dealias", "operators.dealias"),
    ("harness", "epsilon_ladder", "harness.ladder"),
    ("harness", "_rung_errors", "harness.rung_errors"),
    ("harness", "monokinetic_study", "harness.monokinetic"),
    ("wigner", "wigner_slice", "wigner.slice"),
    ("wigner", "monokinetic_defect", "wigner.defect"),
    ("io", "write_field", "io.write_field"),
    ("io", "write_jsonl", "io.text"),
    ("io", "write_json", "io.text"),
    ("io", "records_to_csv", "io.text"),
    ("config", "parse_config", "config.parse"),
]

EXTRA = "trace.extra"


class Tracer:
    """Flat span arrays plus the counters the extra hooks fill."""

    def __init__(self):
        self.names = [EXTRA]
        self.codes = {EXTRA: 0}
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.transform_points = 0
        self.write_bytes = 0
        self.residuals = []  # (relative residual, tolerance) per screened solve
        self.retained_bytes = 0
        self._k2 = {}

    def _code(self, name):
        if name not in self.codes:
            self.codes[name] = len(self.names)
            self.names.append(name)
        return self.codes[name]

    def wrap(self, fn, name, extra=None, count=None):
        code = self._code(name)
        codes, parents, starts, ends, stack = (
            self.code, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        def open_span(c):
            idx = len(codes)
            codes.append(c)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx):
            ends[idx] = clock()
            stack.pop()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(args)
            idx = open_span(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if extra is not None:
                idx = open_span(0)
                try:
                    extra(args, kwargs, result)
                finally:
                    close_span(idx)
            return result

        return wrapper

    # -- extra hooks --------------------------------------------------------

    def count_points(self, args):
        self.transform_points += np.size(args[1])

    def screened_residual(self, args, kwargs, A):
        """Relative residual of a returned A, with an operator built here."""
        grid, rhs, rho = args[:3]
        tol = kwargs.get("tol", args[3] if len(args) > 3 else 1e-11)
        rhs = np.asarray(rhs, dtype=float)
        rhs_norm = float(np.sqrt(np.sum(rhs**2)))
        if rhs_norm == 0.0:
            return
        key = (grid.shape, grid.lengths)
        k2 = self._k2.get(key)
        if k2 is None:
            # the package's convention: Nyquist wavenumbers set to zero
            ks = []
            for n, L in zip(grid.shape, grid.lengths):
                k = 2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
                k[n // 2] = 0.0
                ks.append(k**2)
            k2 = functools.reduce(np.add.outer, ks)
            self._k2[key] = k2
        axes = tuple(range(1, rhs.ndim))
        lap = np.fft.ifftn(k2 * np.fft.fftn(A, axes=axes), axes=axes).real
        res = rhs - (lap + np.asarray(rho) * A)
        self.residuals.append((float(np.sqrt(np.sum(res**2))) / rhs_norm, float(tol)))

    def file_size(self, args, kwargs, result):
        self.write_bytes += os.path.getsize(args[0])

    def retained(self, args, kwargs, run):
        """Bytes of the states, snapshots and potentials a run object holds."""
        seen, total = set(), 0
        for name in ("states", "snapshots", "potentials"):
            for item in getattr(run, name, ()):
                fields = [item] if isinstance(item, np.ndarray) else vars(item).values()
                for arr in fields:
                    if isinstance(arr, np.ndarray) and id(arr) not in seen:
                        seen.add(id(arr))
                        total += arr.nbytes
        self.retained_bytes += total

    # -- results -------------------------------------------------------------

    def summary(self, out_dir):
        """Aggregate the spans, write them to ``trace_spans.npz``, return totals."""
        code = np.frombuffer(self.code, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        np.savez(os.path.join(out_dir, "trace_spans.npz"), names=np.array(self.names),
                 code=code, parent=parent, start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
        # time of the trace.extra spans below each span
        extra_below = np.zeros(len(code))
        parents = parent.tolist()
        for i in np.flatnonzero(code == 0).tolist():
            p = parents[i]
            while p >= 0:
                extra_below[p] += dur[i]
                p = parents[p]
        total = np.where(code == 0, dur, dur - extra_below)
        has_parent = parent >= 0
        child = np.zeros(len(code))
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        spans = {}
        for c, name in enumerate(self.names):
            sel = code == c
            spans[name] = {
                "calls": int(sel.sum()),
                "total_s": float(total[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }

        screened = np.flatnonzero(code == self.codes["elliptic.screened"])
        applies = np.bincount(parent[(code == self.codes["elliptic.apply_screened"])
                                     & has_parent], minlength=len(code))[screened]
        converged = applies[applies >= 1]
        iters = (converged - 1) / 2.0

        def first(names, under=None):
            """Time of the first span with one of ``names`` (under ``under``)."""
            sel = np.isin(code, [self.codes[n] for n in names])
            if under is not None:
                sel &= np.isin(parent, np.flatnonzero(code == self.codes[under]))
            idx = np.flatnonzero(sel)
            return float(total[idx[0]]) if len(idx) else 0.0

        return {
            "spans": spans,
            "n_spans": int(len(code)),
            "transform_points": int(self.transform_points),
            "write_bytes": int(self.write_bytes),
            "screened_iters_mean": float(iters.mean()) if len(iters) else 0.0,
            "residual_max": max((r for r, _ in self.residuals), default=0.0),
            "residual_violations": sum(r > tol for r, tol in self.residuals),
            "retained_bytes": int(self.retained_bytes),
            "first_potentials_s": first(["hydro.potentials", "pauli_solver.potentials"]),
            # the ladder's first hydro run is its Euler pre-flight
            "preflight_s": first(["hydro.run"], under="harness.ladder"),
        }


def install(tracer: Tracer):
    """Wrap every target on the names its callers look up."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "poisswell" or n.startswith("poisswell.")]
    extras = {
        "elliptic.screened": tracer.screened_residual,
        "io.write_field": tracer.file_size,
        "hydro.run": tracer.retained,
        "pauli_solver.run": tracer.retained,
    }
    for mod_name, attr, name in TARGETS:
        owner = sys.modules[f"poisswell.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[meth]
            count = tracer.count_points if name == "grid.transform" else None
            setattr(cls, meth, tracer.wrap(orig, name, extras.get(name), count))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(orig, name, extras.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)
