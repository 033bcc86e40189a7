"""
End-to-end benchmark of poisswell: the semiclassical ladder, the 3d
cross-solver run and the 2d spinor run.

    python3 perfbench/run.py --workload {ladder-1d,smoke-3d,spinor-2d}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each workload runs in its own
single-threaded process (``perfbench/workload.py``), one at a time, and
every round is followed by the workload's output checks.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

* ``--trace 0`` reports ``wall_s`` (median over whole rounds, repeated
  until ``--seconds`` have passed), ``setup_s`` (median over fresh
  processes stopped at their first time step, SETUP_PROBES of them before
  the rounds and as many after) and ``peak_rss_mb`` (median over rounds).
* ``--trace 1`` runs traced rounds instead and reports the per-layer
  metrics from the first one; ``trace.overhead_s`` compares its wall time
  with the median of the untraced rounds recorded in this checkout, or
  with one untraced round made first when there are none.

The inputs are fixed configs whose initial-data families draw no random
numbers; ``--seed`` is accepted and changes nothing.  Run output goes to
``perfbench/out/`` (ignored by git).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("ladder-1d", "smoke-3d", "spinor-2d")
# setup_s probes taken before the rounds and as many again after them.  The
# median of four is the mean of the middle two, so the value of one slow
# probe (the bytecode compile of a fresh checkout) does not enter it.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170.0

# One thread for every math library numpy might load; numpy's own FFT
# (pocketfft) runs on the calling thread.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchmarkError(Exception):
    """A set-up probe ended without reaching a time step."""


def _spawn(workload, mode, out_dir):
    """
    Run one workload process to its end.  Returns (seconds from just
    before the spawn to the reaped exit, exit code, peak RSS in MB, the
    clock at spawn, standard output).
    """
    env = dict(os.environ, **CHILD_ENV)
    log = out_dir.parent / f"{out_dir.name}.log"
    cmd = [sys.executable, str(HERE / "workload.py"), workload, mode, str(out_dir)]
    with open(log, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    # ru_maxrss is in KiB on Linux; MB here is 10^6 bytes
    return t1 - t0, proc.returncode, usage.ru_maxrss * 1024 / 1e6, t0, stdout.decode()


def _fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_probe(workload, out):
    """Seconds from spawning a fresh workload process to its first time step."""
    _, code, _, t0, stdout = _spawn(workload, "setup", _fresh(out / "setup"))
    try:
        return float(stdout.strip().splitlines()[-1]) - t0
    except (ValueError, IndexError):
        raise BenchmarkError(
            f"setup probe of {workload} exited {code} without reaching a time step; "
            f"see {out / 'setup.log'}") from None


def run_round(workload, mode, out):
    """One workload process plus its checks."""
    run_dir = _fresh(out / "run")
    wall, code, rss, _, _ = _spawn(workload, mode, run_dir)
    try:
        result = json.loads((run_dir / "workload.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = None
    outcomes = checks.run_checks(workload, run_dir, result, traced=mode == "trace")
    outcomes.append(("process.exit", code == 0, f"exit code {code}"))
    return {"wall_s": wall, "peak_rss_mb": rss, "outcomes": outcomes, "result": result}


def layer_metrics(trace, import_s, overhead_s):
    """The per-layer metrics of BENCHMARK.json from one trace summary."""
    sp = trace["spans"]

    def calls(name):
        return sp[name]["calls"]

    def secs(*names):
        return sum(sp[n]["total_s"] for n in names)

    kernels = [n for n in sp if n.startswith("kernels.")]
    values = {
        "grid.transform.calls": (calls("grid.transform"), "count"),
        "grid.transform.s": (secs("grid.transform"), "s"),
        "grid.transform.mpoints": (trace["transform_points"] / 1e6, "Mpoint"),
        "elliptic.screened.calls": (calls("elliptic.screened"), "count"),
        "elliptic.screened.s": (secs("elliptic.screened"), "s"),
        "elliptic.screened.iters_per_solve": (trace["screened_iters_mean"], "count"),
        "elliptic.screened.residual_max": (trace["residual_max"], "1"),
        "elliptic.poisson.calls": (calls("elliptic.poisson"), "count"),
        "elliptic.poisson.s": (secs("elliptic.poisson"), "s"),
        "hydro.steps": (calls("hydro.step"), "count"),
        "hydro.step.s": (secs("hydro.step"), "s"),
        "hydro.rhs.calls": (calls("hydro.rhs"), "count"),
        "hydro.rhs.s": (secs("hydro.rhs"), "s"),
        "hydro.potentials.s": (secs("hydro.potentials"), "s"),
        "pauli_solver.steps": (calls("pauli_solver.step"), "count"),
        "pauli_solver.step.s": (secs("pauli_solver.step"), "s"),
        "pauli_solver.potentials.calls": (calls("pauli_solver.potentials"), "count"),
        "pauli_solver.potentials.s": (secs("pauli_solver.potentials"), "s"),
        "pauli_solver.kinetic.s": (secs("pauli_solver.kinetic"), "s"),
        "pauli_solver.transport.s": (secs("pauli_solver.transport"), "s"),
        "pauli_solver.multiply.s": (secs("pauli_solver.multiply"), "s"),
        "kernels.calls": (sum(calls(n) for n in kernels), "count"),
        "kernels.s": (secs(*kernels), "s"),
        "diagnostics.functionals.calls": (calls("diagnostics.functionals"), "count"),
        "diagnostics.functionals.s": (secs("diagnostics.functionals"), "s"),
        "diagnostics.residuals.s": (secs("diagnostics.residuals"), "s"),
        "operators.sobolev_norm.calls": (calls("operators.sobolev_norm"), "count"),
        "operators.sobolev_norm.s": (secs("operators.sobolev_norm"), "s"),
        "operators.dealias.s": (secs("operators.dealias"), "s"),
        "harness.preflight.s": (trace["preflight_s"], "s"),
        "harness.rung_errors.s": (secs("harness.rung_errors"), "s"),
        "harness.monokinetic.s": (secs("harness.monokinetic"), "s"),
        "wigner.slice.s": (secs("wigner.slice"), "s"),
        "wigner.defect.s": (secs("wigner.defect"), "s"),
        "io.write_field.calls": (calls("io.write_field"), "count"),
        "io.write_field.mb": (trace["write_bytes"] / 1e6, "MB"),
        "io.write_field.s": (secs("io.write_field"), "s"),
        "io.text.s": (secs("io.text"), "s"),
        "memory.retained_mb": (trace["retained_bytes"] / 1e6, "MB"),
        "setup.import_s": (import_s, "s"),
        "config.parse.s": (secs("config.parse"), "s"),
        "setup.first_potentials_s": (trace["first_potentials_s"], "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "poisswell" / "cli.py").is_file():
        print(f"error: no poisswell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / "perfbench" / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    history = out / "untraced_wall_s.json"
    walls = json.loads(history.read_text()) if history.is_file() else []

    probes = 0 if args.trace else SETUP_PROBES
    try:
        setup_samples = [setup_probe(args.workload, out) for _ in range(probes)]
        rounds, reference = [], []
        if args.trace and not walls:
            reference.append(run_round(args.workload, "run", out))
        mode = "trace" if args.trace else "run"
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(run_round(args.workload, mode, out))
        setup_samples += [setup_probe(args.workload, out) for _ in range(probes)]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    done = reference + rounds
    outcomes = [o for r in done for o in r["outcomes"]]
    failed = [o for o in outcomes if not o[1]]
    for name, ok, detail in outcomes:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)

    if args.trace:
        untraced = statistics.median(walls or [r["wall_s"] for r in reference])
        first = rounds[0]
        if first["result"] is None:
            metrics = {}
        else:
            metrics = layer_metrics(first["result"]["trace"], first["result"]["import_s"],
                                    first["wall_s"] - untraced)
    else:
        history.write_text(json.dumps(walls + [r["wall_s"] for r in rounds]))
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    print(json.dumps({"rounds": len(rounds), "setup_samples_s": setup_samples,
                      "wall_samples_s": [r["wall_s"] for r in rounds]}), file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": len(outcomes),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
