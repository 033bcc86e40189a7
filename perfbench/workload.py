"""
Run one benchmark workload in this process, through ``poisswell.cli.main``.

    python3 perfbench/workload.py WORKLOAD MODE OUT_DIR

MODE is one of

* ``run``   - the workload as a user runs it; no timing wrappers.  The
  solvers' ``run`` methods get a result hook that keeps each run's status
  and charge drift (a few calls per workload, no clock reads), so the
  checks can see runs whose objects the program drops.
* ``setup`` - stop at the first time step: print ``time.monotonic()``
  there and leave at once.  The parent takes ``setup_s`` from it.
* ``trace`` - ``run`` plus the span wrappers of ``perfbench/tracing.py``.

``OUT_DIR`` receives the program's artifacts and ``workload.json`` (exit
code, the kept run results, import time, and in trace mode the trace
summary).  Only the standard library is imported before the package, so
the import time is the program's own.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Command-line arguments of ``poisswell`` per workload; paths are relative
# to the checkout root, which is the child's working directory.
ARGV = {
    "ladder-1d": ["ladder", "configs/ladder.cfg"],
    "smoke-3d": ["run", "perfbench/configs/smoke-3d.cfg"],
    "spinor-2d": ["run", "perfbench/configs/spinor-2d.cfg"],
}


def _keep_run_results(results):
    """Hook both solvers' ``run`` so each returned run leaves a summary."""
    from poisswell.hydro import HydroSolver
    from poisswell.pauli_solver import PauliSolver

    def hook(cls, kind):
        orig = cls.run

        def run(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            results.append({
                "kind": kind,
                "epsilon": float(self.params.epsilon),
                "T": float(self.params.T),
                "status": out.status,
                "final_time": float(out.times[-1]),
                "samples": len(out.times),
                "charge0": float(out.records[0].charge),
                "charge_drift": float(out.charge_drift),
            })
            return out

        cls.run = run

    hook(HydroSolver, "hydro")
    hook(PauliSolver, "pauli")


def _stop_at_first_step():
    """Print the clock at the first time step of either solver and exit."""
    from poisswell.hydro import HydroSolver
    from poisswell.pauli_solver import PauliSolver

    def stop(*args, **kwargs):
        now = time.monotonic()
        os.write(1, f"{now!r}\n".encode())
        os._exit(0)

    HydroSolver.step_rk4 = stop
    PauliSolver.step = stop


def main(argv):
    workload, mode, out_dir = argv
    if workload not in ARGV or mode not in ("run", "setup", "trace"):
        print(f"usage: workload.py {{{','.join(ARGV)}}} run|setup|trace OUT_DIR",
              file=sys.stderr)
        return 64
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "poisswell", "cli.py")):
        print(f"no poisswell sources under {src}", file=sys.stderr)
        return 66
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import poisswell.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"imported poisswell from {cli.__file__}, not {src}", file=sys.stderr)
        return 66

    if mode == "setup":
        _stop_at_first_step()
        cli.main(ARGV[workload] + ["--out", out_dir])
        print("the workload finished without taking a time step", file=sys.stderr)
        return 65

    results = []
    tracer = None
    if mode == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    _keep_run_results(results)
    code = cli.main(ARGV[workload] + ["--out", out_dir])
    doc = {
        "exit_code": code,
        "runs": results,
        "import_s": import_s,
    }
    if tracer is not None:
        doc["trace"] = tracer.summary(out_dir)
    import json

    with open(os.path.join(out_dir, "workload.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
