"""
Command-line surface:

    poisswell run <config>      run one experiment described by the config
    poisswell ladder <config>   force the epsilon-ladder experiment

Exit codes: 0 success, 2 blow-up detected (artifacts still written),
1 any other error.  An error raised once the output directory exists
still writes ``report.json`` (status "error") and ``manifest.json``.
POISSWELL_OUT overrides the output root.  Every result is written as JSON
or CSV, which any plotting tool reads as it is.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, config_as_dict, parse_config, serialize_config
from .diagnostics import MonitorThresholds, envelope_check
from .errors import PoisswellError
from .harness import (
    density_current_limit,
    distinct_warnings,
    epsilon_ladder,
    monokinetic_study,
    spinor_vs_wkb,
)
from .hydro import HydroSolver, residual_window
from .io import Manifest, records_to_csv, write_field, write_jsonl, write_json
from .pauli_solver import PauliSolver
from .states import reconstruct_spinor
from .wigner import export_slice_csv, wigner_slice

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BLOWUP = 2


def _output_dir(cfg: RunConfig, override=None):
    root = override or cfg.out_dir or os.environ.get("POISSWELL_OUT") or "poisswell-out"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _thresholds(cfg: RunConfig):
    return MonitorThresholds(ratio=cfg.threshold_ratio, tail=cfg.threshold_tail)


def _run_single(cfg: RunConfig, grid, init, manifest: Manifest):
    """One run of the data in the holder ``init``, which the run empties: the
    spinor of a ``pauli`` config, the WKB state otherwise."""
    thresholds = _thresholds(cfg)
    taken = itertools.count()
    if cfg.kind == "pauli":

        def keep(record, psi, pots):  # each sample is written as it is taken, and not held
            write_field(manifest.path(f"psi_{next(taken):04d}.pwf", "snapshot", t=record.t), psi)

        run = PauliSolver(grid, cfg.sim_params(), thresholds).run(init, keep=keep)
    else:
        params = cfg.sim_params(epsilon=init[0].epsilon)
        residuals = residual_window(grid)

        def keep(record, state, pots):  # written as taken too, and the window fills the residuals
            path = manifest.path(f"amplitude_{next(taken):04d}.pwf", "snapshot", t=record.t)
            write_field(path, state.a)
            residuals(record, state, pots)

        run = HydroSolver(grid, params, thresholds).run(init, keep=keep)
    docs = [r.as_dict() for r in run.records]
    write_jsonl(manifest.path("diagnostics.jsonl", "diagnostics"), docs)
    records_to_csv(manifest.path("diagnostics.csv", "diagnostics-csv"), docs)
    summary = {}
    if cfg.kind != "pauli":
        env = envelope_check(run.records, cfg.s)
        summary = {
            "envelope_constant": env.constant,
            "envelope_passed": env.passed,
            "final_norms": {
                "charge": run.records[-1].charge,
                "xs": run.records[-1].xs,
                "monitor": run.records[-1].monitor,
            },
        }
    summary.update(kind=cfg.kind, status=run.status, stop_reason=run.stop_reason,
                   final_time=run.times[-1], dt=run.dt, charge_drift=run.charge_drift)
    if run.warnings:  # absent when empty: a warning-free report reads as before
        summary["warnings"] = run.warnings
    report_path = manifest.path("report.json", "report")
    write_json(report_path, {"config": config_as_dict(cfg), "summary": summary})
    return EXIT_BLOWUP if summary["status"] == "blowup" else EXIT_OK, summary


def _run_ladder(cfg: RunConfig, grid, init, manifest: Manifest, with_wigner: bool):
    report, runs = epsilon_ladder(
        grid,
        init,
        cfg.sim_params(),
        cfg.epsilons,
        n_samples=cfg.ladder_samples,
        thresholds=_thresholds(cfg),
    )
    doc = report.as_dict()
    doc["density_current"] = density_current_limit(report)
    base_points = cfg.default_base_points(grid)
    mono = monokinetic_study(runs, base_points)
    doc["monokinetic"] = mono.as_dict()
    if mono.warnings:
        doc["warnings"] = distinct_warnings([report, mono])
    if with_wigner and mono.slice_data is not None:
        export_slice_csv(
            mono.slice_data, manifest.path("wigner_final.csv", "wigner-slice")
        )
        psi = reconstruct_spinor(grid, init, mono.slice_epsilon)
        slc = wigner_slice(grid, psi, mono.slice_epsilon, base_points)
        export_slice_csv(slc, manifest.path("wigner_initial.csv", "wigner-slice"))

    report_path = manifest.path("report.json", "report")
    write_json(report_path, {"config": config_as_dict(cfg), "ladder": doc})
    write_json(
        manifest.path("timings.json", "timings"),
        {"wall_clock_per_rung": [r.wall_clock for r in report.rungs]},
    )
    rows = [
        {
            "epsilon": r.epsilon,
            "xs_error": r.xs_error,
            "rho_error": r.rho_error,
            "current_error": r.current_error,
            "eps_term_norm": r.eps_term_norm,
        }
        for r in report.rungs
    ]
    records_to_csv(manifest.path("ladder.csv", "ladder-csv"), rows)
    status = EXIT_OK if report.euler_status == "completed" else EXIT_BLOWUP
    return status, {"slopes": doc["slopes"], "degenerate": doc["degenerate"]}


def _run_spinor_vs_wkb(cfg: RunConfig, grid, init, manifest: Manifest):
    rep = spinor_vs_wkb(grid, init, cfg.sim_params(), thresholds=_thresholds(cfg))
    write_json(
        manifest.path("report.json", "report"),
        {"config": config_as_dict(cfg), "comparison": rep.as_dict()},
    )
    blowup = any(status == "blowup" for status, _ in rep.stops.values())
    return EXIT_BLOWUP if blowup else EXIT_OK, {"max_distance": max(rep.distances)}


def run_command(cfg: RunConfig, out_override=None):
    started = time.perf_counter()
    # the data is built first: data the family rejects leaves no directory.  A
    # one-slot holder keeps it, which a single run or the comparison empties
    grid = cfg.build_grid()
    init = [cfg.build_initial(grid, epsilon=0.0 if cfg.kind == "euler" else None)]
    if cfg.kind == "pauli":  # the spinor run holds no WKB state
        init = [reconstruct_spinor(grid, init.pop())]
    out = _output_dir(cfg, out_override)
    manifest = Manifest(out)
    manifest.path("config.txt", "config")
    (out / "config.txt").write_text(serialize_config(cfg), encoding="utf-8")
    try:
        if cfg.kind in ("pauli", "wkb", "euler"):
            code, summary = _run_single(cfg, grid, init, manifest)
        elif cfg.kind in ("ladder", "monokinetic"):
            code, summary = _run_ladder(cfg, grid, init.pop(), manifest,
                                        with_wigner=cfg.kind == "monokinetic")
        elif cfg.kind == "spinor-vs-wkb":
            code, summary = _run_spinor_vs_wkb(cfg, grid, init, manifest)
        else:  # pragma: no cover - validate() guards this
            raise PoisswellError(f"unhandled kind {cfg.kind}")
    except PoisswellError as exc:  # the directory keeps the reason that stderr prints
        summary = {"kind": cfg.kind, "status": "error", "error": type(exc).__name__,
                   "message": str(exc)}
        write_json(manifest.path("report.json", "report"),
                   {"config": config_as_dict(cfg), "summary": summary})
        raise
    finally:  # written last, it lists every file written before it
        manifest.write(extra={
            "elapsed_seconds": time.perf_counter() - started,
            "environment": {
                "numpy": np.__version__,
                "python": platform.python_version(),
                "cpu_count": os.cpu_count(),
            },
        })
    return code, summary


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="poisswell",
        description="Pauli-Poisswell / Euler-Poisswell simulation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "run the experiment a config file describes"),
                       ("ladder", "run the epsilon ladder of a config file, whatever its kind")):
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("config", help="path to a config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--sample-every", type=int, default=None, metavar="K",
                       help="sample a pauli, wkb or euler run every K steps (overrides"
                            " [params] sample_every; other kinds take only 1)")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
        cfg = parse_config(text)
        if args.command == "ladder":
            cfg = replace(cfg, kind="ladder")
        if args.sample_every is not None:
            cfg = replace(cfg, sample_every=args.sample_every)
        cfg.validate()
        code, summary = run_command(cfg, args.out)
        print(json.dumps(summary, sort_keys=True, default=str))
        return code
    except PoisswellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
