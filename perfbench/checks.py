"""
Output checks of the three workloads, and a PWF1 reader of the
benchmark's own.

Every check tests a property the method must have, or compares with a
computation the program does not make; none compares with saved output.
Each workload has a fixed list of checks (the spinor-2d snapshot checks
run over the snapshot count its config implies), so every round attempts
the same operations.  A check returns a detail string; a check that
raises counts as failed.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

# Phase-aligned spinor-vs-WKB distance relative to the charge on smoke-3d;
# the README derives this bound.
SMOKE_DISTANCE_BOUND = 1e-6

# Solver runs each workload makes: (hydro, pauli).  The ladder's hydro
# runs are its Euler pre-flight, the Euler reference and four rungs; its
# spinor runs are the four monokinetic runs.
EXPECTED_RUNS = {"ladder-1d": (6, 4), "smoke-3d": (1, 1), "spinor-2d": (0, 1)}

SPINOR_SNAPSHOTS = 16  # T = 0.3 at dt = 0.01, sampled every 2 steps, plus t = 0


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def read_pwf1(path):
    """
    Read a PWF1 snapshot from its documented layout: "PWF1", then
    little-endian uint32 dim, size_1..size_dim, ncomp, rep, then ncomp *
    prod(size) little-endian float64 (re, im) pairs in row-major order.
    Returns (complex array of shape (ncomp, *size), rep).
    """
    raw = Path(path).read_bytes()
    require(raw[:4] == b"PWF1", f"{path}: bad magic {raw[:4]!r}")
    (dim,) = struct.unpack_from("<I", raw, 4)
    require(1 <= dim <= 3, f"{path}: dim {dim}")
    shape = struct.unpack_from(f"<{dim}I", raw, 8)
    ncomp, rep = struct.unpack_from("<2I", raw, 8 + 4 * dim)
    offset = 16 + 4 * dim
    count = ncomp * math.prod(shape)
    require(len(raw) == offset + 16 * count,
            f"{path}: {len(raw)} bytes, layout needs {offset + 16 * count}")
    pairs = np.frombuffer(raw, dtype="<f8", offset=offset).reshape(count, 2)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape((ncomp,) + shape), rep


def _json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _jsonl(path):
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def solver_run_checks(workload, runs):
    """One check per expected solver run: it exists and completed."""
    n_hydro, n_pauli = EXPECTED_RUNS[workload]
    checks = []
    for kind, n in (("hydro", n_hydro), ("pauli", n_pauli)):
        mine = [r for r in runs if r["kind"] == kind]
        for i in range(n):
            def check(i=i, kind=kind, mine=mine):
                require(i < len(mine), f"{kind} run {i} missing ({len(mine)} ran)")
                r = mine[i]
                require(r["status"] == "completed", f"{kind} run {i}: {r['status']}")
                require(abs(r["final_time"] - r["T"]) <= 1e-9 * max(1.0, r["T"]),
                        f"{kind} run {i} stopped at t={r['final_time']}")
                return f"{kind} eps={r['epsilon']} t={r['final_time']:.4g}"
            checks.append((f"run.{kind}.{i}", check))
    return checks


def ladder_checks(out, runs):
    def doc():
        return _json(out / "report.json")

    def inputs():
        cfg = doc()["config"]
        require(cfg["points"] == [256] and cfg["epsilons"] == [0.4, 0.2, 0.1, 0.05]
                and cfg["T"] == 0.3 and cfg["s"] == 4.0, f"not the reference ladder: {cfg}")
        require(cfg["threads"] == 1, f"threads = {cfg['threads']}")
        return "N=256, eps 0.4..0.05, T=0.3, s=4"

    def completed():
        lad = doc()["ladder"]
        require(lad["euler_status"] == "completed", f"euler {lad['euler_status']}")
        bad = [r["epsilon"] for r in lad["rungs"] if r["status"] != "completed"]
        require(not bad and len(lad["rungs"]) == 4, f"rungs not completed: {bad}")
        return "euler and 4 rungs completed"

    def monotone():
        xs = [r["xs_error"] for r in doc()["ladder"]["rungs"]]
        require(all(b < a for a, b in zip(xs, xs[1:])), f"xs_error not decreasing: {xs}")
        return "xs_error " + " > ".join(f"{x:.3e}" for x in xs)

    def slope():
        s = doc()["ladder"]["slopes"]["xs_error"]
        require(s is not None and s >= 0.8, f"slope {s}")
        return f"slope {s:.4f}"

    def halving():
        ratios = doc()["ladder"]["density_current"]["halving_ratios"]
        require(len(ratios) == 3 and all(abs(r - 0.5) <= 0.1 for r in ratios),
                f"halving ratios {ratios}")
        return "ratios " + ", ".join(f"{r:.4f}" for r in ratios)

    def defects():
        mono = doc()["ladder"]["monokinetic"]
        require(all(d is not None for d in mono["defects"]), f"defects {mono['defects']}")
        ratios = mono["defect_ratios"]
        require(len(ratios) == 3 and all(r <= 0.3 for r in ratios), f"defect ratios {ratios}")
        return "ratios " + ", ".join(f"{r:.4f}" for r in ratios)

    def slice_mass():
        mono = doc()["ladder"]["monokinetic"]
        conc = mono["concentration"]
        require(mono["slice_epsilon"] == 0.05, f"slice eps {mono['slice_epsilon']}")
        require(len(conc) == 3 and all(c is not None and c >= 0.9 for c in conc),
                f"slice mass {conc}")
        return "mass " + ", ".join(f"{c:.4f}" for c in conc)

    return [("ladder.inputs", inputs), ("ladder.completed", completed),
            ("ladder.xs_monotone", monotone), ("ladder.slope", slope),
            ("ladder.halving", halving), ("ladder.defect_ratios", defects),
            ("ladder.slice_mass", slice_mass)]


def smoke_checks(out, runs):
    def doc():
        return _json(out / "report.json")

    def of(kind):
        mine = [r for r in runs if r["kind"] == kind]
        require(len(mine) == 1, f"{len(mine)} {kind} runs")
        return mine[0]

    def inputs():
        cfg = doc()["config"]
        require(cfg["points"] == [32, 32, 32] and cfg["epsilon"] == 0.2 and cfg["T"] == 0.05,
                f"not the 32^3 c14 case: {cfg}")
        return "32^3, eps=0.2, T=0.05"

    def drift(kind):
        def check():
            d = of(kind)["charge_drift"]
            require(d <= 1e-5, f"{kind} charge drift {d:.3e}")
            return f"{kind} drift {d:.2e}"
        return check

    def samples():
        times = doc()["comparison"]["times"]
        require(len(times) == 11 and abs(times[-1] - 0.05) <= 1e-12, f"times {times}")
        return "11 shared sample times to T"

    def distance():
        q0 = of("hydro")["charge0"]
        dist = doc()["comparison"]["distances"]
        rel = max(dist) / q0
        require(rel <= SMOKE_DISTANCE_BOUND, f"distance/charge {rel:.3e}")
        return f"max distance/charge {rel:.3e}"

    return [("smoke.inputs", inputs), ("smoke.hydro_drift", drift("hydro")),
            ("smoke.spinor_drift", drift("pauli")), ("smoke.samples", samples),
            ("smoke.distance", distance)]


def spinor_checks(out, runs):
    def doc():
        return _json(out / "report.json")

    def snapshots():
        entries = [e for e in _json(out / "manifest.json")["artifacts"] if e["kind"] == "snapshot"]
        return sorted(entries, key=lambda e: e["path"])

    def inputs():
        cfg = doc()["config"]
        require(cfg["kind"] == "pauli" and cfg["points"] == [128, 128], f"config {cfg}")
        require(cfg["family_options"].get("spin_angle", 0.0) != 0.0, "spin not tilted")
        return "128^2 pauli, spin_angle %s" % cfg["family_options"]["spin_angle"]

    def completed():
        s = doc()["summary"]
        require(s["status"] == "completed" and abs(s["final_time"] - 0.3) <= 1e-12,
                f"status {s['status']} at t={s['final_time']}")
        return "completed at T"

    def drift():
        d = doc()["summary"]["charge_drift"]
        require(d <= 1e-6, f"charge drift {d:.3e}")
        return f"drift {d:.2e}"

    def count():
        n_snap, n_rec = len(snapshots()), len(_jsonl(out / "diagnostics.jsonl"))
        require(n_snap == n_rec == SPINOR_SNAPSHOTS,
                f"{n_snap} snapshots, {n_rec} records, expected {SPINOR_SNAPSHOTS}")
        return f"{n_snap} snapshots"

    def snapshot(i, what):
        def check():
            entry = snapshots()[i]
            record = _jsonl(out / "diagnostics.jsonl")[i]
            if what == "time":
                require(entry["t"] == record["t"], f"manifest t={entry['t']}, record t={record['t']}")
                return f"t={entry['t']}"
            data, rep = read_pwf1(out / entry["path"])
            if what == "shape":
                require(data.shape == (2, 128, 128) and rep == 0, f"shape {data.shape}, rep {rep}")
                return "shape (2, 128, 128)"
            cell = (2.0 * np.pi / 128) ** 2
            q = float(np.sqrt(np.sum(data.real**2 + data.imag**2) * cell))
            rel = abs(q - record["charge"]) / record["charge"]
            require(rel <= 1e-12, f"charge {q!r} vs record {record['charge']!r}")
            return f"charge matches to {rel:.1e}"
        return check

    checks = [("spinor.inputs", inputs), ("spinor.completed", completed),
              ("spinor.drift", drift), ("spinor.snapshot_count", count)]
    for i in range(SPINOR_SNAPSHOTS):
        for what in ("shape", "charge", "time"):
            checks.append((f"spinor.snapshot{i:02d}.{what}", snapshot(i, what)))
    return checks


WORKLOAD_CHECKS = {"ladder-1d": ladder_checks, "smoke-3d": smoke_checks,
                   "spinor-2d": spinor_checks}


def run_checks(workload, out, result, traced):
    """
    Evaluate every check of one round.  ``result`` is the workload's
    ``workload.json`` document, or None when the process wrote none.
    Returns a list of (name, ok, detail).
    """
    runs = result["runs"] if result else []
    checks = solver_run_checks(workload, runs) + WORKLOAD_CHECKS[workload](Path(out), runs)
    if traced:
        def residual_guard():
            require(result is not None, "no trace written")
            tr = result["trace"]
            require(tr["residual_violations"] == 0,
                    f"{tr['residual_violations']} screened solves above tolerance")
            return f"max relative residual {tr['residual_max']:.2e}"
        checks.append(("trace.residual_guard", residual_guard))
    outcomes = []
    for name, check in checks:
        try:
            outcomes.append((name, True, check()))
        except (CheckFailed, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            outcomes.append((name, False, f"{type(exc).__name__}: {exc}"))
    return outcomes
