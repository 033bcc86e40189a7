import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poisswell.cli import EXIT_BLOWUP, EXIT_OK, main
from poisswell.io import read_field

ROOT = Path(__file__).resolve().parent.parent
BLOWUP_CFG = ROOT / "configs" / "blowup.cfg"
SRC = str(ROOT / "src")

EULER_UNIFORM = """
[run]
kind = euler

[grid]
points = [32]

[params]
epsilon = 0.0
T = 0.1
dt = 0.01

[initial]
family = uniform
"""

COMPRESSIVE = """
[run]
kind = euler

[grid]
points = [128]

[params]
epsilon = 0.0
T = 2.0
sample_every = 2

[initial]
family = compressive
beta = 3.0

[thresholds]
ratio = 30.0
"""

LADDER = """
[run]
kind = ladder

[grid]
points = [64]

[params]
epsilon = 0.1
T = 0.06
s = 4.0

[initial]
family = gaussian-bump
amplitude = 0.3

[ladder]
epsilons = [0.4, 0.2, 0.1]
samples = 3

[wigner]
base_points = [12, 32, 44]
"""


PAULI_DT_ABOVE_BOUND = """
[run]
kind = pauli

[grid]
points = [32]

[params]
epsilon = 0.05
T = 1.0
dt = 0.5

[initial]
family = gaussian-bump
amplitude = 0.3
"""

PAULI_BUMP = """
[run]
kind = pauli

[grid]
points = [64]

[params]
epsilon = 0.1
T = 0.05

[initial]
family = gaussian-bump
amplitude = 0.2
"""

SPINOR_VS_WKB = """
[run]
kind = spinor-vs-wkb

[grid]
points = [32]

[params]
epsilon = 0.25
T = 0.02
s = 4.0

[initial]
family = gaussian-bump
amplitude = 0.3
"""

SPINOR_VS_WKB_DT_ABOVE_BOUND = """
[run]
kind = spinor-vs-wkb

[grid]
points = [32]

[params]
epsilon = 0.05
T = 2.0
dt = 1.0

[initial]
family = gaussian-bump
amplitude = 0.5
width = 0.8
phase_amplitude = 0.0
"""


# every run kind reads what it needs of this, on a 16-point grid
SMALL_ANY_KIND = """
[run]
kind = {kind}

[grid]
points = [16]

[params]
epsilon = 0.25
T = 0.02
s = 4.0

[initial]
family = gaussian-bump
amplitude = 0.3

[ladder]
epsilons = [0.4, 0.2, 0.1]
samples = 2

[wigner]
base_points = [4, 8]
"""

# the README's artifact list: each kind's files beyond config.txt,
# report.json and manifest.json, by the manifest kind that lists them
SNAPSHOT_RUN = {"diagnostics": "diagnostics.jsonl", "diagnostics-csv": "diagnostics.csv"}
LADDER_RUN = {"timings": "timings.json", "ladder-csv": "ladder.csv"}
ARTIFACTS = {
    "pauli": {**SNAPSHOT_RUN, "snapshot": "psi_NNNN.pwf"},
    "wkb": {**SNAPSHOT_RUN, "snapshot": "amplitude_NNNN.pwf"},
    "euler": {**SNAPSHOT_RUN, "snapshot": "amplitude_NNNN.pwf"},
    "ladder": LADDER_RUN,
    "monokinetic": {**LADDER_RUN, "wigner-slice": "wigner_initial.csv|wigner_final.csv"},
    "spinor-vs-wkb": {},
}


# one bad value each, named by the key the error must name
BAD_VALUES = [
    ("points", EULER_UNIFORM.replace("points = [32]", "points = [5]")),
    ("lengths", EULER_UNIFORM.replace("points = [32]", "points = [32]\nlengths = [0]")),
    ("epsilon", EULER_UNIFORM.replace("epsilon = 0.0", 'epsilon = "abc"')),
    ("samples", LADDER.replace("samples = 3", "samples = 0")),
    # a 1-d grid has no second index for these base points
    ("base_points", LADDER.replace("[12, 32, 44]", "[[1, 2], [3, 4]]")),
    ("width", EULER_UNIFORM + "width = 1\n"),
    ("cfl_safety", EULER_UNIFORM.replace("dt = 0.01", "cfl_safety = 0")),
    # the family itself rejects a bump that drives the density negative
    ("amplitude", PAULI_BUMP.replace("amplitude = 0.2", "amplitude = 50")),
    # these three once ran: T = inf into an OverflowError traceback, the
    # thresholds into a monitor that triggered at the first sample
    ("T", EULER_UNIFORM.replace("T = 0.1", "T = inf")),
    ("ratio", EULER_UNIFORM + "\n[thresholds]\nratio = -1\n"),
    ("tail", EULER_UNIFORM + "\n[thresholds]\ntail = nan\n"),
    # "raw" was the same as "mean-density", the mean density of every family
    ("normalize", EULER_UNIFORM.replace("dt = 0.01", 'dt = 0.01\nnormalize = "raw"')),
    # these two ended in OverflowError tracebacks: a spinor sample's energy
    # squares eps, and the bump squares L / (2 pi width)
    pytest.param("epsilon", PAULI_BUMP.replace("epsilon = 0.1", "epsilon = 1e300"),
                 id="epsilon-huge"),
    pytest.param("width", PAULI_BUMP.replace("amplitude = 0.2", "amplitude = 0.2\nwidth = 1e-300"),
                 id="width-tiny"),
    # the bump's phase was 0 * inf, and the run ended in a screened solve that did not converge
    pytest.param("lengths", PAULI_BUMP.replace("points = [64]", "points = [64]\nlengths = [inf]"),
                 id="lengths-inf"),
]


def python(*args, timeout=60):
    """``python args`` in a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": path})


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def assert_error_artifacts(out, kind, error, message, snapshots):
    """A run that raised once its directory existed: its report says why, and
    its manifest lists config.txt, the snapshots taken and the report, each on
    disk."""
    doc = json.loads((out / "report.json").read_text())
    assert doc["summary"] == {"kind": kind, "status": "error", "error": error,
                              "message": message}
    assert doc["config"]["kind"] == kind
    entries = json.loads((out / "manifest.json").read_text())["artifacts"]
    kinds = sorted(e["kind"] for e in entries)
    assert kinds == ["config", "report"] + ["snapshot"] * snapshots
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [e["path"] for e in entries] + ["manifest.json"])


class TestRunCommand:
    def test_euler_uniform_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, EULER_UNIFORM)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["status"] == "completed"
        assert (out / "diagnostics.jsonl").exists()
        assert (out / "manifest.json").exists()

    def test_manifest_covers_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, EULER_UNIFORM)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        listed = {e["path"] for e in manifest["artifacts"]}
        on_disk = {
            str(p.relative_to(out))
            for p in out.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert on_disk == listed

    def test_manifest_records_environment(self, tmp_path):
        # the manifest, not the report, says what the run ran on
        import os
        import platform

        cfg = write_cfg(tmp_path, EULER_UNIFORM)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["environment"] == {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        }
        assert "environment" not in (out / "report.json").read_text()

    def test_blowup_exit_code_two_with_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPRESSIVE)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_BLOWUP
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["status"] == "blowup"

    def test_spinor_stability_violation_keeps_artifacts(self, tmp_path):
        # the fixed dt is about 3x the spinor bound: the first step fails,
        # and the run ends as a blow-up with its first sample written
        cfg = write_cfg(tmp_path, PAULI_DT_ABOVE_BOUND)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_BLOWUP
        summary = json.loads((out / "report.json").read_text())["summary"]
        assert summary["status"] == "blowup"
        assert "exceeds stability bound" in summary["stop_reason"]
        assert len((out / "diagnostics.jsonl").read_text().splitlines()) == 1
        assert (out / "psi_0000.pwf").exists()

    def test_warnings_in_report(self, tmp_path):
        # s = 3 is below the 7/2 hypothesis: the run warns, the report says so
        cfg = write_cfg(tmp_path, EULER_UNIFORM.replace("dt = 0.01", "dt = 0.01\ns = 3.0"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["summary"]["warnings"] == ["regularity s=3.0 below the 7/2 hypothesis"]

    def test_no_warnings_key_without_warnings(self, tmp_path):
        cfg = write_cfg(tmp_path, EULER_UNIFORM)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out)])
        assert "warnings" not in json.loads((out / "report.json").read_text())["summary"]

    def test_pauli_warnings_in_report(self, tmp_path, monkeypatch):
        # a spinor run keeps the warnings its samples raise, once each
        import warnings

        from poisswell import pauli_solver

        energy = pauli_solver.field_energy

        def warning_energy(*args):
            warnings.warn("energy sample warned")
            return energy(*args)

        monkeypatch.setattr(pauli_solver, "field_energy", warning_energy)
        cfg = write_cfg(tmp_path, PAULI_DT_ABOVE_BOUND.replace("dt = 0.5", "dt = 0.01")
                        .replace("T = 1.0", "T = 0.02"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "report.json").read_text())["summary"]
        assert summary["warnings"] == ["energy sample warned"]

    def test_pauli_tail_threshold(self, tmp_path):
        # [thresholds] tail applies to spinor runs: the spectral tail of this
        # run is tiny but not zero, so it passes a zero threshold only
        cfg = write_cfg(tmp_path, PAULI_BUMP)
        out = tmp_path / "default"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "report.json").read_text())["summary"]["stop_reason"] == ""
        cfg = write_cfg(tmp_path, PAULI_BUMP + "\n[thresholds]\ntail = 0.0\n")
        out = tmp_path / "zero"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "report.json").read_text())["summary"]
        assert summary["status"] == "completed"
        assert summary["stop_reason"] == "spectral tail warning"

    def test_pauli_snapshots_written_as_taken(self, tmp_path, monkeypatch):
        # each sample is on disk, with its bits, under the name and time
        # the manifest gives it
        from poisswell.pauli_solver import PauliSolver

        runs, sampled = [], []
        run, record = PauliSolver.run, PauliSolver._record

        def spied_run(self, *args, **kwargs):
            runs.append(run(self, *args, **kwargs))
            return runs[-1]

        def spied_record(self, t, psi, *args):
            sampled.append(psi.copy())
            return record(self, t, psi, *args)

        monkeypatch.setattr(PauliSolver, "run", spied_run)
        monkeypatch.setattr(PauliSolver, "_record", spied_record)
        cfg = write_cfg(tmp_path, PAULI_BUMP)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        (done,) = runs
        snaps = [e for e in json.loads((out / "manifest.json").read_text())["artifacts"]
                 if e["kind"] == "snapshot"]
        assert len(snaps) == len(sampled) == len(done.times) > 2
        for i, (entry, t, psi) in enumerate(zip(snaps, done.times, sampled)):
            assert entry["path"] == f"psi_{i:04d}.pwf" and entry["t"] == t
            assert read_field(out / entry["path"]).data.tobytes() == psi.tobytes()

    def test_pauli_error_leaves_snapshots_taken(self, tmp_path, monkeypatch):
        # an error mid-run exits 1 with the samples taken before it on disk,
        # and its report and manifest say so
        from poisswell.errors import PoisswellError
        from poisswell.pauli_solver import PauliSolver

        step, calls = PauliSolver.step, []

        def failing_step(self, *args):
            calls.append(1)
            if len(calls) == 3:
                raise PoisswellError("step failed")
            return step(self, *args)

        monkeypatch.setattr(PauliSolver, "step", failing_step)
        # a fixed dt makes five steps, so the third fails whatever the default dt rule
        cfg = write_cfg(tmp_path, PAULI_BUMP.replace("T = 0.05", "T = 0.05\ndt = 0.01"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.glob("psi_*.pwf")) == [
            "psi_0000.pwf", "psi_0001.pwf", "psi_0002.pwf"]
        assert_error_artifacts(out, "pauli", "PoisswellError", "step failed", snapshots=3)

    def test_wkb_error_leaves_snapshots_taken(self, tmp_path, monkeypatch):
        # as for a pauli run: an error mid-run exits 1 with the samples taken before it on disk
        from poisswell.errors import PoisswellError
        from poisswell.hydro import HydroSolver

        step, calls = HydroSolver.step_rk4, []

        def failing_step(self, *args):
            calls.append(1)
            if len(calls) == 3:
                raise PoisswellError("step failed")
            return step(self, *args)

        monkeypatch.setattr(HydroSolver, "step_rk4", failing_step)
        cfg = write_cfg(tmp_path, PAULI_BUMP.replace("kind = pauli", "kind = wkb")
                        .replace("T = 0.05", "T = 0.05\ndt = 0.01"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.glob("amplitude_*.pwf")) == [
            "amplitude_0000.pwf", "amplitude_0001.pwf", "amplitude_0002.pwf"]
        assert_error_artifacts(out, "wkb", "PoisswellError", "step failed", snapshots=3)

    def test_ladder_error_leaves_report_and_manifest(self, tmp_path, monkeypatch, capsys):
        # a ladder that raises in its second rung, once the pre-flight, the
        # Euler reference and the first rung are done, exits 1 as before
        from poisswell.errors import NonConvergence
        from poisswell.hydro import HydroSolver

        step = HydroSolver.step_rk4

        def failing_step(self, *args):
            if self.params.epsilon == 0.2:
                raise NonConvergence("rung solve failed")
            return step(self, *args)

        monkeypatch.setattr(HydroSolver, "step_rk4", failing_step)
        cfg = write_cfg(tmp_path, LADDER)
        out = tmp_path / "out"
        assert main(["ladder", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: rung solve failed\n"
        assert_error_artifacts(out, "ladder", "NonConvergence", "rung solve failed", snapshots=0)

    def test_spinor_vs_wkb_warnings_in_report(self, tmp_path, monkeypatch):
        # a comparison lists the warnings of its WKB run (s = 3 is below the
        # 7/2 hypothesis) and of its spinor run, once each; without any it
        # has no key
        import warnings

        from poisswell import pauli_solver

        cfg = write_cfg(tmp_path, SPINOR_VS_WKB)
        out = tmp_path / "clean"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        assert "warnings" not in json.loads((out / "report.json").read_text())["comparison"]

        energy = pauli_solver.field_energy

        def warning_energy(*args):
            warnings.warn("energy sample warned")
            return energy(*args)

        monkeypatch.setattr(pauli_solver, "field_energy", warning_energy)
        cfg = write_cfg(tmp_path, SPINOR_VS_WKB.replace("s = 4.0", "s = 3.0"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        comparison = json.loads((out / "report.json").read_text())["comparison"]
        assert comparison["warnings"] == [
            "regularity s=3.0 below the 7/2 hypothesis",
            "energy sample warned",
        ]

    def test_spinor_vs_wkb_blowup_exit_two(self, tmp_path):
        # the samples' dt = T / 10 is about twice the spinor bound: the
        # spinor run blows up at its first step, the WKB run completes, and
        # the report says which run stopped and why
        cfg = write_cfg(tmp_path, SPINOR_VS_WKB_DT_ABOVE_BOUND)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_BLOWUP
        comparison = json.loads((out / "report.json").read_text())["comparison"]
        assert comparison["times"] == [0.0]
        assert comparison["spinor_status"] == "blowup"
        assert "exceeds stability bound" in comparison["spinor_stop_reason"]
        assert "hydro_status" not in comparison and "hydro_stop_reason" not in comparison

    def test_spinor_vs_wkb_stop_reasons(self, tmp_path):
        # a completed run's stop reason is reported without failing the
        # command; a clean comparison has no status keys
        cfg = write_cfg(tmp_path, SPINOR_VS_WKB)
        out = tmp_path / "clean"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        comparison = json.loads((out / "report.json").read_text())["comparison"]
        assert not any(k.endswith(("_status", "_stop_reason")) for k in comparison)
        cfg = write_cfg(tmp_path, SPINOR_VS_WKB + "\n[thresholds]\ntail = 0.0\n")
        out = tmp_path / "tail"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
        comparison = json.loads((out / "report.json").read_text())["comparison"]
        assert comparison["spinor_status"] == "completed"
        assert comparison["spinor_stop_reason"] == "spectral tail warning"

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[run]\nkind = nonsense\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "kind" in capsys.readouterr().err

    @pytest.mark.parametrize("key, text", BAD_VALUES,
                             ids=[getattr(case, "id", None) or case[0] for case in BAD_VALUES])
    def test_bad_value_exits_one_naming_key(self, tmp_path, capsys, key, text):
        # each of these once ended in a traceback (or, for cfl_safety, in a run
        # that did not end); main returning means no exception escaped
        cfg = write_cfg(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, text", [("run", SPINOR_VS_WKB), ("ladder", LADDER)],
                             ids=["spinor-vs-wkb", "ladder"])
    def test_sample_every_rejected_where_unused(self, tmp_path, capsys, command, text):
        # the flag and the key exit 1 naming the key, and nothing is written;
        # the flag's default value of 1 is accepted
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "flag"
        assert main([command, str(cfg), "--out", str(out), "--sample-every", "3"]) == 1
        assert "sample_every" in capsys.readouterr().err
        assert not out.exists()
        keyed = write_cfg(tmp_path, text.replace("s = 4.0", "s = 4.0\nsample_every = 2"),
                          name="keyed.cfg")
        assert main([command, str(keyed), "--out", str(tmp_path / "key")]) == 1
        assert "sample_every" in capsys.readouterr().err
        assert main([command, str(cfg), "--out", str(tmp_path / "one"),
                     "--sample-every", "1"]) == 0

    @pytest.mark.parametrize("key, line", [("dt", "dt = 1e-300"),
                                           ("cfl_safety", "cfl_safety = 1e-300")],
                             ids=["dt", "cfl_safety"])
    def test_step_count_bounded(self, tmp_path, key, line):
        # each ran a run of over 1e6 steps, which did not end; a given dt is
        # rejected before anything is written, a default one when it is sized
        cfg = write_cfg(tmp_path, PAULI_BUMP.replace("T = 0.05", f"T = 0.05\n{line}"))
        out = tmp_path / "o"
        done = python("-m", "poisswell.cli", "run", str(cfg), "--out", str(out))
        assert done.returncode == 1
        assert key in done.stderr and "Traceback" not in done.stderr
        assert out.exists() == (key == "cfl_safety")

    def test_unwritable_output_dir(self, tmp_path):
        cfg = write_cfg(tmp_path, EULER_UNIFORM)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["run", str(cfg), "--out", str(blocker)]) == 1


@pytest.fixture(scope="module")
def ladder_out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ladder")
    cfg = write_cfg(tmp, LADDER)
    out = tmp / "out"
    code = main(["ladder", str(cfg), "--out", str(out)])
    return code, out


class TestLadderCommand:
    def test_exit_zero_and_slope(self, ladder_out):
        code, out = ladder_out
        assert code == EXIT_OK
        doc = json.loads((out / "report.json").read_text())
        assert doc["ladder"]["slopes"]["xs_error"] is not None
        assert (out / "timings.json").exists()

    def test_reports_deterministic(self, ladder_out, tmp_path):
        _, out = ladder_out
        cfg = write_cfg(tmp_path, LADDER)
        out2 = tmp_path / "out2"
        main(["ladder", str(cfg), "--out", str(out2)])
        assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_help_describes_the_ladder_and_every_flag(self, capsys):
        # each subcommand and flag has its own text: the ladder's is not the
        # run's with its name swapped in, and no flag's help is empty
        with pytest.raises(SystemExit) as done:
            main(["ladder", "--help"])
        assert done.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "run the epsilon ladder of a config file" in text
        assert "ladder an experiment" not in text
        assert "--threads N threads the ladder's rungs run on" in text
        assert "--sample-every K sample a pauli, wkb or euler run every K steps" in text


def test_ladder_warnings_in_report(tmp_path):
    # s = 3 is below the 7/2 hypothesis: every hydro run of the ladder warns,
    # and the report lists the message once; a warning-free ladder has no key
    cfg = write_cfg(tmp_path, LADDER.replace("s = 4.0", "s = 3.0")
                    .replace("epsilons = [0.4, 0.2, 0.1]", "epsilons = [0.4]"))
    out = tmp_path / "out"
    main(["ladder", str(cfg), "--out", str(out)])
    doc = json.loads((out / "report.json").read_text())["ladder"]
    assert doc["warnings"] == ["regularity s=3.0 below the 7/2 hypothesis"]


def test_no_warnings_key_in_clean_ladder(ladder_out):
    _, out = ladder_out
    assert "warnings" not in json.loads((out / "report.json").read_text())["ladder"]


def test_wigner_failure_exits_one(tmp_path, monkeypatch, capsys):
    # a slice that loses reality ends the run with a message, not a traceback
    from poisswell import harness

    real_slice = harness.wigner_slice

    def unreal_slice(*args, **kwargs):
        with monkeypatch.context() as m:
            fftn = np.fft.fftn
            m.setattr(np.fft, "fftn", lambda a, *p, **kw: 1j * fftn(a, *p, **kw))
            return real_slice(*args, **kwargs)

    monkeypatch.setattr(harness, "wigner_slice", unreal_slice)
    cfg = write_cfg(tmp_path, LADDER)
    assert main(["ladder", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "Wigner slice" in capsys.readouterr().err


def test_env_var_output_root(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, EULER_UNIFORM)
    target = tmp_path / "from-env"
    monkeypatch.setenv("POISSWELL_OUT", str(target))
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (target / "report.json").exists()


def test_reference_blowup_config(tmp_path):
    # configs/blowup.cfg: the N = 256 caustic trips the monitor after 67
    # samples, at t = 0.86275; every screened solve of the run enters it
    out = tmp_path / "out"
    assert main(["run", str(BLOWUP_CFG), "--out", str(out)]) == EXIT_BLOWUP
    summary = json.loads((out / "report.json").read_text())["summary"]
    assert summary["status"] == "blowup"
    assert summary["stop_reason"] == "monitor triggered"
    assert len((out / "diagnostics.jsonl").read_text().splitlines()) == 67
    assert summary["final_time"] == pytest.approx(0.86275, abs=1e-4)


@pytest.mark.parametrize("kind", sorted(ARTIFACTS))
def test_artifact_inventory(tmp_path, kind):
    # the directory holds the manifest and what it lists, nothing else; its
    # kinds and file names are those of the README's list, and no plot script
    cfg = write_cfg(tmp_path, SMALL_ANY_KIND.format(kind=kind))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == EXIT_OK
    entries = json.loads((out / "manifest.json").read_text())["artifacts"]
    listed = [e["path"] for e in entries]
    assert sorted(p.name for p in out.iterdir()) == sorted(listed + ["manifest.json"])
    expected = {"config": "config.txt", "report": "report.json", **ARTIFACTS[kind]}
    assert {e["kind"] for e in entries} == set(expected)
    for e in entries:
        assert re.fullmatch(expected[e["kind"]].replace("NNNN", r"\d{4}"), e["path"]), e
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for names in expected.values():
        assert all(f"`{name}`" in readme for name in names.split("|")), names
    assert not list(out.glob("*.gp"))


def test_cli_import_leaves_out_the_thread_pool():
    # only a ladder run with threads > 1 reads concurrent.futures
    done = python("-c", "import sys, poisswell.cli; print('concurrent.futures' in sys.modules)")
    assert done.returncode == 0 and done.stdout.strip() == "False"
