"""
Run configuration: a small sectioned key-value text format (typed scalars
and lists), its parser with first-error line reporting, the validated
RunConfig object, and the round-trip serializer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .errors import ParseError, ValidationError
from .grid import Grid
from .initial_data import FAMILIES, make_initial_state
from .states import SimParams

KINDS = ("pauli", "wkb", "euler", "ladder", "spinor-vs-wkb", "monokinetic")

_PARAMS_KEYS = (
    "epsilon",
    "dt",
    "t",
    "s",
    "mu",
    "mu1",
    "mu2",
    "cfl_safety",
    "sample_every",
    "magnetic",
    "coupling",
    "normalize",
)

# The keys each section accepts.  [initial] holds the family and its
# options, which RunConfig.validate checks against _FAMILY_OPTION_KEYS.
_SECTION_KEYS = {
    "run": {"kind", "threads"},
    "grid": {"points", "lengths"},
    "params": set(_PARAMS_KEYS),
    "initial": None,
    "ladder": {"epsilons", "samples"},
    "wigner": {"base_points"},
    "thresholds": {"ratio", "tail"},
    "output": {"directory"},
}

_FAMILY_OPTION_KEYS = {
    "amplitude",
    "width",
    "center",
    "phase_amplitude",
    "spin_angle",
    "beta",
    "modes",
}


@dataclass
class RunConfig:
    kind: str = "wkb"
    points: tuple = (128,)
    lengths: Optional[tuple] = None
    epsilon: float = 0.1
    dt: Optional[float] = None
    T: float = 0.5
    s: float = 4.0
    mu: float = 1.0
    mu1: float = 1.0
    mu2: float = 1.0
    cfl_safety: float = 0.4
    sample_every: int = 1
    magnetic: bool = True
    coupling: bool = True
    family: str = "gaussian-bump"
    family_options: dict = field(default_factory=dict)
    normalize: str = "mean-density"
    epsilons: tuple = ()
    ladder_samples: int = 15
    base_points: tuple = ()
    threshold_ratio: float = 100.0
    threshold_tail: float = 0.10
    out_dir: Optional[str] = None
    threads: int = 1

    def validate(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}", key="kind")
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0", key="epsilon")
        if self.kind == "pauli" and self.epsilon == 0:
            raise ValidationError("the spinor solver needs epsilon > 0", key="epsilon")
        if self.dt is not None and self.dt <= 0:
            raise ValidationError("dt must be > 0", key="dt")
        if self.T < 0:
            raise ValidationError("T must be >= 0", key="T")
        if self.family not in FAMILIES:
            raise ValidationError(
                f"unknown initial-data family {self.family!r}", key="family"
            )
        if not 1 <= len(self.points) <= 3:
            raise ValidationError("grid needs 1 to 3 axes", key="points")
        if self.kind in ("ladder", "monokinetic"):
            if not self.epsilons:
                raise ValidationError("ladder needs an epsilon list", key="epsilons")
            if any(b >= a for a, b in zip(self.epsilons, self.epsilons[1:])):
                raise ValidationError(
                    "epsilon list must be decreasing", key="epsilons"
                )
            if any(e <= 0 for e in self.epsilons):
                raise ValidationError("ladder epsilons must be > 0", key="epsilons")
        if self.normalize not in ("mean-density", "charge", "raw"):
            raise ValidationError("normalize must be mean-density|charge|raw", key="normalize")
        if self.threads < 1:
            raise ValidationError("threads must be >= 1", key="threads")
        if self.sample_every < 1:
            raise ValidationError("sample_every must be >= 1", key="sample_every")
        if self.sample_every != 1 and self.kind in ("ladder", "monokinetic", "spinor-vs-wkb"):
            raise ValidationError(f"kind {self.kind!r} samples at the shared times T k / n_samples;"
                                  " it must be 1", key="sample_every")
        unknown = set(self.family_options) - _FAMILY_OPTION_KEYS
        if unknown:
            raise ValidationError(
                f"unknown initial-data options {sorted(unknown)}", key="initial"
            )
        return self

    # -- builders -------------------------------------------------------------

    def build_grid(self) -> Grid:
        return Grid(tuple(self.points), None if self.lengths is None else tuple(self.lengths))

    def sim_params(self, epsilon=None, **overrides) -> SimParams:
        kw = dict(
            epsilon=self.epsilon if epsilon is None else epsilon,
            dt=self.dt,
            T=self.T,
            s=self.s,
            mu=self.mu,
            mu1=self.mu1,
            mu2=self.mu2,
            cfl_safety=self.cfl_safety,
            sample_every=self.sample_every,
            magnetic=self.magnetic,
            coupling=self.coupling,
        )
        kw.update(overrides)
        return SimParams(**kw)

    def build_initial(self, grid: Grid, epsilon=None):
        eps = self.epsilon if epsilon is None else epsilon
        opts = dict(self.family_options)
        if self.family == "plane-wave" and "modes" in opts:
            opts["modes"] = tuple(int(m) for m in np.atleast_1d(opts["modes"]))
        state = make_initial_state(grid, self.family, eps, opts)
        if self.normalize == "charge":
            from .states import normalize_charge

            state.a = normalize_charge(grid, state.a)
        return state

    def default_base_points(self, grid: Grid):
        if self.base_points:
            pts = []
            for p in self.base_points:
                idx = tuple(int(v) for v in np.atleast_1d(p))
                idx = idx + (0,) * (grid.dim - len(idx))
                pts.append(idx)
            return tuple(pts)
        n = grid.shape[0]
        return ((n // 4,) + (0,) * (grid.dim - 1),
                (n // 2,) + (0,) * (grid.dim - 1),
                (3 * n // 4,) + (0,) * (grid.dim - 1))


# -- text format ---------------------------------------------------------------


def _parse_scalar(token, lineno):
    t = token.strip()
    if not t:
        raise ParseError("empty value", line=lineno)
    if t.startswith('"') and t.endswith('"') and len(t) >= 2:
        return t[1:-1]
    low = t.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null"):
        return None
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def _parse_value(raw, lineno):
    raw = raw.strip()
    if raw.startswith("["):
        if not raw.endswith("]"):
            raise ParseError("unterminated list", line=lineno)
        inner = raw[1:-1].strip()
        if not inner:
            return ()
        return tuple(_parse_scalar(tok, lineno) for tok in inner.split(","))
    return _parse_scalar(raw, lineno)


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ParseError (with line) or ValidationError."""
    sections = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("malformed section header", line=lineno)
            current = stripped[1:-1].strip().lower()
            if not current:
                raise ParseError("empty section name", line=lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in stripped:
            raise ParseError("expected key = value", line=lineno)
        if current is None:
            raise ParseError("key outside any section", line=lineno)
        key, _, raw = stripped.partition("=")
        key = key.strip().lower().replace("-", "_")
        if not key:
            raise ParseError("empty key", line=lineno)
        if key in sections[current]:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        sections[current][key] = _parse_value(raw, lineno)

    for name, entries in sections.items():
        if name not in _SECTION_KEYS:
            raise ValidationError(f"unknown section [{name}]", key=name)
        known = _SECTION_KEYS[name]
        unknown = sorted(set(entries) - known) if known is not None else []
        if unknown:
            raise ValidationError(f"unknown key in [{name}]", key=unknown[0])

    cfg = RunConfig()
    run = sections.get("run", {})
    for k in ("kind", "threads"):
        if k in run:
            setattr(cfg, k, run[k])
    g = sections.get("grid", {})
    if "points" in g:
        pts = g["points"]
        cfg.points = tuple(pts) if isinstance(pts, tuple) else (pts,)
    if "lengths" in g:
        lg = g["lengths"]
        cfg.lengths = tuple(float(v) for v in (lg if isinstance(lg, tuple) else (lg,)))
    p = sections.get("params", {})
    for k in _PARAMS_KEYS:
        if k in p:
            setattr(cfg, "T" if k == "t" else k, p[k])
    init = sections.get("initial", {})
    if "family" in init:
        cfg.family = init["family"]
    cfg.family_options = {k: v for k, v in init.items() if k != "family"}
    lad = sections.get("ladder", {})
    if "epsilons" in lad:
        eps = lad["epsilons"]
        cfg.epsilons = tuple(float(v) for v in (eps if isinstance(eps, tuple) else (eps,)))
    if "samples" in lad:
        cfg.ladder_samples = int(lad["samples"])
    wig = sections.get("wigner", {})
    if "base_points" in wig:
        bp = wig["base_points"]
        cfg.base_points = tuple(bp) if isinstance(bp, tuple) else (bp,)
    th = sections.get("thresholds", {})
    if "ratio" in th:
        cfg.threshold_ratio = float(th["ratio"])
    if "tail" in th:
        cfg.threshold_tail = float(th["tail"])
    out = sections.get("output", {})
    if "directory" in out:
        cfg.out_dir = out["directory"]
    return cfg.validate()


def serialize_config(cfg: RunConfig) -> str:
    """Emit text that parses back to an equal RunConfig."""

    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, tuple):
            return "[" + ", ".join(fmt(x) for x in v) + "]"
        if isinstance(v, str):
            return f'"{v}"'
        if v is None:
            return "none"
        return repr(v)

    lines = ["[run]"]
    lines.append(f"kind = {fmt(cfg.kind)}")
    lines.append(f"threads = {cfg.threads}")
    lines += ["", "[grid]", f"points = {fmt(tuple(cfg.points))}"]
    if cfg.lengths is not None:
        lines.append(f"lengths = {fmt(tuple(cfg.lengths))}")
    lines += ["", "[params]"]
    lines.append(f"epsilon = {cfg.epsilon!r}")
    if cfg.dt is not None:
        lines.append(f"dt = {cfg.dt!r}")
    lines.append(f"T = {cfg.T!r}")
    lines.append(f"s = {cfg.s!r}")
    for k in ("mu", "mu1", "mu2", "cfl_safety"):
        lines.append(f"{k} = {getattr(cfg, k)!r}")
    lines.append(f"sample_every = {cfg.sample_every}")
    lines.append(f"magnetic = {fmt(cfg.magnetic)}")
    lines.append(f"coupling = {fmt(cfg.coupling)}")
    lines.append(f"normalize = {fmt(cfg.normalize)}")
    lines += ["", "[initial]", f"family = {fmt(cfg.family)}"]
    for k in sorted(cfg.family_options):
        lines.append(f"{k} = {fmt(cfg.family_options[k])}")
    if cfg.epsilons:
        lines += ["", "[ladder]", f"epsilons = {fmt(tuple(cfg.epsilons))}"]
        lines.append(f"samples = {cfg.ladder_samples}")
    if cfg.base_points:
        lines += ["", "[wigner]", f"base_points = {fmt(tuple(cfg.base_points))}"]
    lines += ["", "[thresholds]"]
    lines.append(f"ratio = {cfg.threshold_ratio!r}")
    lines.append(f"tail = {cfg.threshold_tail!r}")
    if cfg.out_dir is not None:
        lines += ["", "[output]", f"directory = {fmt(cfg.out_dir)}"]
    return "\n".join(lines) + "\n"


def config_as_dict(cfg: RunConfig):
    d = asdict(cfg)
    d["points"] = [int(n) for n in cfg.points]
    d["epsilons"] = [float(e) for e in cfg.epsilons]
    d["base_points"] = [
        [int(v) for v in np.atleast_1d(p)] for p in cfg.base_points
    ]
    if cfg.lengths is not None:
        d["lengths"] = [float(v) for v in cfg.lengths]
    return d
