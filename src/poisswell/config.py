"""
Run configuration: a small sectioned key-value text format (typed scalars
and lists), its parser with first-error line reporting, the validated
RunConfig object, and the round-trip serializer.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .errors import ParseError, ValidationError
from .grid import Grid
from .initial_data import FAMILIES, make_initial_state
from .states import MAX_STEPS, SimParams, normalize_charge

KINDS = ("pauli", "wkb", "euler", "ladder", "spinor-vs-wkb", "monokinetic")
NORMALIZE = ("mean-density", "charge")


@dataclass
class RunConfig:
    kind: str = "wkb"
    points: tuple = (128,)
    lengths: Optional[tuple] = None
    epsilon: float = 0.1
    dt: Optional[float] = None
    T: float = 0.5
    s: float = 4.0
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
        """
        Convert and check each ``_KEYS`` entry in place, then the constraints
        that join several keys; the first failure raises a ValidationError
        that names its key.
        """
        for _, key, attr, convert, check in _KEYS:
            setattr(self, attr, _checked(key, getattr(self, attr), convert, check))
        if self.kind == "pauli" and self.epsilon == 0:
            raise ValidationError("the spinor solver needs epsilon > 0", key="epsilon")
        if self.dt is not None and self.T / self.dt > MAX_STEPS:
            raise ValidationError(f"T / dt must be <= {MAX_STEPS} steps, got {self.T / self.dt:.3g}",
                                  key="dt")
        if self.lengths is not None and len(self.lengths) != len(self.points):
            raise ValidationError("needs one length per grid axis", key="lengths")
        if self.kind in ("ladder", "monokinetic") and not self.epsilons:
            raise ValidationError("ladder needs an epsilon list", key="epsilons")
        if self.sample_every != 1 and self.kind in ("ladder", "monokinetic", "spinor-vs-wkb"):
            raise ValidationError(f"kind {self.kind!r} samples at the shared times T k / n_samples;"
                                  " it must be 1", key="sample_every")
        for p in self.base_points:
            idx = _as_tuple(p)
            if len(idx) > len(self.points) or not all(0 <= i < n for i, n in zip(idx, self.points)):
                raise ValidationError(f"base point {p} is not on the grid", key="base_points")
        accepted = set(inspect.signature(FAMILIES[self.family]).parameters) - {"grid", "epsilon"}
        unknown = sorted(set(self.family_options) - accepted)
        if unknown:
            raise ValidationError(f"family {self.family!r} takes no such option", key=unknown[0])
        for key, value in self.family_options.items():
            self.family_options[key] = _checked(key, value, *_OPTIONS[key])
        center = self.family_options.get("center")
        if center is not None and len(center) != len(self.points):
            raise ValidationError("needs one coordinate per grid axis", key="center")
        width = self.family_options.get("width", math.inf)  # a bump squares L / (2 pi width)
        if max(self.lengths or (2 * math.pi,)) / width > 1e150:
            raise ValidationError(f"must keep L / width <= 1e150, got {width!r}", key="width")
        return self

    # -- builders -------------------------------------------------------------

    def build_grid(self) -> Grid:
        return Grid(self.points, self.lengths)

    def sim_params(self, epsilon=None) -> SimParams:
        """The ``SimParams`` fields this config sets, ``epsilon`` in place of its own when given."""
        kw = {f.name: getattr(self, f.name) for f in fields(SimParams) if hasattr(self, f.name)}
        return SimParams(**kw) if epsilon is None else SimParams(**{**kw, "epsilon": epsilon})

    def build_initial(self, grid: Grid, epsilon=None):
        eps = self.epsilon if epsilon is None else epsilon
        state = make_initial_state(grid, self.family, eps, self.family_options)
        if self.normalize == "charge":
            state.a = normalize_charge(grid, state.a)
        return state

    def default_base_points(self, grid: Grid):
        """The base points padded to the grid's axes; by default a quarter, half and
        three quarters of the way along the first axis."""
        pts = self.base_points or tuple(k * grid.shape[0] // 4 for k in (1, 2, 3))
        return tuple(p + (0,) * (grid.dim - len(p)) for p in map(_as_tuple, pts))


# -- the key table --------------------------------------------------------------
#
# One row per config key: (section, key, RunConfig attribute, conversion,
# check).  The conversion raises TypeError naming what it expects; the check,
# when there is one, is (predicate, what it asks for) on the converted value.
# The parser accepts exactly these keys, and serialize_config writes them in
# this order.  The [initial] options a family takes are checked the same way,
# by name, from _OPTIONS.


def _checked(key, value, convert, check):
    """``value`` converted and checked, or a ValidationError naming ``key``."""
    try:
        value = convert(value)
    except TypeError as exc:
        raise ValidationError(f"expected {exc}, got {value!r}", key=key) from None
    if check is not None and value is not None and not check[0](value):
        raise ValidationError(f"must be {check[1]}, got {value!r}", key=key)
    return value


def _as_tuple(v):
    return tuple(v) if isinstance(v, (tuple, list)) else (v,)


def _is(kind, name, cast=None):
    """A conversion that takes a ``kind`` (a bool only where a bool is asked for)."""

    def convert(v):
        if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
            raise TypeError(name)
        return v if cast is None else cast(v)

    return convert


def _tuple(convert):
    return lambda v: tuple(convert(x) for x in _as_tuple(v))


def _optional(convert):
    return lambda v: None if v is None else convert(v)


def _index(v):
    return _tuple(_int)(v) if isinstance(v, (tuple, list)) else _int(v)


def _one_of(choices):
    return (lambda v: v in choices, "one of " + ", ".join(choices))


_int, _real = _is(numbers.Integral, "an integer", int), _is(numbers.Real, "a number", float)
_text, _bool = _is(str, "a string"), _is(bool, "true or false")
_POSITIVE, _AT_LEAST_1 = (lambda v: v > 0, "> 0"), (lambda v: v >= 1, ">= 1")

_KEYS = (
    ("run", "kind", "kind", _text, _one_of(KINDS)),
    ("run", "threads", "threads", _int, _AT_LEAST_1),
    ("grid", "points", "points", _tuple(_int),
     (lambda v: 1 <= len(v) <= 3 and all(n >= 4 and n % 2 == 0 for n in v),
      "1 to 3 even sizes >= 4")),
    ("grid", "lengths", "lengths", _optional(_tuple(_real)),
     (lambda v: all(0 < L < math.inf for L in v), "positive and finite")),
    # a spinor sample's energy squares eps
    ("params", "epsilon", "epsilon", _real, (lambda v: 0 <= v <= 1e150, "in [0, 1e150]")),
    ("params", "dt", "dt", _optional(_real), _POSITIVE),
    ("params", "T", "T", _real, (lambda v: 0 <= v < math.inf, ">= 0 and finite")),
    ("params", "s", "s", _real, _AT_LEAST_1),
    ("params", "cfl_safety", "cfl_safety", _real, (lambda v: 0 < v <= 1, "in (0, 1]")),
    ("params", "sample_every", "sample_every", _int, _AT_LEAST_1),
    ("params", "magnetic", "magnetic", _bool, None),
    ("params", "coupling", "coupling", _bool, None),
    ("params", "normalize", "normalize", _text, _one_of(NORMALIZE)),
    ("initial", "family", "family", _text, _one_of(tuple(FAMILIES))),
    ("ladder", "epsilons", "epsilons", _tuple(_real),
     (lambda v: all(e > 0 for e in v) and all(b < a for a, b in zip(v, v[1:])),
      "positive and decreasing")),
    ("ladder", "samples", "ladder_samples", _int, _AT_LEAST_1),
    ("wigner", "base_points", "base_points", _tuple(_index), None),
    ("thresholds", "ratio", "threshold_ratio", _real, _POSITIVE),
    ("thresholds", "tail", "threshold_tail", _real, (lambda v: 0 <= v <= 1, "in [0, 1]")),
    ("output", "directory", "out_dir", _optional(_text), None),
)
_BY_KEY = {(section, key.lower()): attr for section, key, attr, _, _ in _KEYS}

_FINITE = (math.isfinite, "finite")
_OPTIONS = {
    "amplitude": (_real, _FINITE),
    "width": (_real, (lambda v: 0 < v < math.inf, "> 0 and finite")),
    "center": (_optional(_tuple(_real)), (lambda v: all(map(math.isfinite, v)), "finite")),
    "phase_amplitude": (_real, _FINITE),
    "spin_angle": (_real, _FINITE),
    "modes": (_tuple(_int), (lambda v: 1 <= len(v) <= 3, "1 to 3 integers")),
    "beta": (_real, _FINITE),
}


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
    """A scalar, or a bracketed list of values split at its top-level commas."""
    raw = raw.strip()
    if not raw.startswith("["):
        return _parse_scalar(raw, lineno)
    if not raw.endswith("]"):
        raise ParseError("unterminated list", line=lineno)
    if not raw[1:-1].strip():
        return ()
    items, depth = [""], 0
    for ch in raw[1:-1]:
        depth += (ch == "[") - (ch == "]")
        if ch == "," and depth == 0:
            items.append("")
        else:
            items[-1] += ch
    return tuple(_parse_value(tok, lineno) for tok in items)


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

    cfg = RunConfig()
    known = {section for section, _ in _BY_KEY}
    for name, entries in sections.items():
        if name not in known:
            raise ValidationError(f"unknown section [{name}]", key=name)
        for key, value in entries.items():
            if name == "initial" and key != "family":
                cfg.family_options[key] = value  # checked against the family's signature
            elif (name, key) in _BY_KEY:
                setattr(cfg, _BY_KEY[name, key], value)
            else:
                raise ValidationError(f"unknown key in [{name}]", key=key)
    return cfg.validate()


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "[" + ", ".join(_fmt(x) for x in v) + "]"
    if isinstance(v, str):
        return f'"{v}"'
    if v is None:
        return "none"
    return repr(v)


def serialize_config(cfg: RunConfig) -> str:
    """
    Emit text that parses back to an equal RunConfig: the ``_KEYS`` in table
    order with the family's options after ``family``.  A key whose value is
    None is left out, and so is a whole section whose first key is None or
    empty ([ladder] without epsilons, [wigner], [output]).
    """
    lines, current, skip = [], None, False
    for section, key, attr, _, _ in _KEYS:
        value = getattr(cfg, attr)
        empty = value is None or value == ()
        if section != current:
            current, skip = section, empty
            if not skip:
                lines += ["", f"[{section}]"] if lines else [f"[{section}]"]
        if skip or empty:
            continue
        lines.append(f"{key} = {_fmt(value)}")
        if attr == "family":
            lines += [f"{k} = {_fmt(cfg.family_options[k])}" for k in sorted(cfg.family_options)]
    return "\n".join(lines) + "\n"


def config_as_dict(cfg: RunConfig):
    """The config's fields for a JSON report, each base point as a list."""
    return {**asdict(cfg), "base_points": [list(_as_tuple(p)) for p in cfg.base_points]}
