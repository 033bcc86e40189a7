"""
On-disk formats: PWF1 field snapshots, JSON-lines diagnostics streams,
CSV exports and the per-directory artifact manifest.

PWF1 layout (all integers little-endian uint32):

    magic "PWF1" | dim | size_1 .. size_dim | ncomp | rep

followed by ncomp * prod(size) little-endian float64 (re, im) pairs in
row-major order.  rep is 0 for physical space, 1 for spectral.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PoisswellError

MAGIC = b"PWF1"
REPRESENTATIONS = ("physical", "spectral")


@dataclass
class FieldSnapshot:
    """A field with its representation flag, as stored on disk."""

    data: np.ndarray  # (ncomp, *shape) complex
    rep: str = "physical"


def write_field(path, data, rep="physical"):
    """Write ``data`` of shape ``(ncomp, *shape)``; a scalar field is ``f[None]``."""
    data = np.asarray(data, dtype=complex)
    if data.ndim < 2:
        raise ValueError("a field needs shape (ncomp, *grid shape)")
    ncomp, shape = data.shape[0], data.shape[1:]
    if rep not in REPRESENTATIONS:
        raise ValueError(f"representation must be one of {REPRESENTATIONS}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(shape)))
        for n in shape:
            fh.write(struct.pack("<I", n))
        fh.write(struct.pack("<I", ncomp))
        fh.write(struct.pack("<I", REPRESENTATIONS.index(rep)))
        fh.write(np.ascontiguousarray(data, "<c16"))  # through its buffer, uncopied


def read_field(path) -> FieldSnapshot:
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise PoisswellError(f"{path}: not a PWF1 snapshot")
        try:
            (dim,) = struct.unpack("<I", fh.read(4))
            shape = tuple(struct.unpack("<I", fh.read(4))[0] for _ in range(dim))
            ncomp, rep_idx = struct.unpack("<2I", fh.read(8))
        except struct.error:
            raise PoisswellError(f"{path}: header cut short") from None
        if rep_idx >= len(REPRESENTATIONS):
            raise PoisswellError(f"{path}: unknown representation {rep_idx}")
        count = ncomp * int(np.prod(shape))
        raw = np.frombuffer(fh.read(count * 16), dtype="<c16")
        if raw.size != count:
            raise PoisswellError(f"{path}: truncated snapshot")
    # a copy in native order: writable, and every (re, im) bit pattern kept
    data = raw.astype(complex).reshape((ncomp,) + shape)
    return FieldSnapshot(data=data, rep=REPRESENTATIONS[rep_idx])


def write_jsonl(path, records):
    """One JSON object per line; dict keys sorted for reproducibility."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, allow_nan=True) + "\n")


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def records_to_csv(path, records):
    """Columnar CSV of diagnostics dictionaries (union of keys)."""
    keys = []
    for rec in records:
        for k in rec:
            if k not in keys:
                keys.append(k)
    keys.sort()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(keys) + "\n")
        for rec in records:
            row = []
            for k in keys:
                v = rec.get(k)
                row.append("" if v is None else f"{v:.12g}" if isinstance(v, float) else str(v))
            fh.write(",".join(row) + "\n")


class Manifest:
    """Single-writer registry of every artifact a run directory holds."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.entries = []

    def register(self, path, kind, **meta):
        rel = str(Path(path).relative_to(self.directory))
        self.entries.append({"path": rel, "kind": kind, **meta})
        return Path(path)

    def path(self, name, kind, **meta):
        return self.register(self.directory / name, kind, **meta)

    def write(self, extra=None):
        doc = {"artifacts": sorted(self.entries, key=lambda e: e["path"])}
        if extra:
            doc.update(extra)
        write_json(self.directory / "manifest.json", doc)
        return self.directory / "manifest.json"
