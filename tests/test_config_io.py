import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from poisswell.config import _KEYS, RunConfig, parse_config, serialize_config
from poisswell.errors import ParseError, PoisswellError, ValidationError
from poisswell.grid import Grid
from poisswell.io import (
    Manifest,
    read_field,
    records_to_csv,
    write_field,
    write_jsonl,
)

from conftest import random_band_limited

MINIMAL = """
[run]
kind = wkb

[grid]
points = [64]
"""

LADDER = """
[run]
kind = ladder

[grid]
points = [128]

[params]
epsilon = 0.1
T = 0.3

[initial]
family = gaussian-bump
amplitude = 0.2

[ladder]
epsilons = [0.4, 0.2, 0.1]
"""


class TestParse:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.kind == "wkb"
        assert cfg.points == (64,)
        assert cfg.epsilon == 0.1
        assert cfg.T == 0.5
        assert cfg.family == "gaussian-bump"

    def test_ladder_config(self):
        cfg = parse_config(LADDER)
        assert cfg.kind == "ladder"
        assert cfg.epsilons == (0.4, 0.2, 0.1)
        assert cfg.family_options == {"amplitude": 0.2}

    def test_negative_epsilon_names_key(self):
        bad = MINIMAL + "\n[params]\nepsilon = -1\n"
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert "epsilon" in str(err.value)

    def test_increasing_ladder_rejected(self):
        bad = LADDER.replace("[0.4, 0.2, 0.1]", "[0.1, 0.2]")
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert "decreasing" in str(err.value)

    @pytest.mark.parametrize("kind", ["ladder", "monokinetic", "spinor-vs-wkb"])
    def test_sample_every_rejected_for_shared_sample_kinds(self, kind):
        # these kinds sample at T k / n_samples; a sample_every would be ignored
        text = LADDER.replace("kind = ladder", f"kind = {kind}")
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg
        with pytest.raises(ValidationError) as err:
            parse_config(text.replace("T = 0.3", "T = 0.3\nsample_every = 2"))
        assert err.value.key == "sample_every"
        assert "sample_every" in str(err.value)

    def test_parse_error_carries_line(self):
        bad = "[run]\nkind = wkb\nthis line is junk\n"
        with pytest.raises(ParseError) as err:
            parse_config(bad)
        assert err.value.line == 3

    def test_unknown_family(self):
        bad = MINIMAL + "\n[initial]\nfamily = vortex\n"
        with pytest.raises(ValidationError):
            parse_config(bad)

    def test_misspelled_key_rejected(self):
        bad = MINIMAL + "\n[params]\ncfl_saftey = 0.9\n"
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert err.value.key == "cfl_saftey"
        assert "[params]" in str(err.value)

    def test_run_out_dir_rejected(self):
        # the output directory has one key, [output] directory
        with pytest.raises(ValidationError) as err:
            parse_config('[run]\nkind = wkb\nout_dir = "out"\n')
        assert err.value.key == "out_dir"
        assert "out_dir" in str(err.value)

    @pytest.mark.parametrize("key", ["mu", "mu1", "mu2"])
    def test_removed_weight_keys_rejected(self, key):
        # the functional weights are no longer config keys; they stay 1
        with pytest.raises(ValidationError) as err:
            parse_config(MINIMAL + f"\n[params]\n{key} = 2.0\n")
        assert err.value.key == key
        assert key in str(err.value)

    def test_unknown_section_rejected(self):
        bad = MINIMAL + "\n[param]\nepsilon = 0.2\n"
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert err.value.key == "param"

    def test_unknown_family_option_rejected(self):
        bad = MINIMAL + "\n[initial]\nfamily = gaussian-bump\nampltude = 0.2\n"
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert "ampltude" in str(err.value)

    @pytest.mark.parametrize("key, line", [
        ("width", "width = 0"),
        ("amplitude", 'amplitude = "abc"'),
        ("center", "center = [1.0]"),
    ])
    def test_bad_family_option_value_names_key(self, key, line, tmp_path, capsys):
        # each once ended in a traceback from the family (ZeroDivisionError,
        # numpy's UFuncNoLoopError, IndexError on the 2-d grid); now the
        # parse names the key and `poisswell run` exits 1
        from poisswell.cli import main

        bad = ("[run]\nkind = wkb\n\n[grid]\npoints = [16, 16]\n\n"
               f"[initial]\nfamily = gaussian-bump\n{line}\n")
        with pytest.raises(ValidationError) as err:
            parse_config(bad)
        assert err.value.key == key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(bad, encoding="utf-8")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"{key}:" in err and "Traceback" not in err

    def test_every_family_option_has_a_check(self):
        import inspect

        from poisswell.config import _OPTIONS
        from poisswell.initial_data import FAMILIES

        for family in FAMILIES.values():
            options = set(inspect.signature(family).parameters) - {"grid", "epsilon"}
            assert options <= set(_OPTIONS)

    def test_duplicate_key_rejected(self):
        bad = "[run]\nkind = wkb\nkind = euler\n"
        with pytest.raises(ParseError):
            parse_config(bad)

    def test_comments_and_blank_lines(self):
        text = "# heading\n\n[run]\nkind = euler  # inline\n\n[grid]\npoints = [32]\n"
        cfg = parse_config(text)
        assert cfg.kind == "euler"

    def test_roundtrip(self):
        for text in (MINIMAL, LADDER):
            cfg = parse_config(text)
            again = parse_config(serialize_config(cfg))
            assert again == cfg

    def test_roundtrip_rich_config(self):
        cfg = RunConfig(
            kind="monokinetic",
            points=(128,),
            lengths=(2 * np.pi,),
            epsilon=0.05,
            dt=1e-3,
            T=0.25,
            family="gaussian-bump",
            family_options={"amplitude": 0.3, "width": 0.7},
            epsilons=(0.2, 0.1, 0.05),
            base_points=(32, 64, 96),
            out_dir="out",
            magnetic=False,
        ).validate()
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_roundtrip_every_key_non_default(self):
        cfg = RunConfig(
            kind="pauli",
            points=(16, 32),
            lengths=(1.5, 3.0),
            epsilon=0.3,
            dt=2e-3,
            T=0.7,
            s=5.5,
            cfl_safety=0.25,
            sample_every=3,
            magnetic=False,
            coupling=False,
            normalize="charge",
            family="plane-wave",
            family_options={"modes": (1, 2)},
            epsilons=(0.3, 0.1),
            ladder_samples=7,
            base_points=((1, 2), 5),
            threshold_ratio=20.0,
            threshold_tail=0.25,
            out_dir="elsewhere",
        ).validate()
        default = RunConfig()
        # [run] threads takes no value but its default, 1
        assert all(getattr(cfg, attr) != getattr(default, attr)
                   for _, key, attr, _, _ in _KEYS if key != "threads")
        text = serialize_config(cfg)
        assert "base_points = [[1, 2], 5]" in text
        assert parse_config(text) == cfg

    @given(
        kind=st.sampled_from(["wkb", "euler", "pauli"]),
        eps=st.floats(min_value=1e-3, max_value=2.0),
        T=st.floats(min_value=0.0, max_value=5.0),
        n=st.sampled_from([16, 32, 64, 128]),
        magnetic=st.booleans(),
        sample_every=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, kind, eps, T, n, magnetic, sample_every):
        cfg = RunConfig(
            kind=kind,
            points=(n,),
            epsilon=eps,
            T=T,
            magnetic=magnetic,
            sample_every=sample_every,
        ).validate()
        assert parse_config(serialize_config(cfg)) == cfg


class TestFieldFormat:
    def test_roundtrip_spinor(self, rng, tmp_path):
        g = Grid((32, 16))
        psi = random_band_limited(g, rng, components=2, complex_=True)
        path = tmp_path / "field.pwf"
        write_field(path, psi)
        snap = read_field(path)
        assert snap.rep == "physical"
        assert snap.data.shape == (2, 32, 16)
        assert np.max(np.abs(snap.data - psi)) < 1e-15

    @given(
        data=st.sampled_from([np.float64, np.complex128]).flatmap(
            lambda dtype: hnp.arrays(
                dtype,
                st.tuples(st.integers(1, 3), hnp.array_shapes(min_dims=1, max_dims=3, max_side=5))
                .map(lambda c_shape: (c_shape[0],) + c_shape[1]),
            )
        ),
        rep=st.sampled_from(["physical", "spectral"]),
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_roundtrip_property(self, tmp_path, data, rep):
        # 1-3 components of a 1-3d field, real or complex, any float values
        # (signed zeros, infinities, NaNs): the complex128 bits come back
        path = tmp_path / "property.pwf"
        write_field(path, data, rep=rep)
        snap = read_field(path)
        assert snap.rep == rep
        assert snap.data.shape == data.shape
        assert snap.data.dtype == np.complex128
        assert snap.data.tobytes() == data.astype(np.complex128).tobytes()

    def test_roundtrip_scalar(self, rng, tmp_path):
        g = Grid((64,))
        f = random_band_limited(g, rng)
        p = tmp_path / "scalar.pwf"
        write_field(p, f[None])
        snap = read_field(p)
        assert snap.data.shape == (1, 64)
        assert np.max(np.abs(snap.data[0] - f)) < 1e-15

    def test_first_axis_is_components(self, tmp_path):
        # six components of a 1d field, not a 2d scalar field
        p = tmp_path / "six.pwf"
        write_field(p, np.zeros((6, 8)))
        assert read_field(p).data.shape == (6, 8)

    def test_bare_1d_array_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_field(tmp_path / "bare.pwf", np.zeros(8))

    def test_header_magic(self, tmp_path):
        p = tmp_path / "x.pwf"
        write_field(p, np.zeros((3, 8, 8), dtype=complex), rep="spectral")
        raw = p.read_bytes()
        assert raw[:4] == b"PWF1"
        snap = read_field(p)
        assert snap.rep == "spectral"

    def test_not_a_snapshot(self, tmp_path):
        p = tmp_path / "bogus.pwf"
        p.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(PoisswellError):
            read_field(p)


    @pytest.mark.parametrize("corrupt", ["representation", "cut short"])
    def test_corrupt_header_names_the_file(self, tmp_path, corrupt):
        # a 4x4 field's header is magic, dim, two sizes, ncomp and rep: 24 bytes
        p = tmp_path / "x.pwf"
        write_field(p, np.zeros((1, 4, 4), dtype=complex))
        raw = p.read_bytes()
        if corrupt == "representation":
            raw = raw[:20] + struct.pack("<I", 2) + raw[24:]
        else:
            raw = raw[:14]
        p.write_bytes(raw)
        with pytest.raises(PoisswellError, match=re.escape(str(p))):
            read_field(p)


class TestJsonlManifest:
    def test_jsonl_roundtrip(self, tmp_path):
        p = tmp_path / "records.jsonl"
        docs = [{"t": 0.0, "charge": 1.0}, {"t": 0.1, "charge": 1.0, "energy": None}]
        write_jsonl(p, docs)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == docs

    def test_csv_union_of_keys(self, tmp_path):
        p = tmp_path / "records.csv"
        records_to_csv(p, [{"a": 1.0}, {"b": 2.0, "a": 3.0}])
        lines = p.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,"

    def test_manifest_registers_everything(self, tmp_path):
        m = Manifest(tmp_path)
        m.path("one.json", "report")
        m.path("two.csv", "csv")
        mpath = m.write()
        doc = json.loads(mpath.read_text())
        paths = {e["path"] for e in doc["artifacts"]}
        assert paths == {"one.json", "two.csv"}
