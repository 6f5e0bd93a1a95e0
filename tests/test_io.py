import csv
import json
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from torns import io as tio, spectral
from torns.dynamics import State, check_assumption, ensemble, integrate, taylor_green, trajectory
from torns.io import (
    ConfigError,
    emit_plot_script,
    load_config,
    normalize_config,
    read_checkpoint,
    write_checkpoint,
    write_manifest,
    write_rows_csv,
)
from torns.noise import OUPath, WienerPath, ou_from_wiener, sample_wiener
from torns.spectral import WaveGrid
from tests.oracle import leray_project, random_divfree_field, taylor_green_velocity

TWO_PI = 2.0 * math.pi


def state_of(t, u, z=0.0):
    """The State of velocity u: its vorticity row, as every State holds."""
    half = spectral.HalfSpectrum(u.grid)
    return State(t, half.curl(u), z, half)


def minimal_config(**kw):
    raw = {"nu": 1.0, "N": 16, "dt": 1e-3}
    raw.update(kw)
    return raw


class TestLoadConfig:
    def test_minimal_fills_defaults(self):
        cfg = load_config(minimal_config())
        assert cfg.scheme == "etd2"
        assert cfg.stride == 10
        assert cfg.grid.L == pytest.approx(TWO_PI)
        assert not cfg.fw.any() and not cfg.hw.any()

    def test_accepts_json_text(self):
        cfg = load_config(json.dumps(minimal_config(seed=7)))
        assert cfg.seed == 7

    def test_rejects_odd_N_naming_field(self):
        with pytest.raises(ConfigError) as exc:
            load_config(minimal_config(N=7))
        assert str(exc.value).startswith("N:")

    @pytest.mark.parametrize("field,value", [("nu", 0.0), ("dt", -1.0), ("L", 0.0), ("stride", 0)])
    def test_rejects_nonpositive(self, field, value):
        with pytest.raises(ConfigError) as exc:
            load_config(minimal_config(**{field: value}))
        assert str(exc.value).startswith(field)

    def test_rejects_unknown_field(self):
        with pytest.raises(ConfigError) as exc:
            load_config(minimal_config(viscosity=1.0))
        assert "viscosity" in str(exc.value)

    @pytest.mark.parametrize("role,spec,field", [
        ("noise", {"preset": "random", "nrom": 0.05, "seed": 11}, "noise.nrom"),
        ("noise", {"preset": "zero", "norm": 0.05}, "noise.norm"),
        ("forcing", {"norm": 0.05}, "forcing.norm"),
        ("initial", {"preset": "taylor-green", "seed": 1}, "initial.seed"),
        ("forcing", {"preset": "manufactured", "norm": 0.5, "seeds": 1}, "forcing.seeds"),
        ("forcing", {"modes": [{"j": [1, 0], "v": [1.0, 0.0]}], "preset": "zero"}, "forcing.preset"),
        ("forcing", {"modes": [{"j": [1, 0], "v": [1.0, 0.0], "w": [1.0, 0.0]}]}, "forcing.modes[0].w"),
    ])
    def test_rejects_unknown_field_in_a_field_spec(self, role, spec, field):
        # a misspelled key was dropped: "nrom" gave an h of the default norm 1, 20 times 0.05
        with pytest.raises(ConfigError) as exc:
            load_config(minimal_config(**{role: spec}))
        assert (exc.value.field, str(exc.value)) == (field, f"{field}: unknown field")

    @pytest.mark.parametrize("role, spec", [
        ("noise", {"preset": "random", "norm": -0.5, "seed": 1}),
        ("initial", {"preset": "random", "norm": -0.5, "seed": 1}),
        ("forcing", {"preset": "manufactured", "norm": -0.5, "seed": 1}),
    ])
    def test_negative_norm_is_config_error(self, role, spec):
        # a norm is the field's L2 norm: -0.5 used to load a field of norm 0.5, its sign flipped
        with pytest.raises(ConfigError) as exc:
            load_config(minimal_config(**{role: spec}))
        assert str(exc.value) == f"{role}.norm: expected a finite number >= 0, got -0.5"
        # a norm of 0 is a zero field
        cfg = load_config(minimal_config(**{role: dict(spec, norm=0)}))
        assert not (cfg.fw.any() or cfg.hw.any() or cfg.w0.any())

    def test_rejects_bad_json(self):
        with pytest.raises(ConfigError):
            load_config("{not json")

    def test_taylor_green_preset(self):
        cfg = load_config({"preset": "taylor-green"})
        assert cfg.grid.L == pytest.approx(TWO_PI)
        assert not cfg.fw.any() and not cfg.hw.any()
        assert cfg.w0.tobytes() == taylor_green(0.0, cfg.nu, cfg.grid).tobytes()
        expected = taylor_green_velocity(0.0, cfg.nu, cfg.grid)
        assert np.abs(cfg.u0.coeffs - expected.coeffs).max() < 1e-14

    def test_preset_keys_can_be_overridden(self):
        cfg = load_config({"preset": "taylor-green", "nu": 0.25})
        assert cfg.nu == 0.25

    def test_mode_list_forcing(self):
        raw = minimal_config(forcing={"modes": [{"j": [1, 0], "v": [1.0, 0.0]}]})
        cfg = load_config(raw)
        # transverse single mode survives projection, Hermitian pair present
        f = spectral.HalfSpectrum(cfg.grid).velocity(cfg.fw)
        assert f.coeffs[1, 1, 0] == pytest.approx(0.5)
        assert f.coeffs[1, -1 % 16, 0] == pytest.approx(0.5)
        from torns.spectral import field_violations

        assert field_violations(f) == []

    @pytest.mark.parametrize("L", [TWO_PI, 1.0, 3.0])
    @pytest.mark.parametrize("N", [16, 32])
    def test_mode_list_row_is_the_curl_of_the_projected_velocity(self, N, L):
        # the row is written entry by entry as curls; the oracle builds the velocity the
        # list names, Hermitian-symmetrized, Leray-projects it and curls it.  Entries with
        # a gradient part round differently: 7.5e-17 of max |w| at most, measured on these
        modes = [{"j": [1, 2], "u": [0.3, 0.1], "v": [-0.2, 0.4]}, {"j": [0, 4], "u": [0.0, -1.0]},
                 {"j": [-3, -1], "u": [0.5, 0.0]}, {"j": [2, 0], "u": [0.25, 0.5], "v": [0.1, -0.7]},
                 {"j": [1, 2], "v": [0.05, 0.0]}, {"j": [-4, 3], "u": [-0.6, 0.2], "v": [0.3, 0.3]},
                 {"j": [-2, 0], "u": [0.1, 0.1]}]
        cfg = load_config(minimal_config(N=N, L=L, initial={"modes": modes}))
        coeffs = np.zeros((2, N, N), dtype=np.complex128)
        for entry in modes:
            jx, jy = entry["j"]
            for c, key in enumerate("uv"):
                val = complex(*entry.get(key, [0.0, 0.0]))
                coeffs[c, jx % N, jy % N] += 0.5 * val
                coeffs[c, -jx % N, -jy % N] += 0.5 * val.conjugate()
        expected = spectral.HalfSpectrum(cfg.grid).curl(leray_project(spectral.SpectralField(cfg.grid, coeffs)))
        assert np.abs(cfg.w0 - expected).max() <= 2.2e-16 * np.abs(expected).max()

    def test_mode_list_bad_j_reports_path(self):
        raw = minimal_config(forcing={"modes": [{"j": [1], "v": [1.0, 0.0]}]})
        with pytest.raises(ConfigError) as exc:
            load_config(raw)
        assert "forcing.modes[0].j" in str(exc.value)

    def test_mode_outside_lattice_rejected(self):
        raw = minimal_config(forcing={"modes": [{"j": [9, 0], "v": [1.0, 0.0]}]})
        with pytest.raises(ConfigError):
            load_config(raw)

    @pytest.mark.parametrize("field", ["forcing", "initial"])
    def test_mode_outside_mask_reports_path(self, field):
        # j = (6, 0) lies on the N = 16 lattice but outside the mask 3|j| < 16
        raw = minimal_config(**{field: {"modes": [{"j": [1, 1], "u": [0.2, 0.0]},
                                                  {"j": [6, 0], "v": [1.0, 0.0]}]}})
        with pytest.raises(ConfigError) as exc:
            load_config(raw)
        assert exc.value.field == f"{field}.modes[1].j"

    @pytest.mark.parametrize("role", ["forcing", "noise", "initial"])
    def test_mean_mode_rejected_naming_entry(self, role):
        # the mean lies outside the state space; such an entry used to be dropped, so a
        # u0 of it loaded with norm 0 and a noise of it passed `torns validate`
        modes = [{"j": [1, 0], "v": [0.1, 0.0]}, {"j": [0, 0], "u": [1.0, 0.0]}]
        with pytest.raises(ConfigError, match="the mean, which lies outside the state space") as exc:
            load_config(minimal_config(**{role: {"modes": modes}}))
        assert exc.value.field == f"{role}.modes[1].j"

    def test_noise_outside_mask_rejected(self):
        raw = minimal_config(noise={"modes": [{"j": [6, 0], "v": [1.0, 0.0]}]})
        with pytest.raises(ConfigError):
            load_config(raw)

    def test_assumption_computed_on_first_read_only(self, monkeypatch):
        calls, grad_linf = [], spectral.grad_linf
        monkeypatch.setattr(spectral, "grad_linf", lambda hw, half: calls.append(hw) or grad_linf(hw, half))
        cfg = load_config(minimal_config(noise={"preset": "random", "norm": 0.5, "seed": 1}))
        assert calls == []
        report = cfg.assumption
        assert len(calls) == 1
        assert cfg.assumption is report and len(calls) == 1
        assert report == check_assumption(cfg.hw, cfg.nu, cfg.grid)

    def test_assumption_attached_even_when_violated(self):
        raw = minimal_config(nu=1e-4, noise={"preset": "random", "norm": 5.0, "seed": 1})
        cfg = load_config(raw)
        assert cfg.assumption is not None
        assert not cfg.assumption.satisfied

    def test_unknown_preset(self):
        with pytest.raises(ConfigError) as exc:
            normalize_config({"preset": "kolmogorov"})
        assert exc.value.field == "preset"

    def test_preset_that_is_not_a_name_is_config_error(self):
        # a list preset used to escape as TypeError (unhashable) and a CLI traceback
        with pytest.raises(ConfigError) as exc:
            normalize_config({"preset": ["decay-noise"]})
        assert exc.value.field == "preset"

    def test_normalize_echo_round_trip(self):
        # config -> normalized echo -> config is the identity
        raw = {"preset": "decay-noise", "N": 8, "seed": 5,
               "forcing": {"modes": [{"j": [1, 1], "u": [0.2, -0.1]}]}}
        echo = normalize_config(raw)
        assert normalize_config(echo) == echo  # idempotent
        a = load_config(raw)
        b = load_config(echo)
        assert (a.nu, a.grid.L, a.grid.N, a.dt, a.scheme, a.seed, a.stride, a.t_end) == \
               (b.nu, b.grid.L, b.grid.N, b.dt, b.scheme, b.seed, b.stride, b.t_end)
        for fa, fb in ((a.fw, b.fw), (a.hw, b.hw), (a.w0, b.w0)):
            assert np.array_equal(fa, fb)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        # the payload is the row: it round-trips bit for bit, the velocity rebuilt from it to roundoff
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=3, norm=2.0)
        st = state_of(1.25, u, -0.7)
        p = tmp_path / "state.trns"
        write_checkpoint(st, p, nu=0.3)
        back = read_checkpoint(p)
        assert back.t == st.t
        assert back.z == st.z
        assert back.w.tobytes() == st.w.tobytes()
        assert back.norms() == st.norms()
        assert np.abs(back.u.coeffs - u.coeffs).max() <= 1e-15 * np.abs(u.coeffs).max()
        hdr = tio._parse_header(p.read_bytes(), p)
        assert hdr.nu == 0.3
        assert hdr.N == 16
        assert hdr.version == 2

    @pytest.mark.parametrize("N", [8, 16, 128])
    def test_payload_is_the_row(self, tmp_path, N):
        g = WaveGrid(TWO_PI, N)
        K = (N - 1) // 3 + 1
        u = random_divfree_field(g, seed=4, norm=1.0)
        p = tmp_path / "row.trns"
        write_checkpoint(state_of(0.5, u), p, nu=1.0)
        data = p.read_bytes()
        assert tio._parse_header(data, p).payload_len == N * K * 16
        assert len(data) == tio._HEADER.size + N * K * 16
        assert data[tio._HEADER.size:] == spectral.HalfSpectrum(g).curl(u).tobytes()

    def test_version_1_is_refused(self, tmp_path):
        # version 1 stored the (2, N, N) velocity; no reader of it is kept
        p = tmp_path / "v1.trns"
        write_checkpoint(state_of(0.0, random_divfree_field(WaveGrid(TWO_PI, 8), seed=1)), p, nu=1.0)
        data = bytearray(p.read_bytes())
        data[4:8] = (1).to_bytes(4, "little")
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version mismatch: file has 1, expected 2"):
            read_checkpoint(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.trns"
        g = WaveGrid(TWO_PI, 8)
        write_checkpoint(state_of(0.0, random_divfree_field(g, seed=1)), p, nu=1.0)
        data = bytearray(p.read_bytes())
        data[:4] = b"NOPE"
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="bad magic"):
            read_checkpoint(p)

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "v2.trns"
        g = WaveGrid(TWO_PI, 8)
        write_checkpoint(state_of(0.0, random_divfree_field(g, seed=1)), p, nu=1.0)
        data = bytearray(p.read_bytes())
        data[4] += 1  # little-endian u32 version
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version mismatch"):
            read_checkpoint(p)

    @pytest.mark.parametrize("offset, fmt, value, message", [
        # the header's N: an N = 8 row is 384 bytes, N = 6 needs 192; no grid takes N = 0
        (8, "<I", 6, r"payload of 384 bytes does not match N = 6 \(192 bytes\)"),
        (8, "<I", 0, r"size\.trns: N must be >= 4, got 0"),
        (8, "<I", 10, r"truncated payload \(384 of 640 bytes\)"),
        # an N whose grid alone would take gigabytes, refused before it is built
        (8, "<I", 2**20, r"truncated payload \(384 bytes for N = 1048576\)"),
        # the header's record of the payload length
        (44, "<Q", 392, r"payload of 392 bytes does not match N = 8 \(384 bytes\)"),
        # the payload cut by one value
        (None, None, None, r"truncated payload \(368 of 384 bytes\)"),
    ], ids=["N=6", "N=0", "N=10", "N=2^20", "length", "cut"])
    def test_size_mismatch_names_its_fault(self, tmp_path, offset, fmt, value, message):
        # each used to read "truncated payload", with the bytes of the payload against those of N
        p = tmp_path / "size.trns"
        write_checkpoint(state_of(0.0, random_divfree_field(WaveGrid(TWO_PI, 8), seed=1)), p, nu=1.0)
        data = bytearray(p.read_bytes())
        if offset is None:
            del data[-16:]
        else:
            struct.pack_into(fmt, data, offset, value)
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=message):
            read_checkpoint(p)

    @pytest.mark.parametrize("N, problem", [(0, "N must be >= 4, got 0"), (2, "N must be >= 4, got 2"),
                                            (3, "N must be >= 4, got 3"), (5, "N must be even, got 5")],
                             ids=["N=0", "N=2", "N=3", "N=5"])
    def test_header_N_that_no_grid_takes_names_the_path(self, tmp_path, N, problem):
        # a payload of the size N K would have, K = (N-1)//3 + 1; N = 0 used to raise numpy's
        # reshape error, and each of these used to drop the path
        p = tmp_path / "grid.trns"
        write_checkpoint(state_of(0.0, random_divfree_field(WaveGrid(TWO_PI, 8), seed=1)), p, nu=1.0)
        hdr = tio._parse_header(p.read_bytes(), p)
        size = N * ((N - 1) // 3 + 1) * 16
        p.write_bytes(tio._HEADER.pack(*hdr._replace(N=N, payload_len=size)) + bytes(size))
        with pytest.raises(ValueError) as exc:
            read_checkpoint(p)
        assert str(exc.value) == f"{p}: {problem}"

    def test_truncation_detected(self, tmp_path):
        p = tmp_path / "trunc.trns"
        g = WaveGrid(TWO_PI, 8)
        write_checkpoint(state_of(0.0, random_divfree_field(g, seed=1)), p, nu=1.0)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(p)

    @pytest.mark.parametrize("index, problem", [
        ((0, 0), "nonzero mean mode"),
        ((6, 1), "content outside the dealias mask"),  # the row j1 = 6, where 3 j1 >= N
        ((8, 0), "content outside the dealias mask"),  # the Nyquist row
        ((3, 0), "Hermitian symmetry violated on column 0"),
    ])
    def test_row_outside_the_state_space_is_refused(self, tmp_path, index, problem):
        # 0.5 written into the row of a valid N = 16 checkpoint; it used to read back
        # silently, and the velocity rebuilt from it hid the content
        st = state_of(0.0, random_divfree_field(WaveGrid(TWO_PI, 16), seed=1))
        p = tmp_path / "corrupt.trns"
        write_checkpoint(st, p, nu=1.0)
        w = st.w.copy()
        w[index] += 0.5
        p.write_bytes(p.read_bytes()[:tio._HEADER.size] + w.tobytes())
        with pytest.raises(ValueError, match="row outside the solver's state space: " + problem):
            read_checkpoint(p)

    @pytest.mark.parametrize("field, match", [("L", "L must be positive and finite"), ("t", "non-finite t"),
                                              ("z", "non-finite z")])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_header_is_refused(self, tmp_path, field, match, value):
        # an infinite L used to read back with NaN norms and an audit-clean velocity,
        # an infinite or NaN t or z silently
        p = tmp_path / "header.trns"
        write_checkpoint(state_of(0.5, random_divfree_field(WaveGrid(TWO_PI, 16), seed=1), 0.25), p, nu=1.0)
        data = p.read_bytes()
        hdr = tio._parse_header(data, p)._replace(**{field: value})
        p.write_bytes(tio._HEADER.pack(*hdr) + data[tio._HEADER.size:])
        with pytest.raises(ValueError, match=match):
            read_checkpoint(p)

    def test_etd1_run_resumes_from_its_checkpoint_bit_for_bit(self, tmp_path):
        # decay-noise under etd1 on the OU path of seed 3, cut at step 150 of 400: the
        # read-back row seeds the path's tail with no velocity round trip, so the resumed
        # run ends on the uninterrupted run's w and z bit for bit (through State.u it ended
        # 7.5e-17 off).  t counts from the tail's start, so it may differ in the last bit
        cfg = replace(load_config({"preset": "decay-noise"}), scheme="etd1")
        ou = ou_from_wiener(sample_wiener(0.0, 0.4, cfg.dt, seed=3))
        cut = 150
        *_, mid = trajectory(cfg.w0, cfg, ou, steps=cut)
        *_, last = trajectory(cfg.w0, cfg, ou)
        p = tmp_path / "cut.trns"
        write_checkpoint(mid, p, nu=cfg.nu)
        back = read_checkpoint(p)
        tail = OUPath(WienerPath(t0=back.t, dt=cfg.dt, increments=ou.wiener.increments[cut:], seed=3),
                      ou.z[cut:])
        *_, (end,) = ensemble([back.w], cfg, [tail])
        assert ou.n == 400
        assert end.w.tobytes() == last.w.tobytes()
        assert end.z == last.z
        assert abs(end.t - last.t) <= math.ulp(last.t)

    def test_read_checkpoint_reads_the_file_once(self, tmp_path, monkeypatch):
        p = tmp_path / "once.trns"
        write_checkpoint(state_of(0.0, random_divfree_field(WaveGrid(TWO_PI, 8), seed=1)), p, nu=1.0)
        reads = []
        read_bytes = Path.read_bytes
        monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(self) or read_bytes(self))
        read_checkpoint(p)
        assert reads == [p]


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        n = 7
        cols = {"t": np.linspace(0, 1, n), "norm_H": np.random.default_rng(0).random(n),
                "norm_H1": np.random.default_rng(1).random(n),
                "norm_H2": np.random.default_rng(2).random(n), "z": np.random.default_rng(3).random(n)}
        rows = [{k: v[i] for k, v in cols.items()} for i in range(n)]
        p = tmp_path / "s.csv"
        write_rows_csv(rows, p)
        with open(p, newline="") as fh:
            back = list(csv.DictReader(fh))
        for k, v in cols.items():
            assert np.array_equal(v, [float(r[k]) for r in back])  # repr round-trips floats exactly

    def test_header_schema(self, tmp_path):
        cfg = load_config(minimal_config())
        _, rows = integrate(random_divfree_field(cfg.grid, seed=1), cfg, steps=0)
        p = tmp_path / "one.csv"
        write_rows_csv(rows, p)
        assert p.read_text().splitlines()[0] == "t,norm_H,norm_H1,norm_H2,z"

    def test_column_count(self, tmp_path):
        p = tmp_path / "one.csv"
        write_rows_csv([{"t": 0.0, "norm_H": 1.0, "norm_H1": 2.0, "norm_H2": 3.0, "z": 4.0}], p)
        rows = p.read_text().strip().splitlines()
        assert all(len(r.split(",")) == 5 for r in rows)


class TestRowsCsv:
    def test_values_in_column_order(self, tmp_path):
        p = tmp_path / "rows.csv"
        write_rows_csv([{"a": 1.5, "b": "x"}, {"b": "", "a": 2.0}], p)
        assert p.read_text() == "a,b\n1.5,x\n2.0,\n"

    def test_numpy_floats_written_as_plain_floats(self, tmp_path):
        p = tmp_path / "rows.csv"
        write_rows_csv([{"a": np.float64(0.1), "b": np.float32(0.5), "c": np.int64(3)}], p)
        assert p.read_text() == "a,b,c\n0.1,0.5,3\n"

    def test_rows_may_be_an_iterator(self, tmp_path):
        p = tmp_path / "rows.csv"
        write_rows_csv(({"t": t, "x": x} for t, x in zip(np.array([0.0, 0.5]), np.array([1.0, 2.0]))), p)
        assert p.read_text() == "t,x\n0.0,1.0\n0.5,2.0\n"

    def test_no_rows_rejected(self, tmp_path):
        p = tmp_path / "rows.csv"
        with pytest.raises(ValueError, match="no rows to write"):
            write_rows_csv([], p)
        assert not p.exists()


class TestPlotScript:
    def test_emitted_script_is_self_contained(self, tmp_path):
        emit_plot_script(["series.csv"], tmp_path / "plot.py")
        text = (tmp_path / "plot.py").read_text()
        assert "series.csv" in text
        assert "matplotlib" in text
        compile(text, "plot.py", "exec")  # syntactically valid

    def test_rerun_reproduces_image_dimensions(self, tmp_path):
        pytest.importorskip("matplotlib")
        import subprocess
        import sys

        def png_dims(p):
            data = p.read_bytes()
            assert data[:8] == b"\x89PNG\r\n\x1a\n"
            return data[16:24]  # IHDR width/height

        rows = [{"t": 0.0, "norm_H": 1.0, "norm_H1": 2.0, "norm_H2": 3.0, "z": 0.0},
                {"t": 1.0, "norm_H": 0.5, "norm_H1": 1.0, "norm_H2": 1.5, "z": 0.1}]
        write_rows_csv(rows, tmp_path / "series.csv")
        emit_plot_script(["series.csv"], tmp_path / "plot.py")
        dims = []
        for rerun in range(2):
            write_rows_csv(rows, tmp_path / "series.csv")  # regenerate the CSV
            subprocess.run([sys.executable, str(tmp_path / "plot.py")], check=True,
                           capture_output=True)
            dims.append(png_dims(tmp_path / "plot.png"))
        assert dims[0] == dims[1]


class TestManifest:
    def test_checksums_and_reproducibility_fields(self, tmp_path):
        (tmp_path / "a.csv").write_text("t\n1\n")
        path = write_manifest(tmp_path, {"nu": 1.0}, [3], ["a.csv"], command="simulate")
        data = json.loads(path.read_text())
        assert data["config"]["nu"] == 1.0
        assert data["seeds"] == [3]
        assert "sha256" in data["files"]["a.csv"]
        import hashlib

        assert data["files"]["a.csv"]["sha256"] == hashlib.sha256(b"t\n1\n").hexdigest()
