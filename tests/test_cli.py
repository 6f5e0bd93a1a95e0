import csv
import dataclasses
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import torns
from torns import cli
from torns.cli import COMMANDS, main
from torns.dynamics import integrate
from torns.experiments import pullback_solve
from torns.io import load_config, read_checkpoint
from torns.noise import ou_from_wiener, sample_wiener
from torns.spectral import HalfSpectrum, SpectralField, random_row
from tests.oracle import sobolev_norm

# criterion 10's config: small enough that every subcommand runs in seconds
SMALL = {"nu": 1.0, "N": 16, "dt": 1e-2, "seed": 3, "t_end": 0.5,
         "forcing": {"preset": "random", "norm": 0.3, "seed": 2},
         "noise": {"preset": "random", "norm": 0.3, "seed": 4},
         "initial": {"preset": "random", "norm": 1.0, "seed": 5}}

# matplotlib.pyplot as far as plot.py uses it: savefig writes each ax.plot call's
# (label, xs, ys) to plot.calls.json next to the image
STUB_PYPLOT = '''import json
from pathlib import Path

calls = []


class Axes:
    def plot(self, xs, ys, label):
        calls.append([label, list(xs), list(ys)])

    def set_xlabel(self, text):
        pass

    def legend(self, **kw):
        pass


class Figure:
    def tight_layout(self):
        pass

    def savefig(self, path):
        Path(path).with_name("plot.calls.json").write_text(json.dumps(calls))


def subplots(**kw):
    return Figure(), Axes()
'''


def write_config(tmp_path, raw, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


class TestArgumentHandling:
    def test_unknown_flag_rejected(self, capsys):
        assert main(["validate", "--frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        assert main(["explode"]) == 1

    def test_missing_command_rejected(self):
        assert main([]) == 1

    def test_version_is_the_package_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"torns {torns.__version__}\n"

    @pytest.mark.parametrize("threads, why", [("0", "must be >= 1, got 0"), ("-3", "must be >= 1, got -3"),
                                              ("two", "invalid int value: 'two'")])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads, why):
        out = tmp_path / "run"
        assert main(["validate", "--threads", threads, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"usage error: argument --threads: {why}\n"
        assert captured.out == "" and not out.exists()

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(tmp_path / "nofile.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config: ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", [c for c in COMMANDS if COMMANDS[c].writes])
    @pytest.mark.parametrize("under", [False, True])
    def test_out_that_cannot_be_a_directory_is_usage_error(self, tmp_path, capsys, monkeypatch, command, under):
        # an existing file, or a path under one, fails before the command runs
        monkeypatch.setitem(COMMANDS, command, COMMANDS[command]._replace(run=None))
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "run" if under else blocker
        assert main([command, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: --out {out}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert blocker.read_text() == "kept"


class TestArtifactContract:
    @pytest.mark.parametrize("command", ["simulate", "taylor-green", "pullback", "smoothing",
                                         "ergodic", "convergence"])
    def test_manifest_lists_every_artifact(self, tmp_path, command):
        out = tmp_path / "out"
        args = [command, "--out", str(out), "--quiet"]
        if command == "taylor-green":
            args += ["--preset", "taylor-green"]
        else:
            args += ["--config", write_config(tmp_path, SMALL)]
        assert main(args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert written and set(manifest["files"]) == written
        for name, entry in manifest["files"].items():
            assert entry["sha256"] == hashlib.sha256((out / name).read_bytes()).hexdigest()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_quiet_leaves_stdout_empty(self, tmp_path, capsys, command):
        # validate used to print its assumption and fields lines itself, past --quiet
        args = [command, "--out", str(tmp_path / "out"), "--quiet"]
        if command == "taylor-green":
            args += ["--preset", "taylor-green"]
        else:
            args += ["--config", write_config(tmp_path, SMALL)]
        assert main(args) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["simulate", "pullback"])
    def test_plot_script_draws_one_line_per_member_and_column(self, tmp_path, command):
        # plot.py runs against a stub matplotlib that records its ax.plot calls
        stub = tmp_path / "stub" / "matplotlib"
        stub.mkdir(parents=True)
        (stub / "__init__.py").write_text("def use(backend):\n    pass\n")
        (stub / "pyplot.py").write_text(STUB_PYPLOT)
        out = tmp_path / "out"
        raw = {"preset": "decay-noise", "N": 8, "dt": 1e-2}
        assert main([command, "--config", write_config(tmp_path, raw), "--out", str(out), "--quiet"]) == 0
        subprocess.run([sys.executable, str(out / "plot.py")], env={"PYTHONPATH": str(stub.parent), "PATH": ""},
                       capture_output=True, check=True)
        calls = json.loads((out / "plot.calls.json").read_text())
        name = {"simulate": "series.csv", "pullback": "pullback.csv"}[command]
        with open(out / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if command == "simulate":  # one line per column, against t
            expected = [[f"series.csv:{key}", [float(r["t"]) for r in rows], [float(r[key]) for r in rows]]
                        for key in ("norm_H", "norm_H1", "norm_H2", "z")]
        else:  # one line per (member, column), over the horizons
            expected = [[f"pullback.csv:{key}:{m}", [2.0, 5.0, 10.0], [float(r[key]) for r in rows if r["member"] == m]]
                        for m in ("w0", "1.0", "10.0") for key in ("norm_H", "norm_H1", "norm_H2", "dist_H")]
        assert calls == expected

    def test_absorbing_blowup_keeps_report(self, tmp_path, capsys):
        # every member of pullback's family blows up past horizon 2: 3 members x 2 horizons error rows
        cfg = write_config(tmp_path, {"nu": 1.0, "N": 16, "dt": 0.2,
                                      "forcing": {"preset": "random", "norm": 50, "seed": 1}})
        out = tmp_path / "ab"
        assert main(["pullback", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "aborted rows: 6\n" and captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "plot.py", "pullback.csv"]
        rows = [r.split(",") for r in (out / "pullback.csv").read_text().strip().splitlines()[1:]]
        assert [r[0] for r in rows if r[6]] == ["5.0"] * 3 + ["10.0"] * 3
        assert all(r[2:6] == ["nan"] * 4 and "non-finite" in r[6] for r in rows if r[6])

    def test_smoothing_blowup_keeps_report(self, tmp_path, capsys):
        # every trajectory blows up: 3 seeds x 2 directions x 3 deltas x 3 horizons error rows
        cfg = write_config(tmp_path, {
            "nu": 0.001, "N": 16, "dt": 0.01,
            "forcing": {"preset": "random", "norm": 50.0, "seed": 1},
            "noise": {"preset": "random", "norm": 0.001, "seed": 2},
            "initial": {"preset": "random", "norm": 1e5, "seed": 3}})
        out = tmp_path / "sm"
        assert main(["smoothing", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "aborted rows: 54\n" and captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "smoothing.csv"]
        rows = (out / "smoothing.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 54 and all("non-finite" in r for r in rows)


class TestFieldConfig:
    @pytest.mark.parametrize("role, spec, where", [
        # a preset outside its role
        ("forcing", {"preset": "taylor-green"}, "forcing.preset"),
        ("initial", {"preset": "manufactured"}, "initial.preset"),
        ("noise", {"preset": "manufactured"}, "noise.preset"),
        # malformed random-field parameters
        ("forcing", {"preset": "random", "norm": "abc"}, "forcing.norm"),
        ("noise", {"preset": "random", "norm": None}, "noise.norm"),
        ("initial", {"preset": "random", "norm": True}, "initial.norm"),
        ("initial", {"preset": "random", "norm": float("inf")}, "initial.norm"),
        ("noise", {"preset": "random", "seed": 1.5}, "noise.seed"),
        ("forcing", {"preset": "manufactured", "seed": True}, "forcing.seed"),
    ])
    def test_rejected_with_one_config_error_line(self, tmp_path, capsys, role, spec, where):
        cfg = write_config(tmp_path, {"nu": 1.0, "N": 16, "dt": 1e-2, role: spec})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}: ")
        assert err.count("\n") == 1
        assert not out.exists()

    # 1e400 parses as an infinite float, 1 followed by 400 zeros as an int beyond the float range
    @pytest.mark.parametrize("role, key, pair", [
        ("initial", "u", '["a", 0]'),
        ("forcing", "u", "[null, 0]"),
        ("initial", "u", "[1e400, 0]"),
        ("initial", "v", "[0, -1e400]"),
        ("noise", "v", "[1e400, 0]"),
        ("noise", "u", "[1" + "0" * 400 + ", 0]"),
        ("forcing", "v", "[true, 0]"),
    ], ids=["string", "null", "inf", "minus-inf", "noise-inf", "big-int", "bool"])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_bad_mode_pair_is_one_config_error_line(self, tmp_path, capsys, command, role, key, pair):
        cfg = tmp_path / "config.json"
        cfg.write_text(f'{{"nu": 1.0, "N": 16, "dt": 0.01, "{role}": {{"modes": [{{"j": [1, 0], "{key}": {pair}}}]}}}}')
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {role}.modes[0].{key}: expected [re, im], two finite numbers")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("spec", [{"preset": "random", "norm": 2, "seed": 7},
                                      {"preset": "manufactured", "norm": 0.5}])
    def test_well_formed_parameters_load(self, spec):
        assert load_config({"nu": 1.0, "N": 16, "dt": 1e-2, "forcing": spec}).fw.any()


class TestTopLevelNumbers:
    # 1e400 parses as an infinite float, 1 followed by 400 zeros as an int beyond the float range
    @pytest.mark.parametrize("value", ["1e400", "1" + "0" * 400], ids=["float", "int"])
    @pytest.mark.parametrize("field", ["nu", "L", "dt", "t_end"])
    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_infinite_value_is_config_error(self, tmp_path, capsys, command, field, value):
        raw = {k: v for k, v in {"nu": 1.0, "N": 16, "dt": 0.01}.items() if k != field}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw)[:-1] + f', "{field}": {value}}}')
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {field}: must be positive and finite")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, preset", [("simulate", "decay-noise"), ("taylor-green", "taylor-green")])
    def test_t_end_of_zero_steps_is_config_error(self, tmp_path, capsys, command, preset):
        # 1e-10 is within horizon_steps' tolerance of 0 steps of 1e-3: simulate used to raise
        # from sample_wiener and taylor-green to divide by zero in its rate
        cfg = write_config(tmp_path, {"preset": preset, "t_end": 1e-10})
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: t_end: 1e-10 rounds to 0 steps of dt = 0.001; need at least one\n"
        assert captured.out == "" and not out.exists()


class TestValidate:
    def test_h_zero_preset_alpha_one(self, capsys):
        assert main(["validate", "--preset", "taylor-green"]) == 0
        out = capsys.readouterr().out
        assert "alpha=1" in out
        assert "satisfied=True" in out
        assert out.endswith("\nfields: ok\n")

    def test_violated_assumption_warns_but_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "nu": 1e-4, "N": 16, "dt": 1e-3,
            "noise": {"preset": "random", "norm": 5.0, "seed": 1},
        })
        assert main(["validate", "--config", cfg]) == 0
        err = capsys.readouterr().err
        assert "warning" in err

    def test_config_error_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"nu": 1.0, "N": 7, "dt": 1e-3})
        assert main(["validate", "--config", cfg]) == 1
        assert "N" in capsys.readouterr().err

    def test_mean_mode_is_config_error(self, tmp_path, capsys):
        # a noise on the mode j = [0, 0] used to be dropped and pass with "fields: ok"
        cfg = write_config(tmp_path, {"nu": 1.0, "N": 16, "dt": 1e-3,
                                      "noise": {"modes": [{"j": [0, 0], "u": [1.0, 0.0]}]}})
        assert main(["validate", "--config", cfg]) == 1
        assert "config error: noise.modes[0].j: mode [0, 0] is the mean" in capsys.readouterr().err


class TestSimulate:
    def test_writes_artifacts_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "taylor-green", "t_end": 0.05})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "series.csv").exists()
        assert (out / "final_state.trns").exists()
        assert (out / "plot.py").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "series.csv" in manifest["files"]

    def test_noise_csv_is_the_path_with_a_leading_zero_increment(self, tmp_path):
        # row k: t_k, the increment arriving at t_k (0.0 on the first row), z_k
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_config(tmp_path, SMALL), "--out", str(out)]) == 0
        rows = (out / "noise.csv").read_text().splitlines()
        ou = ou_from_wiener(sample_wiener(0.0, 0.5, 1e-2, seed=3))
        assert rows[0] == "t,dW,z"
        assert len(rows) == ou.n + 2  # header + n+1 samples
        assert float(rows[1].split(",")[1]) == 0.0
        dW = [0.0, *ou.wiener.increments.tolist()]
        assert rows[1:] == [f"{t!r},{d!r},{z!r}" for t, d, z in zip(ou.times().tolist(), dW, ou.z.tolist())]
        with open(out / "series.csv", newline="") as fh:  # the norm series reads back
            times = [float(r["t"]) for r in csv.DictReader(fh)]
        assert times == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5], abs=1e-12)
        # on the path's grid, bit for bit: t at every stride-th (10th) noise row
        series_t = [r.split(",")[0] for r in (out / "series.csv").read_text().splitlines()[1:]]
        assert series_t == [r.split(",")[0] for r in rows[1::10]]

    @pytest.mark.parametrize("raw", [SMALL, {"preset": "taylor-green", "t_end": 0.05}], ids=["noisy", "h-zero"])
    def test_final_state_reads_back_with_the_last_series_norms(self, tmp_path, raw):
        # the checkpoint stores the vorticity row, so its norms are the recorded ones, bit for bit
        out = tmp_path / "run"
        assert main(["simulate", "--config", write_config(tmp_path, raw), "--out", str(out), "--quiet"]) == 0
        *_, last = (out / "series.csv").read_text().splitlines()
        state = read_checkpoint(out / "final_state.trns")
        t, *norms, z = last.split(",")
        assert (t, z) == (repr(state.t), repr(state.z))
        assert norms == [repr(float(v)) for v in state.norms().values()]

    def test_unstable_dt_aborts_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "nu": 1.0, "N": 16, "dt": 10.0, "t_end": 10000.0,
            "initial": {"preset": "random", "norm": 50.0, "seed": 1},
        })
        out = tmp_path / "boom"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert (out / "abort_state.trns").exists()  # last valid state checkpointed

    def test_summary_reports_v_and_u(self, tmp_path, capsys):
        # the series holds ||v||; the physical u = v + h z(T) is printed next to it
        cfg_path = write_config(tmp_path, SMALL)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        state = read_checkpoint(out / "final_state.trns")
        cfg = load_config(json.dumps(SMALL))
        h = HalfSpectrum(cfg.grid).velocity(cfg.hw)
        v_norm = sobolev_norm(state.u, 0.0)
        u_norm = sobolev_norm(SpectralField(cfg.grid, state.u.coeffs + state.z * h.coeffs), 0.0)
        assert abs(u_norm - v_norm) > 1e-3 * v_norm  # the two differ on this config
        assert line.endswith(f"final |v| = {v_norm:.6g}, |u| = |v + h z(T)| = {u_norm:.6g}")

    def test_summary_reads_the_final_state_between_records(self, tmp_path, capsys):
        # stride 10 does not divide the 5 steps: the last series row is t = 0
        cfg = write_config(tmp_path, {"nu": 1.0, "N": 16, "dt": 0.1, "t_end": 0.5,
                                      "initial": {"preset": "random", "norm": 1.0, "seed": 5}})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        line = capsys.readouterr().out.strip()
        state = read_checkpoint(out / "final_state.trns")
        assert state.t == pytest.approx(0.5)
        assert f"final |v| = {sobolev_norm(state.u, 0.0):.6g}," in line
        assert "final |v| = 1," not in line

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path, {"preset": "decay-noise", "t_end": 0.02})
        out = tmp_path / "seeded"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "777"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [777]
        assert manifest["config"]["seed"] == 777

    def test_manifest_echo_reruns_bit_exactly(self, tmp_path):
        # feeding the manifest's config echo back reproduces the artifacts
        cfg = write_config(tmp_path, {"preset": "decay-noise", "N": 8, "t_end": 0.05})
        out1 = tmp_path / "first"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        echoed = write_config(tmp_path, manifest["config"], name="echo.json")
        out2 = tmp_path / "second"
        assert main(["simulate", "--config", echoed, "--out", str(out2), "--quiet"]) == 0
        for name in ("series.csv", "final_state.trns", "noise.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_quiet_suppresses_stdout_not_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "taylor-green", "t_end": 0.02})
        out1, out2 = tmp_path / "loud", tmp_path / "quiet"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        loud = capsys.readouterr().out
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        quiet = capsys.readouterr().out
        assert loud and not quiet
        assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


TAYLOR_GREEN_SUMMARY = (r"taylor-green: final error (\S+) of \|u\(0\)\|, "
                        r"decay rate of the vortex's coefficient (\S+) \(expected (\S+)\)\n")


class TestTaylorGreenCommand:
    def test_default_passes_tolerance(self, capsys, tmp_path):
        assert main(["taylor-green", "--out", str(tmp_path / "tg")]) == 0
        out = capsys.readouterr().out
        assert "final error" in out

    @pytest.mark.parametrize("L", [3.0, 2.0 * math.pi, 10.0])
    def test_any_box_decays_at_two_nu_lambda1(self, tmp_path, capsys, L):
        cfg = write_config(tmp_path, {"preset": "taylor-green", "L": L})
        assert main(["taylor-green", "--config", cfg, "--out", str(tmp_path / "tg")]) == 0
        expected = f"{-2 * 0.1 * 4 * math.pi**2 / L**2:.8f}"
        m = re.fullmatch(TAYLOR_GREEN_SUMMARY, capsys.readouterr().out)
        assert float(m[1]) < 1e-8 and m[2] == m[3] == expected

    def test_small_box_long_horizon_passes(self, tmp_path, capsys):
        # on L = 0.5 the vortex decays by e^{-95} over t = 3, and roundoff in
        # the modes j = (1, 0), which decay at half its rate, outgrows it: the
        # error is taken against ||u(0)|| and the rate off the vortex's coefficient
        cfg = write_config(tmp_path, {"preset": "taylor-green", "L": 0.5, "t_end": 3.0})
        assert main(["taylor-green", "--config", cfg, "--out", str(tmp_path / "tg")]) == 0
        m = re.fullmatch(TAYLOR_GREEN_SUMMARY, capsys.readouterr().out)
        assert float(m[1]) < 1e-8 and m[2] == m[3] == f"{-2 * 0.1 * 4 * math.pi**2 / 0.5**2:.8f}"

    def test_wrong_decay_rate_exits_1(self, tmp_path, capsys, monkeypatch):
        # a solver at half the viscosity decays at half the rate; at t = 3 on
        # L = 0.5 both fields are below 1e-20 of ||u(0)||, so only the
        # vortex's coefficient shows the fault
        monkeypatch.setattr(cli, "integrate", lambda v0, cfg: integrate(v0, dataclasses.replace(cfg, nu=cfg.nu / 2)))
        cfg = write_config(tmp_path, {"preset": "taylor-green", "L": 0.5, "t_end": 3.0})
        assert main(["taylor-green", "--config", cfg, "--out", str(tmp_path / "tg")]) == 1
        m = re.fullmatch(TAYLOR_GREEN_SUMMARY, capsys.readouterr().out)
        assert float(m[1]) < 1e-8 and m[2] != m[3]

    def test_unstable_dt_aborts_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "preset": "taylor-green", "dt": 10.0, "t_end": 10000.0,
            "forcing": {"preset": "random", "norm": 50.0, "seed": 1},
        })
        assert main(["taylor-green", "--config", cfg, "--out", str(tmp_path / "tg")]) == 2
        assert "aborted: non-finite" in capsys.readouterr().err


class TestExperimentCommands:
    # the columns come from the keys of the rows that torns.experiments builds
    @pytest.mark.parametrize("command", ["pullback", "smoothing", "ergodic", "convergence"])
    def test_report_header(self, tmp_path, command):
        header = {"pullback": "horizon,member,norm_H,norm_H1,norm_H2,dist_H,error",
                  "smoothing": "seed,direction,delta,T,dist0,distT_h2_sq,ratio,error",
                  "ergodic": "seed,m,empirical,analytic,rel_error",
                  "convergence": "level,dt,strong_error,ratio,order"}[command]
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, SMALL), "--out", str(out), "--quiet"]) == 0
        assert (out / f"{command}.csv").read_text().splitlines()[0] == header

    def test_ergodic_writes_report(self, tmp_path, capsys):
        out = tmp_path / "erg"
        assert main(["ergodic", "--preset", "decay-noise", "--out", str(out), "--seed", "1"]) == 0
        rows = (out / "ergodic.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 9  # 3 seeds x 3 moments

    def test_pullback_writes_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "preset": "decay-noise", "N": 8, "dt": 1e-2,
        })
        out = tmp_path / "pb"
        assert main(["pullback", "--config", cfg, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "pullback.csv").read_text().strip().splitlines()[1:]]
        # one row per (horizon, member), horizon first, then the family {w0, 1 e, 10 e}
        assert [r[:2] for r in rows] == [[h, m] for h in ("2.0", "5.0", "10.0") for m in ("w0", "1.0", "10.0")]
        # dist_H is the H distance to the w0 member at time 0: exactly zero for w0 itself
        assert [r[5] for r in rows if r[1] == "w0"] == ["0.0"] * 3
        assert all(float(r[5]) > 0 for r in rows if r[1] != "w0")

    def test_pullback_unstable_dt_aborts_exit_2(self, tmp_path, capsys):
        # dt = 0.25 blows up the w0 member (norm 50) at horizons 5 and 10, not
        # in horizon 2's 8 steps: its two error rows, and NaN distances to it
        # in the rows of the radii, which stay finite
        cfg = write_config(tmp_path, {
            "nu": 1.0, "N": 16, "dt": 0.25,
            "initial": {"preset": "random", "norm": 50.0, "seed": 1},
        })
        out = tmp_path / "pb"
        assert main(["pullback", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "aborted rows: 2\n" and captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "plot.py", "pullback.csv"]
        rows = [r.split(",") for r in (out / "pullback.csv").read_text().strip().splitlines()[1:]]
        failed = [r for r in rows if r[6]]
        assert [r[:2] for r in failed] == [["5.0", "w0"], ["10.0", "w0"]]
        assert all(r[2:6] == ["nan"] * 4 and "non-finite" in r[6] for r in failed)
        assert all(r[5] == "nan" and math.isfinite(float(r[2])) for r in rows if r[0] != "2.0" and r[1] != "w0")

    @pytest.mark.parametrize("command", ["smoothing", "pullback", "simulate", "taylor-green"])
    def test_dt_not_dividing_a_horizon_is_config_error(self, tmp_path, capsys, command):
        # dt = 0.3 divides none of the fixed horizons of these rows, nor the
        # default t_end = 1 that simulate and taylor-green step to
        cfg = write_config(tmp_path, {"nu": 1.0, "N": 16, "dt": 0.3,
                                      "noise": {"preset": "random", "norm": 0.3, "seed": 4}})
        out = tmp_path / "run"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: dt: the horizon ")
        assert "dt = 0.3" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def fresh_process(code: str) -> list[str]:
        """The words that code prints in a new interpreter that imports torns from this tree."""
        env = {"PYTHONPATH": str(Path(torns.__file__).resolve().parents[1]), "PATH": ""}
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True)
        return res.stdout.split()

    def test_smoothing_leaves_numpy_ma_unimported(self, tmp_path):
        # np.median imports numpy.ma on its first call; a fresh process shows it
        cfg = write_config(tmp_path, SMALL)
        argv = ["smoothing", "--config", cfg, "--out", str(tmp_path / "sm"), "--quiet"]
        code = (f"import sys; from torns.cli import main; code = main({argv!r}); "
                "print(code, 'numpy.ma' in sys.modules)")
        assert self.fresh_process(code) == ["0", "False"]

    def test_import_leaves_pool_logging_and_statistics_unimported(self):
        # each costs every CLI process memory and time: only an FFT-grid pool imports the first two
        code = ("import sys, torns.cli; "
                "print(*(m in sys.modules for m in ('concurrent.futures', 'logging', 'statistics')))")
        assert self.fresh_process(code) == ["False", "False", "False"]

    def test_smoothing_threads_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "preset": "decay-noise", "N": 8, "dt": 1e-2, "seed": 3,
        })
        outs = []
        for threads in (1, 4):
            out = tmp_path / f"sm{threads}"
            assert main(["smoothing", "--config", cfg, "--out", str(out),
                         "--threads", str(threads), "--quiet"]) == 0
            outs.append((out / "smoothing.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_absorbing_writes_report(self, tmp_path):
        raw = {"preset": "decay-noise", "N": 8, "dt": 1e-2}
        out = tmp_path / "ab"
        assert main(["pullback", "--config", write_config(tmp_path, raw), "--out", str(out), "--quiet"]) == 0
        rows = [r.split(",") for r in (out / "pullback.csv").read_text().strip().splitlines()[1:]]
        radii = [r for r in rows if r[1] != "w0"]
        assert len(radii) == 6  # 2 radii x 3 horizons
        # w0 in the family leaves the radii's members with the bits of a pullback of the radii alone
        cfg = load_config(raw)
        e = random_row(HalfSpectrum(cfg.grid), 99, norm=1.0, stream=29)
        alone = pullback_solve(cfg, [2.0, 5.0, 10.0], cfg.seed, [1.0 * e, 10.0 * e])
        assert [r[2:5] for r in radii] == [[repr(float(v)) for v in st.norms().values()]
                                            for states in alone for st in states]

    def test_absorbing_summary_holds_the_sup_per_horizon(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"preset": "decay-noise", "N": 8, "dt": 1e-2})
        out = tmp_path / "ab"
        assert main(["pullback", "--config", cfg, "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "pullback.csv").read_text().strip().splitlines()[1:]]
        sups = {h: max(float(r[2]) for r in rows if r[0] == h) for h in ("2.0", "5.0", "10.0")}
        printed = capsys.readouterr().out
        assert printed.startswith("pullback family: sup H(t=2.0)={:.4g}, H(t=5.0)={:.4g}, H(t=10.0)={:.4g}; "
                              "synchronisation rate ".format(*sups.values()))
        assert printed.count("\n") == 1
        assert len(set(float(r[2]) for r in rows if r[1] != "w0")) == 6  # the radii differ at every horizon

    def test_pullback_synchronises_at_nu_lambda1(self, tmp_path, capsys):
        # decay-noise (nu = 1, lambda_1 = 1) at N = 8: the family's spread at
        # time 0 decays at nu lambda_1; measured 1.000102, bound ten times that gap
        cfg = write_config(tmp_path, {"preset": "decay-noise", "N": 8, "dt": 1e-2})
        assert main(["pullback", "--config", cfg, "--out", str(tmp_path / "pb")]) == 0
        rate = float(capsys.readouterr().out.split("; synchronisation rate ")[1])
        assert abs(rate - 1.0) < 1e-3
