import json

from torns.cli import main


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


class TestValidate:
    def test_h_zero_preset_alpha_one(self, capsys):
        assert main(["validate", "--preset", "taylor-green"]) == 0
        out = capsys.readouterr().out
        assert "alpha=1" in out
        assert "satisfied=True" in out

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


class TestTaylorGreenCommand:
    def test_default_passes_tolerance(self, capsys, tmp_path):
        assert main(["taylor-green", "--out", str(tmp_path / "tg")]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_unstable_dt_aborts_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "preset": "taylor-green", "dt": 10.0, "t_end": 10000.0,
            "forcing": {"preset": "random", "norm": 50.0, "seed": 1},
        })
        assert main(["taylor-green", "--config", cfg, "--out", str(tmp_path / "tg")]) == 2
        assert "aborted: non-finite" in capsys.readouterr().err


class TestExperimentCommands:
    def test_ergodic_writes_report(self, tmp_path, capsys):
        out = tmp_path / "erg"
        assert main(["ergodic", "--preset", "decay-noise", "--out", str(out), "--seed", "1"]) == 0
        rows = (out / "ergodic.csv").read_text().strip().splitlines()
        assert rows[0] == "seed,m,empirical,analytic,rel_error"
        assert len(rows) == 1 + 9  # 3 seeds x 3 moments

    def test_pullback_writes_report(self, tmp_path):
        cfg = write_config(tmp_path, {
            "preset": "decay-noise", "N": 8, "dt": 1e-2,
        })
        out = tmp_path / "pb"
        assert main(["pullback", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "pullback.csv").read_text().strip().splitlines()
        assert rows[0] == "horizon,norm_h,norm_h1,norm_h2"
        assert len(rows) == 4

    def test_pullback_unstable_dt_aborts_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "nu": 1.0, "N": 16, "dt": 1.0,
            "initial": {"preset": "random", "norm": 50.0, "seed": 1},
        })
        assert main(["pullback", "--config", cfg, "--out", str(tmp_path / "pb")]) == 2
        assert "aborted: non-finite" in capsys.readouterr().err

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
        cfg = write_config(tmp_path, {"preset": "decay-noise", "N": 8, "dt": 1e-2})
        out = tmp_path / "ab"
        assert main(["absorbing", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        rows = (out / "absorbing.csv").read_text().strip().splitlines()
        assert rows[0].startswith("radius,horizon,norm_h")
        assert len(rows) == 1 + 4  # 2 radii x 2 horizons
