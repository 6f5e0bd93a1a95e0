"""Smoke test of the benchmark harness; not part of the tier-1 suite.

    python3 -m pytest -q benchmarks/test_bench.py

Each workload runs once, untraced and traced, on a tiny config (N = 16, a
few steps; convergence keeps the CLI's fixed refinement ladder), and must
pass every output check and report exactly the metrics BENCHMARK.json names.
"""

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
_spec = importlib.util.spec_from_file_location("torns_bench_run", HERE / "run.py")
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

TINY = {
    "sim-n128": {"N": 16, "dt": 1e-2, "t_end": 0.05, "stride": 2},
    "cells-n16-t2": {"dt": 0.25},
}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)
    assert sorted(TINY) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_checks(name, trace, tmp_path, monkeypatch, capsys):
    wl = bench.WORKLOADS[name]
    monkeypatch.setitem(bench.WORKLOADS, name, dataclasses.replace(wl, base={**wl.base, **TINY[name]}))
    monkeypatch.setattr(bench, "WORK", tmp_path)
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert bench.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert list(tmp_path.iterdir()) == []


def test_fails_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "sim-n128",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_check_counts_failed_rows(tmp_path):
    io, spectral = bench._import_torns()
    wl = bench.WORKLOADS["sim-n128"]
    wl = dataclasses.replace(wl, base={**wl.base, **TINY["sim-n128"], "stride": 1})
    cfg = bench.make_config(wl, 3, io)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    it = bench.run_iteration(wl, cfg_path, tmp_path / "it")
    attempted, failed = bench.check(wl, cfg, it, io, spectral, None)
    assert attempted == 2 * 6 and failed == 0

    series = it.out / "simulate" / "series.csv"
    _, rows = bench._read_csv(series)
    values = [float(v) for v in rows[3]]
    reference = {"rtol": 1e-9, "series.csv": {"rows": [{"row": 3, "values": values}]}}
    assert bench.check(wl, cfg, it, io, spectral, reference) == (attempted, 0)
    values[1] *= 1.0 + 1e-6
    assert bench.check(wl, cfg, it, io, spectral, reference) == (attempted, 1)

    series.write_text(series.read_text().replace(rows[3][1], "nan"))
    assert bench.check(wl, cfg, it, io, spectral, None) == (attempted, attempted)
