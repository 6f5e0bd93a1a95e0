#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the torns CLI.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload NAME --write-reference

Each workload is a closed loop with one client: fresh `torns` processes
(`python3 -m torns.cli` on the checkout's src/), the next started only after
the previous one exits, for about --seconds (no iteration is started that
would, at the median pace so far, end after --seconds; at least one runs).  The configs are generated from
--seed.  Every output is checked (exit code, finite values, no error rows, row
counts, manifest checksums, field invariants of the final state and, for the
default seed, the reference values in reference.json).

--trace 0 reports the end-to-end metrics: member trajectory-steps per second
and wall time per iteration, fresh-process set-up time (import plus
load_config), peak RSS and ok_frac, the share of checked rows that passed
(1 - failed_frac, so that it is never 0).  --trace 1 runs one untraced and one
traced iteration (spans from probe.py), the threads=1 pass of cells-n16-t2 and
the calibration sweep, and reports the per-layer metrics.  The last stdout
line is the JSON result; the lines before it are tables with units, quartiles
and sample counts, and the provenance of the run.

--write-reference runs the default seed twice, the second time with the norms
of f, h and u0 perturbed by 1e-12 relative, and stores sampled rows together
with the drift the perturbation caused; the stored tolerance must be at least
100 times that drift.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
PROBE = HERE / "probe.py"

DEFAULT_SEED = 0
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0  # children still running this long after start are killed
_deadline = math.inf  # monotonic time, set by main()

# ROADMAP item-1 baseline (2-core machine, numpy 2.4.6, Python 3.11), in us
BASELINE_US = {"step": {16: 213, 32: 380, 64: 1015, 128: 4852},
               "B": {16: 185, 32: 361, 64: 863, 128: 3931}}

# what the CLI's experiment subcommands run, to count member-steps and rows
SMOOTHING = {"seeds": 3, "directions": 2, "deltas": 3, "horizons": 3, "t_max": 2.0}
CONVERGENCE = {"paths": 8, "levels": 4, "base_dt": 2.0**-7, "T": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict            # config without the field seeds
    norms: tuple          # L2 norms of f, h, u0
    commands: tuple       # one argv tail per subcommand, in order


WORKLOADS = {
    # FFT-bound: nonlinear_term and raw FFT dominate; the noise path is written
    # every step, so observers and io run per step but are a small share
    "sim-n128": Workload(
        "sim-n128", {"nu": 0.05, "N": 128, "dt": 2e-3, "t_end": 1.0, "stride": 50},
        (0.5, 0.05, 1.0), (("simulate",),)),
    # overhead-bound: many short trajectories in experiment cells on the pool,
    # both conjugated and EM steppers, bridge refinement
    "cells-n16-t2": Workload(
        "cells-n16-t2", {"nu": 1.0, "N": 16, "dt": 2e-3},
        (0.3, 0.3, 1.0), (("smoothing", "--threads", "2"), ("convergence", "--threads", "2"))),
}


def _fail(msg: str) -> None:
    print(f"benchmark error: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_torns():
    """The library under src/ of this checkout, never an installed copy."""
    if not (SRC / "torns" / "__init__.py").is_file():
        _fail(f"no torns sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import torns
    from torns import io, spectral

    if Path(torns.__file__).resolve().parent != (SRC / "torns").resolve():
        _fail(f"imported torns from {torns.__file__}, not {SRC}")
    return io, spectral


# ---------------------------------------------------------------- inputs

def make_config(wl: Workload, seed: int, io) -> dict:
    """The workload's config for a seed; noise fields are drawn until h is
    admissible, ||grad h||_Linf < sqrt(pi) nu lambda_1."""
    rng = random.Random(f"{wl.name}/{seed}")
    draw = lambda: rng.randrange(2**31)  # noqa: E731
    nf, nh, nu0 = wl.norms
    cfg = dict(wl.base, seed=draw(),
               forcing={"preset": "random", "norm": nf, "seed": draw()},
               initial={"preset": "random", "norm": nu0, "seed": draw()})
    for _ in range(64):
        cfg["noise"] = {"preset": "random", "norm": nh, "seed": draw()}
        if io.load_config(cfg).assumption.satisfied:
            return cfg
    _fail(f"{wl.name}: no admissible noise field in 64 draws")


def perturbed(cfg: dict, rel: float) -> dict:
    """cfg with the norms of f, h and u0 scaled by 1 + rel."""
    out = dict(cfg)
    for key in ("forcing", "noise", "initial"):
        out[key] = dict(cfg[key], norm=cfg[key]["norm"] * (1.0 + rel))
    return out


def member_steps(wl: Workload, cfg: dict) -> int:
    """Trajectory-steps of one iteration, counting members, not calls."""
    total = 0
    for cmd in wl.commands:
        if cmd[0] == "simulate":
            total += round(cfg["t_end"] / cfg["dt"])
        elif cmd[0] == "smoothing":
            s = SMOOTHING
            total += s["seeds"] * s["directions"] * (1 + s["deltas"]) * round(s["t_max"] / cfg["dt"])
        elif cmd[0] == "convergence":
            c = CONVERGENCE
            coarse = round(c["T"] / c["base_dt"])
            total += c["paths"] * 2 * sum(coarse * 2**lv for lv in range(c["levels"]))
    return total


def expected_rows(cmd: str, cfg: dict) -> dict:
    """CSV file -> data rows the subcommand must write."""
    if cmd == "simulate":
        steps = round(cfg["t_end"] / cfg["dt"])
        return {"series.csv": steps // cfg["stride"] + 1, "noise.csv": steps + 1}
    if cmd == "smoothing":
        s = SMOOTHING
        return {"smoothing.csv": s["seeds"] * s["directions"] * s["deltas"] * s["horizons"]}
    return {"convergence.csv": CONVERGENCE["levels"]}


# ---------------------------------------------------------------- running

@dataclass
class Iteration:
    wall_s: float
    rss_mb: float
    codes: list
    out: Path


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list, log: Path) -> tuple[int, float]:
    """Run argv to completion; exit code and peak RSS (MB) of that process."""
    with open(log, "ab") as fh:
        p = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL,
                             stdout=fh, stderr=fh)
    killer = threading.Timer(_time_left(), p.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        killer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024.0


def run_iteration(wl: Workload, cfg_path: Path, out: Path, threads: str | None = None,
                  spans: Path | None = None) -> Iteration:
    """One closed-loop iteration: every subcommand of the workload, in order."""
    out.mkdir(parents=True)
    codes, rss = [], 0.0
    t0 = time.perf_counter()
    for i, cmd in enumerate(wl.commands):
        cmd = list(cmd)
        if threads is not None and "--threads" in cmd:
            cmd[cmd.index("--threads") + 1] = threads
        args = [*cmd, "--config", str(cfg_path), "--out", str(out / cmd[0]), "--quiet"]
        if spans is None:
            argv = [sys.executable, "-m", "torns.cli", *args]
        else:
            argv = [sys.executable, str(PROBE), "trace", str(spans.with_suffix(f".{i}.json")), *args]
        code, peak = spawn(argv, out / "log.txt")
        if code != 0:
            tail = (out / "log.txt").read_text(errors="replace")[-2000:]
            print(f"{cmd[0]} exited {code}:\n{tail}", file=sys.stderr)
        codes.append(code)
        rss = max(rss, peak)
    return Iteration(time.perf_counter() - t0, rss, codes, out)


def _time_left() -> float:
    return min(max(0.0, _deadline - time.monotonic()), RUN_LIMIT_S)


def probe(argv: list) -> dict:
    res = subprocess.run([sys.executable, str(PROBE), *argv], cwd=ROOT, env=_env(),
                         stdin=subprocess.DEVNULL, capture_output=True, text=True,
                         timeout=_time_left())
    if res.returncode != 0:
        _fail(f"probe {argv[0]} exited {res.returncode}: {res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- checks

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines() or [""]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _row_ok(header: list[str], row: list[str], last: bool) -> bool:
    if len(row) != len(header):
        return False
    for col, cell in zip(header, row):
        if col == "error":
            if cell:
                return False
        elif col == "direction":
            if cell not in ("random", "lowest"):
                return False
        elif cell == "":
            if not (last and col in ("ratio", "order")):  # convergence: no ratio after the last level
                return False
        else:
            try:
                if not math.isfinite(float(cell)):
                    return False
            except ValueError:
                return False
    return True


def _deviations(ref_rows: list, rows: list) -> list[float]:
    """Per reference row: largest |value - reference| over its column's scale."""
    cols = len(ref_rows[0]["values"])
    scale = [max((abs(r["values"][c]) for r in ref_rows if r["values"][c] is not None), default=0.0)
             or 1.0 for c in range(cols)]
    out = []
    for ref in ref_rows:
        i = ref["row"]
        if i >= len(rows) or len(rows[i]) != cols:
            out.append(math.inf)
            continue
        dev = 0.0
        for c, want in enumerate(ref["values"]):
            got = _num(rows[i][c])
            if (got is None) != (want is None):
                dev = math.inf
            elif want is not None:
                dev = max(dev, abs(got - want) / scale[c])
        out.append(dev)
    return out


def _num(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def check(wl: Workload, cfg: dict, it: Iteration, io, spectral, reference: dict | None):
    """(attempted, failed) checked operations: report rows and series rows."""
    attempted = failed = 0
    for cmd, code in zip((c[0] for c in wl.commands), it.codes):
        d = it.out / cmd
        want = expected_rows(cmd, cfg)
        n = sum(want.values())
        attempted += n
        if code != 0 or not _manifest_ok(d, set(want) | _extra_files(cmd)) or (
                cmd == "simulate" and not _state_ok(d / "final_state.trns", io, spectral)):
            failed += n
            continue
        for name, rows_wanted in want.items():
            header, rows = _read_csv(d / name)
            if len(rows) != rows_wanted:
                failed += rows_wanted
                continue
            bad = {i for i, r in enumerate(rows) if not _row_ok(header, r, i == len(rows) - 1)}
            ref = (reference or {}).get(name)
            if ref is not None:
                for entry, dev in zip(ref["rows"], _deviations(ref["rows"], rows)):
                    if not dev <= reference["rtol"]:
                        bad.add(entry["row"])
            failed += len(bad)
    return attempted, failed


def _state_ok(path: Path, io, spectral) -> bool:
    try:
        return not spectral.field_violations(io.read_checkpoint(path).u)
    except ValueError:  # truncated or foreign checkpoint
        return False


def _extra_files(cmd: str) -> set:
    return {"final_state.trns", "plot.py"} if cmd == "simulate" else set()


def _manifest_ok(d: Path, files: set) -> bool:
    """The manifest lists exactly `files`, each with its sha256."""
    try:
        listed = json.loads((d / "manifest.json").read_text())["files"]
        return set(listed) == files and all(
            hashlib.sha256((d / f).read_bytes()).hexdigest() == listed[f]["sha256"] for f in files)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def load_reference(wl: Workload, cfg: dict, seed: int) -> dict | None:
    """Reference values for the default seed, if stored for exactly this config."""
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(wl.name)
    if entry is None:
        return None
    if entry["config"] != cfg:
        _fail(f"{REFERENCE.name} holds another {wl.name} config; rerun --write-reference")
    return {"rtol": entry["rtol"], **entry["files"]}


# ---------------------------------------------------------------- traces

def layer_metrics(span_files: list[Path]) -> dict:
    """Per-layer metrics of one traced iteration (all its subcommands)."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    step_us: list[float] = []
    nspans, cost_s = 0, 0.0
    for path in span_files:
        if not path.is_file():  # the traced subcommand failed; its checks count it
            continue
        data = json.loads(path.read_text())
        names, spans = data["names"], data["spans"]
        nspans += len(spans)
        cost_s += 1e-6 * data["span_cost_us"] * len(spans)
        for k, v in data["counters"].items():
            counters[k] = counters.get(k, 0) + v
        children: dict[int, list] = {}
        for s in spans:
            if s[3] >= 0:
                children.setdefault(s[3], []).append((s[1], s[2]))
        for i, (nid, t0, t1, _, _) in enumerate(spans):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - _covered(t0, t1, children.get(i, ()))
            if name == "dynamics.step":
                step_us.append(1e6 * (t1 - t0))

    def layer_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    b_calls = calls.get("spectral.B", 0)
    capacity = counters.get("experiments.pool_capacity_s", 0.0)
    q = statistics.quantiles(step_us, n=100, method="inclusive") if len(step_us) > 1 else [0.0] * 99
    return {
        "spectral.B.calls": (b_calls, "count"),
        "spectral.B.self_s": (self_s.get("spectral.B", 0.0), "s"),
        "spectral.B.us_per_call": (1e6 * total.get("spectral.B", 0.0) / max(b_calls, 1), "us"),
        "spectral.fft.planes": (counters.get("spectral.fft.planes", 0), "count"),
        "spectral.fft.self_s": (self_s.get("spectral.fft", 0.0), "s"),
        "spectral.fft.flops_computed": (counters.get("spectral.fft.flops_computed", 0.0), "flop"),
        "spectral.norm.calls": (calls.get("spectral.norm", 0), "count"),
        "spectral.norm.self_s": (self_s.get("spectral.norm", 0.0), "s"),
        "spectral.grad_linf.self_s": (self_s.get("spectral.grad_linf", 0.0), "s"),
        "dynamics.step.calls": (calls.get("dynamics.step", 0), "count"),
        "dynamics.step.self_s": (self_s.get("dynamics.step", 0.0), "s"),
        "dynamics.step.p50_us": (q[49], "us"),
        "dynamics.step.p99_us": (q[98], "us"),
        "dynamics.integrate.self_s": (self_s.get("dynamics.integrate", 0.0), "s"),
        "dynamics.check_assumption.self_s": (self_s.get("dynamics.check_assumption", 0.0), "s"),
        "noise.increments": (counters.get("noise.increments", 0), "count"),
        "noise.self_s": (layer_self("noise"), "s"),
        "experiments.cells": (counters.get("experiments.cells", 0), "count"),
        "experiments.cells_failed": (counters.get("experiments.cells_failed", 0), "count"),
        "experiments.cell.busy_s": (counters.get("experiments.cell.busy_s", 0.0), "s"),
        "experiments.cell.wait_s": (counters.get("experiments.cell.wait_s", 0.0), "s"),
        "experiments.parallel_eff": (counters.get("experiments.cell.busy_s", 0.0) / capacity
                                     if capacity else 0.0, "frac"),
        "io.write.bytes": (counters.get("io.write.bytes", 0), "B"),
        "io.write.self_s": (self_s.get("io.write", 0.0), "s"),
        "io.load_config.self_s": (self_s.get("io.load_config", 0.0), "s"),
        "cli.import_s": (counters.get("cli.import_s", 0.0), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "trace.spans": (nspans, "count"),
        "trace.cost_s": (cost_s, "s"),
    }


def _covered(t0: float, t1: float, intervals) -> float:
    """Length of [t0, t1] covered by the union of the given intervals."""
    covered, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            covered += b - a
            end = b
    return covered


# ---------------------------------------------------------------- reporting

def provenance(seed: int, samples: int, numpy_version: str) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sources = sorted((SRC / "torns").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    return {"git_commit": commit, "src_sha256": digest, "seed": seed, "samples": samples,
            "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version,
            "src_torns_lines": sum(len(p.read_text().splitlines()) for p in sources)}


# ---------------------------------------------------------------- modes

def check_all(wl, cfg, iterations, io, spectral, reference) -> tuple[int, int]:
    attempted = failed = 0
    for it in iterations:
        a, f = check(wl, cfg, it, io, spectral, reference)
        attempted, failed = attempted + a, failed + f
    return attempted, failed


def end_to_end(wl, cfg, iterations, setups, attempted, failed) -> dict:
    """Median over samples of each end-to-end metric; prints quartiles and counts."""
    steps = member_steps(wl, cfg)
    series = {
        "steps_per_s": ([steps / it.wall_s for it in iterations], "steps/s"),
        "wall_s": ([it.wall_s for it in iterations], "s"),
        "setup_s": (setups, "s"),
        "peak_rss_mb": ([it.rss_mb for it in iterations], "MB"),
        "ok_frac": ([1.0 - failed / attempted], "frac"),
    }
    print(f"{'metric':36s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>4s}  unit")
    metrics = {}
    for name, (values, unit) in series.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        print(f"{name:36s} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(values):4d}  {unit}")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def setup_times(cfg_path: Path, count: int) -> list[float]:
    return [probe(["setup", str(cfg_path)])["setup_s"] for _ in range(count)]


def run_untraced(wl, cfg, cfg_path, run_dir, seconds, io, spectral, reference):
    iterations = []
    start = time.perf_counter()
    # closed loop: the next iteration starts only if it should end within `seconds`
    while not iterations or (time.perf_counter() - start
                             + statistics.median(it.wall_s for it in iterations) <= seconds):
        iterations.append(run_iteration(wl, cfg_path, run_dir / f"it{len(iterations)}"))
    setups = setup_times(cfg_path, SETUP_PROBES)
    attempted, failed = check_all(wl, cfg, iterations, io, spectral, reference)
    metrics = end_to_end(wl, cfg, iterations, setups, attempted, failed)
    return attempted, failed, metrics, len(iterations)


def run_traced(wl, cfg, cfg_path, run_dir, io, spectral, reference):
    plain = run_iteration(wl, cfg_path, run_dir / "plain")
    spans = run_dir / "spans"
    traced = run_iteration(wl, cfg_path, run_dir / "traced", spans=spans)
    runs = [plain, traced]
    layers = layer_metrics([spans.with_suffix(f".{i}.json") for i in range(len(wl.commands))])
    steps = member_steps(wl, cfg)
    rows = {c[0]: expected_rows(c[0], cfg) for c in wl.commands}
    extra_failed = 0
    if layers["dynamics.step.calls"][0] != steps:
        print(f"check failed: traced dynamics.step calls {layers['dynamics.step.calls'][0]} "
              f"!= member-steps {steps}", file=sys.stderr)
        extra_failed += sum(n for want in rows.values() for n in want.values())
    speedup = 0.0
    if any("--threads" in c for c in wl.commands):
        single = run_iteration(wl, cfg_path, run_dir / "threads1", threads="1")
        runs.append(single)
        speedup = single.wall_s / plain.wall_s
        for cmd, want in rows.items():
            for name, n in want.items():
                a, b = plain.out / cmd / name, single.out / cmd / name
                if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                    print(f"check failed: {cmd}/{name} differs between --threads 1 and 2",
                          file=sys.stderr)
                    extra_failed += n
    sweep = probe(["sweep"])
    attempted, failed = check_all(wl, cfg, runs, io, spectral, reference)
    failed = min(attempted, failed + extra_failed)
    print("end-to-end, from the untraced iteration of this run (not reported):")
    end_to_end(wl, cfg, [plain], setup_times(cfg_path, 3), attempted, failed)
    print("per-layer, from the traced iteration:")

    layers["experiments.threads_speedup"] = (speedup, "x")
    layers["trace.overhead_frac"] = (traced.wall_s / plain.wall_s - 1.0, "frac")
    cost_s = layers.pop("trace.cost_s")[0]
    layers["trace.overhead_est_frac"] = (cost_s / (traced.wall_s - cost_s), "frac")
    layers["failed_frac"] = (failed / attempted, "frac")
    for key, value in sweep.items():
        layers[key] = (value, "us")
    for name, (value, unit) in layers.items():
        print(f"{name:36s} {value:14.6g}  {unit}")
    print(f"traced wall {traced.wall_s:.3f} s vs untraced {plain.wall_s:.3f} s: "
          f"tracing overhead {100 * (traced.wall_s / plain.wall_s - 1):.1f}% measured, "
          f"{100 * layers['trace.overhead_est_frac'][0]:.1f}% from {layers['trace.spans'][0]} spans "
          f"at their measured cost")
    print("calibration sweep (us)      N=16      N=32      N=64     N=128")
    for kind in ("step", "B"):
        print(f"  {kind:5s} measured      " + "".join(f"{sweep[f'sweep.{kind}.us.n{n}']:10.0f}"
                                                    for n in (16, 32, 64, 128)))
        print(f"  {kind:5s} ROADMAP item 1" + "".join(f"{BASELINE_US[kind][n]:10d}"
                                                    for n in (16, 32, 64, 128)))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    return attempted, failed, metrics, len(runs)


def write_reference(wl, io, spectral, run_dir, rel=1e-12, rtol=1e-9) -> None:
    """Store sampled output rows of the default seed, with the drift that a
    `rel` relative perturbation of the f, h and u0 norms causes in them."""
    cfg = make_config(wl, DEFAULT_SEED, io)
    outs = {}
    for tag, c in (("ref", cfg), ("perturbed", perturbed(cfg, rel))):
        path = run_dir / f"{tag}.json"
        path.write_text(json.dumps(c))
        it = run_iteration(wl, path, run_dir / tag)
        attempted, failed = check(wl, c, it, io, spectral, None)
        if failed:
            _fail(f"{tag} run failed {failed} of {attempted} checks")
        outs[tag] = it.out
    files, drift = {}, 0.0
    for cmd in (c[0] for c in wl.commands):
        for name in expected_rows(cmd, cfg):
            _, rows = _read_csv(outs["ref"] / cmd / name)
            picks = sorted({round(i * (len(rows) - 1) / 15) for i in range(16)})
            ref_rows = [{"row": i, "values": [_num(c) for c in rows[i]]} for i in picks]
            files[name] = {"rows": ref_rows}
            _, prow = _read_csv(outs["perturbed"] / cmd / name)
            drift = max(drift, *_deviations(ref_rows, prow))
    if drift * 100 > rtol:
        _fail(f"perturbation drift {drift:g} is not 100x below rtol {rtol:g}")
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data[wl.name] = {"config": cfg, "rtol": rtol, "perturbation_rel": rel,
                     "perturbation_drift": drift, "files": files}
    text = json.dumps(data, indent=1, sort_keys=True)
    # one line per innermost list, so a row of values reads as a row
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    REFERENCE.write_text(text + "\n")
    print(f"{wl.name}: reference written; {rel:g} perturbation drift {drift:.3g}, rtol {rtol:g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the default-seed reference values of the workload")
    args = ap.parse_args(argv)
    global _deadline
    _deadline = time.monotonic() + RUN_LIMIT_S

    io, spectral = _import_torns()
    import numpy

    wl = WORKLOADS[args.workload]
    # the library itself is compiled to bytecode once, untimed, like a build
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "torns")],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=RUN_LIMIT_S)
    run_dir = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.write_reference:
            write_reference(wl, io, spectral, run_dir)
            return 0
        cfg = make_config(wl, args.seed, io)
        cfg_path = run_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        reference = load_reference(wl, cfg, args.seed)
        if args.trace:
            attempted, failed, metrics, samples = run_traced(
                wl, cfg, cfg_path, run_dir, io, spectral, reference)
        else:
            attempted, failed, metrics, samples = run_untraced(
                wl, cfg, cfg_path, run_dir, args.seconds, io, spectral, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    prov = provenance(args.seed, samples, numpy.__version__)
    prov.update(workload=wl.name, trace=args.trace, reference_checked=reference is not None,
                member_steps_per_iteration=member_steps(wl, cfg))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
