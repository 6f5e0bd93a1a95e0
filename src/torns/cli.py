"""Command-line front end.

Subcommands map 1:1 onto library operations: validate (admissibility check;
the fields are audited as the config loads), simulate (one trajectory with
artifacts), pullback (the family {w0, 1 e, 10 e} on one path: its norms, its
spread and its synchronisation rate), smoothing, ergodic, taylor-green and
convergence.  COMMANDS has one row per subcommand; the parser is built from
it, and _run does once what every row shares: config loading, the --out
directory, the manifest and --quiet.  Each experiment row hands the rows of
its CSV and its summary line to _report.

Exit codes: 0 success, 1 validation/usage failure, 2 runtime abort (NaN/Inf).
On a blowup, pullback and smoothing keep their CSV with error rows
and print `aborted rows: k`; the others print `aborted: <diagnostic>`.  All
randomness flows from the config seed (or --seed override), recorded in the
manifest, so identical invocations are bit-reproducible for any --threads value.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, dynamics, experiments, io as tio
from .dynamics import NORMS, BlowupError, SimConfig, integrate
from .noise import horizon_steps, ou_from_wiener, sample_wiener
from .spectral import _DFT_MAX_N, random_row

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ABORT = 2
# what a row's run(cfg, args, out) returns: the exit code, the files for the
# manifest (None: no manifest) and the summary for stdout (None: nothing to print)
Outcome = tuple[int, list[str] | None, str | None]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1 (validation), not argparse's 2
        raise argparse.ArgumentError(None, message)


def _validate(cfg: SimConfig, args, out: Path) -> Outcome:
    if not cfg.assumption.satisfied:
        print("warning: admissibility condition violated (experiments may still probe this regime)",
              file=sys.stderr)
    # every field was audited as a row when the config was built (SimConfig)
    return EXIT_OK, None, f"assumption: {cfg.assumption.summary()}\nfields: ok"


def _simulate(cfg: SimConfig, args, out: Path) -> Outcome:
    steps = horizon_steps(cfg.t_end, cfg.dt)
    # h = 0 runs the deterministic system, with no noise path to write
    ou = ou_from_wiener(sample_wiener(0.0, steps * cfg.dt, cfg.dt, seed=cfg.seed)) if cfg.noisy else None
    try:
        state, rows = integrate(cfg.u0, cfg, path=ou)
    except BlowupError as exc:
        tio.write_checkpoint(exc.last_state, out / "abort_state.trns", nu=cfg.nu)
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT, ["abort_state.trns"], None
    files = ["series.csv", "final_state.trns", "plot.py"]
    if ou is not None:  # dW on row k is the increment arriving at t_k, 0.0 on the first
        dW = np.concatenate([[0.0], ou.wiener.increments])
        tio.write_rows_csv([{"t": t, "dW": d, "z": z} for t, d, z in zip(ou.times(), dW, ou.z)],
                           out / "noise.csv")
        files.append("noise.csv")
    tio.write_rows_csv(rows, out / "series.csv")
    tio.write_checkpoint(state, out / "final_state.trns", nu=cfg.nu)
    tio.emit_plot_script(["series.csv"], out / "plot.py")
    # the series records the conjugated v, at every stride-th step only; the
    # physical solution is u = v + h z, read off the vorticity block as v is
    v, u = (state.half.norms(w)[0] for w in (state.w, state.w + state.z * cfg.hw))
    return EXIT_OK, files, (
        f"simulated {steps} steps to t={state.t:g}; final |v| = {v:.6g}, |u| = |v + h z(T)| = {u:.6g}")


def _report(rows: list[dict], name: str, out: Path, summary: str) -> Outcome:
    """Write rows to out/name.  Rows with an error exit 2 and print `aborted rows: k` on stderr
    in place of the summary; the CSV and manifest are kept."""
    tio.write_rows_csv(rows, out / name)
    failed = sum(1 for row in rows if row.get("error"))
    if failed:
        print(f"aborted rows: {failed}", file=sys.stderr)
        return EXIT_ABORT, [name], None
    return EXIT_OK, [name], summary


def _taylor_green(cfg: SimConfig, args, out: Path) -> Outcome:
    cfg = replace(cfg, w0=dynamics.taylor_green(0.0, cfg.nu, cfg.grid))
    state, rows = integrate(cfg.u0, cfg)
    # roundoff left in modes that decay at nu lambda_1, half the vortex's rate,
    # outgrows the vortex on a small torus or a long horizon: so the error is
    # scaled by ||u(0)||, not ||u(T)||, and the rate is read off the vortex's
    # own coefficient, w at j = (1, 1), which is -k0 e^{-2 nu lambda_1 t} / 2
    half = state.half
    err = half.norms(state.w - dynamics.taylor_green(state.t, cfg.nu, cfg.grid))[0] / half.norms(cfg.w0)[0]
    a0, a = -cfg.w0[1, 1].real, -state.w[1, 1].real
    rate = math.log(a / a0) / state.t if a > 0 else -math.inf
    expected = -2 * cfg.nu * cfg.grid.lambda1
    # once the vortex has decayed, err is small whatever the rate; the
    # coefficient itself must then be right to 1e-8 relative
    ok = err < 1e-8 and abs(rate - expected) * state.t < 1e-8
    tio.write_rows_csv(rows, out / "taylor_green.csv")
    return EXIT_OK if ok else EXIT_VALIDATION, ["taylor_green.csv"], (
        f"taylor-green: final error {err:.3e} of |u(0)|, decay rate of the vortex's coefficient "
        f"{rate:.8f} (expected {expected:.8f})")


# the fixed horizons of the pullback and smoothing rows
_PULLBACK_HORIZONS = (2.0, 5.0, 10.0)
_SMOOTHING_HORIZONS = (0.5, 1.0, 2.0)
# pullback's family past w0: these multiples of one fixed unit row e
_PULLBACK_RADII = (1.0, 10.0)


def _pullback(cfg: SimConfig, args, out: Path) -> Outcome:
    # the family {w0, r e} on one path: dist_H is a member's H distance to the
    # w0 member at time 0, and the synchronisation rate is the least-squares
    # decay rate of log max dist_H against the horizon
    e = random_row(dynamics._half_spectrum(cfg.grid), 99, norm=1.0, stream=29)
    horizons, members = list(_PULLBACK_HORIZONS), ["w0", *_PULLBACK_RADII]
    runs = experiments.pullback_solve(cfg, horizons, cfg.seed, [cfg.w0, *(r * e for r in _PULLBACK_RADII)],
                                      args.threads)
    rows, sups, logs = [], [], []
    for h, states in zip(horizons, runs):
        w0 = states[0]
        for member, st in zip(members, states):
            failed = isinstance(st, BlowupError)
            norms = dict.fromkeys(NORMS, math.nan) if failed else st.norms()
            dist = math.nan if failed or isinstance(w0, BlowupError) else st.half.norms(st.w - w0.w)[0]
            rows.append({"horizon": h, "member": member, **norms, "dist_H": dist,
                         "error": str(st) if failed else ""})
        family = rows[-len(members):]
        sups.append(max(r[NORMS[0]] for r in family))
        spread = max(r["dist_H"] for r in family)
        logs.append(math.log(spread) if spread > 0 else -math.inf)
    mh, ml = sum(horizons) / len(horizons), sum(logs) / len(logs)
    rate = -sum((h - mh) * (y - ml) for h, y in zip(horizons, logs)) / sum((h - mh) ** 2 for h in horizons)
    tio.emit_plot_script(["pullback.csv"], out / "plot.py")
    code, files, summary = _report(rows, "pullback.csv", out, "pullback family: sup " + ", ".join(
        f"H(t={h})={sup:.4g}" for h, sup in zip(horizons, sups)) + f"; synchronisation rate {rate:.4f}")
    return code, files + ["plot.py"], summary


def _smoothing(cfg: SimConfig, args, out: Path) -> Outcome:
    rows = experiments.measure_smoothing(
        cfg, cfg.w0, deltas=[1e-2, 1e-3, 1e-4], horizons=list(_SMOOTHING_HORIZONS),
        seeds=[cfg.seed, cfg.seed + 1, cfg.seed + 2], threads=args.threads)
    ratios = sorted(r["ratio"] for r in rows if r["delta"] > 0)
    mid = len(ratios) // 2  # statistics.median's arithmetic, without its 0.4 MB import
    median = ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2
    return _report(rows, "smoothing.csv", out,
                   f"smoothing: max ratio {max(ratios):.6g}, median {median:.6g}")


def _ergodic(cfg: SimConfig, args, out: Path) -> Outcome:
    rows = experiments.ergodic_check(T=1e4, dt=1e-2, seeds=[cfg.seed, cfg.seed + 1, cfg.seed + 2])
    return _report(rows, "ergodic.csv", out,
                   f"ergodic: worst relative error {max(r['rel_error'] for r in rows):.4%}")


def _convergence(cfg: SimConfig, args, out: Path) -> Outcome:
    rows = experiments.conjugation_convergence(
        cfg, base_dt=2.0**-7, levels=4, T=1.0, seed=cfg.seed,
        paths=8, threads=args.threads)
    return _report(rows, "convergence.csv", out,
                   f"conjugation convergence: ratios {['%.3f' % r['ratio'] for r in rows[:-1]]}")


class Command(NamedTuple):
    preset: str  # used when neither --config nor --preset is given
    run: Callable[[SimConfig, argparse.Namespace, Path], Outcome]
    writes: bool = True  # creates --out
    horizons: tuple[float, ...] = ()  # refused before creating --out unless dt divides each
    to_t_end: bool = False  # steps to the config's t_end, refused the same way or at 0 steps


COMMANDS = {
    "validate": Command("decay-noise", _validate, writes=False),
    "simulate": Command("decay-noise", _simulate, to_t_end=True),
    "pullback": Command("decay-noise", _pullback, horizons=_PULLBACK_HORIZONS),
    "smoothing": Command("decay-noise", _smoothing, horizons=_SMOOTHING_HORIZONS),
    "ergodic": Command("decay-noise", _ergodic),
    "taylor-green": Command("taylor-green", _taylor_green, to_t_end=True),
    "convergence": Command("decay-noise", _convergence),
}


def _at_least_one(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _build_parser() -> _Parser:
    p = _Parser(prog="torns", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=Path, help="JSON config path")
        sp.add_argument("--preset", type=str, default=None, help="named config preset")
        sp.add_argument("--out", type=Path, default="out", help="artifact directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--threads", type=_at_least_one, default=1, help="at most this many workers per "
                        "experiment call (pullback, smoothing, convergence) on FFT grids "
                        f"(N > {_DFT_MAX_N}); smaller grids step on the calling thread")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
    return p


def _load(args, preset: str) -> tuple[SimConfig, dict]:
    """Config plus its normalized raw dict (the re-loadable manifest echo)."""
    if args.config is None:
        raw = tio.normalize_config({"preset": args.preset or preset})
    else:
        try:
            text = args.config.read_text()
        except OSError as exc:
            raise tio.ConfigError("config", str(exc)) from exc
        raw = tio.normalize_config(text)
    if args.seed is not None:
        raw["seed"] = args.seed
    return tio.load_config(raw), raw


def _run(args) -> int:
    command = COMMANDS[args.command]
    cfg, echo = _load(args, command.preset)
    for T in command.horizons + ((cfg.t_end,) if command.to_t_end else ()):
        try:
            horizon_steps(T, cfg.dt)
        except ValueError as exc:
            raise tio.ConfigError("dt", str(exc)) from None
    if command.to_t_end and horizon_steps(cfg.t_end, cfg.dt) == 0:
        raise tio.ConfigError("t_end", f"{cfg.t_end} rounds to 0 steps of dt = {cfg.dt}; need at least one")
    if command.writes:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # an existing file, or a path under one
            raise argparse.ArgumentError(None, f"--out {args.out}: {exc.strerror or exc}") from None
    code, files, summary = command.run(cfg, args, args.out)
    if files is not None:
        tio.write_manifest(args.out, echo, [cfg.seed], files, command=args.command)
    if summary is not None and not args.quiet:
        print(summary)
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(_build_parser().parse_args(argv))
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except tio.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BlowupError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
