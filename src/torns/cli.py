"""Command-line front end.

Subcommands map 1:1 onto library operations: validate (admissibility check and
field audit), simulate (one trajectory with artifacts), pullback, smoothing,
absorbing, ergodic, taylor-green and convergence.

Exit codes: 0 success, 1 validation/usage failure, 2 runtime abort (NaN/Inf),
with partial artifacts and the abort diagnostic on stderr.  All randomness
flows from the config seed (or --seed override), recorded in the manifest, so
identical invocations are bit-reproducible for any --threads value.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamics, experiments, io as tio
from .dynamics import BlowupError, SimConfig, integrate
from .noise import ou_from_wiener, sample_wiener
from .spectral import field_violations, sobolev_norm

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ABORT = 2


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; usage errors are validation
    # failures here (exit 1), so raise instead
    def error(self, message):
        raise CliError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="torns", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version="%(prog)s 0.1.0")
    sub = p.add_subparsers(dest="command", required=True)
    commands = ("validate", "simulate", "pullback", "smoothing", "absorbing",
                "ergodic", "taylor-green", "convergence")
    for name in commands:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None, help="JSON config path")
        sp.add_argument("--preset", type=str, default=None, help="named config preset")
        sp.add_argument("--out", type=str, default="out", help="artifact directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--threads", type=int, default=1, help="experiment cell workers")
        sp.add_argument("--quiet", action="store_true", help="suppress progress output")
    return p


def _load(args) -> tuple[SimConfig, dict]:
    """Config plus its normalized raw dict (the re-loadable manifest echo)."""
    if args.config is not None:
        raw = tio.normalize_config(Path(args.config).read_text())
    else:
        preset = args.preset
        if preset is None:
            preset = "taylor-green" if args.command == "taylor-green" else "decay-noise"
        raw = tio.normalize_config(tio.config_defaults(preset))
    if args.seed is not None:
        raw["seed"] = args.seed
    return tio.load_config(raw), raw


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _finish(args, cfg, echo: dict, files: list[str]) -> None:
    tio.write_manifest(args.out, echo, [cfg.seed], files, command=args.command)


def _cmd_validate(args) -> int:
    cfg, echo = _load(args)
    problems = []
    for name, u in (("f", cfg.f), ("h", cfg.h)) + ((("u0", cfg.u0),) if cfg.u0 is not None else ()):
        for v in field_violations(u):
            problems.append(f"{name}: {v}")
    rep = cfg.assumption
    print(f"assumption: {rep.summary()}")
    if not rep.satisfied:
        print("warning: admissibility condition violated (experiments may still probe this regime)",
              file=sys.stderr)
    if problems:
        for pb in problems:
            print(f"invalid field: {pb}", file=sys.stderr)
        return EXIT_VALIDATION
    print("fields: ok")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg, echo = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    v0 = cfg.u0 if cfg.u0 is not None else dynamics.taylor_green(0.0, cfg.nu, cfg.grid)
    steps = round(cfg.t_end / cfg.dt)
    noisy = sobolev_norm(cfg.h, 0.0) > 0.0
    files: list[str] = []
    try:
        if noisy:
            w = sample_wiener(0.0, steps * cfg.dt, cfg.dt, seed=cfg.seed)
            ou = ou_from_wiener(w, init="stationary")
            res = integrate(v0, cfg, path=ou)
            tio.write_path_csv(ou, out / "noise.csv")
            files.append("noise.csv")
        else:
            res = integrate(v0, cfg, steps=steps)
    except BlowupError as exc:
        tio.write_checkpoint(exc.last_state, out / "abort_state.trns", nu=cfg.nu)
        files.append("abort_state.trns")
        _finish(args, cfg, echo, files)
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT
    tio.write_series_csv(res.series, out / "series.csv")
    files.append("series.csv")
    tio.write_checkpoint(res.state, out / "final_state.trns", nu=cfg.nu)
    files.append("final_state.trns")
    tio.emit_plot_script(["series.csv"], out / "plot.py")
    files.append("plot.py")
    _finish(args, cfg, echo, files)
    _say(args, f"simulated {steps} steps to t={res.state.t:g}; final |u| = {res.series.norm_h[-1]:.6g}")
    return EXIT_OK


def _cmd_taylor_green(args) -> int:
    cfg, echo = _load(args)
    if abs(cfg.grid.L - 2.0 * math.pi) > 1e-12:
        print("taylor-green validation requires L = 2*pi", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    v0 = dynamics.taylor_green(0.0, cfg.nu, cfg.grid)
    steps = round(cfg.t_end / cfg.dt)
    res = integrate(v0, cfg, steps=steps)
    exact = dynamics.taylor_green(res.state.t, cfg.nu, cfg.grid)
    err = sobolev_norm(res.state.u - exact, 0.0) / sobolev_norm(exact, 0.0)
    rate = float(np.polyfit(res.series.t, np.log(res.series.norm_h), 1)[0])
    tio.write_series_csv(res.series, out / "taylor_green.csv")
    _finish(args, cfg, echo, ["taylor_green.csv"])
    _say(args, f"taylor-green: max relative error {err:.3e}, fitted decay rate {rate:.8f} "
               f"(expected {-2 * cfg.nu:.8f})")
    return EXIT_OK if err < 1e-8 else EXIT_VALIDATION


def _cmd_pullback(args) -> int:
    cfg, echo = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    horizons = [5.0, 10.0, 20.0]
    rows = []
    v0 = cfg.u0 if cfg.u0 is not None else dynamics.taylor_green(0.0, cfg.nu, cfg.grid)
    for hor in horizons:
        st = experiments.pullback_solve(
            experiments.PullbackSpec(horizon=hor, seed=cfg.seed, initial_states=[v0], cfg=cfg))[0]
        rows.append({"horizon": hor, "norm_h": sobolev_norm(st.u, 0.0),
                     "norm_h1": sobolev_norm(st.u, 1.0), "norm_h2": sobolev_norm(st.u, 2.0)})
    tio.write_rows_csv(rows, ["horizon", "norm_h", "norm_h1", "norm_h2"], out / "pullback.csv")
    tio.emit_plot_script(["pullback.csv"], out / "plot.py")
    _finish(args, cfg, echo, ["pullback.csv", "plot.py"])
    _say(args, f"pullback states at 0 for horizons {horizons} written")
    return EXIT_OK


def _cmd_smoothing(args) -> int:
    cfg, echo = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    v0 = cfg.u0 if cfg.u0 is not None else dynamics.taylor_green(0.0, cfg.nu, cfg.grid)
    rep = experiments.measure_smoothing(
        cfg, v0, deltas=[1e-2, 1e-3, 1e-4], horizons=[0.5, 1.0, 2.0],
        seeds=[cfg.seed, cfg.seed + 1, cfg.seed + 2], threads=args.threads)
    cols = ["seed", "direction", "delta", "T", "dist0", "distT_h2_sq", "ratio", "error"]
    tio.write_rows_csv(rep.rows, cols, out / "smoothing.csv")
    _finish(args, cfg, echo, ["smoothing.csv"])
    _say(args, f"smoothing: max ratio {rep.max_ratio:.6g}, median {rep.median_ratio:.6g}")
    return EXIT_OK


def _cmd_absorbing(args) -> int:
    cfg, echo = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rep = experiments.measure_absorbing(
        cfg, initial_radii=[1.0, 10.0], horizons=[2.0, 5.0],
        seed=cfg.seed, threads=args.threads)
    cols = ["radius", "horizon", "norm_h", "norm_h1", "norm_h2", "dist_h2", "error"]
    tio.write_rows_csv(rep.rows, cols, out / "absorbing.csv")
    _finish(args, cfg, echo, ["absorbing.csv"])
    failures = [r for r in rep.rows if r["error"]]
    if failures:
        print(f"aborted cells: {len(failures)}", file=sys.stderr)
        return EXIT_ABORT
    _say(args, "absorbing radii: " + ", ".join(
        f"H(t={h})={rep.radius_estimates[(h, 'H')]:.4g}" for h in rep.horizons))
    return EXIT_OK


def _cmd_ergodic(args) -> int:
    cfg, echo = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rep = experiments.ergodic_check(T=1e4, dt=1e-2,
                                    seeds=[cfg.seed, cfg.seed + 1, cfg.seed + 2])
    tio.write_rows_csv(rep.rows, ["seed", "m", "empirical", "analytic", "rel_error"],
                       out / "ergodic.csv")
    _finish(args, cfg, echo, ["ergodic.csv"])
    worst = max(r["rel_error"] for r in rep.rows)
    _say(args, f"ergodic: worst relative error {worst:.4%}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    cfg, echo = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rep = experiments.conjugation_convergence(
        cfg, base_dt=2.0**-7, levels=4, T=1.0, seed=cfg.seed,
        paths=8, threads=args.threads)
    rows = [{"level": i, "dt": rep.dts[i], "strong_error": rep.errors[i],
             "ratio": rep.ratios[i] if i < len(rep.ratios) else "",
             "order": rep.orders[i] if i < len(rep.orders) else ""}
            for i in range(len(rep.dts))]
    tio.write_rows_csv(rows, ["level", "dt", "strong_error", "ratio", "order"],
                       out / "convergence.csv")
    _finish(args, cfg, echo, ["convergence.csv"])
    _say(args, f"conjugation convergence: ratios {['%.3f' % r for r in rep.ratios]}")
    return EXIT_OK


_HANDLERS = {
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
    "pullback": _cmd_pullback,
    "smoothing": _cmd_smoothing,
    "absorbing": _cmd_absorbing,
    "ergodic": _cmd_ergodic,
    "taylor-green": _cmd_taylor_green,
    "convergence": _cmd_convergence,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return _HANDLERS[args.command](args)
    except tio.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BlowupError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
