"""Child-process side of the torns benchmark (see run.py).

    python3 benchmarks/probe.py setup CONFIG
        time `import torns` plus `io.load_config` on CONFIG in this fresh process
    python3 benchmarks/probe.py trace SPANS ARG...
        run `torns ARG...` with the public functions of spectral, noise,
        dynamics, experiments, io and cli wrapped in spans; write them to SPANS
    python3 benchmarks/probe.py sweep
        time nonlinear_term and one conjugated ETD2 step at N = 16, 32, 64, 128

setup and sweep print one JSON object on stdout; trace exits with the CLI's
exit code.  Only the standard library is imported before a timed region.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
import types
from pathlib import Path

# span names that differ from "<layer>.<function>"
ALIASES = {
    "spectral.nonlinear_term": "spectral.B",
    "spectral.sobolev_norm": "spectral.norm",
    "dynamics.step_deterministic": "dynamics.step",
    "dynamics.step_random": "dynamics.step",
    "dynamics.step_em_stochastic": "dynamics.step",
    "io.write_checkpoint": "io.write",
    "io.write_series_csv": "io.write",
    "io.write_rows_csv": "io.write",
    "io.write_path_csv": "io.write",
    "io.emit_plot_script": "io.write",
    "io.write_manifest": "io.write",
}
WIENER_MAKERS = ("noise.sample_wiener", "noise.pullback_wiener",
                 "noise.refine_wiener", "noise.coarsen_wiener")


def setup(config: str) -> None:
    t0 = time.perf_counter()
    import torns  # noqa: F401  (the import is part of what is timed)
    from torns import io

    io.load_config(Path(config).read_text())
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


class Tracer:
    """In-memory spans [name, start, end, parent, thread id] and summed counters.

    A span's parent is the innermost open span on its thread; an experiment
    cell's parent is the run_cells call that submitted it.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: list[tuple[str, float]] = []  # list.append is atomic across threads
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, parent=None, after=None):
        """fn wrapped in a span; after(args, kwargs, result) records counters."""
        spans, stack_of, clock, ident = self.spans, self._stack, time.perf_counter, threading.get_ident

        def wrapper(*args, **kwargs):
            stack = stack_of()
            rec = [name, 0.0, 0.0, parent if parent is not None else (stack[-1] if stack else None), ident()]
            spans.append(rec)
            stack.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def dump(self, path: Path, extra: dict) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        names = sorted({rec[0] for rec in self.spans})
        name_id = {n: i for i, n in enumerate(names)}
        counters: dict[str, float] = {}
        for key, value in self.counters:
            counters[key] = counters.get(key, 0) + value
        rows = [[name_id[r[0]], r[1], r[2], -1 if r[3] is None else index[id(r[3])], r[4]]
                for r in self.spans]
        path.write_text(json.dumps({**extra, "names": names, "spans": rows, "counters": counters}))


def _instrument(tracer: Tracer) -> None:
    """Wrap every public function of the six layers under every module-level
    name it is bound to, and the FFTs that spectral reaches through `np.fft`."""
    import inspect

    import numpy as np

    import torns
    from torns import cli, dynamics, experiments, io, noise, spectral

    modules = {"spectral": spectral, "noise": noise, "dynamics": dynamics,
               "experiments": experiments, "io": io, "cli": cli}
    holders = [torns, *modules.values()]
    count = tracer.counters.append

    def after_for(key, fn):
        if key in WIENER_MAKERS:
            return lambda a, k, out: count(("noise.increments", out.increments.size))
        if ALIASES.get(key) == "io.write":
            sig = inspect.signature(fn)

            def written(a, k, out):
                target = out if isinstance(out, Path) else sig.bind(*a, **k).arguments["path"]
                count(("io.write.bytes", Path(target).stat().st_size))
            return written
        return None

    for layer, mod in modules.items():
        for attr in getattr(mod, "__all__", ["main"]):
            fn = getattr(mod, attr)
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            key = f"{layer}.{attr}"
            wrapped = tracer.span(ALIASES.get(key, key), fn, after=after_for(key, fn))
            if key == "experiments.run_cells":
                wrapped = tracer.span(key, _cells(tracer, fn))
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, name, wrapped)

    def fft_after(a, k, out):
        shape = out.shape
        n = shape[-2] * shape[-1]
        planes = out.size // n
        count(("spectral.fft.planes", planes))
        count(("spectral.fft.flops_computed", planes * 5.0 * n * math.log2(n)))

    # the real and n-d transforms too, so that a half-spectrum core stays counted
    fft = _module_copy(np.fft, **{f: tracer.span("spectral.fft", getattr(np.fft, f), after=fft_after)
                                  for f in ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn")})
    spectral.np = _module_copy(np, fft=fft)


def _module_copy(module, **overrides):
    """A module object with the namespace of `module`, some names replaced."""
    out = types.ModuleType(module.__name__)
    out.__dict__.update(vars(module))
    out.__dict__.update(overrides)
    return out


def _cells(tracer: Tracer, run_cells):
    """run_cells whose thunks each run in an experiments.cell span.

    Counters: cells, failed cells (raised, or returned rows with an error),
    wait from submission to start, busy time, and threads x pool wall time.
    """
    count = tracer.counters.append

    def failed(result) -> bool:
        rows = result if isinstance(result, list) else [result]
        return any(isinstance(r, dict) and r.get("error") for r in rows)

    def traced_run_cells(cells: dict, threads: int = 1):
        parent = tracer.current()
        submitted = time.perf_counter()

        def cell(fn):
            def body():
                start = time.perf_counter()
                count(("experiments.cell.wait_s", start - submitted))
                count(("experiments.cells", 1))
                try:
                    out = fn()
                except BaseException:
                    count(("experiments.cells_failed", 1))
                    raise
                finally:
                    count(("experiments.cell.busy_s", time.perf_counter() - start))
                count(("experiments.cells_failed", int(failed(out))))
                return out
            return tracer.span("experiments.cell", body, parent=parent)

        try:
            return run_cells({k: cell(fn) for k, fn in cells.items()}, threads)
        finally:
            workers = max(1, min(threads, len(cells)))
            count(("experiments.pool_capacity_s", workers * (time.perf_counter() - submitted)))

    return traced_run_cells


def trace(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    from torns import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    _instrument(tracer)
    code = cli.main(argv)  # cli.main is wrapped now: the root span
    tracer.counters.append(("cli.import_s", import_s))
    tracer.dump(Path(spans_path), {"exit_code": code, "argv": argv, "span_cost_us": _span_cost_us()})
    return code


def _span_cost_us(calls: int = 20000) -> float:
    """What one span adds to a call, from a wrapped no-op in a scratch tracer."""
    def noop():
        return None

    wrapped = Tracer().span("noop", noop)
    times = []
    for fn in (noop, wrapped):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * (times[1] - times[0]) / calls


def _fastest_block_us(fn, target_s: float = 0.04, blocks: int = 9) -> float:
    """Fastest over blocks of the mean call time, each block about target_s long.

    The fastest block, as timeit reports it: on a shared host the speed of a
    virtual CPU jumps between states, and slower blocks measure the neighbours.
    """
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(target_s / max(time.perf_counter() - t0, 1e-9)))
    best = math.inf
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return 1e6 * best


def sweep() -> None:
    """B(u,u) per call and one conjugated ETD2 step, each called directly.

    The step is timed through integrate(), recording only at both ends, so it
    uses the public API: K steps per call, cost divided by K.
    """
    from torns import dynamics, io, noise, spectral

    out = {}
    for n in (16, 32, 64, 128):
        cfg = io.load_config({"nu": 0.05, "N": n, "dt": 2e-3,
                              "forcing": {"preset": "random", "norm": 0.5, "seed": 1},
                              "noise": {"preset": "random", "norm": 0.05, "seed": 2},
                              "initial": {"preset": "random", "norm": 1.0, "seed": 3}})
        u = cfg.u0
        out[f"sweep.B.us.n{n}"] = _fastest_block_us(lambda: spectral.nonlinear_term(u, u))
        k = max(4, 4096 // n)
        ou = noise.ou_from_wiener(noise.sample_wiener(0.0, k * cfg.dt, cfg.dt, seed=7))
        out[f"sweep.step.us.n{n}"] = _fastest_block_us(
            lambda: dynamics.integrate(u, cfg, path=ou, stride=k)) / k
    print(json.dumps(out))


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 2:
        setup(argv[1])
        return 0
    if mode == "trace" and len(argv) >= 3:
        return trace(argv[1], argv[2:])
    if mode == "sweep" and len(argv) == 1:
        sweep()
        return 0
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
