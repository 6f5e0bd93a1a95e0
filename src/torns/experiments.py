"""Empirical counterparts of the attractor-theory statements.

Everything here is a finite-horizon, finite-ensemble measurement:

* pullback solves fix the noise on [-t, 0] (anchored at 0, so larger horizons
  extend the same path into the past) and step the conjugated system of an
  initial-data family forward from -t;
* the deterministic global attractor is stood in for by finitely many
  post-transient states of one long run (distances to it are over-estimates);
* absorbing behaviour is reported as sup norms over a pulled-back family;
* the (H, H^2)-smoothing constant is reported as the measured ratio
  ||v1(T) - v2(T)||_{H^2}^2 / ||v1(0) - v2(0)||^2 over pairs driven by the
  same noise path.

Experiment cells are independent; aggregation is order-independent, so
reports are bit-reproducible for any worker count.  `threads` is an upper
bound on the workers: cells run on a thread pool only on grids that take the
FFT kernel (see _workers).  Trajectories that share a config step as one
ensemble (dynamics.ensemble), with the bits of stepping them one by one: a
pullback family, an absorbing cell's radii at one horizon, a convergence
cell's (level, system) over the paths, and smoothing's base and perturbed
members of every (seed, direction) on dense-DFT grids (of one per cell on
FFT grids), each (seed, direction) on the OU path of its seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    BlowupError, SimConfig, State, conjugate, ensemble, horizon_steps, trajectory)
from .noise import (
    OUPath,
    ou_from_wiener,
    ou_stationary_moment,
    empirical_moment,
    pullback_wiener,
    refine_wiener,
    sample_wiener,
)
from . import spectral
from .spectral import SpectralField, random_divfree_field, sobolev_norm

__all__ = [
    "AttractorSample",
    "SmoothingReport",
    "AbsorbingReport",
    "ErgodicReport",
    "ConvergenceReport",
    "OU_BURN_IN",
    "pullback_path",
    "pullback_solve",
    "sample_attractor_deterministic",
    "distance_to_set",
    "measure_smoothing",
    "measure_absorbing",
    "ergodic_check",
    "conjugation_convergence",
    "run_cells",
]

# OU relaxation time is 1; ten units of burn-in before the pullback window
# stands in for the process's infinite past (initialisation bias < e^-10).
OU_BURN_IN = 10.0


def _workers(cfg: SimConfig, threads: int) -> int:
    """The cell workers for a grid: 1 where vorticity_advection runs the dense DFT.

    On those grids every numpy call of a step is short, so the step is bound
    by Python overhead under the interpreter lock and a second thread adds
    only contention (2 cores, the cells-n16-t2 seed-0 pair with --threads 2:
    serial 1.32-1.89 s, pool 1.84-2.13 s, serial faster in 8 of 8 alternating
    pairs; a re-run 1.36-1.68 s against 1.56-1.99 s, 7 of 8).  FFT grids
    keep the pool (N = 128: smoothing 4.27 s on 1 thread, 2.87 s on 2).
    """
    return 1 if spectral._runs_dft(cfg.grid.N) else threads


def run_cells(cells: dict, threads: int = 1) -> dict:
    """Evaluate {key: thunk} on a thread pool; results keyed, order-independent."""
    if threads <= 1 or len(cells) <= 1:
        return {k: fn() for k, fn in cells.items()}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {k: pool.submit(fn) for k, fn in cells.items()}
        return {k: f.result() for k, f in futures.items()}


def pullback_path(cfg: SimConfig, horizon: float, seed: int) -> OUPath:
    """OU path on [-horizon, 0], anchored at 0, with stationary init at -horizon - OU_BURN_IN.

    The same (seed, dt) yields bit-identical increments on [-t, 0] for every
    horizon >= t; burn-in only extends the scalar OU integration further into
    the past.  A negative horizon raises ValueError.
    """
    if not horizon >= 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    w = pullback_wiener(horizon, cfg.dt, seed, burn_in=OU_BURN_IN)
    ou = ou_from_wiener(w, init="stationary")
    b = round(OU_BURN_IN / cfg.dt)
    # 0.0 - horizon, not -horizon: the window of horizon 0 starts at t = +0.0
    return OUPath(wiener=replace(w, t0=0.0 - horizon, increments=w.increments[b:]), z=ou.z[b:])


def _pullback_family(cfg: SimConfig, horizon: float, seed: int, initial_states: list) -> list:
    """The family as one ensemble on the path of `seed`: each member's State at 0, or its BlowupError."""
    ou = pullback_path(cfg, horizon, seed)
    for last in ensemble(initial_states, cfg, [ou] * len(initial_states)):
        pass
    return last


def pullback_solve(cfg: SimConfig, horizon: float, seed: int, initial_states: list) -> list[State]:
    """States at time 0 of trajectories started at -horizon, one per family member.

    The family steps as one ensemble on the noise path of `seed`; the first
    member to blow up, in family order, raises its BlowupError.  Every state
    carries z_omega(0), the anchored OU value at time 0 (at horizon 0, with the
    initial data unchanged).  A negative horizon, an empty family or a horizon
    that is not a whole number of steps raises ValueError before any path is drawn.
    """
    if not initial_states:
        raise ValueError("initial-state family is empty")
    horizon_steps(horizon, cfg.dt)
    states = _pullback_family(cfg, horizon, seed, initial_states)
    for error in (s for s in states if isinstance(s, BlowupError)):
        raise error
    return states


@dataclass
class AttractorSample:
    """Post-transient states of one deterministic run, a finite attractor proxy."""

    states: list

    @property
    def count(self) -> int:
        return len(self.states)


def sample_attractor_deterministic(
    cfg: SimConfig,
    t_transient: float,
    count: int,
    stride: int,
    v0: SpectralField | None = None,
) -> AttractorSample:
    """Collect `count` states every `stride` solver steps after t_transient.

    The states are those of one uninterrupted trajectory(); t_transient must
    be a whole number of steps (horizon_steps).
    """
    if not t_transient > 0:
        raise ValueError(f"t_transient must be positive, got {t_transient}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if v0 is None:
        v0 = random_divfree_field(cfg.grid, cfg.seed, norm=1.0, stream=17)
    n0 = horizon_steps(t_transient, cfg.dt)
    run = trajectory(v0, cfg, steps=n0 + stride * (count - 1))
    states = [s.u for n, s in enumerate(run) if n >= n0 and (n - n0) % stride == 0]
    return AttractorSample(states)


def distance_to_set(v: SpectralField, sample: AttractorSample, s: int = 2) -> float:
    """Hausdorff semi-distance inf over the sample of ||v - b||_{H^s}."""
    if not sample.states:
        raise ValueError("attractor sample is empty")
    return min(sobolev_norm(v - b, float(s)) for b in sample.states)


@dataclass
class SmoothingReport:
    """Rows (seed, direction, delta, T, dist0, distT_h2_sq, ratio, error), ratio = distT^2/delta^2;
    max_ratio and median_ratio over the error-free rows with delta > 0 (NaN if none)."""

    rows: list
    max_ratio: float
    median_ratio: float


def _smoothing_rows(cfg, v1, groups, deltas, horizons):
    """The groups as one ensemble; one row per (group, delta, T), in the order of groups.

    A group ((seed, label), direction) is the base v1 and the perturbed
    starts v1 + delta * direction on the OU path of seed (no path when every
    horizon is 0).  A blowup gives error rows: for every (delta, T) of a
    group when its base blows up, and for the horizons not yet reached when
    a perturbed member does.
    """
    steps = horizon_steps(horizons[-1], cfg.dt)
    checkpoints = {horizon_steps(T, cfg.dt): T for T in horizons}
    ous = {seed: ou_from_wiener(sample_wiener(0.0, horizons[-1], cfg.dt, seed=seed), init="stationary")
           for (seed, _), _ in groups} if steps else {}
    k, v0s, paths, dist0 = 1 + len(deltas), [], [], []
    for (seed, _), d in groups:
        starts = [v1 + delta * d for delta in deltas]
        v0s += [v1, *starts]
        paths += [ous.get(seed)] * k
        dist0.append([sobolev_norm(v2 - v1, 0.0) for v2 in starts])

    def row(g, i, T, d2=float("nan"), ratio=float("nan"), error=""):
        (seed, label), _ = groups[g]
        return {"seed": seed, "direction": label, "delta": deltas[i], "T": T,
                "dist0": dist0[g][i], "distT_h2_sq": d2, "ratio": ratio, "error": error}

    half, rows = spectral.HalfSpectrum(cfg.grid), {}  # (group, member, T) -> row
    for n, level in enumerate(ensemble(v0s, cfg, paths, steps)):
        if n not in checkpoints:
            continue
        T = checkpoints[n]
        for g in range(len(groups)):
            base, *members = level[g * k:(g + 1) * k]
            if isinstance(base, BlowupError):
                continue
            for i, b in enumerate(members):  # a member that blew up stays frozen on its error
                if isinstance(b, BlowupError):
                    rows[g, i, T] = row(g, i, T, error=str(b))
                else:
                    d2 = half.norms(b.w - base.w)[2] ** 2
                    rows[g, i, T] = row(g, i, T, d2, 0.0 if dist0[g][i] == 0.0 else d2 / dist0[g][i] ** 2)
    # a base that blew up fails every row of its group
    return [row(g, i, T, error=str(level[g * k])) if isinstance(level[g * k], BlowupError) else rows[g, i, T]
            for g in range(len(groups)) for i in range(len(deltas)) for T in horizons]


def measure_smoothing(
    cfg: SimConfig,
    v0: SpectralField,
    deltas: list[float],
    horizons: list[float],
    seeds: list[int],
    directions: tuple[str, ...] = ("random", "lowest"),
    threads: int = 1,
) -> SmoothingReport:
    """Measured (H, H^2)-smoothing ratios for perturbation pairs sharing one noise path.

    Directions: "random" draws a unit divergence-free field per seed; "lowest"
    puts the perturbation on the lowest wavenumber shell (worst smoothing decay).
    Rows come per distinct (seed, direction) in sorted order, then delta and T.
    On dense-DFT grids every group steps in one ensemble; on FFT grids each
    group is its own cell, and cells share the `threads` workers.
    """
    if not horizons:
        raise ValueError("horizons must be nonempty")
    horizons = sorted(horizons)
    for T in horizons:
        if not T >= 0:
            raise ValueError(f"horizon must be >= 0, got {T}")
        horizon_steps(T, cfg.dt)
    fields = {}
    for seed in seeds:
        for label in directions:
            if label == "random":
                d = random_divfree_field(cfg.grid, seed, norm=1.0, stream=23)
            elif label == "lowest":
                d = random_divfree_field(cfg.grid, seed, norm=1.0, stream=24,
                                         profile=lambda k: np.where(np.abs(k - _kmin(cfg)) < 1e-9, 1.0, 0.0))
            else:
                raise ValueError(f"unknown direction {label!r}")
            fields[seed, label] = d
    groups = sorted(fields.items())  # by (seed, label); a duplicate is one group
    batches = [groups] if spectral._runs_dft(cfg.grid.N) else [[g] for g in groups]
    results = run_cells({i: (lambda b=b: _smoothing_rows(cfg, v0, b, deltas, horizons))
                         for i, b in enumerate(batches) if b}, _workers(cfg, threads))
    rows = [r for i in sorted(results) for r in results[i]]
    ratios = [r["ratio"] for r in rows if r["error"] == "" and r["delta"] > 0]
    import statistics  # here, not at module level: it adds 0.5 MB to every CLI process
    return SmoothingReport(
        rows=rows,
        max_ratio=max(ratios) if ratios else float("nan"),
        median_ratio=statistics.median(ratios) if ratios else float("nan"),
    )


def _kmin(cfg: SimConfig) -> float:
    return 2.0 * math.pi / cfg.grid.L


@dataclass
class AbsorbingReport:
    """Rows (radius, horizon, norm_h, norm_h1, norm_h2, error) of the pulled-back states at 0;
    radius_estimates[(h, s)] is the sup over the error-free radii of the H^s norm, s in H, H1, H2."""

    rows: list
    horizons: list
    radius_estimates: dict


def measure_absorbing(
    cfg: SimConfig,
    initial_radii: list[float],
    horizons: list[float],
    seed: int,
    threads: int = 1,
) -> AbsorbingReport:
    """Pullback the family {radius * e : radius in initial_radii} over each horizon.

    A cell is one horizon and its family one ensemble, on one anchored noise
    path (the window only grows with the horizon).  One row per distinct
    (radius, horizon) in increasing order; a member that blows up gets NaN
    norms and its error.
    """
    if not initial_radii or not horizons:
        raise ValueError("radii and horizons must be nonempty")
    for h in horizons:
        horizon_steps(h, cfg.dt)
    e = random_divfree_field(cfg.grid, 99, norm=1.0, stream=29)  # one fixed unit direction
    radii = sorted(set(initial_radii))
    family = [SpectralField(cfg.grid, r * e.coeffs) for r in radii]

    def cell(horizon: float) -> list:
        half, rows = spectral.HalfSpectrum(cfg.grid), []
        for radius, st in zip(radii, _pullback_family(cfg, horizon, seed, family)):
            error = str(st) if isinstance(st, BlowupError) else ""
            norms = [float("nan")] * 3 if error else half.norms(st.w)
            rows.append(dict(zip(("radius", "horizon", "norm_h", "norm_h1", "norm_h2", "error"),
                                 (radius, horizon, *norms, error))))
        return rows

    results = run_cells({h: (lambda hh=h: cell(hh)) for h in horizons}, _workers(cfg, threads))
    rows = [results[h][i] for i in range(len(radii)) for h in sorted(results)]
    estimates = {}
    for h in horizons:
        for sname, col in (("H", "norm_h"), ("H1", "norm_h1"), ("H2", "norm_h2")):
            vals = [r[col] for r in rows if r["horizon"] == h and r["error"] == ""]
            estimates[(h, sname)] = max(vals) if vals else float("nan")
    return AbsorbingReport(rows=rows, horizons=list(horizons), radius_estimates=estimates)


@dataclass
class ErgodicReport:
    """Rows (seed, m, empirical, analytic, rel_error) of stationary OU moments."""

    rows: list


def ergodic_check(T: float, dt: float, seeds: list[int], moments: tuple[int, ...] = (1, 2, 4)) -> ErgodicReport:
    """Time-averaged |z|^m along stationary OU paths against Gamma((1+m)/2)/sqrt(pi)."""
    if T < 100:
        raise ValueError(f"T must be >= 100 for a meaningful time average, got {T}")
    rows = []
    for seed in seeds:
        w = sample_wiener(0.0, T, dt, seed=seed)
        ou = ou_from_wiener(w, init="stationary")
        for m in moments:
            emp = empirical_moment(ou, m)
            ana = ou_stationary_moment(m)
            rows.append({
                "seed": seed, "m": m, "empirical": emp, "analytic": ana,
                "rel_error": abs(emp - ana) / ana,
            })
    return ErgodicReport(rows=rows)


@dataclass
class ConvergenceReport:
    """Strong conjugation errors per refinement level, consecutive ratios and log2 orders."""

    dts: list
    errors: list
    ratios: list
    orders: list


def conjugation_convergence(
    cfg: SimConfig,
    base_dt: float,
    levels: int,
    T: float,
    seed: int,
    paths: int = 16,
    threads: int = 1,
) -> ConvergenceReport:
    """Strong error || u_h^EM(T) - (v(T) + h z(T)) || under Wiener bridge refinement.

    Both solvers share the Brownian increments at each level; z is the OU
    process of those increments with a level-independent stationary z_0.  The
    strong error at each level is the ensemble mean over `paths` independent
    Wiener paths; v0 is drawn once from the config seed.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    if paths < 1:
        raise ValueError(f"need at least 1 path, got {paths}")
    v0 = random_divfree_field(cfg.grid, cfg.seed, norm=1.0, stream=31)
    # per level, the paths' Wiener increments and their OU processes
    wieners = [[sample_wiener(0.0, T, base_dt, seed=seed + m) for m in range(paths)]]
    for _ in range(levels - 1):
        wieners.append([refine_wiener(w) for w in wieners[-1]])
    ous = [[ou_from_wiener(w, init="stationary") for w in level] for level in wieners]

    def final_states(level: int, system: str) -> list:
        """One ensemble over the paths: each member's final State, or its BlowupError."""
        lcfg = replace(cfg, dt=wieners[level][0].dt)
        if system == "ou":
            v0s, members = [v0] * paths, ous[level]
        else:
            v0s = [conjugate(v0, float(ou.z[0]), cfg.h) for ou in ous[level]]
            members = wieners[level]
        for last in ensemble(v0s, lcfg, members):
            pass
        return last

    cells = {(lv, system): (lambda lv=lv, system=system: final_states(lv, system))
             for lv in range(levels) for system in ("ou", "wiener")}
    results = run_cells(cells, _workers(cfg, threads))
    # a blowup raises as if the paths ran one by one, each level OU first
    for m in range(paths):
        for lv in range(levels):
            for system in ("ou", "wiener"):
                if isinstance(results[lv, system][m], BlowupError):
                    raise results[lv, system][m]
    half = spectral.HalfSpectrum(cfg.grid)
    errs = np.empty((paths, levels))
    for lv in range(levels):  # ||u - (v + h z(T))|| per path, from the vorticity
        finals = zip(results.pop((lv, "ou")), results.pop((lv, "wiener")), ous[lv])
        errs[:, lv] = [half.norms(u.w - v.w - ou.z[-1] * half.curl(cfg.h))[0] for v, u, ou in finals]
    mean = errs.mean(axis=0)
    ratios = [float(mean[i] / mean[i + 1]) if mean[i + 1] > 0 else float("inf")
              for i in range(levels - 1)]
    orders = [math.log2(r) if 0 < r < math.inf else float("nan") for r in ratios]
    return ConvergenceReport(
        dts=[base_dt / 2**i for i in range(levels)],
        errors=[float(x) for x in mean],
        ratios=ratios, orders=orders,
    )
