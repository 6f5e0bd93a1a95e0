"""Empirical counterparts of the attractor-theory statements.

Everything here is a finite-horizon, finite-ensemble measurement:

* pullback solves fix the noise on [-t, 0] (anchored at 0, so larger horizons
  extend the same path into the past) and integrate the conjugated system
  forward from -t;
* the deterministic global attractor is stood in for by finitely many
  post-transient states of one long run (distances to it are over-estimates);
* absorbing behaviour is reported as sup norms over an initial-data family;
* the (H, H^2)-smoothing constant is reported as the measured ratio
  ||v1(T) - v2(T)||_{H^2}^2 / ||v1(0) - v2(0)||^2 over pairs driven by the
  same noise path.

Experiment cells are independent and run on a thread pool; aggregation is
order-independent, so reports are bit-reproducible for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import BlowupError, SimConfig, State, conjugate, integrate, trajectory
from .noise import (
    OUPath,
    WienerPath,
    ou_from_wiener,
    ou_stationary_moment,
    empirical_moment,
    pullback_wiener,
    refine_wiener,
    sample_wiener,
)
from .spectral import SpectralField, random_divfree_field, sobolev_norm

__all__ = [
    "PullbackSpec",
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


def run_cells(cells: dict, threads: int = 1) -> dict:
    """Evaluate {key: thunk} on a thread pool; results keyed, order-independent."""
    if threads <= 1 or len(cells) <= 1:
        return {k: fn() for k, fn in cells.items()}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {k: pool.submit(fn) for k, fn in cells.items()}
        return {k: f.result() for k, f in futures.items()}


@dataclass
class PullbackSpec:
    """A pullback solve: noise seed, horizon and the initial-data family at -t."""

    horizon: float
    seed: int
    initial_states: list
    cfg: SimConfig

    def __post_init__(self):
        if not self.horizon >= 0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        if not self.initial_states:
            raise ValueError("initial-state family is empty")


def pullback_path(cfg: SimConfig, horizon: float, seed: int, burn_in: float = OU_BURN_IN) -> OUPath:
    """OU path on [-horizon, 0], anchored at 0, with stationary init at -horizon - burn_in.

    The same (seed, dt) yields bit-identical increments on [-t, 0] for every
    horizon >= t; burn-in only extends the scalar OU integration further into
    the past.
    """
    w = pullback_wiener(horizon, cfg.dt, seed, burn_in=burn_in)
    ou = ou_from_wiener(w, init="stationary")
    b = round(burn_in / cfg.dt)
    if b == 0:
        return ou
    sliced = WienerPath(
        t0=-horizon, t1=0.0, dt=cfg.dt, increments=w.increments[b:],
        seed=seed, level=w.level, stream=w.stream, quantum=w.quantum,
    )
    return OUPath(wiener=sliced, z=ou.z[b:], init_mode=ou.init_mode)


def pullback_solve(spec: PullbackSpec) -> list[State]:
    """States at time 0 of trajectories started at -horizon, one per family member.

    Every state carries z_omega(0), the anchored OU value at time 0; at horizon
    0 the initial data are returned unchanged with that z.
    """
    cfg = spec.cfg
    ou = pullback_path(cfg, spec.horizon, spec.seed)
    if spec.horizon == 0.0:
        return [State(t=0.0, u=v0.copy(), z=float(ou.z[-1])) for v0 in spec.initial_states]
    # the series is not returned: record only its two ends
    return [integrate(v0, cfg, path=ou, stride=max(ou.n, 1)).state for v0 in spec.initial_states]


@dataclass
class AttractorSample:
    """Post-transient states of one deterministic run, a finite attractor proxy."""

    states: list
    t_transient: float
    stride: int
    h1_norms: list = field(default_factory=list)
    h2_norms: list = field(default_factory=list)

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

    The states are those of one uninterrupted trajectory().
    """
    if not t_transient > 0:
        raise ValueError(f"t_transient must be positive, got {t_transient}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if v0 is None:
        v0 = random_divfree_field(cfg.grid, cfg.seed, norm=1.0, stream=17)
    n0 = round(t_transient / cfg.dt)
    run = trajectory(v0, cfg, steps=n0 + stride * (count - 1))
    states = [s.u for n, s in enumerate(run) if n >= n0 and (n - n0) % stride == 0]
    return AttractorSample(
        states=states,
        t_transient=t_transient,
        stride=stride,
        h1_norms=[sobolev_norm(u, 1.0) for u in states],
        h2_norms=[sobolev_norm(u, 2.0) for u in states],
    )


def distance_to_set(v: SpectralField, sample: AttractorSample, s: int = 2) -> float:
    """Hausdorff semi-distance inf over the sample of ||v - b||_{H^s}."""
    if not sample.states:
        raise ValueError("attractor sample is empty")
    return min(sobolev_norm(v - b, float(s)) for b in sample.states)


@dataclass
class SmoothingReport:
    """Rows (seed, direction, delta, T, dist0, distT_h2_sq, ratio); ratio = distT^2/delta^2."""

    rows: list
    seeds: list
    horizons: list
    deltas: list
    max_ratio: float
    median_ratio: float
    config: dict


def _smoothing_pair_rows(cfg, v1, direction, label, deltas, horizons, seed):
    """Joint stepping of the base and perturbed trajectories; one row per (delta, T).

    A blowup gives error rows: for every (delta, T) when the base trajectory
    blows up, and for the horizons not yet reached when a perturbed one does.
    """
    t_max = max(horizons)
    steps = round(t_max / cfg.dt)
    w = sample_wiener(0.0, t_max, cfg.dt, seed=seed)
    ou = ou_from_wiener(w, init="stationary")
    checkpoints = {round(T / cfg.dt): T for T in horizons}
    starts = [(delta, v1 + delta * direction) for delta in deltas]
    dist0 = {delta: sobolev_norm(v2 - v1, 0.0) for delta, v2 in starts}

    def row(delta, T, d2=float("nan"), ratio=float("nan"), error=""):
        return {"seed": seed, "direction": label, "delta": delta, "T": T,
                "dist0": dist0[delta], "distT_h2_sq": d2, "ratio": ratio, "error": error}

    # emitted states are never written again, so the checkpoints keep them as
    # they are; velocity is built only where a checkpoint compares it
    try:
        base_states = {n: a for n, a in enumerate(trajectory(v1, cfg, path=ou, steps=steps))
                       if n in checkpoints}
    except BlowupError as exc:
        return [row(delta, T, error=str(exc)) for delta in deltas for T in horizons]

    rows = []
    for delta, v2 in starts:
        done = []
        try:
            for n, b in enumerate(trajectory(v2, cfg, path=ou, steps=steps)):
                if n in checkpoints:
                    T = checkpoints[n]
                    d2 = sobolev_norm(b.u - base_states[n].u, 2.0) ** 2
                    ratio = 0.0 if dist0[delta] == 0.0 else d2 / dist0[delta] ** 2
                    rows.append(row(delta, T, d2, ratio))
                    done.append(T)
        except BlowupError as exc:
            rows.extend(row(delta, T, error=str(exc)) for T in horizons if T not in done)
    return rows


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
    """
    horizons = sorted(horizons)
    cells = {}
    for seed in seeds:
        for label in directions:
            if label == "random":
                d = random_divfree_field(cfg.grid, seed, norm=1.0, stream=23)
            elif label == "lowest":
                d = random_divfree_field(cfg.grid, seed, norm=1.0, stream=24,
                                         profile=lambda k: np.where(np.abs(k - _kmin(cfg)) < 1e-9, 1.0, 0.0))
            else:
                raise ValueError(f"unknown direction {label!r}")
            cells[(seed, label)] = (
                lambda v=v0, dd=d, lb=label, sd=seed: _smoothing_pair_rows(
                    cfg, v, dd, lb, deltas, horizons, sd)
            )
    results = run_cells(cells, threads)
    rows = []
    for key in sorted(results.keys(), key=lambda k: (k[0], k[1])):
        rows.extend(results[key])
    ratios = [r["ratio"] for r in rows if r["error"] == "" and r["delta"] > 0]
    return SmoothingReport(
        rows=rows, seeds=list(seeds), horizons=list(horizons), deltas=list(deltas),
        max_ratio=max(ratios) if ratios else float("nan"),
        median_ratio=float(np.median(ratios)) if ratios else float("nan"),
        config=_fingerprint(cfg),
    )


def _kmin(cfg: SimConfig) -> float:
    return 2.0 * math.pi / cfg.grid.L


@dataclass
class AbsorbingReport:
    """Per-(radius, horizon) final norms, optional H^2 distance to an attractor sample."""

    rows: list
    radii: list
    horizons: list
    seed: int
    radius_estimates: dict
    config: dict


def measure_absorbing(
    cfg: SimConfig,
    initial_radii: list[float],
    horizons: list[float],
    seed: int,
    sample: AttractorSample | None = None,
    direction_seed: int = 99,
    threads: int = 1,
) -> AbsorbingReport:
    """Pullback the family {radius * e : radius in initial_radii} over each horizon.

    All cells share one anchored noise path (the window only grows with the
    horizon).  radius_estimates[(h, s)] is the sup over the family of the
    final H^s norm at horizon h.
    """
    if not initial_radii or not horizons:
        raise ValueError("radii and horizons must be nonempty")
    e = random_divfree_field(cfg.grid, direction_seed, norm=1.0, stream=29)

    def cell(radius: float, horizon: float):
        v0 = SpectralField(cfg.grid, radius * e.coeffs)
        try:
            st = pullback_solve(PullbackSpec(horizon=horizon, seed=seed,
                                             initial_states=[v0], cfg=cfg))[0]
            row = {
                "radius": radius, "horizon": horizon,
                "norm_h": sobolev_norm(st.u, 0.0),
                "norm_h1": sobolev_norm(st.u, 1.0),
                "norm_h2": sobolev_norm(st.u, 2.0),
                "dist_h2": distance_to_set(st.u, sample, 2) if sample is not None else float("nan"),
                "error": "",
            }
        except BlowupError as exc:
            row = {"radius": radius, "horizon": horizon, "norm_h": float("nan"),
                   "norm_h1": float("nan"), "norm_h2": float("nan"),
                   "dist_h2": float("nan"), "error": str(exc)}
        return row

    cells = {(r, h): (lambda rr=r, hh=h: cell(rr, hh)) for r in initial_radii for h in horizons}
    results = run_cells(cells, threads)
    rows = [results[k] for k in sorted(results.keys())]
    estimates = {}
    for h in horizons:
        for sname, col in (("H", "norm_h"), ("H1", "norm_h1"), ("H2", "norm_h2")):
            vals = [r[col] for r in rows if r["horizon"] == h and r["error"] == ""]
            estimates[(h, sname)] = max(vals) if vals else float("nan")
    return AbsorbingReport(
        rows=rows, radii=list(initial_radii), horizons=list(horizons), seed=seed,
        radius_estimates=estimates, config=_fingerprint(cfg),
    )


@dataclass
class ErgodicReport:
    """Per-(seed, m) empirical vs analytic stationary OU moments."""

    rows: list
    T: float
    dt: float


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
    return ErgodicReport(rows=rows, T=T, dt=dt)


@dataclass
class ConvergenceReport:
    """Strong conjugation errors per refinement level and consecutive ratios."""

    dts: list
    errors: list
    ratios: list
    orders: list
    paths: int
    seed: int
    config: dict


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
    v0 = random_divfree_field(cfg.grid, cfg.seed, norm=1.0, stream=31)

    def one_path(m: int) -> list[float]:
        errs = []
        w = sample_wiener(0.0, T, base_dt, seed=seed + m)
        for _ in range(levels):
            lcfg = SimConfig(nu=cfg.nu, grid=cfg.grid, dt=w.dt, f=cfg.f, h=cfg.h,
                             scheme=cfg.scheme, seed=cfg.seed, stride=cfg.stride,
                             linear_only=cfg.linear_only, assumption=cfg.assumption)
            ou = ou_from_wiener(w, init="stationary")
            ends = max(w.n, 1)  # only the final states are read: record only the series ends
            rv = integrate(v0, lcfg, path=ou, stride=ends)
            ru = integrate(conjugate(v0, float(ou.z[0]), cfg.h), lcfg, path=w, stride=ends)
            recon = conjugate(rv.state.u, float(ou.z[-1]), cfg.h)
            errs.append(sobolev_norm(ru.state.u - recon, 0.0))
            w = refine_wiener(w)
        return errs

    cells = {m: (lambda mm=m: one_path(mm)) for m in range(paths)}
    results = run_cells(cells, threads)
    errs = np.array([results[m] for m in sorted(results.keys())])
    mean = errs.mean(axis=0)
    ratios = [float(mean[i] / mean[i + 1]) if mean[i + 1] > 0 else float("inf")
              for i in range(levels - 1)]
    orders = [math.log2(r) if 0 < r < math.inf else float("nan") for r in ratios]
    return ConvergenceReport(
        dts=[base_dt / 2**i for i in range(levels)],
        errors=[float(x) for x in mean],
        ratios=ratios, orders=orders, paths=paths, seed=seed,
        config=_fingerprint(cfg),
    )


def _fingerprint(cfg: SimConfig) -> dict:
    """Compact provenance echo carried inside reports."""
    return {
        "nu": cfg.nu, "L": cfg.grid.L, "N": cfg.grid.N, "dt": cfg.dt,
        "scheme": cfg.scheme, "seed": cfg.seed,
        "norm_f": sobolev_norm(cfg.f, 0.0), "norm_h": sobolev_norm(cfg.h, 0.0),
    }
