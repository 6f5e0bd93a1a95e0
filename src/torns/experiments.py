"""Empirical counterparts of the attractor-theory statements.

Everything here is a finite-horizon, finite-ensemble measurement:

* pullback_solve, the one pullback, fixes the noise on [-t, 0]
  (noise.pullback_path: one stationary OU chain drawn backward from 0, so
  larger horizons extend the same z into the past and every horizon sees the
  same omega) and steps the conjugated system of an initial-data family
  forward from -t, for every horizon t at once;
* absorbing behaviour and synchronisation are reported from a pulled-back
  family (torns pullback: the family's norms, their sup per horizon, and each
  member's H distance to one member at time 0, with its decay rate);
* the (H, H^2)-smoothing constant is reported as the measured ratio
  ||v1(T) - v2(T)||_{H^2}^2 / ||v1(0) - v2(0)||^2 over pairs driven by the
  same noise path.

Each measurement returns the rows of its CSV, dicts with the keys in column
order; a blowup gives error rows (NaN values and the diagnostic in `error`),
except in conjugation_convergence, which raises.

Every experiment steps its trajectories as ensembles (dynamics.ensemble)
through one runner, _run_ensembles: the family of each pullback horizon, a
convergence (level, system) over the paths, and all of smoothing's base and
perturbed members, each (seed, direction) on the OU path of its seed.  The
experiments step only the rows they are given: every start and direction
is an (N, K) vorticity row that the caller draws (the CLI draws each
report's), admitted before any path is drawn, and each start built here is
a sum of rows (smoothing's w1 + delta dw, convergence's w0 + z(0) hw).
Each member has the bits of its own one-member run, so reports are
bit-reproducible for any worker count.  On dense-DFT grids an ensemble is
one block on the calling thread; on FFT grids it splits into sub-blocks
within a byte budget, and `threads` bounds the workers that run them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import zip_longest

import numpy as np

from .dynamics import BlowupError, SimConfig, _half_spectrum, ensemble
from .noise import (
    horizon_steps,
    ou_from_wiener,
    ou_stationary_moment,
    empirical_moment,
    pullback_path,
    refine_wiener,
    sample_wiener,
)
from . import spectral

__all__ = [
    "pullback_solve",
    "measure_smoothing",
    "ergodic_check",
    "conjugation_convergence",
]

# The kernel workspace and stepper buffers of one FFT-grid sub-block, at most.
# 8 members of decay-noise at dt = 4e-3 in sub-blocks of W on 2 threads, median
# us per member-step of 7 rounds (5 at N = 96), 2 cores with 4 MiB L2 each:
#   N = 64 (0.54 MB a member)  W = 1, 2, 4: 190, 141, 114;  one serial block 176
#   N = 96 (1.19 MB)           W = 1, 2, 4: 372, 280, 747;  one serial block 452
#   N = 128 (2.11 MB)          W = 1, 2, 4: 592, 1202, 954; one serial block 726
# Sub-blocks of 4.2 MB and more lost (the cache as the cause is unverified).
_SUB_BLOCK_BYTES = 5 * 2**19  # 2.5 MiB


def _member_bytes(N: int) -> int:
    """One member's AdvectionWorkspace (5 N K + 4 N (N/2+1) complex, 4 N^2 real) and
    _EtdStepper buffers (two right sides, arg, two temporaries, old and new block: 7 N K complex)."""
    K, M = (N - 1) // 3 + 1, N // 2 + 1
    return 16 * (12 * N * K + 4 * N * M) + 32 * N * N


def _run_ensembles(ensembles: list, threads: int = 1) -> list[dict]:
    """Step each (rows, cfg, paths, reads) ensemble; per ensemble {n: level} for the steps n in reads.

    rows holds each member's initial vorticity row and paths its path.  A
    level is what dynamics.ensemble yields at step n: each member's State,
    or its BlowupError, in member order, with the bits of the member's own
    one-member run whatever the split or `threads`.  The ensembles share a
    grid.  On dense-DFT grids each is one block on the calling thread; on
    FFT grids each splits into near-equal consecutive sub-blocks within
    _SUB_BLOCK_BYTES, and every sub-block runs to its last read step on a
    pool of at most `threads` workers.
    """
    N = ensembles[0][1].grid.N
    dft = spectral._runs_dft(N)
    blocks = []  # (ensemble, first member, end)
    for e, (_, _, paths, _) in enumerate(ensembles):
        B = len(paths)
        k = -(-B // max(1, B if dft else _SUB_BLOCK_BYTES // _member_bytes(N)))
        blocks += [(e, B * i // k, B * (i + 1) // k) for i in range(k)]

    def run(block):
        e, a, b = block
        rows, cfg, paths, reads = ensembles[e]
        levels = ensemble(rows[a:b], cfg, paths[a:b], max(reads))
        return {n: level for n, level in enumerate(levels) if n in reads}

    if dft or threads == 1 or len(blocks) < 2:
        runs = list(map(run, blocks))
    else:
        # imported here: concurrent.futures and the logging it loads cost every CLI process 0.6 MB
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=min(threads, len(blocks))) as pool:
            runs = list(pool.map(run, blocks))
    out = [{n: [] for n in reads} for *_, reads in ensembles]
    for (e, _, _), levels in zip(blocks, runs):
        for n, level in levels.items():
            out[e][n] += level
    return out


def pullback_solve(cfg: SimConfig, horizons: list[float], seed: int, w0s: list,
                   threads: int = 1) -> list[list]:
    """Per horizon, in the order given, the states at time 0 of the family started at -horizon.

    w0s holds the family's (N, K) vorticity rows; each horizon's family is
    one ensemble of them on pullback_path(horizon, cfg.dt, seed): one OU
    chain, each horizon a longer stretch of its past.
    All of them step in one _run_ensembles call, on at most `threads`
    workers.  Entry m of a horizon's list is member m's State, or its
    BlowupError in its place.  Every state carries z_omega(0), the OU value
    at time 0, the same for every horizon (at horizon 0, with the initial
    rows unchanged).  An empty family or horizon list, a negative horizon or
    one that is not a whole number of steps, or a row outside the state
    space (HalfSpectrum.admit) raises ValueError before any path is drawn.
    """
    if not w0s or not horizons:
        raise ValueError("the family and the horizons must be nonempty")
    for h in horizons:
        horizon_steps(h, cfg.dt)
    for w0 in w0s:
        _half_spectrum(cfg.grid).admit(w0, "initial row")
    ous = [pullback_path(h, cfg.dt, seed) for h in horizons]
    runs = _run_ensembles([(w0s, cfg, [ou] * len(w0s), {ou.n}) for ou in ous], threads)
    return [levels[ou.n] for ou, levels in zip(ous, runs)]


def measure_smoothing(
    cfg: SimConfig,
    w1: np.ndarray,
    directions: dict[tuple[int, str], np.ndarray],
    deltas: list[float],
    horizons: list[float],
    threads: int = 1,
) -> list[dict]:
    """Measured (H, H^2)-smoothing ratios for perturbation pairs sharing one noise path, from the row w1.

    directions maps (seed, label) to a direction row dw; each is a group, the
    base row w1 and the perturbed starts w1 + delta * dw, on the OU path of
    seed (no path, the deterministic system, when h is zero or every horizon
    is 0).  Rows (seed, direction, delta, T, dist0, distT_h2_sq, ratio =
    distT_h2_sq / dist0^2, error) come per group in sorted key order, then
    delta and T; dist0 is the H norm of start - w1, read as distT_h2_sq is.
    Every group steps in one ensemble, on at most `threads` workers (see
    _run_ensembles).  A blowup gives error rows: for every (delta, T) of a
    group when its base blows up, and for the horizons not yet reached when a
    perturbed member does.  Empty directions, deltas or horizons raise
    ValueError up front, and a horizon that horizon_steps rejects, or a row
    w1 or dw outside the state space (HalfSpectrum.admit), before any path
    is drawn.
    """
    for name, values in dict(directions=directions, deltas=deltas, horizons=horizons).items():
        if not values:
            raise ValueError(f"{name} must be nonempty")
    horizons = sorted(horizons)
    at = {T: horizon_steps(T, cfg.dt) for T in horizons}  # two horizons may share a step
    steps = max(at.values())
    half = _half_spectrum(cfg.grid)
    half.admit(w1, "initial row")
    groups = sorted(directions.items())
    for (seed, label), dw in groups:
        half.admit(dw, f"direction row {label!r} of seed {seed}")
    seeds = {seed for (seed, _), _ in groups} if steps and cfg.noisy else ()  # one path per seed
    ous = {seed: ou_from_wiener(sample_wiener(0.0, horizons[-1], cfg.dt, seed=seed)) for seed in seeds}
    k = 1 + len(deltas)
    paths = [ous.get(seed) for (seed, _), _ in groups for _ in range(k)]
    starts, dist0 = [], []  # member g k is group g's base, g k + 1 + i its start w1 + deltas[i] dw
    for _, dw in groups:
        perturbed = [w1 + delta * dw for delta in deltas]
        starts += [w1, *perturbed]
        dist0.append([float(half.norms(w - w1)[0]) for w in perturbed])
    (levels,) = _run_ensembles([(starts, cfg, paths, set(at.values()))], threads)
    rows = []
    for g, ((seed, label), _) in enumerate(groups):
        last = levels[steps][g * k]  # a base that blew up fails every row of its group
        for i, delta in enumerate(deltas):
            for T in horizons:  # a member that blew up stays frozen on its error
                base, b = levels[at[T]][g * k], levels[at[T]][g * k + 1 + i]
                error = next((str(x) for x in (last, b) if isinstance(x, BlowupError)), "")
                d2 = float("nan") if error else b.half.norms(b.w - base.w)[2] ** 2
                ratio = float("nan") if error else d2 / dist0[g][i] ** 2 if dist0[g][i] else 0.0
                rows.append({"seed": seed, "direction": label, "delta": delta, "T": T, "dist0": dist0[g][i],
                             "distT_h2_sq": d2, "ratio": ratio, "error": error})
    return rows


def ergodic_check(T: float, dt: float, seeds: list[int], moments: tuple[int, ...] = (1, 2, 4)) -> list[dict]:
    """Time-averaged |z|^m along stationary OU paths against Gamma((1+m)/2)/sqrt(pi):
    one row (seed, m, empirical, analytic, rel_error) per seed and moment.  A short T
    or empty seeds or moments raise ValueError before any path is drawn."""
    if T < 100:
        raise ValueError(f"T must be >= 100 for a meaningful time average, got {T}")
    if not seeds or not moments:
        raise ValueError("seeds and moments must be nonempty")
    rows = []
    for seed in seeds:
        w = sample_wiener(0.0, T, dt, seed=seed)
        ou = ou_from_wiener(w)
        for m in moments:
            emp = empirical_moment(ou, m)
            ana = ou_stationary_moment(m)
            rows.append({
                "seed": seed, "m": m, "empirical": emp, "analytic": ana,
                "rel_error": abs(emp - ana) / ana,
            })
    return rows


def conjugation_convergence(
    cfg: SimConfig,
    w0: np.ndarray,
    base_dt: float,
    levels: int,
    T: float,
    seed: int,
    paths: int,
    threads: int = 1,
) -> list[dict]:
    """Strong error || u_h^EM(T) - (v(T) + h z(T)) || under Wiener bridge refinement.

    Both solvers share the Brownian increments at each level; z is the OU
    process of those increments with a level-independent stationary z_0.  The
    strong error at each level is the ensemble mean over `paths` independent
    Wiener paths; v(0) is the row w0, and each Ito member starts at w0 plus
    z(0) curl h.  Rows (level, dt, strong_error, ratio to the next level, its
    log2 order; "" on the last).  A blowup raises: benchmarks/reference.json
    pins these five columns, no `error`.  Fewer than 3 levels or no paths,
    or a row w0 outside the state space (HalfSpectrum.admit), raise
    ValueError before any path is drawn.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 levels, got {levels}")
    if paths < 1:
        raise ValueError(f"need at least 1 path, got {paths}")
    _half_spectrum(cfg.grid).admit(w0, "initial row")
    hw = cfg.hw  # curl h: v + h z on the vorticity block
    wieners = [sample_wiener(0.0, T, base_dt, seed=seed + m) for m in range(paths)]
    errs = np.empty((paths, levels))
    failed = {}  # (path, level, system) -> its BlowupError, OU system 0, Wiener 1
    for lv in range(levels):  # only this level's paths and final states are held
        if lv:
            wieners = [refine_wiener(w) for w in wieners]
        ous = [ou_from_wiener(w) for w in wieners]
        lcfg, n = replace(cfg, dt=wieners[0].dt), wieners[0].n
        starts = [w0 + float(ou.z[0]) * hw for ou in ous]  # u(0) = v(0) + h z(0)
        runs = _run_ensembles([([w0] * paths, lcfg, ous, {n}), (starts, lcfg, wieners, {n})], threads)
        for m, (v, u, ou) in enumerate(zip(runs[0][n], runs[1][n], ous)):  # ||u - (v + h z(T))||
            failed.update({(m, lv, s): x for s, x in enumerate((v, u)) if isinstance(x, BlowupError)})
            if (m, lv, 0) not in failed and (m, lv, 1) not in failed:
                errs[m, lv] = v.half.norms(u.w - v.w - ou.z[-1] * hw)[0]
    if failed:  # a blowup raises as if the paths ran one by one, each level OU first
        raise failed[min(failed)]
    mean = errs.mean(axis=0)
    ratios = [float(mean[i] / mean[i + 1]) if mean[i + 1] > 0 else float("inf")
              for i in range(levels - 1)]
    orders = [math.log2(r) if 0 < r < math.inf else float("nan") for r in ratios]
    return [{"level": i, "dt": base_dt / 2**i, "strong_error": float(e), "ratio": r, "order": o}
            for i, (e, r, o) in enumerate(zip_longest(mean, ratios, orders, fillvalue=""))]
