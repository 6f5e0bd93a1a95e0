"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to stream the summary lines.
Every tolerance is fixed here; nothing is calibrated at run time.
"""

import json
import math
import time

import numpy as np
import pytest

from torns.dynamics import (
    BlowupError,
    SimConfig,
    check_assumption,
    integrate,
    manufactured_forcing,
    trajectory,
)
from torns.experiments import (
    conjugation_convergence,
    ergodic_check,
    measure_smoothing,
    pullback_solve,
)
from torns.noise import ou_stationary_moment
from torns.spectral import (
    HalfSpectrum,
    SpectralField,
    WaveGrid,
    nonlinear_term,
    random_row,
)
from tests.oracle import (
    apply_stokes_power,
    divergence,
    inner,
    leray_project,
    random_divfree_field,
    sobolev_norm,
    taylor_green_velocity,
    zero_field,
)
from tests.test_dynamics import row as curl
from tests.test_spectral import galerkin_convolution

TWO_PI = 2.0 * np.pi


def report(number: int, description: str, body) -> None:
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL criterion {number}: {description} ({time.perf_counter() - t0:.1f} s)")
        raise
    print(f"PASS criterion {number}: {description} ({time.perf_counter() - t0:.1f} s)")


def test_criterion_1_ergodic_moments():
    # stationary OU time averages vs Gamma((1+m)/2)/sqrt(pi):
    # T = 1e4, dt = 1e-2, 3 seeds; 2% for m = 1, 2 and 5% for m = 4
    def body():
        rows = ergodic_check(T=1e4, dt=1e-2, seeds=[1, 4, 8], moments=(1, 2, 4))
        assert ou_stationary_moment(1) == pytest.approx(0.5641896, abs=5e-8)
        assert ou_stationary_moment(2) == pytest.approx(0.5, rel=1e-15)
        assert ou_stationary_moment(4) == pytest.approx(0.75, rel=1e-15)
        for row in rows:
            tol = 0.02 if row["m"] in (1, 2) else 0.05
            assert row["rel_error"] < tol, row

    report(1, "ergodic OU moments m=1,2,4 within 2%/2%/5%", body)


def test_criterion_2_operator_identities():
    # N = 32, L = 2pi, 100 random projected fields
    def body():
        g = WaveGrid(TWO_PI, 32)
        for seed in range(100):
            u = random_divfree_field(g, seed=seed, norm=1.0 + 0.01 * seed)
            v = random_divfree_field(g, seed=1000 + seed, norm=2.0)
            buv = nonlinear_term(u, v)
            assert abs(inner(buv, v)) <= 1e-10 * sobolev_norm(u, 0.0) * sobolev_norm(v, 1.0) ** 2
            buu = nonlinear_term(u, u)
            assert abs(inner(buu, apply_stokes_power(u, 1.0))) <= 1e-10 * sobolev_norm(u, 1.0) ** 3
            pu = leray_project(u)
            assert np.abs(pu.coeffs - u.coeffs).max() <= 1e-13 * np.abs(u.coeffs).max()
            dref = float((np.sqrt(g.k2) * np.abs(u.coeffs).sum(axis=0)).max())
            assert np.abs(divergence(u)).max() <= 1e-13 * dref
            assert sobolev_norm(u, 0.0) <= (g.L / TWO_PI) * sobolev_norm(u, 1.0) * (1 + 1e-13)

    report(2, "skew-symmetry, enstrophy identity, projection, Poincare on 100 fields", body)


def test_criterion_3_brute_force_oracle():
    # dealiased pseudospectral B equals the O(N^4) Galerkin triad sum
    def body():
        for N in (4, 6):
            g = WaveGrid(TWO_PI, N)
            for seed in range(10):
                u = random_divfree_field(g, seed=seed, norm=1.0)
                v = random_divfree_field(g, seed=100 + seed, norm=1.5)
                fast = nonlinear_term(u, v)
                slow = galerkin_convolution(u, v)
                scale = np.abs(slow.coeffs).max()
                assert np.abs(fast.coeffs - slow.coeffs).max() <= 1e-12 * scale

    report(3, "pseudospectral B matches direct convolution on N=4,6 (20 pairs)", body)


def test_criterion_4_taylor_green():
    # nu = 0.1, N = 16, dt = 1e-3, T = 1
    def body():
        nu = 0.1
        g = WaveGrid(TWO_PI, 16)
        zero = zero_field(g)
        cfg = SimConfig(nu=nu, grid=g, dt=1e-3, fw=curl(zero), hw=curl(zero), scheme="etd2")
        state, rows = integrate(taylor_green_velocity(0.0, nu, g), cfg, steps=1000, stride=10)
        exact = taylor_green_velocity(1.0, nu, g)
        rel = sobolev_norm(SpectralField(g, state.u.coeffs - exact.coeffs), 0.0) / sobolev_norm(exact, 0.0)
        assert rel < 1e-8
        rate = float(np.polyfit([r["t"] for r in rows], np.log([r["norm_H"] for r in rows]), 1)[0])
        assert abs(rate + 2 * nu) < 1e-6

    report(4, "Taylor-Green L2 error < 1e-8 and decay rate = 2 nu +- 1e-6", body)


def test_criterion_5_conjugation_convergence():
    # N = 16, admissible h, T = 1, 4 Wiener refinement levels from dt = 2^-7;
    # strong error = ensemble mean over 16 paths; ratios in [1.7, 2.3]
    def body():
        g = WaveGrid(TWO_PI, 16)
        h = random_divfree_field(g, seed=11, norm=1.0)
        f = random_divfree_field(g, seed=21, norm=0.5)
        cfg = SimConfig(nu=1.0, grid=g, dt=2.0**-7, fw=curl(f), hw=curl(h), seed=5)
        assert cfg.assumption.satisfied
        rows = conjugation_convergence(cfg, base_dt=2.0**-7, levels=4, T=1.0,
                                       seed=500, paths=16, threads=1)
        ratios = [r["ratio"] for r in rows[:-1]]
        for r in ratios:
            assert 1.7 <= r <= 2.3, ratios

    report(5, "conjugation u_h = v + h z: strong-error ratios in [1.7, 2.3]", body)


def test_criterion_6_assumption_constants():
    def body():
        g = WaveGrid(TWO_PI, 16)
        nu = 1.0
        for seed in range(10):
            h = random_divfree_field(g, seed=seed, norm=0.2 + 0.05 * seed)
            rep = check_assumption(curl(h), nu, g)
            assert rep.satisfied
            assert abs(rep.lhs - (1 - rep.alpha) * rep.rhs) <= 1e-12 * rep.rhs
            assert abs(rep.lhs * (1 + rep.beta) - rep.rhs * (1 - 0.5 * rep.alpha)) <= 1e-12 * rep.rhs
        rep0 = check_assumption(curl(zero_field(g)), nu, g)
        assert rep0.alpha == 1.0
        assert rep0.lam == 0.25 * nu * g.lambda1
        assert rep0.beta == math.inf

    report(6, "admissibility constants solve (c1)-(c2) to 1e-12; h=0 gives alpha=1", body)


def test_criterion_7_absorbing_behavior():
    # N = 32, radii {1,10,100,1000}, fixed seed, horizons {5,10,20,40}.
    # Noisy grid: final H and H1 norms at the two largest horizons agree
    # across all radii within 25%.  f = h = 0: the Poincare decay bound holds
    # along every trajectory of the family.
    def body():
        g = WaveGrid(TWO_PI, 32)
        nu, dt = 100.0, 2e-3
        radii = [1.0, 10.0, 100.0, 1000.0]
        horizons = [5.0, 10.0, 20.0, 40.0]

        h = random_divfree_field(g, seed=7, norm=1.0)
        f = random_divfree_field(g, seed=8, norm=1.0)
        cfg = SimConfig(nu=nu, grid=g, dt=dt, fw=curl(f), hw=curl(h), scheme="etd2")
        assert cfg.assumption.satisfied
        # torns pullback's family past w0, the rows r e
        e = random_row(HalfSpectrum(g), 99, norm=1.0, stream=29)
        runs = pullback_solve(cfg, horizons, 1234, [r * e for r in radii], threads=1)
        assert not any(isinstance(st, BlowupError) for states in runs for st in states)
        for col in ("norm_H", "norm_H1"):
            vals = [st.norms()[col] for horizon, states in zip(horizons, runs) if horizon in (20.0, 40.0)
                    for st in states]
            assert len(vals) == 8
            assert (max(vals) - min(vals)) / max(vals) <= 0.25, (col, vals)

        # decay bound: with h = 0 the pullback trajectory from radius r equals
        # the forward deterministic run, so check the bound along its series.
        zero = zero_field(g)
        cfg0 = SimConfig(nu=nu, grid=g, dt=dt, fw=curl(zero), hw=curl(zero), scheme="etd2")
        e = random_divfree_field(g, seed=99, norm=1.0, stream=29)
        for radius in radii:
            v0 = SpectralField(g, radius * e.coeffs)
            _, rows = integrate(v0, cfg0, steps=round(40.0 / dt), stride=25)
            t, norm_h = (np.array([r[k] for r in rows]) for k in ("t", "norm_H"))
            bound = np.exp(-nu * g.lambda1 * t) * radius * (1 + 1e-6)
            # below ~1e-250 both sides sit in underflow territory where decayed
            # coefficients can pin at the smallest denormal; treat as zero
            live = bound > 1e-250
            assert np.all(norm_h[live] <= bound[live]), radius
            assert np.all(norm_h[~live] <= 1e-250)

    report(7, "absorbing: radius forgetting within 25% and exact decay bound", body)


def test_criterion_8_smoothing():
    # N = 32, admissible (f, h), T in {0.5, 1, 2, 4}, delta in {1e-2..1e-4},
    # 3 seeds: ratios finite, scale-stable within x3 per (seed, direction, T);
    # linear regime bounded by max_k |k|^4 exp(-2 nu |k|^2 T) + 1e-6.
    def body():
        g = WaveGrid(TWO_PI, 32)
        nu, dt = 1.0, 1e-3
        horizons = [0.5, 1.0, 2.0, 4.0]
        deltas = [1e-2, 1e-3, 1e-4]
        h = random_divfree_field(g, seed=7, norm=0.5)
        f = random_divfree_field(g, seed=8, norm=0.5)
        cfg = SimConfig(nu=nu, grid=g, dt=dt, fw=curl(f), hw=curl(h), scheme="etd2")
        assert cfg.assumption.satisfied
        w1 = curl(random_divfree_field(g, seed=30, norm=1.0))
        rows = measure_smoothing(cfg, w1, deltas=deltas, horizons=horizons,
                                 seeds=[555, 556, 557], threads=1)
        assert all(r["error"] == "" for r in rows)
        assert all(np.isfinite(r["ratio"]) for r in rows)
        for seed in (555, 556, 557):
            for direction in ("random", "lowest"):
                for T in horizons:
                    ratios = [r["ratio"] for r in rows
                              if r["seed"] == seed and r["direction"] == direction and r["T"] == T]
                    assert len(ratios) == len(deltas)
                    assert max(ratios) / min(ratios) < 3.0, (seed, direction, T, ratios)

        # linear regime: f = h = 0, amplitudes ~ 1e-6
        zero = zero_field(g)
        cfg_lin = SimConfig(nu=nu, grid=g, dt=dt, fw=curl(zero), hw=curl(zero), scheme="etd2")
        w1_lin = curl(random_divfree_field(g, seed=31, norm=1e-6))
        rows_lin = measure_smoothing(cfg_lin, w1_lin, deltas=[1e-8], horizons=horizons,
                                     seeds=[1, 2], threads=1)
        k2 = g.k2[g.k2 > 0]
        for row in rows_lin:
            heat = float((k2**2 * np.exp(-2 * nu * k2 * row["T"])).max())
            assert row["ratio"] <= heat + 1e-6, row

    report(8, "smoothing ratios finite, x3 scale-stable, heat-bounded in linear regime", body)


def test_criterion_9_h2_neighborhood():
    # manufactured equilibrium (attractor = {u0}); pullback H2 distances are
    # horizon-stable (< 25% between horizons 20 and 40) and decrease
    # monotonically when h is halved twice (same omega)
    def body():
        g = WaveGrid(TWO_PI, 32)
        nu, dt = 20.0, 1e-3
        u0 = random_divfree_field(g, seed=60, norm=1.0)
        fw = manufactured_forcing(curl(u0), nu, g)
        h_base = random_divfree_field(g, seed=61, norm=1.0)
        v0 = random_divfree_field(g, seed=62, norm=5.0)

        # the attractor sample: the states of one run at steps 2000, 2100 and 2200
        cfg_det = SimConfig(nu=nu, grid=g, dt=dt, fw=fw, hw=curl(zero_field(g)))
        sample = [st for n, st in enumerate(trajectory(curl(u0), cfg_det, steps=2200)) if n in (2000, 2100, 2200)]
        assert len(sample) == 3
        assert all(sobolev_norm(SpectralField(g, st.u.coeffs - u0.coeffs), 2.0) < 1e-6 for st in sample)

        dists = {}
        for scale in (1.0, 0.5, 0.25):
            h = SpectralField(g, scale * h_base.coeffs)
            cfg = SimConfig(nu=nu, grid=g, dt=dt, fw=fw, hw=curl(h), scheme="etd2")
            assert cfg.assumption.satisfied
            for horizon, (st,) in zip((20.0, 40.0), pullback_solve(cfg, [20.0, 40.0], 777, [curl(v0)])):
                # H2 semi-distance to the sample, read off the rows
                dists[(scale, horizon)] = min(st.half.norms(st.w - b.w)[2] for b in sample)
        for scale in (1.0, 0.5, 0.25):
            a, b = dists[(scale, 20.0)], dists[(scale, 40.0)]
            assert np.isfinite(a) and np.isfinite(b)
            assert abs(a - b) / max(a, b) < 0.25, (scale, a, b)
        for horizon in (20.0, 40.0):
            seq = [dists[(s, horizon)] for s in (1.0, 0.5, 0.25)]
            assert seq[0] > seq[1] > seq[2], seq

    report(9, "H2 distance to the attractor horizon-stable and monotone in |h|", body)


def test_criterion_10_thread_determinism(tmp_path):
    # identical seeds with different --threads produce bit-identical CSV
    # artifacts; exercised through the CLI for every artifact-producing
    # subcommand (experiment grids reduced so two full runs stay cheap)
    def body():
        from torns.cli import main

        small = {"nu": 1.0, "N": 16, "dt": 1e-2, "seed": 3, "t_end": 0.5,
                 "forcing": {"preset": "random", "norm": 0.3, "seed": 2},
                 "noise": {"preset": "random", "norm": 0.3, "seed": 4},
                 "initial": {"preset": "random", "norm": 1.0, "seed": 5}}
        runs = ("simulate", "taylor-green", "pullback", "smoothing", "ergodic", "convergence")
        # N = 16 steps every ensemble on the calling thread; N = 50, the first
        # grid on the FFT kernel, splits them into sub-blocks on the workers
        # (convergence there, about 3 s a run, is left to test_experiments' TestRunner)
        for N, commands in ((16, runs), (50, ("pullback", "smoothing"))):
            cfgp = tmp_path / f"config{N}.json"
            cfgp.write_text(json.dumps({**small, "N": N}))
            for command in commands:
                outputs = []
                for threads in (1, 4):
                    out = tmp_path / f"{command}-n{N}-t{threads}"
                    args = [command, "--out", str(out), "--threads", str(threads), "--quiet"]
                    if command == "taylor-green":
                        args += ["--preset", "taylor-green"]
                    else:
                        args += ["--config", str(cfgp)]
                    assert main(args) == 0, (N, command)
                    csvs = sorted(p.name for p in out.glob("*.csv"))
                    assert csvs, (N, command)
                    outputs.append({name: (out / name).read_bytes() for name in csvs})
                assert outputs[0] == outputs[1], (N, command)

    report(10, "CSV artifacts bit-identical across --threads for all subcommands", body)
