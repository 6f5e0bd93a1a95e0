import math

import numpy as np
import pytest

from torns.dynamics import SimConfig, integrate, manufactured_forcing
from torns.experiments import (
    AttractorSample,
    PullbackSpec,
    conjugation_convergence,
    distance_to_set,
    ergodic_check,
    measure_absorbing,
    measure_smoothing,
    pullback_path,
    pullback_solve,
    run_cells,
    sample_attractor_deterministic,
)
from torns.noise import ou_stationary_moment
from torns.spectral import (
    SpectralField,
    make_grid,
    random_divfree_field,
    sobolev_norm,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid16():
    return make_grid(TWO_PI, 16)


def cfg_for(grid, **kw):
    kw.setdefault("nu", 1.0)
    kw.setdefault("dt", 1e-2)
    kw.setdefault("f", SpectralField.zero(grid))
    kw.setdefault("h", SpectralField.zero(grid))
    return SimConfig(grid=grid, **kw)


def sine_shear(grid, c=1.0):
    coeffs = np.zeros((2, grid.N, grid.N), dtype=complex)
    coeffs[0, 0, 1] = -0.5j * c
    coeffs[0, 0, -1 % grid.N] = 0.5j * c
    return SpectralField(grid, coeffs)


class TestPullback:
    def test_zero_horizon_returns_initial(self, grid16):
        cfg = cfg_for(grid16)
        v0 = random_divfree_field(grid16, seed=1)
        out = pullback_solve(PullbackSpec(horizon=0.0, seed=1, initial_states=[v0], cfg=cfg))
        assert np.array_equal(out[0].u.coeffs, v0.coeffs)
        assert out[0].z == pullback_path(cfg, 0.0, seed=1).z[-1] != 0.0

    def test_empty_family_rejected(self, grid16):
        with pytest.raises(ValueError):
            PullbackSpec(horizon=1.0, seed=1, initial_states=[], cfg=cfg_for(grid16))

    def test_linear_decay_oracle(self, grid16):
        # f = h = 0, single shear mode: ||v(0)|| = exp(-nu lambda1 t) ||v0||
        cfg = cfg_for(grid16, nu=0.5)
        v0 = sine_shear(grid16, c=1.2)
        for horizon in (2.0, 5.0):
            st = pullback_solve(PullbackSpec(horizon=horizon, seed=3, initial_states=[v0], cfg=cfg))[0]
            expected = math.exp(-0.5 * horizon) * sobolev_norm(v0, 0.0)
            assert sobolev_norm(st.u, 0.0) == pytest.approx(expected, abs=1e-9)
            assert st.t == pytest.approx(0.0, abs=1e-12)

    def test_noise_window_nesting(self, grid16):
        cfg = cfg_for(grid16, h=random_divfree_field(grid16, seed=2, norm=0.3))
        p_short = pullback_path(cfg, 1.0, seed=9)
        p_long = pullback_path(cfg, 3.0, seed=9)
        n = p_short.wiener.n
        assert np.array_equal(p_short.wiener.increments, p_long.wiener.increments[-n:])

    def test_pullback_contraction_same_noise(self, grid16):
        # two different initial states under the same omega approach each other
        h = random_divfree_field(grid16, seed=2, norm=0.3)
        cfg = cfg_for(grid16, h=h, f=random_divfree_field(grid16, seed=4, norm=0.2))
        va = random_divfree_field(grid16, seed=5, norm=1.0)
        vb = random_divfree_field(grid16, seed=6, norm=1.0)
        gaps = []
        for horizon in (2.0, 6.0, 14.0):
            sa, sb = pullback_solve(
                PullbackSpec(horizon=horizon, seed=7, initial_states=[va, vb], cfg=cfg))
            gaps.append(sobolev_norm(sa.u - sb.u, 0.0))
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        assert gaps[2] < 1e-6


class TestAttractorSample:
    def test_zero_forcing_attractor_is_origin(self, grid16):
        cfg = cfg_for(grid16, nu=1.0)
        sample = sample_attractor_deterministic(cfg, t_transient=20.0, count=5, stride=10)
        assert sample.count == 5
        assert all(sobolev_norm(u, 0.0) < 1e-6 for u in sample.states)

    def test_manufactured_equilibrium_sampled(self, grid16):
        u0 = random_divfree_field(grid16, seed=5, norm=0.5)
        cfg = cfg_for(grid16, nu=2.0, f=manufactured_forcing(u0, 2.0), dt=1e-3)
        sample = sample_attractor_deterministic(cfg, t_transient=10.0, count=3, stride=10, v0=u0)
        assert all(sobolev_norm(u - u0, 0.0) < 1e-6 for u in sample.states)

    def test_one_uninterrupted_trajectory(self, grid16):
        # etd2 history kept across the transient: the states are integrate()'s
        u0 = random_divfree_field(grid16, seed=6, norm=1.0)
        cfg = cfg_for(grid16, nu=0.1, f=random_divfree_field(grid16, seed=7, norm=0.5))
        n0, stride, count = 30, 4, 3
        sample = sample_attractor_deterministic(cfg, t_transient=n0 * cfg.dt, count=count,
                                                stride=stride, v0=u0)
        ref = integrate(u0, cfg, steps=n0 + stride * (count - 1)).state.u
        assert sample.count == count
        assert np.array_equal(sample.states[-1].coeffs, ref.coeffs)

    def test_single_state(self, grid16):
        cfg = cfg_for(grid16)
        sample = sample_attractor_deterministic(cfg, t_transient=1.0, count=1, stride=1000)
        assert sample.count == 1
        assert len(sample.h2_norms) == 1

    def test_rejects_bad_arguments(self, grid16):
        with pytest.raises(ValueError):
            sample_attractor_deterministic(cfg_for(grid16), t_transient=0.0, count=1, stride=1)
        with pytest.raises(ValueError):
            sample_attractor_deterministic(cfg_for(grid16), t_transient=1.0, count=0, stride=1)


class TestDistanceToSet:
    def test_member_has_zero_distance(self, grid16):
        states = [random_divfree_field(grid16, seed=s) for s in range(3)]
        sample = AttractorSample(states=states, t_transient=1.0, stride=1)
        assert distance_to_set(states[1], sample, 2) == 0.0

    def test_origin_sample_gives_norm(self, grid16):
        sample = AttractorSample(states=[SpectralField.zero(grid16)], t_transient=1.0, stride=1)
        v = random_divfree_field(grid16, seed=3, norm=2.0)
        for s in (0, 1, 2):
            assert distance_to_set(v, sample, s) == pytest.approx(sobolev_norm(v, float(s)), rel=1e-14)

    def test_singleton_matches_direct_norm(self, grid16):
        b = random_divfree_field(grid16, seed=1)
        v = random_divfree_field(grid16, seed=2)
        sample = AttractorSample(states=[b], t_transient=1.0, stride=1)
        assert distance_to_set(v, sample, 2) == pytest.approx(sobolev_norm(v - b, 2.0), rel=1e-14)

    def test_triangle_sanity(self, grid16):
        states = [random_divfree_field(grid16, seed=s) for s in range(4)]
        sample = AttractorSample(states=states, t_transient=1.0, stride=1)
        v = random_divfree_field(grid16, seed=9)
        d = distance_to_set(v, sample, 1)
        for b in states:
            assert d <= sobolev_norm(v - b, 1.0) * (1 + 1e-14)

    def test_empty_sample_rejected(self, grid16):
        sample = AttractorSample(states=[], t_transient=1.0, stride=1)
        with pytest.raises(ValueError):
            distance_to_set(random_divfree_field(grid16, seed=1), sample, 2)


class TestSmoothing:
    def test_zero_delta_row_has_zero_ratio(self, grid16):
        cfg = cfg_for(grid16, h=random_divfree_field(grid16, seed=2, norm=0.3))
        v0 = random_divfree_field(grid16, seed=1, norm=0.5)
        rep = measure_smoothing(cfg, v0, deltas=[0.0], horizons=[0.1], seeds=[1],
                                directions=("random",))
        assert rep.rows[0]["ratio"] == 0.0
        assert rep.rows[0]["distT_h2_sq"] == 0.0

    def test_linear_regime_heat_bound(self, grid16):
        # amplitudes ~ 1e-6: difference dynamics is the heat flow, so the ratio
        # is at most max_k |k|^4 exp(-2 nu |k|^2 T)
        nu, T = 1.0, 0.5
        cfg = cfg_for(grid16, nu=nu, dt=1e-3)
        v0 = random_divfree_field(grid16, seed=1, norm=1e-6)
        rep = measure_smoothing(cfg, v0, deltas=[1e-7], horizons=[T], seeds=[1, 2])
        k2 = grid16.k2[grid16.k2 > 0]
        bound = float((k2**2 * np.exp(-2 * nu * k2 * T)).max())
        for row in rep.rows:
            assert row["ratio"] <= bound + 1e-6

    def test_scale_stability_across_deltas(self, grid16):
        cfg = cfg_for(grid16, dt=1e-3,
                      f=random_divfree_field(grid16, seed=4, norm=0.5),
                      h=random_divfree_field(grid16, seed=2, norm=0.3))
        v0 = random_divfree_field(grid16, seed=1, norm=1.0)
        rep = measure_smoothing(cfg, v0, deltas=[1e-2, 1e-3, 1e-4], horizons=[0.5, 1.0],
                                seeds=[11], directions=("random", "lowest"))
        for label in ("random", "lowest"):
            for T in (0.5, 1.0):
                rows = [r for r in rep.rows if r["T"] == T and r["direction"] == label]
                ratios = [r["ratio"] for r in rows]
                assert len(ratios) == 3
                assert max(ratios) / min(ratios) < 3.0

    def test_identical_pair_distances_zero(self, grid16):
        cfg = cfg_for(grid16, h=random_divfree_field(grid16, seed=2, norm=0.3))
        v0 = random_divfree_field(grid16, seed=1, norm=0.5)
        rep = measure_smoothing(cfg, v0, deltas=[0.0, 1e-3], horizons=[0.2], seeds=[3])
        zero_rows = [r for r in rep.rows if r["delta"] == 0.0]
        assert all(r["distT_h2_sq"] == 0.0 for r in zero_rows)

    def test_every_horizon_has_a_row(self, grid16):
        # a horizon below half a step compares the initial pair
        cfg = cfg_for(grid16, h=random_divfree_field(grid16, seed=2, norm=0.3))
        v0 = random_divfree_field(grid16, seed=1, norm=0.5)
        rep = measure_smoothing(cfg, v0, deltas=[1e-3], horizons=[0.0, 0.1], seeds=[1],
                                directions=("random",))
        assert [r["T"] for r in rep.rows] == [0.0, 0.1]
        assert all(r["error"] == "" and r["distT_h2_sq"] > 0.0 for r in rep.rows)

    def test_thread_count_invariance(self, grid16):
        cfg = cfg_for(grid16, h=random_divfree_field(grid16, seed=2, norm=0.3))
        v0 = random_divfree_field(grid16, seed=1, norm=0.5)
        kw = dict(deltas=[1e-3, 1e-4], horizons=[0.2], seeds=[1, 2])
        a = measure_smoothing(cfg, v0, threads=1, **kw)
        b = measure_smoothing(cfg, v0, threads=4, **kw)
        assert a.rows == b.rows


    def test_base_blowup_gives_error_rows(self, grid16):
        # dt = 10 puts the explicit advection far outside its stability region
        cfg = cfg_for(grid16, dt=10.0)
        v0 = random_divfree_field(grid16, seed=1, norm=50.0)
        rep = measure_smoothing(cfg, v0, deltas=[1e-2, 1e-3], horizons=[500.0, 1000.0],
                                seeds=[1], directions=("random",))
        assert [(r["delta"], r["T"]) for r in rep.rows] == [
            (1e-2, 500.0), (1e-2, 1000.0), (1e-3, 500.0), (1e-3, 1000.0)]
        assert all("non-finite" in r["error"] and math.isnan(r["ratio"]) for r in rep.rows)
        assert math.isnan(rep.max_ratio)

    def test_perturbed_blowup_gives_error_rows(self, grid16):
        # the base stays at rest; only the large perturbation blows up
        cfg = cfg_for(grid16, dt=10.0)
        rep = measure_smoothing(cfg, SpectralField.zero(grid16), deltas=[1e-6, 50.0],
                                horizons=[500.0, 1000.0], seeds=[1], directions=("random",))
        good = [r for r in rep.rows if r["delta"] == 1e-6]
        bad = [r for r in rep.rows if r["delta"] == 50.0]
        assert [r["T"] for r in good] == [500.0, 1000.0] and all(r["error"] == "" for r in good)
        assert [r["T"] for r in bad] == [500.0, 1000.0]
        assert all("non-finite" in r["error"] for r in bad)


class TestAbsorbing:
    def test_pure_decay_bound_per_cell(self, grid16):
        cfg = cfg_for(grid16, nu=1.0)
        rep = measure_absorbing(cfg, initial_radii=[1.0, 10.0], horizons=[1.0, 2.0], seed=5)
        for row in rep.rows:
            bound = math.exp(-cfg.nu * grid16.lambda1 * row["horizon"]) * row["radius"]
            assert row["norm_h"] <= bound * (1 + 1e-6)

    def test_radius_estimates_are_sups(self, grid16):
        cfg = cfg_for(grid16, nu=1.0)
        rep = measure_absorbing(cfg, initial_radii=[1.0, 5.0], horizons=[1.0], seed=5)
        by_hand = max(r["norm_h"] for r in rep.rows if r["horizon"] == 1.0)
        assert rep.radius_estimates[(1.0, "H")] == by_hand

    def test_zero_radius_gives_noise_response(self, grid16):
        h = random_divfree_field(grid16, seed=2, norm=0.3)
        cfg = cfg_for(grid16, h=h, f=random_divfree_field(grid16, seed=3, norm=0.2))
        rep = measure_absorbing(cfg, initial_radii=[0.0], horizons=[5.0], seed=5)
        assert rep.rows[0]["norm_h"] > 0.0

    def test_monotone_in_radius_linear_regime(self, grid16):
        cfg = cfg_for(grid16, nu=1.0)
        rep = measure_absorbing(cfg, initial_radii=[1.0, 2.0, 4.0], horizons=[1.0], seed=5)
        norms = [r["norm_h"] for r in sorted(rep.rows, key=lambda r: r["radius"])]
        assert norms[0] <= norms[1] <= norms[2]

    def test_h2_distance_column(self, grid16):
        cfg = cfg_for(grid16, nu=1.0)
        sample = AttractorSample(states=[SpectralField.zero(grid16)], t_transient=1.0, stride=1)
        rep = measure_absorbing(cfg, initial_radii=[1.0], horizons=[1.0], seed=5, sample=sample)
        row = rep.rows[0]
        assert row["dist_h2"] == pytest.approx(row["norm_h2"], rel=1e-14)

    def test_blowup_cell_gives_error_row(self, grid16):
        cfg = cfg_for(grid16, dt=10.0)
        rep = measure_absorbing(cfg, initial_radii=[0.0, 50.0], horizons=[1000.0], seed=5)
        ok, bad = sorted(rep.rows, key=lambda r: r["radius"])
        assert ok["error"] == "" and ok["norm_h"] == 0.0
        assert "non-finite" in bad["error"] and math.isnan(bad["norm_h"])
        assert rep.radius_estimates[(1000.0, "H")] == 0.0

    def test_rejects_empty_grids(self, grid16):
        with pytest.raises(ValueError):
            measure_absorbing(cfg_for(grid16), initial_radii=[], horizons=[1.0], seed=1)


class TestErgodicCheck:
    def test_values_within_tolerance(self):
        rep = ergodic_check(T=1e4, dt=1e-2, seeds=[1, 4, 8])
        for row in rep.rows:
            tol = 0.02 if row["m"] in (1, 2) else 0.05
            assert row["rel_error"] < tol
            assert row["analytic"] == pytest.approx(ou_stationary_moment(row["m"]), rel=1e-15)

    def test_m6_heavier_tail(self):
        rep = ergodic_check(T=1e4, dt=1e-2, seeds=[1], moments=(6,))
        assert rep.rows[0]["analytic"] == pytest.approx(15.0 / 8.0, rel=1e-15)
        assert rep.rows[0]["rel_error"] < 0.10

    def test_rejects_short_horizon(self):
        with pytest.raises(ValueError):
            ergodic_check(T=10.0, dt=1e-2, seeds=[1])


class TestConjugationConvergence:
    def test_h_zero_errors_vanish(self, grid16):
        cfg = cfg_for(grid16, dt=2.0**-7, scheme="em",
                      f=random_divfree_field(grid16, seed=4, norm=0.3))
        rep = conjugation_convergence(cfg, base_dt=2.0**-7, levels=3, T=0.25, seed=3, paths=2)
        assert all(e <= 1e-10 for e in rep.errors)

    def test_rejects_too_few_levels(self, grid16):
        with pytest.raises(ValueError):
            conjugation_convergence(cfg_for(grid16), base_dt=2.0**-7, levels=2, T=1.0, seed=1)

    def test_first_order_strong_convergence(self, grid16):
        h = random_divfree_field(grid16, seed=11, norm=1.0)
        f = random_divfree_field(grid16, seed=21, norm=0.5)
        cfg = cfg_for(grid16, dt=2.0**-7, h=h, f=f, seed=5)
        rep = conjugation_convergence(cfg, base_dt=2.0**-7, levels=4, T=1.0, seed=100, paths=8)
        for r in rep.ratios:
            assert 1.5 < r < 2.6
        assert rep.orders[0] == pytest.approx(math.log2(rep.ratios[0]))

    def test_thread_invariance(self, grid16):
        h = random_divfree_field(grid16, seed=11, norm=1.0)
        cfg = cfg_for(grid16, dt=2.0**-7, h=h, seed=5)
        a = conjugation_convergence(cfg, base_dt=2.0**-7, levels=3, T=0.25, seed=9, paths=4, threads=1)
        b = conjugation_convergence(cfg, base_dt=2.0**-7, levels=3, T=0.25, seed=9, paths=4, threads=3)
        assert a.errors == b.errors


class TestRunCells:
    def test_results_keyed_and_complete(self):
        cells = {k: (lambda kk=k: kk * kk) for k in range(20)}
        for threads in (1, 4):
            out = run_cells(cells, threads=threads)
            assert out == {k: k * k for k in range(20)}
