import math

import numpy as np
import pytest

from torns import noise
from torns.noise import (
    OUPath,
    WienerPath,
    _ou_scan,
    empirical_moment,
    ou_from_wiener,
    ou_stationary_moment,
    pullback_wiener,
    refine_wiener,
    sample_wiener,
)


def zero_path(n, dt, seed=0):
    return WienerPath(t0=0.0, t1=n * dt, dt=dt, increments=np.zeros(n), seed=seed)


class TestSampleWiener:
    def test_paths_keep_their_bits(self):
        # every stream key holds the literal 0 that a stream index once filled
        w = sample_wiener(0.0, 1.0, 0.01, seed=3)
        got = (w.increments[0], pullback_wiener(1.0, 0.01, seed=3).increments[-1],
               refine_wiener(w).increments[0], ou_from_wiener(w).z[0])
        assert [x.hex() for x in got] == [
            "0x1.ed00918000000p-4", "-0x1.5e723b0000000p-5", "0x1.14151f0000000p-6", "0x1.880687ece0b85p-3"]

    def test_reproducible(self):
        a = sample_wiener(0.0, 10.0, 0.01, seed=3)
        b = sample_wiener(0.0, 10.0, 0.01, seed=3)
        assert np.array_equal(a.increments, b.increments)

    def test_distinct_seeds_differ(self):
        a = sample_wiener(0.0, 1.0, 0.01, seed=3)
        b = sample_wiener(0.0, 1.0, 0.01, seed=4)
        assert not np.array_equal(a.increments, b.increments)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            sample_wiener(0.0, 1.0, 0.0, seed=0)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            sample_wiener(1.0, 1.0, 0.1, seed=0)

    def test_increment_mean_clt_bound(self):
        n = 10**5
        dt = 1e-3
        w = sample_wiener(0.0, n * dt, dt, seed=11)
        assert abs(w.increments.mean()) < 5 * math.sqrt(dt / n)

    def test_increment_variance(self):
        dt = 0.02
        w = sample_wiener(0.0, 400.0, dt, seed=12)  # 2e4 steps
        assert w.increments.var() == pytest.approx(dt, rel=0.05)

    def test_grid_consistency_validated(self):
        with pytest.raises(ValueError):
            WienerPath(t0=0.0, t1=1.0, dt=0.3, increments=np.zeros(3), seed=0)


class TestRefineWiener:
    def test_pair_sums_bit_exact(self):
        w = sample_wiener(0.0, 1.0, 2.0**-5, seed=5)
        for _ in range(6):
            r = refine_wiener(w)
            assert np.array_equal(r.increments.reshape(-1, 2).sum(axis=1), w.increments)
            w = r

    def test_reproducible(self):
        w = sample_wiener(0.0, 1.0, 0.01, seed=6)
        assert np.array_equal(refine_wiener(w).increments, refine_wiener(w).increments)

    def test_refined_statistics(self):
        # a doubly refined long path still has N(0, dt) increments
        w = refine_wiener(refine_wiener(sample_wiener(0.0, 2000.0, 0.08, seed=7)))
        assert w.dt == pytest.approx(0.02)
        assert w.increments.var() == pytest.approx(w.dt, rel=0.05)
        assert abs(w.increments.mean()) < 5 * math.sqrt(w.dt / w.n)

    def test_degenerate_path_bridge_variance(self):
        w = zero_path(20000, 0.01, seed=9)
        r = refine_wiener(w)
        mids = r.increments[0::2]
        assert mids.var() == pytest.approx(0.01 / 4, rel=0.05)
        assert np.abs(r.increments.reshape(-1, 2).sum(axis=1)).max() == 0.0


class TestPullbackWiener:
    def test_window_anchored_at_zero(self):
        p = pullback_wiener(5.0, 0.01, seed=4, burn_in=10.0)
        assert p.t1 == 0.0
        assert p.t0 == pytest.approx(-15.0)

    def test_nesting_extends_into_past(self):
        p1 = pullback_wiener(5.0, 0.01, seed=4, burn_in=10.0)
        p2 = pullback_wiener(40.0, 0.01, seed=4, burn_in=10.0)
        n = p1.n
        assert np.array_equal(p1.increments, p2.increments[-n:])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            pullback_wiener(0.0, 0.01, seed=4, burn_in=0.0)

    @pytest.mark.parametrize("horizon, burn_in, match", [
        (-1.0, 10.0, "horizon must be >= 0"),
        (float("nan"), 10.0, "horizon must be >= 0"),
        (0.15, 0.0, "not a whole number of steps"),
        (0.04, 0.0, "not a whole number of steps"),
        (0.04, 10.0, "not a whole number of steps"),
    ])
    def test_rejects_a_horizon_off_the_step_grid_before_any_draw(self, monkeypatch, horizon, burn_in, match):
        monkeypatch.setattr(noise, "rng_for", lambda *key: pytest.fail("drew before checking the horizon"))
        with pytest.raises(ValueError, match=match):
            pullback_wiener(horizon, 0.1, seed=1, burn_in=burn_in)

    def test_horizon_within_tolerance_and_burn_in_rounded(self):
        # 3 * 0.1 is 0.30000000000000004; 10 / 0.3 rounds to 33 steps
        assert pullback_wiener(0.3, 0.1, seed=1).n == 3
        p = pullback_wiener(0.3, 0.3, seed=1, burn_in=10.0)
        assert p.n == 1 + 33 and p.t0 == pytest.approx(-34 * 0.3)


class TestOUPath:
    def test_pure_decay(self):
        # dW = 0, z0 = 1: z_n = exp(-n dt)
        z = _ou_scan(np.zeros(100), 1.0, 0.01)
        assert np.abs(z - np.exp(-0.01 * np.arange(101))).max() < 1e-12

    def test_matches_sequential_recursion(self):
        w = sample_wiener(0.0, 50.0, 0.01, seed=14)
        ou = OUPath(wiener=w, z=_ou_scan(w.increments, 0.3, w.dt))
        z = 0.3
        q = math.exp(-0.01)
        seq = [z]
        for d in w.increments:
            z = q * z + d
            seq.append(z)
        assert np.abs(ou.z - np.array(seq)).max() < 1e-10

    def test_stationary_variance(self):
        ou = ou_from_wiener(sample_wiener(0.0, 1e4, 0.01, seed=4))
        assert ou.z.var() == pytest.approx(0.5, rel=0.02)

    def test_stationary_init_reproducible_across_refinement(self):
        w = sample_wiener(0.0, 1.0, 0.01, seed=15)
        a = ou_from_wiener(w)
        b = ou_from_wiener(refine_wiener(w))
        assert a.z[0] == b.z[0]

    def test_zero_vs_stationary_converge(self):
        # after t >= 10 (relaxation time 1) the two initialisations have mixed
        w = sample_wiener(0.0, 2000.0, 0.01, seed=16)
        za = _ou_scan(w.increments, 0.0, w.dt)
        zb = ou_from_wiener(w).z
        tail = slice(1000, None)  # t >= 10
        va, vb = za[tail].var(), zb[tail].var()
        assert abs(va - vb) / vb < 0.03


class TestMoments:
    def test_analytic_values(self):
        assert ou_stationary_moment(1) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
        assert ou_stationary_moment(2) == pytest.approx(0.5, rel=1e-15)
        assert ou_stationary_moment(4) == pytest.approx(0.75, rel=1e-15)
        assert ou_stationary_moment(6) == pytest.approx(15.0 / 8.0, rel=1e-15)

    def test_rejects_m_below_one(self):
        with pytest.raises(ValueError):
            ou_stationary_moment(0)

    def test_degenerate_constant_path(self):
        w = zero_path(200, 0.01)
        ou = OUPath(wiener=w, z=np.full(201, -1.3))
        for m in (1, 2, 3):
            assert empirical_moment(ou, m) == pytest.approx(1.3**m, rel=1e-14)

    def test_too_short_rejected(self):
        ou = OUPath(wiener=zero_path(50, 0.01), z=np.zeros(51))
        with pytest.raises(ValueError):
            empirical_moment(ou, 1)

    def test_time_average_converges(self):
        w = sample_wiener(0.0, 1e4, 0.01, seed=1)
        ou = ou_from_wiener(w)
        assert empirical_moment(ou, 1) == pytest.approx(ou_stationary_moment(1), rel=0.02)
        assert empirical_moment(ou, 2) == pytest.approx(ou_stationary_moment(2), rel=0.02)
        assert empirical_moment(ou, 4) == pytest.approx(ou_stationary_moment(4), rel=0.05)

    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_ergodic_error_shrinks_with_horizon(self, m):
        # mean |time average - analytic| over 3 seeds decreases when T grows x100
        ana = ou_stationary_moment(m)
        errs = {T: [] for T in (1e2, 1e4)}
        for seed in (1, 2, 3):
            for T in errs:
                ou = ou_from_wiener(sample_wiener(0.0, T, 0.01, seed=seed))
                errs[T].append(abs(empirical_moment(ou, m) - ana))
        assert np.mean(errs[1e4]) < np.mean(errs[1e2])
