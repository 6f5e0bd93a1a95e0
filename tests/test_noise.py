import math

import numpy as np
import pytest

from torns import noise
from torns.noise import (
    OUPath,
    WienerPath,
    _lattice_quantum,
    _ou_scan,
    empirical_moment,
    horizon_steps,
    ou_from_wiener,
    ou_stationary_moment,
    pullback_path,
    refine_wiener,
    sample_wiener,
)


def zero_path(n, dt, seed=0):
    return WienerPath(t0=0.0, dt=dt, increments=np.zeros(n), seed=seed, quantum=_lattice_quantum(dt))


class TestSampleWiener:
    def test_paths_keep_their_bits(self):
        # every stream key holds the literal 0 that a stream index once filled
        w = sample_wiener(0.0, 1.0, 0.01, seed=3)
        p = pullback_path(1.0, 0.01, seed=3)
        got = (w.increments[0], p.wiener.increments[-1], p.z[-1],
               refine_wiener(w).increments[0], ou_from_wiener(w).z[0])
        assert [x.hex() for x in got] == [
            "0x1.ed00918000000p-4", "0x1.13f37fa599688p-5", "-0x1.374dbd1574b8dp-2",
            "0x1.14151f0000000p-6", "0x1.880687ece0b85p-3"]

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
        # the window must be a whole number of steps; t1 is then t0 + n dt
        with pytest.raises(ValueError, match="not a whole number of steps"):
            sample_wiener(0.0, 1.0, 0.3, seed=0)
        w = sample_wiener(0.5, 1.7, 0.3, seed=0)
        assert (w.n, w.t1) == (4, 0.5 + 4 * 0.3)


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

    @pytest.mark.parametrize("make", ["random", "pullback"])
    def test_path_off_the_lattice_rejected(self, make):
        # pair sums of a path off the lattice would not be its increments bit for bit
        dt = 0.01
        w = (WienerPath(t0=0.0, dt=dt, seed=1,
                        increments=np.random.default_rng(1).standard_normal(1000) * math.sqrt(dt))
             if make == "random" else pullback_path(1000 * dt, dt, seed=1).wiener)
        assert w.quantum == 0.0
        with pytest.raises(ValueError, match="increment lattice"):
            refine_wiener(w)


class TestHorizonSteps:
    def test_whole_steps_within_tolerance(self):
        # 3 * 0.1 is 0.30000000000000004
        assert horizon_steps(0.3, 0.1) == 3
        assert horizon_steps(0.0, 0.1) == 0

    @pytest.mark.parametrize("horizon, match", [
        (-0.5, r"horizon must be >= 0, got -0\.5"),
        (float("nan"), "horizon must be >= 0, got nan"),
        (float("inf"), "horizon must be finite, got inf"),
        (0.15, r"the horizon 0\.15 is not a whole number of steps of dt = 0\.1"),
        (0.04, "not a whole number of steps"),
    ])
    def test_rejects(self, horizon, match):
        with pytest.raises(ValueError, match=match):
            horizon_steps(horizon, 0.1)


class TestPullbackPath:
    def test_window_anchored_at_zero(self):
        p = pullback_path(5.0, 0.01, seed=4)
        assert (p.t0, p.wiener.t1, p.n, len(p.z)) == (-5.0, 0.0, 500, 501)
        assert p.times()[-1] == pytest.approx(0.0, abs=1e-12)
        assert pullback_path(0.3, 0.1, seed=1).n == 3  # 3 * 0.1 is 0.30000000000000004

    @pytest.mark.parametrize("dt", [1e-3, 0.1])
    def test_longer_horizon_extends_the_same_chain(self, dt):
        # z and dW on [-t, 0] are bit-identical for every horizon >= t, across
        # the scan's block boundary (30 / dt steps) too
        short = pullback_path(5 * dt, dt, seed=4)
        for steps in (6, 299, 40_000):
            long = pullback_path(steps * dt, dt, seed=4)
            assert np.array_equal(short.z, long.z[-6:])
            assert np.array_equal(short.wiener.increments, long.wiener.increments[-5:])

    def test_zero_horizon_is_one_stationary_value_at_plus_zero(self):
        p = pullback_path(0.0, 0.01, seed=4)
        assert p.n == 0 and len(p.z) == 1 and p.z[0] != 0.0
        assert p.t0 == 0.0 and math.copysign(1.0, p.t0) == 1.0
        assert p.z[0] == pullback_path(3.0, 0.01, seed=4).z[-1]

    def test_reads_forward_as_the_scan_of_its_increments(self):
        p = pullback_path(50.0, 0.01, seed=5)
        z = _ou_scan(p.wiener.increments, float(p.z[0]), p.dt)
        assert np.abs(z - p.z).max() < 1e-12

    def test_stationary_law(self):
        # z ~ N(0, dt / (1 - e^{-2 dt})), the scan's own stationary variance (0.5517 at
        # dt = 0.1, not the continuous 1/2); dW iid N(0, dt), each independent of z_n
        dt = 0.1
        p = pullback_path(2e4, dt, seed=6)
        dW, n = p.wiener.increments, p.n
        assert p.z.var() == pytest.approx(dt / -math.expm1(-2 * dt), rel=0.03)
        assert dW.var() == pytest.approx(dt, rel=0.02)
        assert abs(np.corrcoef(dW[:-1], dW[1:])[0, 1]) < 5 / math.sqrt(n)
        assert abs(np.corrcoef(p.z[:-1], dW)[0, 1]) < 5 / math.sqrt(n)

    def test_time_zero_value_is_stationary_across_seeds(self):
        dt = 0.3
        z0 = np.array([pullback_path(0.0, dt, seed=s).z[0] for s in range(2000)])
        assert z0.var() == pytest.approx(dt / -math.expm1(-2 * dt), rel=0.15)

    @pytest.mark.parametrize("horizon, match", [
        (-1.0, "horizon must be >= 0"),
        (float("nan"), "horizon must be >= 0"),
        (0.15, "not a whole number of steps"),
        (0.04, "not a whole number of steps"),
    ])
    def test_rejects_a_horizon_off_the_step_grid_before_any_draw(self, monkeypatch, horizon, match):
        monkeypatch.setattr(noise, "rng_for", lambda *key: pytest.fail("drew before checking the horizon"))
        with pytest.raises(ValueError, match=match):
            pullback_path(horizon, 0.1, seed=1)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            pullback_path(1.0, 0.0, seed=1)


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
