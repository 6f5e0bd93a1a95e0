import concurrent.futures
import math
from dataclasses import replace

import numpy as np
import pytest

from torns import experiments, io, spectral
from torns.dynamics import BlowupError, SimConfig, State, _EtdStepper, trajectory
from torns.experiments import (
    conjugation_convergence,
    ergodic_check,
    measure_smoothing,
    pullback_solve,
)
from torns.noise import ou_stationary_moment, pullback_path
from torns.spectral import (
    HalfSpectrum,
    SpectralField,
    WaveGrid,
    random_row,
)
from tests.oracle import random_divfree_field, sobolev_norm, zero_field
from tests.test_dynamics import bad_row, row as curl

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid16():
    return WaveGrid(TWO_PI, 16)


def cfg_for(grid, **kw):
    kw.setdefault("nu", 1.0)
    kw.setdefault("dt", 1e-2)
    kw.setdefault("fw", curl(zero_field(grid)))
    kw.setdefault("hw", curl(zero_field(grid)))
    return SimConfig(grid=grid, **kw)


def radii(grid, *rs):
    """The rows r e of the family that torns pullback adds to w0, e its fixed unit row."""
    e = random_row(HalfSpectrum(grid), 99, norm=1.0, stream=29)
    return [r * e for r in rs]


def sine_shear(grid, c=1.0):
    coeffs = np.zeros((2, grid.N, grid.N), dtype=complex)
    coeffs[0, 0, 1] = -0.5j * c
    coeffs[0, 0, -1 % grid.N] = 0.5j * c
    return SpectralField(grid, coeffs)


class TestPullback:
    def test_zero_horizon_returns_initial(self, grid16):
        cfg = cfg_for(grid16)
        v0 = random_divfree_field(grid16, seed=1)
        ((out,),) = pullback_solve(cfg, [0.0], 1, [curl(v0)])
        # the state holds the row of v0, and its velocity is v0 up to the curl's roundoff
        assert np.array_equal(out.w, spectral.HalfSpectrum(grid16).curl(v0))
        assert np.abs(out.u.coeffs - v0.coeffs).max() <= 1e-15 * np.abs(v0.coeffs).max()
        assert out.z == pullback_path(0.0, cfg.dt, seed=1).z[-1] != 0.0

    def test_empty_family_rejected(self, grid16):
        with pytest.raises(ValueError, match="must be nonempty"):
            pullback_solve(cfg_for(grid16), [1.0], 1, [])
        with pytest.raises(ValueError, match="must be nonempty"):
            pullback_solve(cfg_for(grid16), [], 1, [curl(random_divfree_field(grid16, seed=1))])

    @pytest.mark.parametrize("experiment", ["pullback", "smoothing", "absorbing"])
    def test_horizon_not_a_whole_number_of_steps_rejected(self, grid16, experiment, monkeypatch):
        # rejected before any cell steps: stepping (dynamics.ensemble, the one time loop) would fail this test
        monkeypatch.setattr(experiments, "ensemble", None)
        cfg = cfg_for(grid16, dt=0.3)
        w0 = curl(random_divfree_field(grid16, seed=1))
        run = {
            "pullback": lambda: pullback_solve(cfg, [0.6, 5.0], 1, [w0]),
            "smoothing": lambda: measure_smoothing(cfg, w0, deltas=[1e-3], horizons=[0.6, 1.0],
                                                   seeds=[1], directions=("random",)),
            "absorbing": lambda: pullback_solve(cfg, [0.6, 2.0], 1, radii(grid16, 1.0)),
        }[experiment]
        with pytest.raises(ValueError, match=r"is not a whole number of steps of dt = 0\.3"):
            run()

    @pytest.mark.parametrize("experiment, broken", [
        ("pullback", "horizon"), ("smoothing", "horizon"), ("absorbing", "horizon"),
        # the rows handed in, admitted before any path as the horizons are
        ("pullback", "row"), ("smoothing", "row"),
    ], ids=["pullback", "smoothing", "absorbing", "pullback-row", "smoothing-row"])
    def test_negative_horizon_rejected_before_any_path(self, grid16, experiment, broken, monkeypatch):
        for name in ("sample_wiener", "pullback_path", "ensemble"):
            monkeypatch.setattr(experiments, name, None)
        cfg = cfg_for(grid16, dt=0.1)
        w0, horizons = curl(random_divfree_field(grid16, seed=1)), [1.0, -0.5]
        match = r"horizon must be >= 0, got -0\.5"
        if broken == "row":
            w0, horizons = bad_row(w0, "outside"), [1.0]
            match = "initial row outside the solver's state space: content outside the dealias mask"
        run = {
            "pullback": lambda: pullback_solve(cfg, horizons, 1, [w0]),
            "smoothing": lambda: measure_smoothing(cfg, w0, deltas=[1e-3], horizons=horizons,
                                                   seeds=[1], directions=("random",)),
            "absorbing": lambda: pullback_solve(cfg, [-0.5, 1.0], 1, radii(grid16, 1.0)),
        }[experiment]
        with pytest.raises(ValueError, match=match):
            run()

    # N = 16 runs the dense-DFT kernel, N = 50 the FFT kernel, where the two
    # horizons are two sub-blocks, on the pool at threads = 2
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("N", [16, 50])
    def test_family_members_have_the_bits_of_single_solves(self, N, threads):
        g = WaveGrid(TWO_PI, N)
        cfg = cfg_for(g, nu=0.05, dt=2e-3, fw=curl(random_divfree_field(g, seed=4, norm=0.5)),
                      hw=curl(random_divfree_field(g, seed=2, norm=0.05)))
        family = [curl(random_divfree_field(g, seed=s, norm=1.0)) for s in (5, 6, 7)]
        horizons = [0.05, 0.0]
        together = pullback_solve(cfg, horizons, 3, family, threads)
        assert [len(states) for states in together] == [3, 3]
        for horizon, states in zip(horizons, together):
            for w0, a in zip(family, states):
                ((b,),) = pullback_solve(cfg, [horizon], 3, [w0])
                assert (a.t, a.z) == (b.t, b.z)
                assert np.array_equal(a.u.coeffs, b.u.coeffs)
        assert all(math.copysign(1.0, a.t) == 1.0 for a in together[1])

    def test_family_blowup_is_its_members_and_raised(self, grid16):
        # dt = 10 puts the explicit advection far outside its stability region
        cfg = cfg_for(grid16, dt=10.0)
        e = curl(random_divfree_field(grid16, seed=1, norm=1.0))
        family = [0.05 * e, 50.0 * e, 0.05 * e]
        (entries,) = pullback_solve(cfg, [1000.0], 5, family)
        assert [isinstance(s, BlowupError) for s in entries] == [False, True, False]
        # in its place, the error that the member's own solve raises
        with pytest.raises(BlowupError) as raised:
            for _ in trajectory(family[1], cfg, pullback_path(1000.0, cfg.dt, 5)):
                pass
        assert str(raised.value) == str(entries[1])
        assert np.array_equal(raised.value.last_state.u.coeffs, entries[1].last_state.u.coeffs)
        ((alone,),) = pullback_solve(cfg, [1000.0], 5, family[:1])
        assert np.array_equal(entries[0].u.coeffs, alone.u.coeffs)

    def test_linear_decay_oracle(self, grid16):
        # f = h = 0, single shear mode: ||v(0)|| = exp(-nu lambda1 t) ||v0||
        cfg = cfg_for(grid16, nu=0.5)
        v0 = sine_shear(grid16, c=1.2)
        for horizon, (st,) in zip((2.0, 5.0), pullback_solve(cfg, [2.0, 5.0], 3, [curl(v0)])):
            expected = math.exp(-0.5 * horizon) * sobolev_norm(v0, 0.0)
            assert sobolev_norm(st.u, 0.0) == pytest.approx(expected, abs=1e-9)
            assert st.t == pytest.approx(0.0, abs=1e-12)

    def test_noise_window_nesting(self, grid16):
        # every horizon's state at 0 carries the same z(0): one omega
        cfg = cfg_for(grid16, hw=curl(random_divfree_field(grid16, seed=2, norm=0.3)))
        w0 = curl(random_divfree_field(grid16, seed=5, norm=1.0))
        p_short, p_long = pullback_path(1.0, cfg.dt, seed=9), pullback_path(3.0, cfg.dt, seed=9)
        assert np.array_equal(p_short.z, p_long.z[-p_short.n - 1:])
        assert len({st.z for (st,) in pullback_solve(cfg, [0.0, 1.0, 3.0], 9, [w0])}) == 1

    @pytest.mark.parametrize("scheme, bound", [("etd1", 0.0), ("etd2", 1e-5)])
    def test_cocycle(self, scheme, bound):
        # pulling back from -3 equals stepping -3 -> -1 on the same path and then
        # pulling back from -1: bit for bit under etd1; etd2 re-bootstraps at the
        # restart (2.8e-6 measured on decay-noise, seed 7)
        cfg = replace(io.load_config({"preset": "decay-noise"}), scheme=scheme)
        ((whole,),) = pullback_solve(cfg, [3.0], 7, [cfg.w0])
        run = trajectory(cfg.w0, cfg, pullback_path(3.0, cfg.dt, 7), steps=round(2.0 / cfg.dt))
        *_, mid = run
        assert mid.t == -1.0  # t0 + n dt, on the path's grid
        ((rest,),) = pullback_solve(cfg, [1.0], 7, [mid.w])
        assert whole.z == rest.z
        gap = np.abs(whole.u.coeffs - rest.u.coeffs).max() / np.abs(whole.u.coeffs).max()
        assert gap <= bound
        if scheme == "etd1":
            assert np.array_equal(whole.half.norms(whole.w), rest.half.norms(rest.w))

    def test_pullback_contraction_same_noise(self, grid16):
        # two different initial states under the same omega approach each other
        h = random_divfree_field(grid16, seed=2, norm=0.3)
        cfg = cfg_for(grid16, hw=curl(h), fw=curl(random_divfree_field(grid16, seed=4, norm=0.2)))
        va = random_divfree_field(grid16, seed=5, norm=1.0)
        vb = random_divfree_field(grid16, seed=6, norm=1.0)
        gaps = [sobolev_norm(SpectralField(grid16, sa.u.coeffs - sb.u.coeffs), 0.0)
                for sa, sb in pullback_solve(cfg, [2.0, 6.0, 14.0], 7, [curl(va), curl(vb)])]
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        assert gaps[2] < 1e-6


class TestSmoothing:
    def test_zero_delta_row_has_zero_ratio(self, grid16):
        cfg = cfg_for(grid16, hw=curl(random_divfree_field(grid16, seed=2, norm=0.3)))
        w1 = curl(random_divfree_field(grid16, seed=1, norm=0.5))
        rows = measure_smoothing(cfg, w1, deltas=[0.0], horizons=[0.1], seeds=[1],
                                 directions=("random",))
        assert rows[0]["ratio"] == 0.0
        assert rows[0]["distT_h2_sq"] == 0.0

    def test_linear_regime_heat_bound(self, grid16):
        # amplitudes ~ 1e-6: difference dynamics is the heat flow, so the ratio
        # is at most max_k |k|^4 exp(-2 nu |k|^2 T)
        nu, T = 1.0, 0.5
        cfg = cfg_for(grid16, nu=nu, dt=1e-3)
        w1 = curl(random_divfree_field(grid16, seed=1, norm=1e-6))
        rows = measure_smoothing(cfg, w1, deltas=[1e-7], horizons=[T], seeds=[1, 2])
        k2 = grid16.k2[grid16.k2 > 0]
        bound = float((k2**2 * np.exp(-2 * nu * k2 * T)).max())
        for row in rows:
            assert row["ratio"] <= bound + 1e-6

    def test_scale_stability_across_deltas(self, grid16):
        cfg = cfg_for(grid16, dt=1e-3,
                      fw=curl(random_divfree_field(grid16, seed=4, norm=0.5)),
                      hw=curl(random_divfree_field(grid16, seed=2, norm=0.3)))
        w1 = curl(random_divfree_field(grid16, seed=1, norm=1.0))
        rows = measure_smoothing(cfg, w1, deltas=[1e-2, 1e-3, 1e-4], horizons=[0.5, 1.0],
                                 seeds=[11], directions=("random", "lowest"))
        for label in ("random", "lowest"):
            for T in (0.5, 1.0):
                ratios = [r["ratio"] for r in rows if r["T"] == T and r["direction"] == label]
                assert len(ratios) == 3
                assert max(ratios) / min(ratios) < 3.0

    def test_identical_pair_distances_zero(self, grid16):
        cfg = cfg_for(grid16, hw=curl(random_divfree_field(grid16, seed=2, norm=0.3)))
        w1 = curl(random_divfree_field(grid16, seed=1, norm=0.5))
        rows = measure_smoothing(cfg, w1, deltas=[0.0, 1e-3], horizons=[0.2], seeds=[3])
        zero_rows = [r for r in rows if r["delta"] == 0.0]
        assert all(r["distT_h2_sq"] == 0.0 for r in zero_rows)

    def test_dist0_reads_the_start_rows_as_distT_does(self, grid16):
        # each start is the base row plus delta times the direction's row; dist0 reads
        # start - w1 with the reader and row subtraction of distT_h2_sq, which at T = 0
        # is the H2 norm of that same difference
        cfg = cfg_for(grid16, hw=curl(random_divfree_field(grid16, seed=2, norm=0.3)))
        half = HalfSpectrum(grid16)
        w1, dw = half.curl(random_divfree_field(grid16, seed=1, norm=0.5)), spectral.random_row(
            half, 1, norm=1.0, stream=23)
        rows = measure_smoothing(cfg, w1, deltas=[1e-2, 1e-3, 0.7], horizons=[0.0], seeds=[1],
                                 directions=("random",))
        assert len(rows) == 3
        for row in rows:
            d = (w1 + row["delta"] * dw) - w1
            assert row["dist0"] == half.norms(d)[0]
            assert row["distT_h2_sq"] == half.norms(d)[2] ** 2

    @pytest.mark.parametrize("nu,T", [(1.0, 0.05), (0.1, 0.5)])
    def test_one_shell_ratio_is_closed_form(self, grid16, nu, T):
        # a field on one shell |k|^2 = lam has w = lam psi, a steady Euler
        # state, so at f = h = 0 from base 0 its ratio is lam^2 e^{-2 nu lam T}
        # at any amplitude; the sup over shells is (1/(e nu T))^2, taken at
        # lam = 1/(nu T) = 20, a shell of the N = 16 mask.  Measured at 50
        # steps on all 19 shells: 7.5e-15 (ratio), 4.2e-15 (sup)
        cfg = cfg_for(grid16, nu=nu, dt=T / 50)
        zero = curl(zero_field(grid16))
        shells = np.unique(grid16.k2[grid16.dealias_mask & (grid16.k2 > 0)])
        groups = [((0, f"{lam:g}"), spectral.random_row(
            HalfSpectrum(grid16), 0, profile=lambda k, lam=lam: np.abs(k * k - lam) < 1e-9)) for lam in shells]
        rows = experiments._smoothing_rows(cfg, zero, groups, [1e-6, 10.0], [T], 1)
        assert len(rows) == 2 * len(shells) == 38
        for row in rows:
            lam = float(row["direction"])
            assert row["ratio"] == pytest.approx(lam**2 * math.exp(-2 * nu * lam * T), rel=3e-14, abs=0)
        top = max(rows, key=lambda r: r["ratio"])
        assert top["direction"] == "20"
        assert top["ratio"] == pytest.approx((1 / (math.e * nu * T)) ** 2, rel=3e-14, abs=0)

    def test_every_horizon_has_a_row(self, grid16):
        # a horizon below half a step compares the initial pair
        cfg = cfg_for(grid16, hw=curl(random_divfree_field(grid16, seed=2, norm=0.3)))
        w1 = curl(random_divfree_field(grid16, seed=1, norm=0.5))
        rows = measure_smoothing(cfg, w1, deltas=[1e-3], horizons=[0.0, 0.1], seeds=[1],
                                 directions=("random",))
        assert [r["T"] for r in rows] == [0.0, 0.1]
        assert all(r["error"] == "" and r["distT_h2_sq"] > 0.0 for r in rows)

    # an empty report would have no rows to give its CSV a header
    @pytest.mark.parametrize("name", ["deltas", "horizons", "seeds", "directions"])
    def test_empty_input_rejected_before_any_field(self, grid16, monkeypatch, name):
        for fn in ("random_row", "sample_wiener", "ensemble"):
            monkeypatch.setattr(experiments, fn, None)
        kw = dict(deltas=[1e-3], horizons=[0.1], seeds=[1], directions=("random",))
        with pytest.raises(ValueError, match=f"{name} must be nonempty"):
            measure_smoothing(cfg_for(grid16), curl(zero_field(grid16)), **{**kw, name: []})

    def test_horizons_on_one_step_each_get_their_rows(self, grid16):
        cfg = cfg_for(grid16, dt=1e-2, hw=curl(random_divfree_field(grid16, seed=2, norm=0.3)))
        w1 = curl(random_divfree_field(grid16, seed=1, norm=0.5))
        kw = dict(deltas=[1e-3], seeds=[1], directions=("random",))
        one = measure_smoothing(cfg, w1, horizons=[0.1], **kw)
        both = measure_smoothing(cfg, w1, horizons=[0.1, 0.1 + 1e-12], **kw)
        assert [r["T"] for r in both] == [0.1, 0.1 + 1e-12]
        assert both == [one[0], {**one[0], "T": 0.1 + 1e-12}] and one[0]["error"] == ""

    # N = 16 runs the dense-DFT kernel, N = 50 the FFT kernel
    @pytest.mark.parametrize("N", [16, 50])
    def test_zero_horizons_alone_give_the_initial_rows(self, N):
        g = WaveGrid(TWO_PI, N)
        cfg = cfg_for(g, hw=curl(random_divfree_field(g, seed=2, norm=0.3)))
        w1 = curl(random_divfree_field(g, seed=1, norm=0.5))
        kw = dict(deltas=[1e-3, 0.0], seeds=[1, 2])
        rows = measure_smoothing(cfg, w1, horizons=[0.0], **kw)
        assert rows == [r for r in measure_smoothing(cfg, w1, horizons=[0.0, 0.1], **kw) if r["T"] == 0.0]
        assert len(rows) == 2 * 2 * 2 and all(r["error"] == "" for r in rows)

    @pytest.mark.parametrize("N", [16, 50])
    def test_duplicate_seeds_and_directions_are_one_group(self, N):
        g = WaveGrid(TWO_PI, N)
        cfg = cfg_for(g, hw=curl(random_divfree_field(g, seed=2, norm=0.3)))
        w1 = curl(random_divfree_field(g, seed=1, norm=0.5))
        kw = dict(deltas=[1e-3], horizons=[0.1])
        rows = measure_smoothing(cfg, w1, seeds=[2, 1, 2], directions=("random", "lowest", "random"), **kw)
        assert [(r["seed"], r["direction"]) for r in rows] == [
            (1, "lowest"), (1, "random"), (2, "lowest"), (2, "random")]
        assert rows == measure_smoothing(cfg, w1, seeds=[1, 2], **kw)

    def test_h_zero_runs_deterministic_members_with_no_path(self, grid16, monkeypatch):
        # h = 0: the conjugated system is the deterministic one bit for bit, so no path is drawn
        cfg = cfg_for(grid16, fw=curl(random_divfree_field(grid16, seed=3, norm=0.5)))
        w1 = curl(random_divfree_field(grid16, seed=1, norm=0.5))
        kw = dict(deltas=[1e-3, 1e-4], horizons=[0.1, 0.2], seeds=[1, 2])
        calls, sample_wiener = [], experiments.sample_wiener
        monkeypatch.setattr(experiments, "sample_wiener", lambda *a, **k: calls.append(a) or sample_wiener(*a, **k))
        rows = measure_smoothing(cfg, w1, **kw)
        assert calls == []
        monkeypatch.setattr(SimConfig, "noisy", property(lambda self: True))
        assert measure_smoothing(cfg, w1, **kw) == rows and len(calls) == 2

    def test_thread_count_invariance(self, grid16):
        cfg = cfg_for(grid16, hw=curl(random_divfree_field(grid16, seed=2, norm=0.3)))
        w1 = curl(random_divfree_field(grid16, seed=1, norm=0.5))
        kw = dict(deltas=[1e-3, 1e-4], horizons=[0.2], seeds=[1, 2])
        a = measure_smoothing(cfg, w1, threads=1, **kw)
        b = measure_smoothing(cfg, w1, threads=4, **kw)
        assert a == b


    def test_base_blowup_gives_error_rows(self, grid16):
        # dt = 10 puts the explicit advection far outside its stability region
        cfg = cfg_for(grid16, dt=10.0)
        w1 = curl(random_divfree_field(grid16, seed=1, norm=50.0))
        rows = measure_smoothing(cfg, w1, deltas=[1e-2, 1e-3], horizons=[500.0, 1000.0],
                                 seeds=[1], directions=("random",))
        assert [(r["delta"], r["T"]) for r in rows] == [
            (1e-2, 500.0), (1e-2, 1000.0), (1e-3, 500.0), (1e-3, 1000.0)]
        assert all("non-finite" in r["error"] and math.isnan(r["ratio"]) for r in rows)

    def test_perturbed_blowup_gives_error_rows(self, grid16):
        # the base stays at rest; only the large perturbation blows up
        cfg = cfg_for(grid16, dt=10.0)
        rows = measure_smoothing(cfg, curl(zero_field(grid16)), deltas=[1e-6, 50.0],
                                 horizons=[500.0, 1000.0], seeds=[1], directions=("random",))
        good = [r for r in rows if r["delta"] == 1e-6]
        bad = [r for r in rows if r["delta"] == 50.0]
        assert [r["T"] for r in good] == [500.0, 1000.0] and all(r["error"] == "" for r in good)
        assert [r["T"] for r in bad] == [500.0, 1000.0]
        assert all("non-finite" in r["error"] for r in bad)

    def test_blowup_stays_in_its_group(self, grid16):
        # four groups in one ensemble: the delta-50 members of the random groups
        # blow up at step 9, between the horizons; the lowest shell only decays
        cfg = cfg_for(grid16, dt=10.0)
        w1, kw = curl(zero_field(grid16)), dict(deltas=[1e-6, 50.0], horizons=[20.0, 1000.0])
        rows = measure_smoothing(cfg, w1, seeds=[1, 2], **kw)
        for seed in (1, 2):
            for label in ("lowest", "random"):
                group = [r for r in rows if (r["seed"], r["direction"]) == (seed, label)]
                alone = measure_smoothing(cfg, w1, seeds=[seed], directions=(label,), **kw)
                if label == "lowest":
                    assert group == alone and all(r["error"] == "" for r in group)
                else:  # repr: the error rows hold NaN
                    assert repr(group) == repr(alone)
                    assert ["non-finite" in r["error"] for r in group] == [False, False, False, True]


class TestAbsorbing:
    # torns pullback's family past w0: the rows r e, pulled back per horizon
    def test_pure_decay_bound_per_cell(self, grid16):
        cfg = cfg_for(grid16, nu=1.0)
        rs, horizons = [1.0, 10.0], [1.0, 2.0]
        for horizon, states in zip(horizons, pullback_solve(cfg, horizons, 5, radii(grid16, *rs))):
            for radius, st in zip(rs, states):
                bound = math.exp(-cfg.nu * grid16.lambda1 * horizon) * radius
                assert st.norms()["norm_H"] <= bound * (1 + 1e-6)

    def test_zero_radius_gives_noise_response(self, grid16):
        h = random_divfree_field(grid16, seed=2, norm=0.3)
        cfg = cfg_for(grid16, hw=curl(h), fw=curl(random_divfree_field(grid16, seed=3, norm=0.2)))
        ((st,),) = pullback_solve(cfg, [5.0], 5, radii(grid16, 0.0))
        assert st.norms()["norm_H"] > 0.0

    def test_monotone_in_radius_linear_regime(self, grid16):
        cfg = cfg_for(grid16, nu=1.0)
        (states,) = pullback_solve(cfg, [1.0], 5, radii(grid16, 1.0, 2.0, 4.0))
        norms = [st.norms()["norm_H"] for st in states]
        assert norms[0] <= norms[1] <= norms[2]

    def test_blowup_cell_gives_error_row(self, grid16):
        cfg = cfg_for(grid16, dt=10.0)
        ((ok, bad),) = pullback_solve(cfg, [1000.0], 5, radii(grid16, 0.0, 50.0))
        assert ok.norms()["norm_H"] == 0.0
        assert isinstance(bad, BlowupError) and "non-finite" in str(bad)

    def test_rejects_empty_grids(self, grid16):
        with pytest.raises(ValueError):
            pullback_solve(cfg_for(grid16), [1.0], 1, radii(grid16))


class TestErgodicCheck:
    def test_values_within_tolerance(self):
        rows = ergodic_check(T=1e4, dt=1e-2, seeds=[1, 4, 8])
        assert [(r["seed"], r["m"]) for r in rows] == [(s, m) for s in (1, 4, 8) for m in (1, 2, 4)]
        for row in rows:
            tol = 0.02 if row["m"] in (1, 2) else 0.05
            assert row["rel_error"] < tol
            assert row["analytic"] == pytest.approx(ou_stationary_moment(row["m"]), rel=1e-15)

    def test_m6_heavier_tail(self):
        (row,) = ergodic_check(T=1e4, dt=1e-2, seeds=[1], moments=(6,))
        assert row["analytic"] == pytest.approx(15.0 / 8.0, rel=1e-15)
        assert row["rel_error"] < 0.10

    # a short horizon, and the inputs that would give no rows, before any path is drawn
    @pytest.mark.parametrize("kw, why", [(dict(T=10.0), "T must be >= 100"),
                                         (dict(seeds=[]), "seeds and moments must be nonempty"),
                                         (dict(moments=()), "seeds and moments must be nonempty")],
                             ids=["short-T", "no-seeds", "no-moments"])
    def test_rejected_before_any_path(self, monkeypatch, kw, why):
        monkeypatch.setattr(experiments, "sample_wiener", None)
        with pytest.raises(ValueError, match=why):
            ergodic_check(**{**dict(T=1e4, dt=1e-2, seeds=[1]), **kw})


class TestConjugationConvergence:
    def test_h_zero_errors_vanish(self, grid16):
        cfg = cfg_for(grid16, dt=2.0**-7, scheme="etd1",
                      fw=curl(random_divfree_field(grid16, seed=4, norm=0.3)))
        rows = conjugation_convergence(cfg, base_dt=2.0**-7, levels=3, T=0.25, seed=3, paths=2)
        assert all(r["strong_error"] <= 1e-10 for r in rows)

    def test_rejects_too_few_levels(self, grid16):
        with pytest.raises(ValueError):
            conjugation_convergence(cfg_for(grid16), base_dt=2.0**-7, levels=2, T=1.0, seed=1, paths=2)

    def test_no_paths_rejected_before_any_path(self, grid16, monkeypatch):
        monkeypatch.setattr(experiments, "sample_wiener", None)
        with pytest.raises(ValueError, match="need at least 1 path, got 0"):
            conjugation_convergence(cfg_for(grid16), base_dt=2.0**-7, levels=3, T=0.25, seed=1, paths=0)

    def test_first_order_strong_convergence(self, grid16):
        h = random_divfree_field(grid16, seed=11, norm=1.0)
        f = random_divfree_field(grid16, seed=21, norm=0.5)
        cfg = cfg_for(grid16, dt=2.0**-7, hw=curl(h), fw=curl(f), seed=5)
        rows = conjugation_convergence(cfg, base_dt=2.0**-7, levels=4, T=1.0, seed=100, paths=8)
        for r in rows[:-1]:
            assert 1.5 < r["ratio"] < 2.6
        assert rows[0]["order"] == pytest.approx(math.log2(rows[0]["ratio"]))
        assert [r["dt"] for r in rows] == [2.0**-7 / 2**i for i in range(4)]
        assert rows[-1]["ratio"] == rows[-1]["order"] == ""

    def test_blowup_raised_by_path_then_level_ou_first(self, grid16, monkeypatch):
        # as if the paths ran one by one: path 0 at level 1, OU before Wiener,
        # after every level has run
        planted = {(2, 0, 0): "A", (0, 1, 0): "B", (1, 0, 1): "C", (1, 0, 0): "D"}  # (level, path, system)
        real, calls = experiments._run_ensembles, []

        def runner(ensembles, threads=1):
            runs, lv = real(ensembles, threads), len(calls)
            calls.append(lv)
            for s, levels in enumerate(runs):
                (level,) = levels.values()
                level[:] = [BlowupError(planted[lv, m, s], None) if (lv, m, s) in planted else x
                            for m, x in enumerate(level)]
            return runs

        monkeypatch.setattr(experiments, "_run_ensembles", runner)
        with pytest.raises(BlowupError, match="^D$"):
            conjugation_convergence(cfg_for(grid16), base_dt=2.0**-7, levels=3, T=2.0**-5, seed=1, paths=2)
        assert calls == [0, 1, 2]

    def test_thread_invariance(self, grid16):
        h = random_divfree_field(grid16, seed=11, norm=1.0)
        cfg = cfg_for(grid16, dt=2.0**-7, hw=curl(h), seed=5)
        a = conjugation_convergence(cfg, base_dt=2.0**-7, levels=3, T=0.25, seed=9, paths=4, threads=1)
        b = conjugation_convergence(cfg, base_dt=2.0**-7, levels=3, T=0.25, seed=9, paths=4, threads=3)
        assert a == b


class TestRunner:
    """Ensembles split into sub-blocks, on a thread pool, only on grids that run the FFT kernel."""

    @pytest.fixture
    def pools(self, monkeypatch):
        started = []

        class Recorder(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        # experiments imports it from concurrent.futures where it builds the pool
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        return started

    @staticmethod
    def run_all(grid, threads):
        dt = 2.0**-5
        cfg = cfg_for(grid, dt=dt, hw=curl(random_divfree_field(grid, seed=2, norm=0.3)))
        w1 = curl(random_divfree_field(grid, seed=1, norm=0.5))
        return [
            measure_smoothing(cfg, w1, deltas=[1e-3], horizons=[dt, 2 * dt], seeds=[1, 2],
                              threads=threads),
            [[st.norms() for st in states]
             for states in pullback_solve(cfg, [dt, 2 * dt], 5, radii(grid, 1.0, 2.0), threads=threads)],
            conjugation_convergence(cfg, base_dt=dt, levels=3, T=2 * dt, seed=9, paths=2,
                                    threads=threads),
        ]

    def test_dft_grid_starts_no_pool(self, pools):
        assert spectral._runs_dft(16)
        self.run_all(WaveGrid(TWO_PI, 16), threads=4)
        assert pools == []

    # the default budget, and one member per sub-block
    @pytest.mark.parametrize("budget", [experiments._SUB_BLOCK_BYTES, 1])
    def test_fft_grid_pools_at_most_threads_workers_with_the_serial_rows(self, pools, monkeypatch, budget):
        N = spectral._DFT_MAX_N + 2  # the first grid on the FFT kernel
        assert not spectral._runs_dft(N)
        grid = WaveGrid(TWO_PI, N)
        serial = self.run_all(grid, threads=1)
        assert pools == []
        monkeypatch.setattr(experiments, "_SUB_BLOCK_BYTES", budget)
        for threads in (2, 3):
            pools.clear()
            pooled = self.run_all(grid, threads=threads)
            assert pools and all(1 < w <= threads for w in pools)
            assert repr(pooled) == repr(serial)  # bit for bit, NaN entries included

    @pytest.mark.parametrize("N, expected", [(64, 536_576), (96, 1_185_792), (128, 2_113_536)])
    def test_member_bytes_is_a_members_real_allocation(self, N, expected):
        # the kernel workspace of a one-member stepper, and its two right sides,
        # argument, two temporaries and the old and new block
        grid = WaveGrid(TWO_PI, N)
        half = spectral.HalfSpectrum(grid)
        stepper = _EtdStepper(cfg_for(grid), [None], [State(0.0, np.zeros((N, half.K), complex), 0.0, half)])
        work = stepper._work
        kernel = [work.vel, work.cols, work.uv, work.adv, work.rows, work.spec, work.out]
        blocks = [*stepper._rhs, stepper._arg, *stepper._tmp, stepper.w, stepper.w]
        assert all(b.shape == (N, (N - 1) // 3 + 1) and b.dtype == np.complex128 for b in blocks)
        assert experiments._member_bytes(N) == sum(a.nbytes for a in kernel + blocks) == expected

    def test_fft_sub_blocks_are_near_equal_and_within_the_budget(self, monkeypatch):
        N = spectral._DFT_MAX_N + 2
        grid, sizes, real = WaveGrid(TWO_PI, N), [], experiments.ensemble
        monkeypatch.setattr(experiments, "ensemble", lambda v0s, *a: sizes.append(len(v0s)) or real(v0s, *a))
        monkeypatch.setattr(experiments, "_SUB_BLOCK_BYTES", 3 * experiments._member_bytes(N) + 1)
        family = radii(grid, *map(float, range(8)))
        (states,) = pullback_solve(cfg_for(grid), [0.1], 5, family)
        assert sizes == [2, 3, 3]
        monkeypatch.undo()
        (rerun,) = pullback_solve(cfg_for(grid), [0.1], 5, family)
        assert all(np.array_equal(a.w, b.w) for a, b in zip(states, rerun))
