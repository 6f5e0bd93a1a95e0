import dataclasses
import math

import numpy as np
import pytest

from torns import cli, dynamics, experiments
from torns.dynamics import (
    BlowupError,
    SimConfig,
    State,
    _EtdStepper,
    _phi1,
    _phi2,
    check_assumption,
    integrate,
    manufactured_forcing,
    step,
    taylor_green,
    trajectory,
)
from torns.noise import OUPath, WienerPath, ou_from_wiener, sample_wiener
from torns.spectral import (
    HalfSpectrum,
    SpectralField,
    WaveGrid,
    field_violations,
    nonlinear_term,
    random_row,
)
from tests.oracle import random_divfree_field, sobolev_norm, taylor_green_velocity, zero_field

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid16():
    return WaveGrid(TWO_PI, 16)


def sine_shear(grid, c=1.0):
    """u = (c sin y, 0): single |k| = 1 mode with B(u, u) = 0 exactly."""
    coeffs = np.zeros((2, grid.N, grid.N), dtype=complex)
    coeffs[0, 0, 1] = -0.5j * c
    coeffs[0, 0, -1 % grid.N] = 0.5j * c
    return SpectralField(grid, coeffs)


def basic_cfg(grid, **kw):
    kw.setdefault("nu", 1.0)
    kw.setdefault("dt", 1e-3)
    kw.setdefault("fw", row(zero_field(grid)))
    kw.setdefault("hw", row(zero_field(grid)))
    return SimConfig(grid=grid, **kw)


def row(v):
    """The vorticity row of velocity v: what ensemble takes and a State holds."""
    return HalfSpectrum(v.grid).curl(v)


def state_of(t, v, z=0.0):
    """The State of velocity v at time t."""
    return State(t, row(v), z, HalfSpectrum(v.grid))


def close_to(u, v):
    """u equals v to 1e-15 of v's largest coefficient: the roundoff of velocity(curl(v))."""
    return np.abs(u.coeffs - v.coeffs).max() <= 1e-15 * np.abs(v.coeffs).max()


def zero_increments(n, dt):
    return WienerPath(t0=0.0, dt=dt, increments=np.zeros(n), seed=0)


def given_z(z, dt):
    """An OUPath carrying the values z; the conjugated system reads only z."""
    return OUPath(wiener=zero_increments(len(z) - 1, dt), z=np.asarray(z, dtype=float))


# the ways an (N, K) row at N = 16 leaves the state space, and the audit's message for each
ROW_CASES = [
    ("shape", r"expected a complex128 array of shape \(16, 6\), got complex128 of shape \(16, 5\)"),
    # a float row used to step, and its initial State wrote a checkpoint of half the payload
    ("dtype", r"expected a complex128 array of shape \(16, 6\), got float64 of shape \(16, 6\)"),
    ("nan", "coefficients contain NaN or Inf"),
    ("mean", "nonzero mean mode"),
    ("outside", "content outside the dealias mask"),
    ("hermitian", "Hermitian symmetry violated on column 0"),
]


def bad_row(good, case):
    """A copy of the row good broken in the way ROW_CASES names case."""
    if case == "shape":
        return good[:, :-1]
    if case == "dtype":
        return np.ascontiguousarray(good.real)
    bad = good.copy()
    if case == "nan":
        bad[2, 1] = np.nan
    elif case == "mean":
        bad[0, 0] = 0.5
    elif case == "outside":
        bad[6, 2] = 0.5  # the row j1 = 6, where 3 j1 >= N
    else:
        bad[3, 0] += 0.5  # row 3 of column 0 without its mirror row -3
    return bad


class TestSimConfig:
    @pytest.mark.parametrize("name, value", [
        ("nu", 0.0), ("nu", math.inf), ("nu", math.nan), ("dt", math.inf),
        ("t_end", math.inf), ("t_end", -1.0), ("t_end", math.nan)])
    def test_rejects_nonpositive_nu(self, grid16, name, value):
        # nu = inf and dt = inf used to build, and blew up on the first step; any t_end built
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            basic_cfg(grid16, **{name: value})

    def test_rejects_bad_scheme(self, grid16):
        with pytest.raises(ValueError):
            basic_cfg(grid16, scheme="rk4")

    def test_scheme_is_etd1_or_etd2(self, grid16):
        # the system comes from the path type; "em" named no scheme of its own
        with pytest.raises(ValueError, match="scheme must be one of"):
            basic_cfg(grid16, scheme="em")

    def test_rejects_h_outside_mask(self, grid16):
        hw = np.zeros((16, 6), dtype=complex)
        hw[7, 0] = hw[-7 % 16, 0] = 1.0  # the rows j1 = +-7, where 3 |j1| >= 16
        with pytest.raises(ValueError, match="hw outside the solver's state space: content outside the dealias"):
            basic_cfg(grid16, hw=hw)

    def test_rejects_f_outside_mask(self, grid16):
        fw = np.zeros((16, 6), dtype=complex)
        fw[6, 0] = fw[-6 % 16, 0] = 1.0  # the rows j1 = +-6, where 3 |j1| >= 16
        with pytest.raises(ValueError, match="fw outside the solver's state space: content outside the dealias"):
            basic_cfg(grid16, fw=fw)

    @pytest.mark.parametrize("case, problem", ROW_CASES)
    @pytest.mark.parametrize("name", ["fw", "hw", "w0"])
    def test_rejects_a_row_outside_the_state_space(self, grid16, name, case, problem):
        good = row(random_divfree_field(grid16, seed=4, norm=1.0))
        basic_cfg(grid16, **{name: good})
        with pytest.raises(ValueError, match=f"{name} outside the solver's state space: " + problem):
            basic_cfg(grid16, **{name: bad_row(good, case)})

    def test_rejects_non_integral_stride(self, grid16):
        # stride 2.5 used to record the steps n with n % 2.5 == 0, every fifth
        cfg = basic_cfg(grid16)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            dataclasses.replace(cfg, stride=2.5)

    def test_attaches_assumption(self, grid16):
        cfg = basic_cfg(grid16)
        assert cfg.assumption is not None and cfg.assumption.satisfied

    def test_u0_is_the_velocity_of_w0_built_on_first_read(self, grid16):
        w0 = row(random_divfree_field(grid16, seed=4, norm=1.0))
        cfg = basic_cfg(grid16, w0=w0)
        assert "u0" not in vars(cfg)
        assert cfg.u0.coeffs.tobytes() == HalfSpectrum(grid16).velocity(w0).coeffs.tobytes()
        assert cfg.u0 is cfg.u0
        with pytest.raises(ValueError, match="the config carries no initial row w0"):
            basic_cfg(grid16).u0


class TestCheckAssumption:
    def test_zero_h(self, grid16):
        rep = check_assumption(row(zero_field(grid16)), 1.0, grid16)
        assert rep.satisfied
        assert rep.alpha == 1.0
        assert rep.lam == pytest.approx(0.25 * grid16.lambda1)
        assert rep.beta == math.inf

    def test_half_admissible_constants(self, grid16):
        # ||grad h||_inf = 0.5 sqrt(pi) with nu = lambda1 = 1: alpha = 1/2,
        # lambda = 1/8, beta = 1/2 by solving the two defining identities
        h = sine_shear(grid16, c=0.5 * math.sqrt(math.pi))
        rep = check_assumption(row(h), 1.0, grid16)
        assert rep.satisfied
        assert rep.alpha == pytest.approx(0.5, rel=1e-12)
        assert rep.lam == pytest.approx(0.125, rel=1e-12)
        assert rep.beta == pytest.approx(0.5, rel=1e-12)

    def test_violation_branch(self, grid16):
        # lhs = 2 rhs: alpha, beta and lambda are absent, and summary() omits them
        h = sine_shear(grid16, c=2.0 * math.sqrt(math.pi))
        rep = check_assumption(row(h), 1.0, grid16)
        assert not rep.satisfied
        assert rep.alpha is None
        assert rep.margin < 0
        assert rep.lhs == pytest.approx(2.0 * rep.rhs, rel=1e-12)
        assert (rep.beta, rep.lam) == (None, None)
        summary = rep.summary()
        assert summary.startswith("satisfied=False ")
        assert not any(key in summary for key in ("alpha=", "beta=", "lambda="))

    def test_defining_identities(self, grid16):
        for seed in range(10):
            h = random_divfree_field(grid16, seed=seed, norm=0.3)
            rep = check_assumption(row(h), 1.0, grid16)
            assert rep.satisfied
            assert rep.lhs == pytest.approx((1 - rep.alpha) * rep.rhs, rel=1e-12)
            assert rep.lhs * (1 + rep.beta) == pytest.approx(rep.rhs * (1 - rep.alpha / 2), rel=1e-12)
            assert rep.lam == pytest.approx(0.25 * rep.alpha * rep.rhs, rel=1e-14)

    def test_gradient_part_of_h_does_not_change_the_report(self, grid16):
        # only the divergence-free part of h acts, and the check reads the row the stepper
        # runs: adding a pure gradient inside the mask used to change grad_linf
        h = random_divfree_field(grid16, seed=3, norm=0.3)
        phi = np.fft.fft2(np.random.default_rng(4).standard_normal((16, 16)), norm="forward")
        phi *= grid16.dealias_mask
        phi[0, 0] = 0.0
        g = SpectralField(grid16, np.stack([1j * grid16.kx * phi, 1j * grid16.ky * phi]))
        assert np.abs(HalfSpectrum(grid16).curl(g)).max() < 1e-15 * np.abs(g.coeffs).max()
        hg = SpectralField(grid16, h.coeffs + g.coeffs)
        a, b = check_assumption(row(h), 1.0, grid16), check_assumption(row(hg), 1.0, grid16)
        for x, y in ((a.lhs, b.lhs), (a.grad_linf_op, b.grad_linf_op), (a.grad_linf_maxabs, b.grad_linf_maxabs)):
            assert y == pytest.approx(x, rel=1e-14, abs=0)

    def test_sampling_holds_a_fraction_of_the_oversampled_grid(self):
        # N = 128 samples grad h on 512 x 512 points: the four entries alone are
        # 8.4 MB, and sampling them in one shot peaks near 16 MB; by blocks off the row, near 2.8 MB
        import tracemalloc

        g = WaveGrid(TWO_PI, 128)
        hw = row(random_divfree_field(g, seed=15, norm=1.0))
        check_assumption(hw, 1.0, g)  # the first call may fill numpy's FFT plan cache
        tracemalloc.start()
        try:
            check_assumption(hw, 1.0, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


class TestDeterministicStep:
    def test_linear_decay_exact(self, grid16):
        # single shear mode, B = 0: ETD linear part is exact over 100 steps
        cfg = basic_cfg(grid16, nu=0.7, dt=1e-2)
        state, _ = integrate(sine_shear(grid16), cfg, steps=100)
        expected = math.exp(-0.7 * 1.0) * sobolev_norm(sine_shear(grid16), 0.0)
        assert sobolev_norm(state.u, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_taylor_green_analytic(self, grid16):
        cfg = basic_cfg(grid16, nu=0.1, dt=1e-3)
        *_, state = trajectory(taylor_green(0.0, 0.1, grid16), cfg, steps=1000)
        exact = taylor_green_velocity(1.0, 0.1, grid16)
        rel = sobolev_norm(SpectralField(grid16, state.u.coeffs - exact.coeffs), 0.0) / sobolev_norm(exact, 0.0)
        assert rel < 1e-8

    def test_manufactured_equilibrium(self, grid16):
        u0 = random_divfree_field(grid16, seed=5, norm=1.0)
        cfg = basic_cfg(grid16, fw=manufactured_forcing(row(u0), 1.0, grid16))
        state, _ = integrate(u0, cfg, steps=1000)
        assert sobolev_norm(SpectralField(grid16, state.u.coeffs - u0.coeffs), 0.0) < 1e-9

    def test_divergence_and_mean_preserved(self, grid16):
        cfg = basic_cfg(grid16, fw=row(random_divfree_field(grid16, seed=2, norm=0.5)))
        state, _ = integrate(random_divfree_field(grid16, seed=3), cfg, steps=50)
        assert field_violations(state.u, rtol=1e-12) == []

    def test_energy_monotone_without_forcing(self, grid16):
        cfg = basic_cfg(grid16, nu=0.5)
        prev = math.inf
        for state in trajectory(row(random_divfree_field(grid16, seed=8, norm=1.0)), cfg, steps=200):
            cur = sobolev_norm(state.u, 0.0)
            assert cur <= prev * (1 + 1e-9)
            prev = cur

    def test_dissipation_bound(self, grid16):
        # discrete Poincare decay: ||u(t)|| <= exp(-nu lambda1 t) ||u0|| (1 + 1e-6)
        cfg = basic_cfg(grid16, nu=0.8)
        u0 = random_divfree_field(grid16, seed=9, norm=1.0)
        _, rows = integrate(u0, cfg, steps=1000, stride=10)
        t, norm_h = (np.array([r[k] for r in rows]) for k in ("t", "norm_H"))
        bound = np.exp(-0.8 * grid16.lambda1 * t) * sobolev_norm(u0, 0.0)
        assert np.all(norm_h <= bound * (1 + 1e-6))

    def test_blowup_detected(self, grid16):
        # dt = 10 puts the explicit advection far outside its stability region
        cfg = basic_cfg(grid16, dt=10.0)
        u0 = random_divfree_field(grid16, seed=1, norm=50.0)
        with pytest.raises(BlowupError) as exc:
            integrate(u0, cfg, steps=1000)
        assert np.isfinite(exc.value.last_state.u.coeffs).all()


class TestRandomStep:
    def test_zero_noise_path_reduces_to_deterministic(self, grid16):
        f = random_divfree_field(grid16, seed=2, norm=0.5)
        h = random_divfree_field(grid16, seed=3, norm=0.4)
        cfg = basic_cfg(grid16, fw=row(f), hw=row(h))
        v0 = random_divfree_field(grid16, seed=4, norm=1.0)
        ou = given_z(np.zeros(101), cfg.dt)
        a, _ = integrate(v0, cfg, path=ou)
        b, _ = integrate(v0, cfg, steps=100)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)

    def test_h_zero_makes_z_irrelevant(self, grid16):
        cfg = basic_cfg(grid16, fw=row(random_divfree_field(grid16, seed=2, norm=0.5)))
        v0 = random_divfree_field(grid16, seed=4, norm=1.0)
        oua = ou_from_wiener(sample_wiener(0.0, 0.1, cfg.dt, seed=5))
        oub = ou_from_wiener(sample_wiener(0.0, 0.1, cfg.dt, seed=6))
        a, _ = integrate(v0, cfg, path=oua)
        b, _ = integrate(v0, cfg, path=oub)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)

    def test_linear_mode_matches_variation_of_constants(self, grid16):
        # B(v + z h) = 0 for parallel shears v and h: etd1 on a single mode is
        # the exact solution of dv/dt = -nu k^2 v + z_n (1 - nu k^2) h_k with
        # piecewise-constant z
        h = sine_shear(grid16, c=0.5)
        cfg = basic_cfg(grid16, nu=0.9, dt=0.05, hw=row(h), scheme="etd1")
        ou = ou_from_wiener(sample_wiener(0.0, 1.0, 0.05, seed=7))
        state, _ = integrate(zero_field(grid16), cfg, path=ou)
        k2 = 1.0
        E = math.exp(-0.9 * k2 * cfg.dt)
        phi1dt = (1 - E) / (0.9 * k2)
        vk = 0.0
        hk = h.coeffs[0, 0, 1]
        for n in range(20):
            vk = E * vk + phi1dt * ou.z[n] * (1.0 - 0.9 * k2) * hk
        assert state.u.coeffs[0, 0, 1] == pytest.approx(vk, rel=1e-12)

    def test_etd2_close_to_piecewise_exact(self, grid16):
        # multistep correction stays within O(dt^2) of the piecewise-z solution
        # (a parallel shear, so B = 0)
        h = sine_shear(grid16, c=0.5)
        ou = ou_from_wiener(sample_wiener(0.0, 1.0, 0.05, seed=7))
        res1, _ = integrate(zero_field(grid16),
                            basic_cfg(grid16, nu=0.9, dt=0.05, hw=row(h), scheme="etd1"), path=ou)
        res2, _ = integrate(zero_field(grid16),
                            basic_cfg(grid16, nu=0.9, dt=0.05, hw=row(h), scheme="etd2"), path=ou)
        diff = sobolev_norm(SpectralField(grid16, res1.u.coeffs - res2.u.coeffs), 0.0)
        assert diff < 10 * 0.05**2

    def test_state_invariants_preserved(self, grid16):
        h = random_divfree_field(grid16, seed=3, norm=0.4)
        cfg = basic_cfg(grid16, fw=row(random_divfree_field(grid16, seed=2, norm=0.5)), hw=row(h))
        ou = ou_from_wiener(sample_wiener(0.0, 0.2, cfg.dt, seed=8))
        state, _ = integrate(random_divfree_field(grid16, seed=4), cfg, path=ou)
        assert field_violations(state.u, rtol=1e-12) == []
        assert state.z == ou.z[-1]


class TestEMStep:
    def test_h_zero_reduces_to_deterministic(self, grid16):
        f = random_divfree_field(grid16, seed=2, norm=0.5)
        cfg = basic_cfg(grid16, fw=row(f), scheme="etd1")
        u0 = random_divfree_field(grid16, seed=4, norm=1.0)
        w = sample_wiener(0.0, 0.1, cfg.dt, seed=5)
        a, _ = integrate(u0, cfg, path=w)
        b, _ = integrate(u0, cfg, steps=100)
        assert np.array_equal(a.u.coeffs, b.u.coeffs)

    def test_one_step_from_zero_is_noise_increment(self, grid16):
        h = random_divfree_field(grid16, seed=3, norm=0.4)
        cfg = basic_cfg(grid16, hw=row(h), dt=1e-4, scheme="etd1")
        w = WienerPath(t0=0.0, dt=cfg.dt, increments=np.array([0.37]), seed=0)
        _, st = trajectory(row(zero_field(grid16)), cfg, path=w)
        assert np.abs(st.u.coeffs - 0.37 * h.coeffs).max() < 1e-12

    def test_single_mode_noise_floor(self, grid16):
        # a parallel shear (B = 0) on a single mode: stationary E||u||^2 = ||h||^2 / (2 nu k^2)
        h = sine_shear(grid16, c=0.5)
        nu = 2.0
        cfg = basic_cfg(grid16, nu=nu, hw=row(h), dt=1e-2, scheme="etd1")
        levels = []
        for seed in range(8):
            w = sample_wiener(0.0, 30.0, cfg.dt, seed=seed)
            _, rows = integrate(zero_field(grid16), cfg, path=w, stride=10)
            tail = np.array([r["norm_H"] for r in rows[len(rows) // 2:]])
            levels.append((tail**2).mean())
        expected = sobolev_norm(h, 0.0) ** 2 / (2 * nu * 1.0)
        assert np.mean(levels) == pytest.approx(expected, rel=0.35)


def velocity_etd2_reference(cfg, v0, zs):
    """The conjugated etd2 scheme written on the velocity with nonlinear_term."""
    g, dt, nu = cfg.grid, cfg.dt, cfg.nu
    zk = -nu * dt * g.k2
    E, phi1, phi2 = np.exp(zk), _phi1(zk), _phi2(zk)
    h, f = (HalfSpectrum(g).velocity(w).coeffs for w in (cfg.hw, cfg.fw))
    u, prev = v0.coeffs.copy(), None
    for n in range(len(zs) - 1):
        adv = SpectralField(g, u + zs[n] * h)
        rhs = f + zs[n] * (h - nu * g.k2 * h) - nonlinear_term(adv, adv).coeffs
        if prev is None:
            u = E * u + dt * phi1 * rhs
        else:
            u = E * u + dt * ((phi1 + phi2) * rhs - phi2 * prev)
        prev = rhs
    return u


class TestVorticityCore:
    # N = 64 and 96 are above spectral._DFT_MAX_N and run the FFT kernel
    @pytest.mark.parametrize("N", [16, 24, 64, 96])
    def test_etd2_matches_velocity_form(self, N):
        g = WaveGrid(TWO_PI, N)
        cfg = basic_cfg(g, nu=0.05, dt=2e-3,
                        fw=row(random_divfree_field(g, seed=2, norm=0.5)),
                        hw=row(random_divfree_field(g, seed=3, norm=0.05)))
        v0 = random_divfree_field(g, seed=4, norm=1.0)
        ou = ou_from_wiener(sample_wiener(0.0, 200 * cfg.dt, cfg.dt, seed=5))
        state, _ = integrate(v0, cfg, path=ou)
        ref = velocity_etd2_reference(cfg, v0, ou.z)
        assert ou.n == 200
        assert np.abs(state.u.coeffs - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_state_space_kept_at_n24(self):
        g = WaveGrid(TWO_PI, 24)
        cfg = basic_cfg(g, nu=0.05, dt=2e-3,
                        fw=row(random_divfree_field(g, seed=2, norm=0.5)),
                        hw=row(random_divfree_field(g, seed=3, norm=0.05)))
        ou = ou_from_wiener(sample_wiener(0.0, 0.2, cfg.dt, seed=6))
        state, _ = integrate(random_divfree_field(g, seed=4, norm=1.0), cfg, path=ou)
        assert field_violations(state.u, rtol=1e-13) == []
        assert np.abs(state.u.coeffs[:, ~g.dealias_mask]).max() < 1e-13 * np.abs(state.u.coeffs).max()

    # N = 16 runs the dense-DFT kernel, N = 66 the FFT kernel
    @pytest.mark.parametrize("N", [16, 66])
    def test_emitted_state_holds_the_masked_columns(self, N):
        g = WaveGrid(TWO_PI, N)
        cfg = basic_cfg(g, nu=0.05, dt=2e-3,
                        fw=row(random_divfree_field(g, seed=2, norm=0.5)),
                        hw=row(random_divfree_field(g, seed=3, norm=0.05)))
        ou = ou_from_wiener(sample_wiener(0.0, 5 * cfg.dt, cfg.dt, seed=6))
        *_, last = trajectory(row(random_divfree_field(g, seed=4, norm=1.0)), cfg, ou)
        K = (N - 1) // 3 + 1
        assert last.w.shape == (N, K) and last.w.flags.c_contiguous
        c = last.u.coeffs
        assert np.abs(c).max() > 0.0
        assert np.abs(c[:, ~g.dealias_mask]).max() == 0.0

    def test_block_is_the_stepper_only_state(self, grid16):
        cfg = basic_cfg(grid16, nu=0.05, fw=row(random_divfree_field(grid16, seed=2, norm=0.5)),
                        hw=row(random_divfree_field(grid16, seed=3, norm=0.05)), scheme="etd1")
        ou = given_z([0.3, 0.2, 0.1], cfg.dt)
        start = state_of(0.0, random_divfree_field(grid16, seed=4, norm=1.0))
        steppers = [_EtdStepper(cfg, [ou], [start]) for _ in range(2)]
        for st in steppers:
            st.advance()
        a, a2 = (step(start, st, 0) for st in steppers)
        steppers[0].advance()
        b = step(a, steppers[0], 0)
        # the stepper supplies t and z; the state handed in is never read on a live member
        other = state_of(a2.t, random_divfree_field(grid16, seed=5, norm=1.0), -1.0)
        steppers[1].advance()
        c = step(other, steppers[1], 0)
        assert (c.t, c.z) == (b.t, b.z) == (2 * cfg.dt, 0.1)
        assert np.array_equal(c.w, b.w)
        # a second call at the same level emits its row again
        assert np.array_equal(step(a, steppers[0], 0).w, b.w)


def noisy_cfg(grid, **kw):
    return basic_cfg(grid, nu=0.05, dt=2e-3, fw=row(random_divfree_field(grid, seed=2, norm=0.5)),
                     hw=row(random_divfree_field(grid, seed=3, norm=0.05)), **kw)


class TestStepperBuffers:
    @pytest.mark.parametrize("scheme", ["etd1", "etd2"])
    def test_alternating_steppers_share_no_buffers(self, grid16, scheme):
        cfg = noisy_cfg(grid16, scheme=scheme)
        ou = given_z(np.linspace(0.3, -0.2, 13), cfg.dt)

        starts = [state_of(0.0, random_divfree_field(grid16, seed=s, norm=1.0)) for s in (4, 5)]
        alone = []
        for start in starts:
            st, state, kept = _EtdStepper(cfg, [ou], [start]), start, []
            for n in range(12):
                st.advance()
                state = step(state, st, 0)
                kept.append(state.u.coeffs.copy())
            alone.append(kept)
        steppers = [_EtdStepper(cfg, [ou], [start]) for start in starts]
        states, kept = list(starts), [[], []]
        for n in range(12):
            for i in range(2):
                steppers[i].advance()
                states[i] = step(states[i], steppers[i], 0)
                kept[i].append(states[i])
        # every emitted state still holds its own step, read only now
        for i in range(2):
            for n in range(12):
                assert np.array_equal(kept[i][n].u.coeffs, alone[i][n])

    def test_no_loop_builds_velocity(self, grid16, monkeypatch, tmp_path):
        # every recorded norm and distance is read off the states' vorticity rows
        import json

        from torns import spectral
        from torns.cli import main

        calls = []
        velocity = spectral.HalfSpectrum.velocity
        monkeypatch.setattr(spectral.HalfSpectrum, "velocity",
                            lambda self, w: calls.append(1) or velocity(self, w))
        cfg = noisy_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=4, norm=1.0)
        ou = ou_from_wiener(sample_wiener(0.0, 10 * cfg.dt, cfg.dt, seed=5))
        state, rows = integrate(v0, cfg, path=ou, stride=3)
        assert len(rows) == 4
        # horizon 0 reads the initial states
        experiments.measure_smoothing(cfg, row(v0), cli._directions(cfg, [1]), deltas=[1e-3],
                                      horizons=[0.0, 4 * cfg.dt])
        e = random_row(HalfSpectrum(grid16), 99, norm=1.0, stream=29)  # torns pullback's radii family
        experiments.pullback_solve(cfg, [0.0, 3 * cfg.dt], 5, [1.0 * e, 2.0 * e])
        w0 = random_row(HalfSpectrum(grid16), cfg.seed, norm=1.0, stream=31)  # torns convergence's start
        experiments.conjugation_convergence(cfg, w0, base_dt=cfg.dt, levels=3, T=4 * cfg.dt, seed=7, paths=2)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"preset": "decay-noise", "N": 8, "dt": 1e-2}))
        assert main(["pullback", "--config", str(config), "--out", str(tmp_path / "pb"), "--quiet"]) == 0
        assert calls == []
        # the returned state builds its velocity on the first read only
        u = state.u
        assert len(calls) == 1 and state.u is u

    def test_steady_state_step_allocates_little(self):
        import tracemalloc

        # one grid on each kernel: N = 16 and 48 run the DFT tables, N = 64 the FFTs;
        # B = 4 meets every table and z column with a block of more than one member
        for N, B in ((48, 1), (64, 1), (16, 4), (64, 4)):
            g = WaveGrid(TWO_PI, N)
            cfg = noisy_cfg(g)
            states = [state_of(0.0, random_divfree_field(g, seed=4 + m, norm=1.0)) for m in range(B)]
            paths = [given_z(np.linspace(0.1, 0.3 + m, 24), cfg.dt) for m in range(B)]
            st = _EtdStepper(cfg, paths, states)

            def level():
                st.advance()
                states[:] = [step(s, st, m) for m, s in enumerate(states)]

            for _ in range(3):  # past the etd2 bootstrap and the first FFT plans
                level()
            tracemalloc.start()
            try:
                live0, peaks = tracemalloc.get_traced_memory()[0], []
                for _ in range(20):  # what each level allocates over what it starts with
                    live = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    level()
                    peaks.append(tracemalloc.get_traced_memory()[1] - live)
                kept = tracemalloc.get_traced_memory()[0] - live0
            finally:
                tracemalloc.stop()
            # the new block, the members' States and the level's list
            assert max(peaks) < st.w.nbytes + 2048, (N, B)
            # and across the levels only the last of them stays: nothing builds up
            assert kept < 2 * st.w.nbytes, (N, B)


class TestIntegrate:
    def test_zero_steps_returns_initial(self, grid16):
        cfg = basic_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=1)
        state, rows = integrate(v0, cfg, steps=0)
        assert np.array_equal(state.w, row(v0))
        assert close_to(state.u, v0)
        assert len(rows) == 1

    def test_series_length_contract(self, grid16):
        cfg = basic_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=1)
        for steps, stride in ((100, 10), (101, 10), (7, 3), (5, 100)):
            _, rows = integrate(v0, cfg, steps=steps, stride=stride)
            assert len(rows) == steps // stride + 1

    def test_observer_matches_taylor_green(self, grid16):
        cfg = basic_cfg(grid16, nu=0.1)
        _, rows = integrate(taylor_green_velocity(0.0, 0.1, grid16), cfg, steps=1000, stride=100)
        t, norm_h = (np.array([r[k] for r in rows]) for k in ("t", "norm_H"))
        expected = np.exp(-0.2 * t) * sobolev_norm(taylor_green_velocity(0.0, 0.1, grid16), 0.0)
        assert np.abs(norm_h / expected - 1).max() < 1e-8

    def test_dt_mismatch_rejected(self, grid16):
        cfg = basic_cfg(grid16, dt=1e-3)
        w = sample_wiener(0.0, 1.0, 1e-2, seed=0)
        with pytest.raises(ValueError):
            integrate(random_divfree_field(grid16, seed=1), cfg, path=w)

    def test_grid_mismatch_rejected(self, grid16):
        cfg = basic_cfg(grid16)
        v0 = random_divfree_field(WaveGrid(TWO_PI, 8), seed=1)
        with pytest.raises(ValueError):
            integrate(v0, cfg, steps=1)

    @pytest.mark.parametrize("kw, message", [
        ({"stride": 0}, "stride must be >= 1, got 0"),
        ({"stride": -1}, "stride must be >= 1, got -1"),
        ({"steps": -3}, "steps must be >= 0, got -3"),
    ])
    def test_rejects_bad_counts(self, grid16, kw, message):
        cfg = basic_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=1)
        with pytest.raises(ValueError, match=message):
            integrate(v0, cfg, **{"steps": 5, **kw})
        if "steps" in kw:  # checked on the call, before any state is drawn
            with pytest.raises(ValueError, match=message):
                trajectory(row(v0), cfg, **kw)

    # steps 2.5 used to yield the initial states, then raise TypeError at the second level
    @pytest.mark.parametrize("entry", ["ensemble", "trajectory", "integrate"])
    @pytest.mark.parametrize("kind", ["deterministic", "ou"])
    def test_rejects_non_integral_steps_before_any_state(self, grid16, monkeypatch, entry, kind):
        cfg = noisy_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=1)
        path = path_of_type(kind, cfg, 5)
        built = []
        monkeypatch.setattr(dynamics, "_EtdStepper", lambda *a: built.append(a))
        call = {"ensemble": lambda: dynamics.ensemble([row(v0)], cfg, [path], steps=2.5),
                "trajectory": lambda: trajectory(row(v0), cfg, path, steps=2.5),
                "integrate": lambda: integrate(v0, cfg, path, steps=2.5)}[entry]
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            call()
        assert built == []

    def test_rejects_non_integral_stride(self, grid16):
        # stride 2.5 used to be truncated to 2, six rows over 10 steps, not floor(10/2.5) + 1
        v0 = random_divfree_field(grid16, seed=1)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            integrate(v0, basic_cfg(grid16), steps=10, stride=2.5)

    def test_rejects_t_end_not_whole_number_of_steps(self, grid16):
        # round(1.0 / 0.3) steps used to end the deterministic run at t = 0.9
        cfg = basic_cfg(grid16, dt=0.3, t_end=1.0)
        v0 = random_divfree_field(grid16, seed=1)
        message = "the horizon 1.0 is not a whole number of steps of dt = 0.3"
        with pytest.raises(ValueError, match=message):
            integrate(v0, cfg)
        with pytest.raises(ValueError, match=message):
            trajectory(row(v0), cfg)

    def test_rejects_initial_mean(self, grid16):
        v0 = random_divfree_field(grid16, seed=1)
        v0.coeffs[0, 0, 0] = 0.1
        with pytest.raises(ValueError, match="mean"):
            integrate(v0, basic_cfg(grid16), steps=1)

    def test_rejects_initial_divergence(self, grid16):
        v0 = random_divfree_field(grid16, seed=1)
        v0.coeffs[0, 1, 0] += 0.1  # a gradient component at j = (1, 0)
        v0.coeffs[0, -1 % 16, 0] += 0.1
        with pytest.raises(ValueError, match="divergence"):
            integrate(v0, basic_cfg(grid16), steps=1)

    def test_rejects_initial_outside_mask(self, grid16):
        v0 = random_divfree_field(grid16, seed=1)
        v0.coeffs[0, 0, 6] += 0.1j  # a shear at j2 = 6, where 3 j2 >= N
        v0.coeffs[0, 0, -6 % 16] -= 0.1j
        with pytest.raises(ValueError, match="dealias mask"):
            integrate(v0, basic_cfg(grid16), steps=1)


def path_of_type(kind, cfg, n):
    if kind == "ou":
        return ou_from_wiener(sample_wiener(0.0, n * cfg.dt, cfg.dt, seed=5))
    if kind == "wiener":
        return sample_wiener(0.0, n * cfg.dt, cfg.dt, seed=5)
    return None


class TestTrajectory:
    @pytest.mark.parametrize("kind", ["deterministic", "ou", "wiener"])
    def test_last_state_is_integrate_state(self, grid16, kind):
        cfg = noisy_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=4, norm=1.0)
        path = path_of_type(kind, cfg, 7)
        states = list(trajectory(row(v0), cfg, path=path, steps=7))
        state, _ = integrate(v0, cfg, path=path, steps=7, stride=3)
        assert len(states) == 7 + 1
        assert np.array_equal(states[0].w, row(v0))
        assert close_to(states[0].u, v0)
        assert states[-1].t == state.t and states[-1].z == state.z
        assert np.array_equal(states[-1].u.coeffs, state.u.coeffs)

    def test_one_step_call_per_member_step(self, grid16, monkeypatch):
        # the benchmark's traced gate counts dynamics.step calls as member-steps;
        # every stepper advances its block once per level, whatever its members
        calls, steppers = [], []  # per step call: (level, member, what it returned)
        inner = dynamics.step

        def counted_step(state, stepper, m):
            out = inner(state, stepper, m)
            calls.append((stepper.level, m, out))
            return out

        monkeypatch.setattr(dynamics, "step", counted_step)

        class Counted(_EtdStepper):
            def __init__(self, *a):
                self.advances = 0
                steppers.append(self)
                super().__init__(*a)

            def advance(self):
                self.advances += 1
                super().advance()

        monkeypatch.setattr(dynamics, "_EtdStepper", Counted)

        def run(fn, *a, **kw):
            """The step calls of fn, and each stepper's (members, block advances)."""
            calls.clear()
            steppers.clear()
            fn(*a, **kw)
            return len(calls), sorted((st.B, st.advances) for st in steppers)

        cfg = noisy_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=4, norm=1.0)
        for kind, n in (("deterministic", 7), ("ou", 6), ("wiener", 5)):
            assert run(integrate, v0, cfg, path=path_of_type(kind, cfg, n), steps=n, stride=2) == (n, [(1, n)]), kind
        # smoothing: the base and two perturbed members
        dw = cli._directions(cfg, [1])[1, "random"]
        assert run(experiments.measure_smoothing, cfg, row(v0), {(1, "random"): dw},
                   deltas=[1e-3, 1e-4], horizons=[4 * cfg.dt, 10 * cfg.dt]) == (3 * 10, [(3, 10)])
        # 2 seeds x 2 directions: one 12-member ensemble, one block on the
        # dense-DFT kernel, two sub-blocks of 6 within the byte budget on the FFT kernel (N = 50)
        for g, blocks in ((grid16, [(12, 10)]), (WaveGrid(TWO_PI, 50), [(6, 10)] * 2)):
            c = noisy_cfg(g)
            assert run(experiments.measure_smoothing, c, row(random_divfree_field(g, seed=4, norm=1.0)),
                       cli._directions(c, [1, 2]), deltas=[1e-3, 1e-4],
                       horizons=[4 * c.dt, 10 * c.dt]) == (12 * 10, blocks)
        # absorbing, torns pullback's radii family: one stepper per horizon, its radii one ensemble
        e = random_row(HalfSpectrum(grid16), 99, norm=1.0, stream=29)
        assert run(experiments.pullback_solve, cfg, [3 * cfg.dt, 8 * cfg.dt], 5,
                   [r * e for r in (1.0, 2.0, 4.0)]) == (3 * (3 + 8), [(3, 3), (3, 8)])
        # convergence: levels of 4, 8 and 16 steps, each an OU and a Wiener ensemble of the 2 paths
        w0 = random_row(HalfSpectrum(grid16), cfg.seed, norm=1.0, stream=31)  # torns convergence's start
        assert run(experiments.conjugation_convergence, cfg, w0, base_dt=cfg.dt, levels=3, T=4 * cfg.dt, seed=7,
                   paths=2) == (2 * 2 * (4 + 8 + 16), [(2, 4), (2, 4), (2, 8), (2, 8), (2, 16), (2, 16)])
        family = [row(random_divfree_field(grid16, seed=s, norm=1.0)) for s in (4, 5, 6)]
        assert run(experiments.pullback_solve, cfg, [5 * cfg.dt, 2 * cfg.dt], 3, family) == (
            3 * (5 + 2), [(3, 2), (3, 5)])
        # a member that blows up, the norm-50 one of test_blowup_freezes_only_its_member (at step 9):
        # one step call per level up to its blowup, whose call returns its BlowupError, and none after
        bcfg = basic_cfg(grid16, dt=10.0)
        v0s = [random_divfree_field(grid16, seed=s, norm=n) for s, n in ((1, 0.05), (1, 50.0), (2, 0.05))]
        levels = []
        assert run(lambda: levels.extend(dynamics.ensemble([row(v) for v in v0s], bcfg, steps=14))) == (
            2 * 14 + 9, [(3, 14)])
        blown = [(n, out) for n, m, out in calls if m == 1]
        assert [n for n, _ in blown] == list(range(1, 10))
        assert all(isinstance(out, State) for _, out in blown[:-1])
        assert isinstance(blown[-1][1], BlowupError)
        assert all(level[1] is blown[-1][1] for level in levels[9:])
        for m in (0, 2):
            for level, alone in zip(levels, trajectory(row(v0s[m]), bcfg, steps=14), strict=True):
                assert np.array_equal(level[m].w, alone.w)
        # a block with no live member left is not advanced: alone, the norm-50 member takes 9 levels
        levels.clear()
        assert run(lambda: levels.extend(dynamics.ensemble([row(v0s[1])], bcfg, steps=14))) == (9, [(1, 9)])
        assert len(levels) == 15 and all(level[0] is levels[9][0] for level in levels[9:])


def member_paths(kind, cfg, n, B):
    """B paths of one kind with distinct seeds (None for the deterministic system)."""
    if kind == "deterministic":
        return None
    ws = [sample_wiener(0.0, n * cfg.dt, cfg.dt, seed=20 + m) for m in range(B)]
    return [ou_from_wiener(w) for w in ws] if kind == "ou" else ws


class TestEnsemble:
    # N = 16 runs the dense-DFT kernel, N = 50 the FFT kernel; a BLAS that
    # blocked a product by its row count could change the bits with B
    @pytest.mark.parametrize("N", [16, 50])
    @pytest.mark.parametrize("kind", ["deterministic", "ou", "wiener"])
    @pytest.mark.parametrize("B", [1, 3, 8, 24])
    def test_members_have_the_bits_of_single_trajectories(self, N, kind, B):
        g = WaveGrid(TWO_PI, N)
        cfg = noisy_cfg(g)
        steps = 5
        v0s = [random_divfree_field(g, seed=30 + m, norm=1.0) for m in range(B)]
        paths = member_paths(kind, cfg, steps, B)
        levels = list(dynamics.ensemble([row(v) for v in v0s], cfg, paths, steps=steps))
        assert len(levels) == steps + 1
        for m in range(B):
            alone = trajectory(row(v0s[m]), cfg, None if paths is None else paths[m], steps=steps)
            for level, a in zip(levels, alone):
                b = level[m]
                assert (b.t, b.z) == (a.t, a.z)
                assert np.array_equal(b.w, a.w)

    @pytest.mark.parametrize("B", [1, 3])
    def test_initial_states_keep_their_velocity_and_carry_their_rows(self, grid16, B):
        cfg = noisy_cfg(grid16)
        v0s = [random_divfree_field(grid16, seed=30 + m, norm=1.0) for m in range(B)]
        half = HalfSpectrum(grid16)
        w0s = [half.curl(v0) for v0 in v0s]
        for v0, w0, state in zip(v0s, w0s, next(dynamics.ensemble(w0s, cfg)), strict=True):
            # the initial state holds the row it was given, and its velocity is v0 to roundoff
            assert state.w is w0 and close_to(state.u, v0)
            with pytest.raises(AttributeError):
                state.w = half.curl(v0)
        # a State is built from a row alone; its velocity and norms are read off it
        built = State(0.0, w0s[0], 0.0, half)
        assert built.w is w0s[0] and close_to(built.u, v0s[0])
        assert list(built.norms().values()) == list(half.norms(w0s[0]))

    @pytest.mark.parametrize("case, problem", ROW_CASES)
    def test_rejects_a_row_outside_the_state_space(self, grid16, case, problem):
        cfg = noisy_cfg(grid16)
        good = row(random_divfree_field(grid16, seed=4, norm=1.0))
        with pytest.raises(ValueError, match="initial row outside the solver's state space: " + problem):
            dynamics.ensemble([good, bad_row(good, case)], cfg)

    def test_members_share_one_system(self, grid16):
        cfg = noisy_cfg(grid16)
        w0s = [row(random_divfree_field(grid16, seed=s, norm=1.0)) for s in (4, 5)]
        with pytest.raises(ValueError, match="share one system"):
            dynamics.ensemble(w0s, cfg, [path_of_type("ou", cfg, 3), None])
        with pytest.raises(ValueError, match="one path per member"):
            dynamics.ensemble(w0s, cfg, [path_of_type("ou", cfg, 3)])

    @pytest.mark.parametrize("big", [0, 1, 2])
    def test_blowup_freezes_only_its_member(self, grid16, big):
        # dt = 10 puts the explicit advection far outside its stability region:
        # the norm-50 member blows up at step 9 and the norm-30 one, last, at
        # step 11, after the first one's row was zeroed; the small ones decay;
        # warnings are errors
        cfg = basic_cfg(grid16, dt=10.0)
        v0s = [random_divfree_field(grid16, seed=s, norm=0.05) for s in (1, 2)]
        v0s.insert(big, random_divfree_field(grid16, seed=1, norm=50.0))
        v0s.append(random_divfree_field(grid16, seed=2, norm=30.0))
        levels = list(dynamics.ensemble([row(v) for v in v0s], cfg, steps=14))
        blown = []
        for m in (big, 3):
            err = levels[-1][m]
            assert isinstance(err, BlowupError)
            with pytest.raises(BlowupError) as alone:
                integrate(v0s[m], cfg, steps=14)
            assert str(err) == str(alone.value)
            assert np.array_equal(err.last_state.u.coeffs, alone.value.last_state.u.coeffs)
            blown.append(next(n for n, level in enumerate(levels) if level[m] is err))
            assert all(level[m] is err for level in levels[blown[-1]:])
        assert blown == [9, 11]
        for m in {0, 1, 2} - {big}:
            for level, a in zip(levels, trajectory(row(v0s[m]), cfg, steps=14)):
                assert np.array_equal(level[m].w, a.w)


def taylor_green_u(t, nu, grid):
    """The velocity of the row dynamics.taylor_green builds."""
    return HalfSpectrum(grid).velocity(taylor_green(t, nu, grid))


class TestTaylorGreen:
    @pytest.mark.parametrize("L", [1.0, 3.0, 2.0 * math.pi, 10.0])
    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_row_is_the_curl_of_the_closed_form_velocity(self, L, N):
        g = WaveGrid(L, N)
        for t in (0.0, 0.5):
            assert taylor_green(t, 0.1, g).tobytes() == HalfSpectrum(g).curl(taylor_green_velocity(t, 0.1, g)).tobytes()

    @pytest.mark.parametrize("L", [1.0, 3.0, 2.0 * math.pi, 10.0])
    def test_samples_are_the_vortex_on_any_box(self, L):
        # the series sampled at (a L/N, b L/N) is e^{-2 nu lambda_1 t} (cos kx sin ky, -sin kx cos ky),
        # k = 2 pi / L, so kx = 2 pi a / N on every torus
        g = WaveGrid(L, 16)
        u = taylor_green_u(0.5, 0.1, g)
        vals = np.fft.ifft2(u.coeffs, axes=(-2, -1), norm="forward").real
        kx = 2.0 * math.pi * np.arange(16) / 16
        x, y = kx[:, None], kx[None, :]
        amp = math.exp(-2.0 * 0.1 * g.lambda1 * 0.5)
        assert np.abs(vals[0] - amp * np.cos(x) * np.sin(y)).max() < 1e-15
        assert np.abs(vals[1] + amp * np.sin(x) * np.cos(y)).max() < 1e-15

    def test_quadrature_norm(self, grid16):
        # || (cos x sin y, -sin x cos y) ||^2 = 2 pi^2 by direct integration
        u = taylor_green_u(0.0, 1.0, grid16)
        assert sobolev_norm(u, 0.0) == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-13)

    def test_divergence_free(self, grid16):
        from tests.oracle import divergence

        assert np.abs(divergence(taylor_green_u(0.0, 1.0, grid16))).max() < 1e-13

    def test_advection_is_gradient(self, grid16):
        from torns.spectral import nonlinear_term

        u = taylor_green_u(0.0, 1.0, grid16)
        assert np.abs(nonlinear_term(u, u).coeffs).max() < 1e-14
