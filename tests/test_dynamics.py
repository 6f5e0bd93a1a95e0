import math

import numpy as np
import pytest

from torns import dynamics, experiments
from torns.dynamics import (
    BlowupError,
    SimConfig,
    State,
    _EtdStepper,
    _phi1,
    _phi2,
    check_assumption,
    conjugate,
    integrate,
    manufactured_forcing,
    step,
    taylor_green,
    trajectory,
)
from torns.noise import OUPath, WienerPath, ou_from_wiener, sample_wiener
from torns.spectral import (
    SpectralField,
    field_violations,
    make_grid,
    nonlinear_term,
    random_divfree_field,
    sobolev_norm,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def grid16():
    return make_grid(TWO_PI, 16)


def sine_shear(grid, c=1.0):
    """u = (c sin y, 0): single |k| = 1 mode with B(u, u) = 0 exactly."""
    coeffs = np.zeros((2, grid.N, grid.N), dtype=complex)
    coeffs[0, 0, 1] = -0.5j * c
    coeffs[0, 0, -1 % grid.N] = 0.5j * c
    return SpectralField(grid, coeffs)


def basic_cfg(grid, **kw):
    kw.setdefault("nu", 1.0)
    kw.setdefault("dt", 1e-3)
    kw.setdefault("f", SpectralField.zero(grid))
    kw.setdefault("h", SpectralField.zero(grid))
    return SimConfig(grid=grid, **kw)


def zero_increments(n, dt):
    return WienerPath(t0=0.0, t1=n * dt, dt=dt, increments=np.zeros(n), seed=0)


def given_z(z, dt):
    """An OUPath carrying the values z; the conjugated system reads only z."""
    return OUPath(wiener=zero_increments(len(z) - 1, dt), z=np.asarray(z, dtype=float))


class TestSimConfig:
    def test_rejects_nonpositive_nu(self, grid16):
        with pytest.raises(ValueError):
            basic_cfg(grid16, nu=0.0)

    def test_rejects_bad_scheme(self, grid16):
        with pytest.raises(ValueError):
            basic_cfg(grid16, scheme="rk4")

    def test_rejects_h_outside_mask(self, grid16):
        c = np.zeros((2, 16, 16), dtype=complex)
        c[1, 7, 0] = 1.0  # |j| = 7 > 16/3
        c[1, -7 % 16, 0] = 1.0
        with pytest.raises(ValueError):
            basic_cfg(grid16, h=SpectralField(grid16, c))

    def test_rejects_f_outside_mask(self, grid16):
        c = np.zeros((2, 16, 16), dtype=complex)
        c[1, 6, 0] = 1.0  # |j| = 6 > 16/3
        c[1, -6 % 16, 0] = 1.0
        with pytest.raises(ValueError, match="f must be band-limited"):
            basic_cfg(grid16, f=SpectralField(grid16, c))

    def test_attaches_assumption(self, grid16):
        cfg = basic_cfg(grid16)
        assert cfg.assumption is not None and cfg.assumption.satisfied


class TestCheckAssumption:
    def test_zero_h(self, grid16):
        rep = check_assumption(SpectralField.zero(grid16), 1.0, grid16)
        assert rep.satisfied
        assert rep.alpha == 1.0
        assert rep.lam == pytest.approx(0.25 * grid16.lambda1)
        assert rep.beta == math.inf

    def test_half_admissible_constants(self, grid16):
        # ||grad h||_inf = 0.5 sqrt(pi) with nu = lambda1 = 1: alpha = 1/2,
        # lambda = 1/8, beta = 1/2 by solving the two defining identities
        h = sine_shear(grid16, c=0.5 * math.sqrt(math.pi))
        rep = check_assumption(h, 1.0, grid16)
        assert rep.satisfied
        assert rep.alpha == pytest.approx(0.5, rel=1e-12)
        assert rep.lam == pytest.approx(0.125, rel=1e-12)
        assert rep.beta == pytest.approx(0.5, rel=1e-12)

    def test_violation_branch(self, grid16):
        h = sine_shear(grid16, c=2.0 * math.sqrt(math.pi))
        rep = check_assumption(h, 1.0, grid16)
        assert not rep.satisfied
        assert rep.alpha is None
        assert rep.margin < 0

    def test_defining_identities(self, grid16):
        for seed in range(10):
            h = random_divfree_field(grid16, seed=seed, norm=0.3)
            rep = check_assumption(h, 1.0, grid16)
            assert rep.satisfied
            assert rep.lhs == pytest.approx((1 - rep.alpha) * rep.rhs, rel=1e-12)
            assert rep.lhs * (1 + rep.beta) == pytest.approx(rep.rhs * (1 - rep.alpha / 2), rel=1e-12)
            assert rep.lam == pytest.approx(0.25 * rep.alpha * rep.rhs, rel=1e-14)


class TestDeterministicStep:
    def test_linear_decay_exact(self, grid16):
        # single shear mode, B = 0: ETD linear part is exact over 100 steps
        cfg = basic_cfg(grid16, nu=0.7, dt=1e-2)
        res = integrate(sine_shear(grid16), cfg, steps=100)
        expected = math.exp(-0.7 * 1.0) * sobolev_norm(sine_shear(grid16), 0.0)
        assert sobolev_norm(res.state.u, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_taylor_green_analytic(self, grid16):
        cfg = basic_cfg(grid16, nu=0.1, dt=1e-3)
        res = integrate(taylor_green(0.0, 0.1, grid16), cfg, steps=1000)
        exact = taylor_green(1.0, 0.1, grid16)
        rel = sobolev_norm(res.state.u - exact, 0.0) / sobolev_norm(exact, 0.0)
        assert rel < 1e-8

    def test_manufactured_equilibrium(self, grid16):
        u0 = random_divfree_field(grid16, seed=5, norm=1.0)
        cfg = basic_cfg(grid16, f=manufactured_forcing(u0, 1.0))
        res = integrate(u0, cfg, steps=1000)
        assert sobolev_norm(res.state.u - u0, 0.0) < 1e-9

    def test_divergence_and_mean_preserved(self, grid16):
        cfg = basic_cfg(grid16, f=random_divfree_field(grid16, seed=2, norm=0.5))
        res = integrate(random_divfree_field(grid16, seed=3), cfg, steps=50)
        assert field_violations(res.state.u, rtol=1e-12) == []

    def test_energy_monotone_without_forcing(self, grid16):
        cfg = basic_cfg(grid16, nu=0.5)
        prev = math.inf
        for state in trajectory(random_divfree_field(grid16, seed=8, norm=1.0), cfg, steps=200):
            cur = sobolev_norm(state.u, 0.0)
            assert cur <= prev * (1 + 1e-9)
            prev = cur

    def test_dissipation_bound(self, grid16):
        # discrete Poincare decay: ||u(t)|| <= exp(-nu lambda1 t) ||u0|| (1 + 1e-6)
        cfg = basic_cfg(grid16, nu=0.8)
        u0 = random_divfree_field(grid16, seed=9, norm=1.0)
        res = integrate(u0, cfg, steps=1000, stride=10)
        bound = np.exp(-0.8 * grid16.lambda1 * res.series.t) * sobolev_norm(u0, 0.0)
        assert np.all(res.series.norm_h <= bound * (1 + 1e-6))

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
        cfg = basic_cfg(grid16, f=f, h=h)
        v0 = random_divfree_field(grid16, seed=4, norm=1.0)
        ou = ou_from_wiener(zero_increments(100, cfg.dt), init="zero")
        a = integrate(v0, cfg, path=ou)
        b = integrate(v0, cfg, steps=100)
        assert np.array_equal(a.state.u.coeffs, b.state.u.coeffs)

    def test_h_zero_makes_z_irrelevant(self, grid16):
        cfg = basic_cfg(grid16, f=random_divfree_field(grid16, seed=2, norm=0.5))
        v0 = random_divfree_field(grid16, seed=4, norm=1.0)
        oua = ou_from_wiener(sample_wiener(0.0, 0.1, cfg.dt, seed=5), init="stationary")
        oub = ou_from_wiener(sample_wiener(0.0, 0.1, cfg.dt, seed=6), init="stationary")
        a = integrate(v0, cfg, path=oua)
        b = integrate(v0, cfg, path=oub)
        assert np.array_equal(a.state.u.coeffs, b.state.u.coeffs)

    def test_linear_mode_matches_variation_of_constants(self, grid16):
        # B disabled: etd1 on a single mode is the exact solution of the ODE
        # dv/dt = -nu k^2 v + z_n (1 - nu k^2) h_k with piecewise-constant z
        h = sine_shear(grid16, c=0.5)
        cfg = basic_cfg(grid16, nu=0.9, dt=0.05, h=h, scheme="etd1", linear_only=True)
        ou = ou_from_wiener(sample_wiener(0.0, 1.0, 0.05, seed=7), init="stationary")
        res = integrate(SpectralField.zero(grid16), cfg, path=ou)
        k2 = 1.0
        E = math.exp(-0.9 * k2 * cfg.dt)
        phi1dt = (1 - E) / (0.9 * k2)
        vk = 0.0
        hk = h.coeffs[0, 0, 1]
        for n in range(20):
            vk = E * vk + phi1dt * ou.z[n] * (1.0 - 0.9 * k2) * hk
        assert res.state.u.coeffs[0, 0, 1] == pytest.approx(vk, rel=1e-12)

    def test_etd2_close_to_piecewise_exact(self, grid16):
        # multistep correction stays within O(dt^2) of the piecewise-z solution
        h = sine_shear(grid16, c=0.5)
        ou = ou_from_wiener(sample_wiener(0.0, 1.0, 0.05, seed=7), init="stationary")
        res1 = integrate(SpectralField.zero(grid16),
                         basic_cfg(grid16, nu=0.9, dt=0.05, h=h, scheme="etd1", linear_only=True),
                         path=ou)
        res2 = integrate(SpectralField.zero(grid16),
                         basic_cfg(grid16, nu=0.9, dt=0.05, h=h, scheme="etd2", linear_only=True),
                         path=ou)
        diff = sobolev_norm(res1.state.u - res2.state.u, 0.0)
        assert diff < 10 * 0.05**2

    def test_state_invariants_preserved(self, grid16):
        h = random_divfree_field(grid16, seed=3, norm=0.4)
        cfg = basic_cfg(grid16, f=random_divfree_field(grid16, seed=2, norm=0.5), h=h)
        ou = ou_from_wiener(sample_wiener(0.0, 0.2, cfg.dt, seed=8), init="stationary")
        res = integrate(random_divfree_field(grid16, seed=4), cfg, path=ou)
        assert field_violations(res.state.u, rtol=1e-12) == []
        assert res.state.z == ou.z[-1]


class TestEMStep:
    def test_h_zero_reduces_to_deterministic(self, grid16):
        f = random_divfree_field(grid16, seed=2, norm=0.5)
        cfg = basic_cfg(grid16, f=f, scheme="em")
        u0 = random_divfree_field(grid16, seed=4, norm=1.0)
        w = sample_wiener(0.0, 0.1, cfg.dt, seed=5)
        a = integrate(u0, cfg, path=w)
        b = integrate(u0, cfg, steps=100)
        assert np.array_equal(a.state.u.coeffs, b.state.u.coeffs)

    def test_one_step_from_zero_is_noise_increment(self, grid16):
        h = random_divfree_field(grid16, seed=3, norm=0.4)
        cfg = basic_cfg(grid16, h=h, dt=1e-4, scheme="em")
        w = WienerPath(t0=0.0, t1=cfg.dt, dt=cfg.dt, increments=np.array([0.37]), seed=0)
        _, st = trajectory(SpectralField.zero(grid16), cfg, path=w)
        assert np.abs(st.u.coeffs - 0.37 * h.coeffs).max() < 1e-12

    def test_single_mode_noise_floor(self, grid16):
        # linearized single mode: stationary E||u||^2 = ||h||^2 / (2 nu k^2)
        h = sine_shear(grid16, c=0.5)
        nu = 2.0
        cfg = basic_cfg(grid16, nu=nu, h=h, dt=1e-2, scheme="em", linear_only=True)
        levels = []
        for seed in range(8):
            w = sample_wiener(0.0, 30.0, cfg.dt, seed=seed)
            res = integrate(SpectralField.zero(grid16), cfg, path=w, stride=10)
            tail = res.series.norm_h[len(res.series.norm_h) // 2:]
            levels.append((tail**2).mean())
        expected = sobolev_norm(h, 0.0) ** 2 / (2 * nu * 1.0)
        assert np.mean(levels) == pytest.approx(expected, rel=0.35)


def velocity_etd2_reference(cfg, v0, zs):
    """The conjugated etd2 scheme written on the velocity with nonlinear_term."""
    g, dt, nu = cfg.grid, cfg.dt, cfg.nu
    zk = -nu * dt * g.k2
    E, phi1, phi2 = np.exp(zk), _phi1(zk), _phi2(zk)
    h, f = cfg.h.coeffs, cfg.f.coeffs
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
    @pytest.mark.parametrize("N", [16, 24])
    def test_etd2_matches_velocity_form(self, N):
        g = make_grid(TWO_PI, N)
        cfg = basic_cfg(g, nu=0.05, dt=2e-3,
                        f=random_divfree_field(g, seed=2, norm=0.5),
                        h=random_divfree_field(g, seed=3, norm=0.05))
        v0 = random_divfree_field(g, seed=4, norm=1.0)
        ou = ou_from_wiener(sample_wiener(0.0, 200 * cfg.dt, cfg.dt, seed=5), init="stationary")
        res = integrate(v0, cfg, path=ou)
        ref = velocity_etd2_reference(cfg, v0, ou.z)
        assert ou.n == 200
        assert np.abs(res.state.u.coeffs - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_state_space_kept_at_n24(self):
        g = make_grid(TWO_PI, 24)
        cfg = basic_cfg(g, nu=0.05, dt=2e-3,
                        f=random_divfree_field(g, seed=2, norm=0.5),
                        h=random_divfree_field(g, seed=3, norm=0.05))
        ou = ou_from_wiener(sample_wiener(0.0, 0.2, cfg.dt, seed=6), init="stationary")
        res = integrate(random_divfree_field(g, seed=4, norm=1.0), cfg, path=ou)
        assert field_violations(res.state.u, rtol=1e-13) == []
        assert np.abs(res.state.u.coeffs[:, ~g.dealias_mask]).max() < 1e-13 * np.abs(res.state.u.coeffs).max()

    def test_vorticity_cache_only_for_returned_field(self, grid16):
        cfg = basic_cfg(grid16, nu=0.05, f=random_divfree_field(grid16, seed=2, norm=0.5),
                        h=random_divfree_field(grid16, seed=3, norm=0.05), scheme="etd1")
        ou = given_z([0.3, 0.2, 0.1], cfg.dt)
        st = _EtdStepper(cfg, ou)
        a = step(State(0.0, random_divfree_field(grid16, seed=4, norm=1.0)), st, 0)
        # stepping on from the returned field reuses its vorticity
        cached = step(a, st, 1)
        fresh = step(State(a.t, a.u.copy(), a.z), _EtdStepper(cfg, ou), 1)
        assert np.abs(cached.u.coeffs - fresh.u.coeffs).max() <= 1e-14 * np.abs(fresh.u.coeffs).max()
        # any other field is curled afresh
        other = State(0.0, random_divfree_field(grid16, seed=5, norm=1.0))
        assert np.array_equal(step(other, st, 1).u.coeffs,
                              step(other, _EtdStepper(cfg, ou), 1).u.coeffs)


def noisy_cfg(grid, **kw):
    return basic_cfg(grid, nu=0.05, dt=2e-3, f=random_divfree_field(grid, seed=2, norm=0.5),
                     h=random_divfree_field(grid, seed=3, norm=0.05), **kw)


class TestStepperBuffers:
    @pytest.mark.parametrize("scheme", ["etd1", "etd2"])
    def test_alternating_steppers_share_no_buffers(self, grid16, scheme):
        cfg = noisy_cfg(grid16, scheme=scheme)
        ou = given_z(np.linspace(0.3, -0.2, 13), cfg.dt)

        starts = [State(0.0, random_divfree_field(grid16, seed=s, norm=1.0)) for s in (4, 5)]
        alone = []
        for start in starts:
            st, state, kept = _EtdStepper(cfg, ou), start, []
            for n in range(12):
                state = step(state, st, n)
                kept.append(state.u.coeffs.copy())
            alone.append(kept)
        steppers = [_EtdStepper(cfg, ou), _EtdStepper(cfg, ou)]
        states, kept = list(starts), [[], []]
        for n in range(12):
            for i in range(2):
                states[i] = step(states[i], steppers[i], n)
                kept[i].append(states[i])
        # every emitted state still holds its own step, read only now
        for i in range(2):
            for n in range(12):
                assert np.array_equal(kept[i][n].u.coeffs, alone[i][n])

    def test_velocity_built_only_at_record_points(self, grid16, monkeypatch):
        from torns import spectral

        calls = []
        velocity = spectral.HalfSpectrum.velocity
        monkeypatch.setattr(spectral.HalfSpectrum, "velocity",
                            lambda self, w: calls.append(1) or velocity(self, w))
        cfg = noisy_cfg(grid16)
        ou = ou_from_wiener(sample_wiener(0.0, 10 * cfg.dt, cfg.dt, seed=5), init="stationary")
        res = integrate(random_divfree_field(grid16, seed=4, norm=1.0), cfg, path=ou, stride=3)
        assert len(res.series) == 4 and len(calls) == 3  # steps 3, 6 and 9
        u = res.state.u
        assert len(calls) == 4 and res.state.u is u
        twin = res.state.copy()
        assert twin.u is not u and np.array_equal(twin.u.coeffs, u.coeffs)
        twin.u.coeffs[:] = 0.0
        assert np.abs(u.coeffs).max() > 0.0

    def test_steady_state_step_allocates_little(self):
        import tracemalloc

        g = make_grid(TWO_PI, 64)
        cfg = noisy_cfg(g)
        st = _EtdStepper(cfg, given_z(np.full(24, 0.1), cfg.dt))
        state = State(0.0, random_divfree_field(g, seed=4, norm=1.0))
        for n in range(3):  # past the etd2 bootstrap and the first FFT plans
            state = step(state, st, n)
        half_array = st.hw.nbytes
        tracemalloc.start()
        try:
            for n in range(3, 23):
                state = step(state, st, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * half_array


class TestConjugate:
    def test_zero_z(self, grid16):
        v = random_divfree_field(grid16, seed=1)
        h = random_divfree_field(grid16, seed=2)
        assert np.array_equal(conjugate(v, 0.0, h).coeffs, v.coeffs)

    def test_pure_noise_component(self, grid16):
        h = random_divfree_field(grid16, seed=2)
        out = conjugate(SpectralField.zero(grid16), 1.0, h)
        assert np.array_equal(out.coeffs, h.coeffs)

    def test_linearity_in_z(self, grid16):
        v = random_divfree_field(grid16, seed=1, norm=1.0)
        h = random_divfree_field(grid16, seed=2, norm=0.7)
        for z in (-2.0, 0.5, 3.0):
            d = sobolev_norm(conjugate(v, z, h) - v, 0.0)
            assert d == pytest.approx(abs(z) * 0.7, rel=1e-12)

    def test_grid_mismatch(self):
        v = random_divfree_field(make_grid(TWO_PI, 8), seed=1)
        h = random_divfree_field(make_grid(TWO_PI, 16), seed=2)
        with pytest.raises(ValueError):
            conjugate(v, 1.0, h)


class TestIntegrate:
    def test_zero_steps_returns_initial(self, grid16):
        cfg = basic_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=1)
        res = integrate(v0, cfg, steps=0)
        assert np.array_equal(res.state.u.coeffs, v0.coeffs)
        assert len(res.series) == 1

    def test_series_length_contract(self, grid16):
        cfg = basic_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=1)
        for steps, stride in ((100, 10), (101, 10), (7, 3), (5, 100)):
            res = integrate(v0, cfg, steps=steps, stride=stride)
            assert len(res.series) == steps // stride + 1

    def test_observer_matches_taylor_green(self, grid16):
        cfg = basic_cfg(grid16, nu=0.1)
        res = integrate(taylor_green(0.0, 0.1, grid16), cfg, steps=1000, stride=100)
        expected = np.exp(-0.2 * res.series.t) * sobolev_norm(taylor_green(0.0, 0.1, grid16), 0.0)
        assert np.abs(res.series.norm_h / expected - 1).max() < 1e-8

    def test_dt_mismatch_rejected(self, grid16):
        cfg = basic_cfg(grid16, dt=1e-3)
        w = sample_wiener(0.0, 1.0, 1e-2, seed=0)
        with pytest.raises(ValueError):
            integrate(random_divfree_field(grid16, seed=1), cfg, path=w)

    def test_grid_mismatch_rejected(self, grid16):
        cfg = basic_cfg(grid16)
        v0 = random_divfree_field(make_grid(TWO_PI, 8), seed=1)
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
                trajectory(v0, cfg, **kw)

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
        v0 = random_divfree_field(grid16, seed=1, within_mask=False)
        with pytest.raises(ValueError, match="dealias mask"):
            integrate(v0, basic_cfg(grid16), steps=1)


def path_of_type(kind, cfg, n):
    if kind == "ou":
        return ou_from_wiener(sample_wiener(0.0, n * cfg.dt, cfg.dt, seed=5), init="stationary")
    if kind == "wiener":
        return sample_wiener(0.0, n * cfg.dt, cfg.dt, seed=5)
    return None


class TestTrajectory:
    @pytest.mark.parametrize("kind", ["deterministic", "ou", "wiener"])
    def test_last_state_is_integrate_state(self, grid16, kind):
        cfg = noisy_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=4, norm=1.0)
        path = path_of_type(kind, cfg, 7)
        states = list(trajectory(v0, cfg, path=path, steps=7))
        res = integrate(v0, cfg, path=path, steps=7, stride=3)
        assert len(states) == 7 + 1
        assert np.array_equal(states[0].u.coeffs, v0.coeffs)
        assert states[-1].t == res.state.t and states[-1].z == res.state.z
        assert np.array_equal(states[-1].u.coeffs, res.state.u.coeffs)

    def test_one_step_call_per_member_step(self, grid16, monkeypatch):
        # the benchmark's traced gate counts dynamics.step calls as member-steps
        calls = []
        inner = dynamics.step
        monkeypatch.setattr(dynamics, "step", lambda *a: calls.append(1) or inner(*a))
        cfg = noisy_cfg(grid16)
        v0 = random_divfree_field(grid16, seed=4, norm=1.0)
        for kind, n in (("deterministic", 7), ("ou", 6), ("wiener", 5)):
            calls.clear()
            integrate(v0, cfg, path=path_of_type(kind, cfg, n), steps=n, stride=2)
            assert len(calls) == n, kind
        calls.clear()
        experiments.measure_smoothing(cfg, v0, deltas=[1e-3, 1e-4], horizons=[4 * cfg.dt, 10 * cfg.dt],
                                      seeds=[1], directions=("random",))
        assert len(calls) == 3 * 10  # the base and two perturbed members
        calls.clear()
        experiments.sample_attractor_deterministic(cfg, t_transient=5 * cfg.dt, count=3, stride=2, v0=v0)
        assert len(calls) == 5 + 2 * 2


class TestTaylorGreen:
    def test_requires_2pi_box(self):
        with pytest.raises(ValueError):
            taylor_green(0.0, 1.0, make_grid(1.0, 16))

    def test_quadrature_norm(self, grid16):
        # || (cos x sin y, -sin x cos y) ||^2 = 2 pi^2 by direct integration
        u = taylor_green(0.0, 1.0, grid16)
        assert sobolev_norm(u, 0.0) == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-13)

    def test_divergence_free(self, grid16):
        from torns.spectral import divergence

        assert np.abs(divergence(taylor_green(0.0, 1.0, grid16))).max() < 1e-13

    def test_advection_is_gradient(self, grid16):
        from torns.spectral import nonlinear_term

        u = taylor_green(0.0, 1.0, grid16)
        assert np.abs(nonlinear_term(u, u).coeffs).max() < 1e-14
