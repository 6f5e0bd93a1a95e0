import tracemalloc

import numpy as np
import pytest

from torns import spectral
from torns.spectral import (
    AdvectionWorkspace,
    HalfSpectrum,
    SpectralField,
    WaveGrid,
    field_violations,
    grad_linf,
    nonlinear_term,
    vorticity_advection,
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

TWO_PI = 2.0 * np.pi


def to_physical(u):
    """The samples (2, N, N) of the Fourier series at the points (a L/N, b L/N), as a test oracle."""
    return np.fft.ifft2(u.coeffs, axes=(-2, -1), norm="forward").real


def single_mode(grid, comp, jx, jy, value):
    """Field with one Hermitian-symmetrized mode pair."""
    c = np.zeros((2, grid.N, grid.N), dtype=complex)
    c[comp, jx % grid.N, jy % grid.N] = value
    c[comp, (-jx) % grid.N, (-jy) % grid.N] = np.conj(value)
    return SpectralField(grid, c)


def galerkin_convolution(u, v):
    """O(N^4) direct triad sum for B(u, v): the independent oracle.

    ((u.grad)v)_j = sum over j1 + j2 = j (no wrap) of i (u_hat(j1) . k(j2)) v_hat(j2),
    restricted to the dealias mask and Leray-projected.
    """
    g = u.grid
    N = g.N
    js = np.fft.fftfreq(N, 1.0 / N).astype(int)
    out = np.zeros((2, N, N), dtype=complex)
    k0 = 2.0 * np.pi / g.L
    for a1, j1x in enumerate(js):
        for b1, j1y in enumerate(js):
            uj = u.coeffs[:, a1, b1]
            if uj[0] == 0 and uj[1] == 0:
                continue
            for a2, j2x in enumerate(js):
                for b2, j2y in enumerate(js):
                    vj = v.coeffs[:, a2, b2]
                    if vj[0] == 0 and vj[1] == 0:
                        continue
                    jx, jy = j1x + j2x, j1y + j2y
                    if not (-N // 2 < jx <= N // 2 and -N // 2 < jy <= N // 2):
                        continue
                    s = 1j * (uj[0] * k0 * j2x + uj[1] * k0 * j2y)
                    out[:, jx % N, jy % N] += s * vj
    b = SpectralField(g, out)
    b.coeffs *= g.dealias_mask
    return leray_project(b)


class TestWaveGrid:
    def test_lambda1_2pi(self):
        assert WaveGrid(TWO_PI, 8).lambda1 == pytest.approx(1.0, abs=1e-15)

    def test_lambda1_unit_box(self):
        assert WaveGrid(1.0, 8).lambda1 == pytest.approx(4 * np.pi**2, rel=1e-15)

    # an infinite side was accepted, with lambda1 = 0
    @pytest.mark.parametrize("L,N", [(TWO_PI, 7), (TWO_PI, 2), (0.0, 8), (-1.0, 8), (np.inf, 8), (np.nan, 8)])
    def test_rejects_bad_arguments(self, L, N):
        with pytest.raises(ValueError):
            WaveGrid(L, N)

    # int(N) took 16.9 as 16 and "16" as 16
    @pytest.mark.parametrize("N", [16.9, 16.0, "16"])
    def test_rejects_a_non_integral_N(self, N):
        with pytest.raises(TypeError):
            WaveGrid(TWO_PI, N)

    def test_numpy_integer_N_is_taken_as_its_int(self):
        g = WaveGrid(TWO_PI, np.int64(16))
        assert type(g.N) is int and g == WaveGrid(TWO_PI, 16)

    def test_mask_symmetric_under_reflection(self):
        for N in (4, 6, 8, 16, 32):
            g = WaveGrid(TWO_PI, N)
            m = g.dealias_mask
            flipped = np.roll(m[::-1, ::-1], (1, 1), axis=(0, 1))
            assert np.array_equal(m, flipped)

    def test_wavenumbers_scale_with_L(self):
        g = WaveGrid(4.0, 8)
        assert g.kx[1, 0] == pytest.approx(2 * np.pi / 4.0)


class TestSpectralField:
    def test_grid_mismatch(self):
        # a field has no arithmetic; the one operation on two of them checks their grids
        u = random_divfree_field(WaveGrid(TWO_PI, 8), seed=1)
        v = random_divfree_field(WaveGrid(TWO_PI, 16), seed=2)
        for a, b in ((u, v), (v, u)):
            with pytest.raises(ValueError, match="grid mismatch"):
                nonlinear_term(a, b)
        with pytest.raises(TypeError):
            u + u


class TestLerayProjection:
    def test_annihilates_gradient_mode(self):
        g = WaveGrid(TWO_PI, 16)
        # u_hat = c * k at a single mode is a pure gradient
        c = np.zeros((2, 16, 16), dtype=complex)
        c[0, 2, 1] = 2.0 * 0.7
        c[1, 2, 1] = 1.0 * 0.7
        p = leray_project(SpectralField(g, c))
        assert abs(p.coeffs[:, 2, 1]).max() < 1e-15

    def test_single_mode_by_hand(self):
        # L=2pi, mode j=(1,0): u_hat=(1,0) is parallel to k -> 0; (0,1) is transverse -> kept
        g = WaveGrid(TWO_PI, 8)
        para = single_mode(g, 0, 1, 0, 1.0)
        assert np.abs(leray_project(para).coeffs).max() == 0.0
        perp = single_mode(g, 1, 1, 0, 1.0)
        assert np.array_equal(leray_project(perp).coeffs, perp.coeffs)

    def test_idempotent(self):
        g = WaveGrid(TWO_PI, 32)
        rng = np.random.default_rng(0)
        raw = SpectralField(g, rng.standard_normal((2, 32, 32)) + 1j * rng.standard_normal((2, 32, 32)))
        once = leray_project(raw)
        twice = leray_project(once)
        scale = np.abs(once.coeffs).max()
        assert np.abs(twice.coeffs - once.coeffs).max() <= 1e-14 * scale

    def test_divfree_field_unchanged(self):
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=4)
        assert np.abs(leray_project(u).coeffs - u.coeffs).max() < 1e-14

    def test_zero_mean_enforced(self):
        g = WaveGrid(TWO_PI, 8)
        c = np.zeros((2, 8, 8), dtype=complex)
        c[0, 0, 0] = 3.0
        assert np.abs(leray_project(SpectralField(g, c)).coeffs).max() == 0.0


class TestDivergence:
    def test_projected_field_divfree(self):
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=7, norm=3.0)
        ref = (np.sqrt(g.k2) * np.abs(u.coeffs).max()).max()
        assert np.abs(divergence(u)).max() < 1e-13 * ref

    def test_gradient_mode_formula(self):
        # u_hat = c*k at mode j -> divergence i |k|^2 c there
        g = WaveGrid(TWO_PI, 8)
        c = np.zeros((2, 8, 8), dtype=complex)
        cval = 0.35
        c[0, 1, 2] = cval * g.kx[1, 0]
        c[1, 1, 2] = cval * g.ky[0, 2]
        d = divergence(SpectralField(g, c))
        k2 = g.kx[1, 0] ** 2 + g.ky[0, 2] ** 2
        assert d[1, 2] == pytest.approx(1j * k2 * cval, rel=1e-14)

    def test_zero_field(self):
        g = WaveGrid(TWO_PI, 8)
        assert np.abs(divergence(zero_field(g))).max() == 0.0


class TestSobolevNorm:
    def test_zero_field(self):
        g = WaveGrid(TWO_PI, 8)
        for s in (0.0, 0.5, 1.0, 2.0):
            assert sobolev_norm(zero_field(g), s) == 0.0

    def test_rejects_negative_s(self):
        g = WaveGrid(TWO_PI, 8)
        with pytest.raises(ValueError):
            sobolev_norm(zero_field(g), -0.5)

    def test_unit_shell_h1_equals_l2(self):
        # u = (cos y, 0): |k| = 1 on L=2pi, so H1 weight is 1
        g = WaveGrid(TWO_PI, 16)
        u = single_mode(g, 0, 0, 1, 0.5)  # cos y
        assert sobolev_norm(u, 1.0) == pytest.approx(sobolev_norm(u, 0.0), rel=1e-13)

    def test_quadrature_oracle(self):
        # grid quadrature of |u|^2 and |grad u|^2 matches the Parseval sums
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=12, norm=2.0)
        vals = to_physical(u)
        dA = (g.L / g.N) ** 2
        l2 = np.sqrt((vals**2).sum() * dA)
        assert l2 == pytest.approx(sobolev_norm(u, 0.0), rel=1e-12)
        gradsq = 0.0
        for comp in range(2):
            for k in (g.kx, g.ky):
                d = np.fft.ifft2(1j * k * u.coeffs[comp], norm="forward").real
                gradsq += (d**2).sum() * dA
        assert np.sqrt(gradsq) == pytest.approx(sobolev_norm(u, 1.0), rel=1e-12)

    def test_poincare_on_random_fields(self):
        g = WaveGrid(TWO_PI, 16)
        for seed in range(200):
            u = random_divfree_field(g, seed=seed, norm=1.0)
            assert sobolev_norm(u, 0.0) <= (g.L / TWO_PI) * sobolev_norm(u, 1.0) * (1 + 1e-14)

    def test_poincare_equality_on_lowest_shell(self):
        g = WaveGrid(TWO_PI, 16)
        u = single_mode(g, 1, 1, 0, 1.0)
        assert sobolev_norm(u, 0.0) == pytest.approx(sobolev_norm(u, 1.0), rel=1e-14)

    def test_monotone_in_s(self):
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=3)
        norms = [sobolev_norm(u, s) for s in (0.0, 0.5, 1.0, 1.5, 2.0)]
        assert all(a <= b * (1 + 1e-14) for a, b in zip(norms, norms[1:]))

    def test_h1_norm_squared_is_energy_pairing(self):
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=9, norm=1.7)
        assert sobolev_norm(u, 1.0) ** 2 == pytest.approx(inner(apply_stokes_power(u, 1.0), u), rel=1e-12)


class TestStokesPower:
    def test_identity_at_zero(self):
        g = WaveGrid(TWO_PI, 8)
        u = random_divfree_field(g, seed=5)
        assert np.array_equal(apply_stokes_power(u, 0.0).coeffs, u.coeffs)

    def test_eigenvalue_on_single_mode(self):
        g = WaveGrid(TWO_PI, 8)
        u = single_mode(g, 1, 2, 0, 1.0)  # |k| = 2
        assert np.allclose(apply_stokes_power(u, 1.0).coeffs, 4.0 * u.coeffs, rtol=1e-14)

    def test_half_powers_compose(self):
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=6)
        a = apply_stokes_power(apply_stokes_power(u, 0.5), 0.5)
        b = apply_stokes_power(u, 1.0)
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-13 * np.abs(b.coeffs).max()

    def test_inverse(self):
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=8)
        back = apply_stokes_power(apply_stokes_power(u, -1.0), 1.0)
        assert np.abs(back.coeffs - u.coeffs).max() <= 1e-13 * np.abs(u.coeffs).max()


class TestTransforms:
    def test_single_mode_is_cosine(self):
        g = WaveGrid(TWO_PI, 8)
        u = single_mode(g, 0, 1, 0, 0.5)  # cos x in the x-component
        vals = to_physical(u)
        x = np.arange(8) * (g.L / 8)
        assert np.allclose(vals[0], np.cos(x)[:, None] * np.ones(8), atol=1e-14)
        assert np.abs(vals[1]).max() < 1e-15

    def test_parseval_on_random_fields(self):
        g = WaveGrid(2.5, 12)
        dA = (g.L / g.N) ** 2
        for seed in range(100):
            u = random_divfree_field(g, seed=seed, norm=1.0 + seed * 0.01)
            q = np.sqrt((to_physical(u) ** 2).sum() * dA)
            assert q == pytest.approx(sobolev_norm(u, 0.0), rel=1e-12)


class TestNonlinearTerm:
    def test_shear_flow_self_advection_vanishes(self):
        # u = (sin(2*pi*y/L), 0): u.grad = u1 d/dx of a y-only profile
        g = WaveGrid(TWO_PI, 16)
        u = single_mode(g, 0, 0, 1, -0.5j)  # sin y
        b = nonlinear_term(u, u)
        assert np.abs(b.coeffs).max() < 1e-15

    def test_taylor_green_is_pure_gradient(self):
        g = WaveGrid(TWO_PI, 16)
        u = taylor_green_velocity(0.0, 1.0, g)
        b = nonlinear_term(u, u)
        assert np.abs(b.coeffs).max() < 1e-14

    @pytest.mark.parametrize("N", [4, 6])
    def test_matches_galerkin_convolution(self, N):
        g = WaveGrid(TWO_PI, N)
        for seed in range(5):
            u = random_divfree_field(g, seed=seed, norm=1.0)
            v = random_divfree_field(g, seed=100 + seed, norm=1.5)
            fast = nonlinear_term(u, v)
            slow = galerkin_convolution(u, v)
            scale = np.abs(slow.coeffs).max()
            assert np.abs(fast.coeffs - slow.coeffs).max() <= 1e-12 * scale

    def test_output_dealiased_and_divfree(self):
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=2, norm=2.0)
        v = random_divfree_field(g, seed=3, norm=2.0)
        b = nonlinear_term(u, v)
        assert np.abs(b.coeffs[:, ~g.dealias_mask]).max() == 0.0
        assert not field_violations(b)

    def test_grid_mismatch(self):
        u = random_divfree_field(WaveGrid(TWO_PI, 8), seed=0)
        v = random_divfree_field(WaveGrid(TWO_PI, 16), seed=0)
        with pytest.raises(ValueError):
            nonlinear_term(u, v)

    def test_skew_symmetry(self):
        # (B(u, v), v) = 0 for divergence-free u on the dealiased grid
        g = WaveGrid(TWO_PI, 32)
        for seed in range(20):
            u = random_divfree_field(g, seed=seed, norm=1.0)
            v = random_divfree_field(g, seed=500 + seed, norm=1.0)
            bound = 1e-10 * sobolev_norm(u, 0.0) * sobolev_norm(v, 1.0) ** 2
            assert abs(inner(nonlinear_term(u, v), v)) <= bound

    def test_enstrophy_identity(self):
        # the 2D-torus identity (B(u, u), A u) = 0
        g = WaveGrid(TWO_PI, 32)
        for seed in range(20):
            u = random_divfree_field(g, seed=seed, norm=1.0)
            lhs = abs(inner(nonlinear_term(u, u), apply_stokes_power(u, 1.0)))
            assert lhs <= 1e-10 * sobolev_norm(u, 1.0) ** 3


class TestVorticityAdvection:
    # N = 24 is divisible by 3, where the strict mask drops the modes |j| = N/3;
    # N = 64 and 96 are above spectral._DFT_MAX_N and run the FFT kernel
    @pytest.mark.parametrize("N", [16, 24, 32, 64, 96])
    def test_equals_curl_of_nonlinear_term(self, N):
        g = WaveGrid(TWO_PI, N)
        half = HalfSpectrum(g)
        for seed in range(3):
            u = random_divfree_field(g, seed=seed, norm=1.0 + seed)
            fast = vorticity_advection(half.curl(u)[None], half, AdvectionWorkspace(half, 1))[0]
            ref = half.curl(nonlinear_term(u, u))
            assert fast.shape == (N, half.K) == (N, (N - 1) // 3 + 1)
            assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("N", [16, 24, 32])
    def test_pruned_transforms_equal_irfft2_rfft2(self, N):
        # the reference is unpruned: one irfft2 of u_1 and u_2 on the whole half
        # spectrum, one rfft2 of u_1 u_2 and u_2^2 - u_1^2, cut to the K columns
        g = WaveGrid(TWO_PI, N)
        half = HalfSpectrum(g)
        K = half.K
        work = AdvectionWorkspace(half, 1)
        for seed in range(3):
            w = half.curl(random_divfree_field(g, seed=seed, norm=1.0 + seed))
            vel = np.zeros((2, N, N // 2 + 1), dtype=np.complex128)
            vel[:, :, :K] = half.ops[:2] * w
            u1, u2 = np.fft.irfft2(vel, s=(N, N), axes=(-2, -1), norm="forward")
            P, Q = u1 * u2, u2 * u2 - u1 * u1
            spec = np.fft.rfft2(np.stack([P, Q]), axes=(-2, -1), norm="forward")[:, :, :K]
            out = spectral._advection_fft(w[None], half, work)
            assert out is work.out
            # the inverse planes of the member: their product, then their squares in place
            assert np.array_equal(work.adv[:, 0], np.stack([P, Q]))
            assert np.array_equal(work.uv[:, 0], np.stack([u1 * u1, u2 * u2]))
            # the forward stage, read after the kernel weighted it in place
            assert np.array_equal(work.spec[:, 0], half.basdevant * spec)
            assert np.array_equal(out[0], work.spec[0, 0] + work.spec[1, 0])
            assert np.array_equal(spectral._advection_fft(w[None], half, AdvectionWorkspace(half, 1)), out)

    @pytest.mark.parametrize("N", [16, 24, 32, 48, 64])
    def test_dft_kernel_equals_fft_kernel(self, N, monkeypatch):
        # the dense tables compute the same transforms, summed in another order
        monkeypatch.setattr(spectral, "_DFT_MAX_N", 64)
        g = WaveGrid(TWO_PI, N)
        half = HalfSpectrum(g)
        work = AdvectionWorkspace(half, 1)
        for seed in range(3):
            w = half.curl(random_divfree_field(g, seed=seed, norm=1.0 + seed))[None]
            ref = spectral._advection_fft(w, half, AdvectionWorkspace(half, 1))
            out = spectral._advection_dft(w, half, work)
            assert out is work.out
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.abs(out[0][~half.dealias_mask]).max() == 0.0

    @pytest.mark.parametrize("N", [16, 32, 48, 64, 96])
    def test_kernel_chosen_by_grid_size(self, N):
        g = WaveGrid(TWO_PI, N)
        half = HalfSpectrum(g)
        assert (half.dft is not None) == (N <= spectral._DFT_MAX_N)
        kernel = spectral._advection_dft if half.dft is not None else spectral._advection_fft
        w = half.curl(random_divfree_field(g, seed=7, norm=1.5))[None]
        ref = kernel(w, half, AdvectionWorkspace(half, 1))
        work = AdvectionWorkspace(half, 1)
        assert vorticity_advection(w, half, work) is work.out
        assert np.array_equal(work.out, ref)

    # N = 64 and 96 run the FFT kernel; _advection_fft is also timed on a DFT grid
    @pytest.mark.parametrize("N", [16, 64, 96])
    @pytest.mark.parametrize("kernel", ["vorticity_advection", "_advection_fft"])
    def test_call_allocates_less_than_a_half_spectrum(self, N, kernel):
        g = WaveGrid(TWO_PI, N)
        half = HalfSpectrum(g)
        work = AdvectionWorkspace(half, 1)
        w = half.curl(random_divfree_field(g, seed=3, norm=1.0))[None]
        call = getattr(spectral, kernel)
        call(w, half, work)  # the first call may fill numpy's FFT plan cache
        tracemalloc.start()
        try:
            call(w, half, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * N * (N // 2 + 1)  # one complex half spectrum

    # N = 16 runs the dense-DFT kernel, N = 64 the FFT kernel
    @pytest.mark.parametrize("N", [16, 64])
    def test_parallel_shear_advects_to_exactly_zero(self, N):
        # u = (a(y), 0) has (u . grad) w = a(y) d_x w = 0; the single-mode oracles
        # of the dynamics tests rest on the kernels giving that bit for bit,
        # for the stepper's argument v + z h with v and h both shears too
        g = WaveGrid(TWO_PI, N)
        half = HalfSpectrum(g)
        work = AdvectionWorkspace(half, 1)
        v = SpectralField(g, single_mode(g, 0, 0, 1, -0.5j).coeffs + single_mode(g, 0, 0, 3, 0.2 + 0.1j).coeffs)
        hw = half.curl(single_mode(g, 0, 0, 2, 0.3j))
        for z in (0.0, 0.7, -1.3):
            w = np.add(half.curl(v), np.multiply(z, hw))[None]
            assert np.array_equal(vorticity_advection(w, half, work), np.zeros_like(w))

    def test_output_dealiased(self):
        g = WaveGrid(TWO_PI, 24)
        half = HalfSpectrum(g)
        out = vorticity_advection(half.curl(random_divfree_field(g, seed=4, norm=2.0))[None], half,
                                  AdvectionWorkspace(half, 1))[0]
        assert np.abs(out[~half.dealias_mask]).max() == 0.0

    @pytest.mark.parametrize("N", [16, 24])
    def test_velocity_rebuild_round_trip(self, N):
        g = WaveGrid(TWO_PI, N)
        half = HalfSpectrum(g)
        u = random_divfree_field(g, seed=6, norm=1.5)
        back = half.velocity(half.curl(u))
        assert np.abs(back.coeffs - u.coeffs).max() <= 1e-14 * np.abs(u.coeffs).max()
        assert field_violations(back, rtol=1e-13) == []

    def test_velocity_has_no_nyquist_lines(self):
        g = WaveGrid(TWO_PI, 16)
        half = HalfSpectrum(g)
        rng = np.random.default_rng(1)
        w = rng.standard_normal((16, half.K)) + 1j * rng.standard_normal((16, half.K))
        c = half.velocity(w).coeffs
        assert np.abs(c[:, 8, :]).max() == 0.0
        assert np.abs(c[:, :, 8]).max() == 0.0

    @pytest.mark.parametrize("N", [8, 16, 50, 128])
    def test_curls_and_the_zero_row_pass_the_row_audit(self, N):
        g = WaveGrid(TWO_PI, N)
        half = HalfSpectrum(g)
        assert half.violations(half.curl(random_divfree_field(g, seed=6, norm=1.5))) == []
        assert half.violations(np.zeros((N, half.K), dtype=complex)) == []


class TestGradLinf:
    def test_zero_field(self):
        half = HalfSpectrum(WaveGrid(TWO_PI, 8))
        assert grad_linf(np.zeros((8, half.K), dtype=complex), half) == (0.0, 0.0)

    def test_sinusoidal_shear_analytic(self):
        # h = (c sin y, 0): grad has single entry c cos y; both norms equal |c|
        g = WaveGrid(TWO_PI, 16)
        h = single_mode(g, 0, 0, 1, -0.55j)  # 1.1 sin y (coefficient -i c/2)
        half = HalfSpectrum(g)
        op, maxabs = grad_linf(half.curl(h), half)
        assert op == pytest.approx(1.1, rel=1e-12)
        assert maxabs == pytest.approx(1.1, rel=1e-12)

    def test_refinement_invariance_for_bandlimited(self):
        gc = WaveGrid(TWO_PI, 16)
        gf = WaveGrid(TWO_PI, 32)
        h = random_divfree_field(gc, seed=13, norm=1.0)
        hf = zero_field(gf)
        # same modes on the doubled grid
        for comp in range(2):
            for a in range(16):
                for b in range(16):
                    ja, jb = gc.jx[a, 0], gc.jy[0, b]
                    hf.coeffs[comp, ja % 32, jb % 32] = h.coeffs[comp, a, b]
        half, half_f = HalfSpectrum(gc), HalfSpectrum(gf)
        op, op_f = grad_linf(half.curl(h), half)[0], grad_linf(half_f.curl(hf), half_f)[0]
        assert op == pytest.approx(op_f, abs=1e-10)  # the operator norm

    def test_operator_norm_dominates_entries(self):
        g = WaveGrid(TWO_PI, 16)
        h = random_divfree_field(g, seed=14, norm=1.0)
        half = HalfSpectrum(g)
        op, maxabs = grad_linf(half.curl(h), half)
        assert op >= maxabs * (1 - 1e-12)


class TestRandomDivfreeField:
    def test_deterministic_in_seed(self):
        g = WaveGrid(TWO_PI, 16)
        a = random_divfree_field(g, seed=42, norm=1.0)
        b = random_divfree_field(g, seed=42, norm=1.0)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_norm_matches_request(self):
        g = WaveGrid(TWO_PI, 16)
        for norm in (0.5, 1.0, 123.0):
            u = random_divfree_field(g, seed=0, norm=norm)
            assert sobolev_norm(u, 0.0) == pytest.approx(norm, rel=1e-10)

    def test_satisfies_all_invariants(self):
        g = WaveGrid(3.7, 12)
        u = random_divfree_field(g, seed=77, norm=2.0)
        assert field_violations(u) == []

    def test_respects_mask(self):
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=1)
        assert np.abs(u.coeffs[:, ~g.dealias_mask]).max() == 0.0

    def test_profile_controls_support(self):
        g = WaveGrid(TWO_PI, 16)
        u = random_divfree_field(g, seed=5, profile=lambda k: np.where(np.abs(k - 1.0) < 1e-9, 1.0, 0.0))
        k2 = g.k2
        occupied = np.abs(u.coeffs).sum(axis=0) > 0
        assert np.all(np.abs(k2[occupied] - 1.0) < 1e-12)


class TestRandomRow:
    # the oracle draws the same streamfunction and builds its velocity; the row
    # rounds differently: at most 1.04e-15 of max |w| and 1.6e-15 in the norm,
    # measured on these draws (L = 2 pi and 3, N = 16, 32 and 128)
    @pytest.mark.parametrize("L", [TWO_PI, 3.0])
    @pytest.mark.parametrize("N", [16, 32, 128])
    @pytest.mark.parametrize("profile", ["default", "custom", "lowest"])
    def test_is_the_curl_of_the_oracle_velocity(self, L, N, profile):
        g = WaveGrid(L, N)
        half = HalfSpectrum(g)
        kmin = 2.0 * np.pi / L
        amp = {"default": None, "custom": lambda k: np.exp(-0.3 * k) * k,
               "lowest": lambda k: np.where(np.abs(k - kmin) < 1e-9, 1.0, 0.0)}[profile]
        for seed in (1, 5, 99):
            for norm in (0.5, 3.0):
                w = spectral.random_row(half, seed, norm=norm, profile=amp, stream=23)
                expected = half.curl(random_divfree_field(g, seed, norm=norm, profile=amp, stream=23))
                assert np.abs(w - expected).max() <= 2e-15 * np.abs(expected).max()
                assert half.norms(w)[0] == pytest.approx(norm, rel=4e-15, abs=0)
                assert half.violations(w) == []

    def test_deterministic_in_seed_and_stream(self):
        half = HalfSpectrum(WaveGrid(TWO_PI, 16))
        a, b = (spectral.random_row(half, 42, stream=3) for _ in range(2))
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, spectral.random_row(half, 42, stream=4))
        assert not np.array_equal(a, spectral.random_row(half, 43, stream=3))

    def test_zero_profile_is_an_error(self):
        with pytest.raises(ValueError, match="identically zero field"):
            spectral.random_row(HalfSpectrum(WaveGrid(TWO_PI, 16)), 1, profile=np.zeros_like)


class TestFieldViolations:
    def test_clean_field(self):
        g = WaveGrid(TWO_PI, 8)
        assert field_violations(random_divfree_field(g, seed=0)) == []

    def test_detects_mean(self):
        g = WaveGrid(TWO_PI, 8)
        u = random_divfree_field(g, seed=0)
        u.coeffs[0, 0, 0] = 1.0
        assert any("mean" in v for v in field_violations(u))

    def test_detects_divergence(self):
        g = WaveGrid(TWO_PI, 8)
        c = np.zeros((2, 8, 8), dtype=complex)
        c[0, 1, 0] = 1.0
        c[0, -1 % 8, 0] = 1.0
        assert any("divergence" in v for v in field_violations(SpectralField(g, c)))

    def test_detects_content_outside_the_mask(self):
        # a shear at j2 = 3, where 3 j2 >= N: real, zero-mean and divergence-free
        g = WaveGrid(TWO_PI, 8)
        assert field_violations(single_mode(g, 0, 0, 3, 0.5j)) == ["content outside the dealias mask: 5.000e-01"]

    def test_detects_hermitian_breakage(self):
        g = WaveGrid(TWO_PI, 8)
        u = random_divfree_field(g, seed=0)
        u.coeffs[0, 1, 2] += 0.5
        assert any("Hermitian" in v for v in field_violations(u))

    def test_detects_nonfinite(self):
        g = WaveGrid(TWO_PI, 8)
        u = random_divfree_field(g, seed=0)
        u.coeffs[1, 2, 3] = np.nan
        assert any("NaN" in v for v in field_violations(u))
