"""Property tests: identities and round trips checked over drawn grids, fields and configs."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torns import io as tio, spectral
from torns.dynamics import SimConfig, integrate, trajectory
from torns.noise import ou_from_wiener, sample_wiener
from torns.spectral import (
    AdvectionWorkspace,
    HalfSpectrum,
    SpectralField,
    WaveGrid,
    nonlinear_term,
    vorticity_advection,
)
from tests.oracle import (
    apply_stokes_power,
    inner,
    leray_project,
    random_divfree_field,
    sobolev_norm,
    taylor_green_velocity,
    zero_field,
)
from tests.test_dynamics import row as curl

TWO_PI = 2.0 * np.pi


@given(
    N=st.integers(2, spectral._DFT_MAX_N // 2).map(lambda n: 2 * n),
    seed=st.integers(0, 2**31 - 1),
    norm=st.floats(0.1, 10.0),
    decay=st.floats(0.0, 3.0),
)
def test_dft_kernel_is_curl_of_nonlinear_term(N, seed, norm, decay):
    # band-limited: the field lies inside the dealias mask, with shell weights |k|^-decay
    g = WaveGrid(TWO_PI, N)
    half = HalfSpectrum(g)
    assert half.dft is not None
    u = random_divfree_field(g, seed, norm=norm, profile=lambda k: (1.0 + k) ** -decay)
    fast = vorticity_advection(half.curl(u), half, AdvectionWorkspace(half))
    ref = half.curl(nonlinear_term(u, u))
    assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max()


@given(
    N=st.integers(spectral._DFT_MAX_N // 2 + 1, 64).map(lambda n: 2 * n),
    seed=st.integers(0, 2**31 - 1),
    norm=st.floats(0.1, 10.0),
    decay=st.floats(0.0, 3.0),
)
def test_fft_kernel_is_curl_of_nonlinear_term(N, seed, norm, decay):
    # the grids above _DFT_MAX_N, up to 128, run the Basdevant FFT kernel
    g = WaveGrid(TWO_PI, N)
    half = HalfSpectrum(g)
    assert half.dft is None
    u = random_divfree_field(g, seed, norm=norm, profile=lambda k: (1.0 + k) ** -decay)
    fast = vorticity_advection(half.curl(u), half, AdvectionWorkspace(half))
    ref = half.curl(nonlinear_term(u, u))
    assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max()


# the bounds below are 4 to 6 times the largest roundoff measured over 3000
# random draws of N <= 64, L in [0.5, 50] and each identity's other inputs:
# 5.7e-16, 8.4e-17 and 5.4e-16 in the order of the tests
_OPERATOR_DRAWS = dict(N=st.integers(2, 32).map(lambda n: 2 * n), seed=st.integers(0, 2**31 - 1),
                       L=st.floats(0.5, 50.0))


@given(**_OPERATOR_DRAWS)
def test_leray_projection_is_idempotent(N, seed, L):
    # any field, divergent and with a mean: the projection acts on every mode
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((2, N, N)) + 1j * rng.standard_normal((2, N, N))
    once = leray_project(SpectralField(WaveGrid(L, N), c))
    twice = leray_project(once)
    assert np.abs(twice.coeffs - once.coeffs).max() <= 2e-15 * np.abs(once.coeffs).max()


@given(**_OPERATOR_DRAWS)
def test_nonlinear_term_is_orthogonal_to_its_advected_field(N, seed, L):
    # (B(u, v), v) = 0 for divergence-free u and v inside the dealias mask, on
    # the scale ||u|| ||v||_H1 ||v|| / L of the terms it sums
    g = WaveGrid(L, N)
    u = random_divfree_field(g, seed, stream=1)
    v = random_divfree_field(g, seed, stream=2)
    scale = sobolev_norm(u, 0.0) * sobolev_norm(v, 1.0) * sobolev_norm(v, 0.0) / L
    assert abs(inner(nonlinear_term(u, v), v)) <= 5e-16 * scale


@given(**_OPERATOR_DRAWS, p=st.integers(-32, 32), q=st.integers(-32, 32))
def test_stokes_powers_compose(N, seed, L, p, q):
    # p and q in steps of 1/16, so that p + q is exact; compared mode by mode
    p, q = p / 16, q / 16
    u = random_divfree_field(WaveGrid(L, N), seed)
    composed = apply_stokes_power(apply_stokes_power(u, p), q).coeffs
    direct = apply_stokes_power(u, p + q).coeffs
    assert np.all(np.abs(composed - direct) <= 2e-15 * np.abs(direct))


# 5e-15 is 4.7 times the largest relative difference measured over 3000
# random draws of the same distribution (1.06e-15, for H2)
@given(**_OPERATOR_DRAWS, members=st.integers(1, 4))
def test_norms_from_vorticity_equal_sobolev_norms_of_velocity(N, seed, L, members):
    # any (N, K) block, the Nyquist row and the zero mode included; each member alone
    half = HalfSpectrum(WaveGrid(L, N))
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((members, N, half.K)) + 1j * rng.standard_normal((members, N, half.K))
    got = half.norms(w)
    assert got.shape == (members, 3)
    for m in range(members):
        ref = np.array([sobolev_norm(half.velocity(w[m]), s) for s in (0.0, 1.0, 2.0)])
        assert np.all(np.abs(got[m] - ref) <= 5e-15 * ref)


# 2e-13 is 3 times the largest error measured over 308 values of L in
# [0.5, 50] (6.7e-14, at L = 48; 4.5e-14 at L = 10).  The error is measured
# against ||u(0)||, the scale of the roundoff each step makes: on small tori
# the vortex decays fastest (e^{-31.6} at L = 0.5) and the roundoff left in
# the slower modes j = (1, 0) reaches 5.4e-12 of ||u(1)||.
@settings(max_examples=30)
@given(L=_OPERATOR_DRAWS["L"])
def test_taylor_green_stays_exact_under_integrate_on_any_torus(L):
    # nu = 0.1, N = 16, dt = 1e-3, T = 1, as criterion 4 at L = 2 pi
    g = WaveGrid(L, 16)
    zero = zero_field(g)
    u0 = taylor_green_velocity(0.0, 0.1, g)
    state, _ = integrate(u0, SimConfig(nu=0.1, grid=g, dt=1e-3, fw=curl(zero), hw=curl(zero)), steps=1000)
    assert state.t == 1.0
    error = SpectralField(g, state.u.coeffs - taylor_green_velocity(1.0, 0.1, g).coeffs)
    assert sobolev_norm(error, 0.0) <= 2e-13 * sobolev_norm(u0, 0.0)


def reference_grad_linf_norms(hw: np.ndarray, half: HalfSpectrum) -> tuple[float, float]:
    """The one-shot sampler: every entry d_a h_b of the velocity h of row hw as one irfft2 on
    the whole M x M grid.

    The entries ops[2 + a] ops[b] hw are placed on the half spectrum j2 >= 0
    as in spectral.grad_linf; this holds all 4 M^2 samples.
    """
    g = half.grid
    M = spectral._GRAD_OVERSAMPLE * g.N
    rows = g.jx[:, 0] % M
    big = np.zeros((M, M // 2 + 1), dtype=np.complex128)
    J = np.empty((2, 2, M, M))
    for b in range(2):
        u = half.ops[b] * hw
        for a in range(2):
            big[rows, : half.K] = half.ops[2 + a] * u
            J[a, b] = np.fft.irfft2(big, s=(M, M), norm="forward")
    maxabs = max(float(J.max()), -float(J.min()))
    a, b = J[0, 0], J[0, 1]
    c, d = J[1, 0], J[1, 1]
    tr = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = np.maximum(tr * tr - 4.0 * det * det, 0.0)
    smax2 = 0.5 * (tr + np.sqrt(disc))
    return float(np.sqrt(smax2.max())), maxabs


@given(
    N=st.integers(2, 64).map(lambda n: 2 * n),
    seed=st.integers(0, 2**31 - 1),
    norm=st.floats(0.01, 10.0),
    L=st.sampled_from([TWO_PI, 3.0]),
)
def test_blocked_grad_sampler_equals_one_shot_irfft2(N, seed, norm, L):
    # M = 4 N is a multiple of the block size for some draws (N = 8), not for others (N = 10)
    half = HalfSpectrum(WaveGrid(L, N))
    hw = half.curl(random_divfree_field(half.grid, seed, norm=norm))
    got = spectral.grad_linf(hw, half)
    assert [x.hex() for x in got] == [x.hex() for x in reference_grad_linf_norms(hw, half)]


_FIELDS = st.one_of(
    st.just({"preset": "zero"}),
    st.builds(lambda norm, seed: {"preset": "random", "norm": norm, "seed": seed},
              st.floats(0.01, 2.0), st.integers(0, 2**31 - 1)),
    st.builds(lambda re, im: {"modes": [{"j": [1, -1], "u": [re, im], "v": [im, re]}]},
              st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)


@st.composite
def raw_configs(draw) -> dict:
    """A config as a user writes it: a preset or none, some keys, some field specs."""
    preset = draw(st.sampled_from([None, "decay-noise", "taylor-green"]))
    raw = {} if preset is None else {"preset": preset}
    raw.update(nu=draw(st.floats(0.05, 5.0)), N=draw(st.integers(2, 12)) * 2,
               dt=draw(st.floats(1e-4, 0.1)), L=draw(st.sampled_from([TWO_PI, 3.0])))
    optional = {
        "scheme": st.sampled_from(["etd1", "etd2"]),
        "seed": st.integers(0, 2**31 - 1),
        "stride": st.integers(1, 20),
        "t_end": st.floats(0.01, 10.0),
        "forcing": st.one_of(_FIELDS, st.builds(
            lambda norm, seed: {"preset": "manufactured", "norm": norm, "seed": seed},
            st.floats(0.01, 2.0), st.integers(0, 2**31 - 1))),
        "noise": _FIELDS,
        "initial": _FIELDS,
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            raw[key] = draw(values)
    return raw


@given(raw=raw_configs())
def test_manifest_config_echo_reloads_the_same_config(raw):
    echo = tio.normalize_config(raw)
    assert tio.normalize_config(echo) == echo
    with tempfile.TemporaryDirectory() as out:
        tio.write_manifest(out, echo, [0], [], command="validate")
        reloaded = json.loads((Path(out) / "manifest.json").read_text())["config"]
    a, b = tio.load_config(raw), tio.load_config(reloaded)
    assert (a.nu, a.grid, a.dt, a.scheme, a.seed, a.stride, a.t_end) == \
           (b.nu, b.grid, b.dt, b.scheme, b.seed, b.stride, b.t_end)
    for fa, fb in ((a.fw, b.fw), (a.hw, b.hw), (a.u0.coeffs, b.u0.coeffs)):
        assert fa.tobytes() == fb.tobytes()
    assert a.assumption == b.assumption


def _emitted_state(N, seed, steps, noisy):
    """The last State of a short conjugated (noisy) or deterministic trajectory."""
    g = WaveGrid(TWO_PI, N)
    cfg = SimConfig(nu=0.5, grid=g, dt=1e-2, fw=curl(random_divfree_field(g, seed, norm=0.5)),
                    hw=curl(random_divfree_field(g, seed + 1, norm=0.1)))
    path = ou_from_wiener(sample_wiener(0.0, steps * cfg.dt, cfg.dt, seed)) if noisy else None
    *_, last = trajectory(curl(random_divfree_field(g, seed + 2, norm=1.0)), cfg, path, steps=steps)
    return last


@given(N=st.integers(2, 16).map(lambda n: 2 * n), seed=st.integers(0, 2**31 - 2),
       steps=st.integers(1, 4), noisy=st.booleans(), nu=st.floats(0.01, 10.0))
def test_checkpoint_round_trips_an_emitted_state_bit_for_bit(N, seed, steps, noisy, nu):
    state = _emitted_state(N, seed, steps, noisy)
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "state.trns"
        tio.write_checkpoint(state, path, nu=nu)
        back, header = tio.read_checkpoint(path), tio._parse_header(path.read_bytes(), path)
    assert back.u.grid == state.u.grid
    assert back.u.coeffs.tobytes() == state.u.coeffs.tobytes()
    assert (back.t.hex(), back.z.hex(), header.nu.hex()) == (state.t.hex(), state.z.hex(), nu.hex())


@given(N=st.integers(2, 16).map(lambda n: 2 * n), keep=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_checkpoint_is_rejected(N, keep):
    state = _emitted_state(N, seed=3, steps=1, noisy=False)
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "state.trns"
        tio.write_checkpoint(state, path, nu=1.0)
        data = path.read_bytes()
        path.write_bytes(data[: int(keep * len(data))])
        with pytest.raises(ValueError, match="truncated"):
            tio.read_checkpoint(path)
