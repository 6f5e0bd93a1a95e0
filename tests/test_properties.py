"""Property tests: identities checked over drawn grids and fields."""

import numpy as np
from hypothesis import given, strategies as st

from torns import spectral
from torns.spectral import (
    HalfSpectrum,
    make_grid,
    nonlinear_term,
    random_divfree_field,
    vorticity_advection,
)

TWO_PI = 2.0 * np.pi


@given(
    N=st.integers(2, spectral._DFT_MAX_N // 2).map(lambda n: 2 * n),
    seed=st.integers(0, 2**31 - 1),
    norm=st.floats(0.1, 10.0),
    decay=st.floats(0.0, 3.0),
)
def test_dft_kernel_is_curl_of_nonlinear_term(N, seed, norm, decay):
    # band-limited: the field lies inside the dealias mask, with shell weights |k|^-decay
    g = make_grid(TWO_PI, N)
    half = HalfSpectrum(g)
    assert half.dft is not None
    u = random_divfree_field(g, seed, norm=norm, profile=lambda k: (1.0 + k) ** -decay)
    fast = vorticity_advection(half.curl(u), half)
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
    g = make_grid(TWO_PI, N)
    half = HalfSpectrum(g)
    assert half.dft is None
    u = random_divfree_field(g, seed, norm=norm, profile=lambda k: (1.0 + k) ** -decay)
    fast = vorticity_advection(half.curl(u), half)
    ref = half.curl(nonlinear_term(u, u))
    assert np.abs(fast - ref).max() <= 1e-13 * np.abs(ref).max()
