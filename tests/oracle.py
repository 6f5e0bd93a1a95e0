"""Test oracles on velocity SpectralFields that the solver itself never calls.

The L2 pairing, the divergence, the Stokes powers A^p and the Sobolev norms,
written from their per-mode definitions on the (2, N, N) velocity spectrum,
so the identities the tests check (skew symmetry, the enstrophy identity,
composition of powers) and the norms they compare against rest on code
outside torns, which reads every norm off a vorticity row
(HalfSpectrum.norms).
"""

import numpy as np

from torns.spectral import SpectralField


def inner(u: SpectralField, v: SpectralField) -> float:
    """Real L2 inner product (u, v) = integral of u . v over the torus."""
    if u.grid != v.grid:
        raise ValueError(f"grid mismatch: {u.grid!r} vs {v.grid!r}")
    return u.grid.L**2 * float(np.real(np.vdot(v.coeffs, u.coeffs)))


def divergence(u: SpectralField) -> np.ndarray:
    """Spectral coefficients of div u: per mode i k . u_hat. Shape (N, N)."""
    g = u.grid
    return 1j * (g.kx * u.coeffs[0] + g.ky * u.coeffs[1])


def apply_stokes_power(u: SpectralField, p: float) -> SpectralField:
    """Apply A^p, diagonal per mode with eigenvalue |k|^(2p); zero mode stays 0."""
    g = u.grid
    if p == 0.0:
        return SpectralField(g, u.coeffs.copy())
    if p > 0:
        w = g.k2**p
        if not float(p).is_integer():
            w = np.where(g.k2 > 0.0, w, 0.0)
    else:
        w = np.where(g.k2 > 0.0, g.k2, 1.0) ** p
        w[0, 0] = 0.0
    return SpectralField(g, u.coeffs * w)


def sobolev_norm(u: SpectralField, s: float) -> float:
    """H^s norm ||A^{s/2} u|| = sqrt(L^2 * sum |k|^(2s) |u_hat|^2).

    s = 0 gives the physical L2 norm; s must be >= 0.
    """
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    g = u.grid
    e = (np.abs(u.coeffs[0]) ** 2 + np.abs(u.coeffs[1]) ** 2)
    return g.L * float(np.sqrt((g.k2**s * e).sum()))
