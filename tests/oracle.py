"""Test oracles on velocity SpectralFields that the solver itself never calls.

The L2 pairing, the divergence, the Leray projection, the Stokes powers A^p
and the Sobolev norms, written from their per-mode definitions on the
(2, N, N) velocity spectrum, so the identities the tests check (skew
symmetry, the enstrophy identity, composition of powers) and the norms they
compare against rest on code outside torns, which reads every norm off a
vorticity row (HalfSpectrum.norms).  random_divfree_field draws the
velocity whose row spectral.random_row draws, so the tests can build
velocities and check the row builder against its curl.
"""

import math

import numpy as np

from torns.rng import rng_for
from torns.spectral import SpectralField, WaveGrid


def zero_field(grid: WaveGrid) -> SpectralField:
    """The zero velocity on grid."""
    return SpectralField(grid, np.zeros((2, grid.N, grid.N), dtype=np.complex128))


def leray_project(u: SpectralField) -> SpectralField:
    """Helmholtz-Leray projection onto divergence-free, zero-mean fields.

    Per mode: u_hat -> u_hat - k (k . u_hat) / |k|^2, and u_hat_0 -> 0.
    """
    g, c = u.grid, u.coeffs
    fac = (g.kx * c[0] + g.ky * c[1]) * g.inv_k2
    out = np.empty_like(c)
    out[0] = c[0] - g.kx * fac
    out[1] = c[1] - g.ky * fac
    out[:, 0, 0] = 0.0
    return SpectralField(g, out)


def random_divfree_field(grid: WaveGrid, seed: int, norm: float = 1.0, profile=None,
                         stream: int = 0) -> SpectralField:
    """Random zero-mean divergence-free velocity inside the dealias mask with L2 norm `norm`.

    u = perp-grad psi for the real streamfunction psi that spectral.random_row
    draws from (seed, stream); profile maps |k| to the velocity's amplitude
    weight per mode (default 1/(1+|k|^2)).
    """
    g = grid
    psi = np.fft.fft2(rng_for(seed, "field", stream).standard_normal((g.N, g.N)), norm="forward")
    w = 1.0 / (1.0 + g.k2) if profile is None else np.asarray(profile(np.sqrt(g.k2)), dtype=np.float64)
    psi *= w * np.sqrt(g.inv_k2)  # velocity amplitude |k| |psi| follows the profile
    psi *= g.dealias_mask
    psi[0, 0] = 0.0
    coeffs = np.stack([-1j * g.ky * psi, 1j * g.kx * psi])
    cur = g.L * float(np.sqrt((np.abs(coeffs[0]) ** 2 + np.abs(coeffs[1]) ** 2).sum()))  # the L2 norm
    if cur == 0.0:
        raise ValueError("profile produced an identically zero field")
    return SpectralField(g, coeffs * (norm / cur))


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


def taylor_green_velocity(t: float, nu: float, grid: WaveGrid) -> SpectralField:
    """The velocity e^{-2 nu lambda_1 t} (cos kx sin ky, -sin kx cos ky), k = 2 pi / L, in closed form.

    Its four modes j = (+-1, +-1) each hold u_1 = -i j_2 a and u_2 = i j_1 a,
    a = e^{-2 nu lambda_1 t} / 4; dynamics.taylor_green is its row.
    """
    a = math.exp(-2.0 * nu * grid.lambda1 * t) / 4.0
    coeffs = np.zeros((2, grid.N, grid.N), dtype=np.complex128)
    for j1 in (1, -1):
        for j2 in (1, -1):
            coeffs[:, j1, j2] = -1j * j2 * a, 1j * j1 * a
    return SpectralField(grid, coeffs)
