"""Test oracles on velocity SpectralFields that the solver itself never calls.

The L2 pairing and the Stokes powers A^p, written from their per-mode
definitions, so the identities the tests check (skew symmetry, the enstrophy
identity, composition of powers) rest on code outside torns.
"""

import numpy as np

from torns.spectral import SpectralField


def inner(u: SpectralField, v: SpectralField) -> float:
    """Real L2 inner product (u, v) = integral of u . v over the torus."""
    if u.grid != v.grid:
        raise ValueError(f"grid mismatch: {u.grid!r} vs {v.grid!r}")
    return u.grid.L**2 * float(np.real(np.vdot(v.coeffs, u.coeffs)))


def apply_stokes_power(u: SpectralField, p: float) -> SpectralField:
    """Apply A^p, diagonal per mode with eigenvalue |k|^(2p); zero mode stays 0."""
    g = u.grid
    if p == 0.0:
        return u.copy()
    if p > 0:
        w = g.k2**p
        if not float(p).is_integer():
            w = np.where(g.k2 > 0.0, w, 0.0)
    else:
        w = np.where(g.k2 > 0.0, g.k2, 1.0) ** p
        w[0, 0] = 0.0
    return SpectralField(g, u.coeffs * w)
