"""Wiener paths, bridge refinement and the scalar Ornstein-Uhlenbeck process.

The OU process solves dz + z dt = dW.  On a uniform grid it is advanced as

    z_{n+1} = exp(-dt) z_n + dW_n,

sharing the raw Brownian increments with the SPDE solver (the exact transition
would draw fresh noise of variance (1 - exp(-2 dt))/2; the shared-increment
form has an O(dt) variance bias that vanishes in the refinement limit and is
what makes the conjugation comparison meaningful pathwise).  ou_from_wiener
draws z_0 from the exact stationary marginal N(0, 1/2).

The stationary absolute moments are E|z|^m = Gamma((1+m)/2) / sqrt(pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import rng_for

__all__ = [
    "WienerPath",
    "OUPath",
    "sample_wiener",
    "pullback_wiener",
    "refine_wiener",
    "ou_from_wiener",
    "ou_stationary_moment",
    "empirical_moment",
]


@dataclass(frozen=True)
class WienerPath:
    """Increments dW_n ~ N(0, dt) of a scalar Wiener process on [t0, t1].

    Increments are quantized to the dyadic lattice quantum * Z (quantum is a
    power of two around 2^-26 * sqrt(dt), a relative perturbation of ~1.5e-8,
    far below any statistical tolerance used here).  On that lattice halving
    and bridge refinement are exact integer arithmetic, so refined pairs sum
    to the coarse increments bit for bit.  level counts bridge refinements
    applied since generation (refinement noise streams are derived from
    (seed, level) so refining is reproducible).
    """

    t0: float
    t1: float
    dt: float
    increments: np.ndarray
    seed: int
    level: int = 0
    quantum: float = 0.0

    def __post_init__(self):
        n = len(self.increments)
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if abs((self.t1 - self.t0) - n * self.dt) > 1e-9 * max(1.0, abs(self.t1 - self.t0)):
            raise ValueError(f"(t1-t0)/dt not integral: t0={self.t0}, t1={self.t1}, dt={self.dt}, n={n}")

    @property
    def n(self) -> int:
        return len(self.increments)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n + 1)


@dataclass(frozen=True)
class OUPath:
    """OU samples z_n on the grid of an underlying WienerPath."""

    wiener: WienerPath
    z: np.ndarray

    @property
    def dt(self) -> float:
        return self.wiener.dt

    @property
    def t0(self) -> float:
        return self.wiener.t0

    @property
    def n(self) -> int:
        return self.wiener.n

    def times(self) -> np.ndarray:
        return self.wiener.times()


def _lattice_quantum(dt: float) -> float:
    """Power-of-two quantum ~ 2^-26 sqrt(dt) for the increment lattice."""
    return 2.0 ** (math.floor(math.log2(math.sqrt(dt))) - 26)


def _snap(x: np.ndarray, q: float) -> np.ndarray:
    """Round to the lattice q * Z (exact for power-of-two q)."""
    return np.round(x / q) * q


def sample_wiener(t0: float, t1: float, dt: float, seed: int) -> WienerPath:
    """Wiener increments on [t0, t1] at step dt, deterministic in seed."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    n = round((t1 - t0) / dt)
    rng = rng_for(seed, "wiener", 0)
    q = _lattice_quantum(dt)
    inc = _snap(rng.standard_normal(n) * math.sqrt(dt), q)
    return WienerPath(t0=t0, t1=t1, dt=dt, increments=inc, seed=seed, quantum=q)


def pullback_wiener(horizon: float, dt: float, seed: int, burn_in: float = 0.0) -> WienerPath:
    """Wiener path on [-horizon - burn_in, 0] anchored at time 0.

    Increments are generated backwards from 0, so enlarging the horizon (or the
    burn-in) extends the same path into the past: the increments on [-t, 0]
    are bit-identical for every horizon >= t with the same seed.  The horizon
    must be >= 0 and a whole number of steps (to the tolerance of WienerPath);
    the burn-in is rounded to the nearest whole number of steps.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not horizon >= 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    n = round(horizon / dt)
    if abs(horizon - n * dt) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"the horizon {horizon} is not a whole number of steps of dt = {dt}")
    n += round(burn_in / dt)
    if n <= 0:
        raise ValueError("pullback window is empty")
    rng = rng_for(seed, "pullback", 0)
    q = _lattice_quantum(dt)
    inc_back = _snap(rng.standard_normal(n) * math.sqrt(dt), q)
    return WienerPath(t0=-n * dt, t1=0.0, dt=dt, increments=inc_back[::-1].copy(), seed=seed, quantum=q)


def refine_wiener(path: WienerPath) -> WienerPath:
    """Halve dt, keeping the coarse skeleton: pair sums equal coarse increments.

    Midpoints are Brownian-bridge samples xi ~ N(0, dt/4); halves are
    d/2 +- xi with xi snapped to half the path quantum, so both halves and
    their sum are exact lattice arithmetic and pair sums reproduce the coarse
    increments bit for bit.  The bridge stream is derived from
    (seed, level+1).
    """
    d = path.increments
    q = 0.5 * (path.quantum if path.quantum > 0 else _lattice_quantum(path.dt))
    rng = rng_for(path.seed, "bridge", 0, path.level + 1)
    xi = _snap(rng.standard_normal(path.n) * math.sqrt(0.25 * path.dt), q)
    fine = np.empty(2 * path.n)
    fine[0::2] = 0.5 * d + xi
    fine[1::2] = 0.5 * d - xi
    return WienerPath(
        t0=path.t0, t1=path.t1, dt=0.5 * path.dt, increments=fine,
        seed=path.seed, level=path.level + 1, quantum=q,
    )


def _ou_scan(dW: np.ndarray, z0: float, dt: float) -> np.ndarray:
    """z_{n+1} = exp(-dt) z_n + dW_n evaluated for all n via scaled block cumsums.

    Within a block, z_n = e^{-n dt} (z_0 + sum_{k<n} e^{(k+1) dt} dW_k); block
    length is capped so the rescaling factors stay within ~e^30 of unity.
    """
    n = len(dW)
    z = np.empty(n + 1)
    z[0] = z0
    if n == 0:
        return z
    block = max(1, min(n, int(30.0 / max(dt, 1e-12))))
    start = 0
    zc = z0
    while start < n:
        m = min(block, n - start)
        decay = np.exp(-dt * np.arange(1, m + 1))
        scaled = np.cumsum(dW[start:start + m] / decay)
        z[start + 1:start + m + 1] = decay * (zc + scaled)
        zc = z[start + m]
        start += m
    return z


def ou_from_wiener(path: WienerPath) -> OUPath:
    """Stationary OU samples driven by the path's increments.

    z_0 ~ N(0, 1/2) comes from a stream derived from the path seed, so
    refinements of the same path share z_0.
    """
    z0 = float(rng_for(path.seed, "ou-init", 0).standard_normal() * math.sqrt(0.5))
    return OUPath(wiener=path, z=_ou_scan(path.increments, z0, path.dt))


def ou_stationary_moment(m: int) -> float:
    """Stationary absolute moment E|z|^m = Gamma((1+m)/2) / sqrt(pi), m >= 1."""
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.gamma((1 + m) / 2.0) / math.sqrt(math.pi)


def empirical_moment(ou: OUPath, m: int) -> float:
    """Trapezoidal time average of |z|^m along the path (needs >= 100 steps)."""
    if ou.n < 100:
        raise ValueError(f"path too short for a time average: {ou.n} steps")
    a = np.abs(ou.z) ** m
    return float((a.sum() - 0.5 * (a[0] + a[-1])) / ou.n)
