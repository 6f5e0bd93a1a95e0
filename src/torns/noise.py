"""Wiener paths, bridge refinement and the scalar Ornstein-Uhlenbeck process.

The OU process solves dz + z dt = dW.  On a uniform grid it is advanced as

    z_{n+1} = exp(-dt) z_n + dW_n,

sharing the raw Brownian increments with the SPDE solver (the exact transition
would draw fresh noise of variance (1 - exp(-2 dt))/2; the shared-increment
form has an O(dt) variance bias that vanishes in the refinement limit and is
what makes the conjugation comparison meaningful pathwise).  ou_from_wiener
draws z_0 from the exact stationary marginal N(0, 1/2) of the continuous
process.

pullback_path instead draws the scan itself in its stationary law, backward
from time 0: z_0 ~ N(0, dt / (1 - exp(-2 dt))), the scan's own stationary
variance (1/2 + O(dt)), then z_{-k-1} = exp(-dt) z_{-k} + eta_k with iid
eta_k ~ N(0, dt).  The chain is a reversible Gaussian AR(1), so read forward
it is the scan with dW_n = z_{n+1} - exp(-dt) z_n iid N(0, dt).  A longer
horizon extends the same chain into the past, so z(theta_t omega) is a
function of the seed alone: z and dW on [-t, 0] are bit-identical for every
horizon >= t.

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
    "horizon_steps",
    "sample_wiener",
    "pullback_path",
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


def horizon_steps(horizon: float, dt: float) -> int:
    """The number of steps of size dt in horizon; ValueError unless it is finite, >= 0 and whole.

    Every fixed horizon is checked with it before any step is taken, with
    the tolerance that WienerPath applies to its window.
    """
    if not horizon >= 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if horizon == math.inf:
        raise ValueError(f"horizon must be finite, got {horizon}")
    n = round(horizon / dt)
    if abs(horizon - n * dt) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"the horizon {horizon} is not a whole number of steps of dt = {dt}")
    return n


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


def refine_wiener(path: WienerPath) -> WienerPath:
    """Halve dt, keeping the coarse skeleton: pair sums equal coarse increments.

    Midpoints are Brownian-bridge samples xi ~ N(0, dt/4); halves are
    d/2 +- xi with xi snapped to half the path quantum, so both halves and
    their sum are exact lattice arithmetic and pair sums reproduce the coarse
    increments bit for bit.  The bridge stream is derived from
    (seed, level+1).  A path off the lattice (quantum 0, such as a
    pullback_path's) raises ValueError: its pair sums could not be exact.
    """
    if not path.quantum > 0:
        raise ValueError("only a path on the increment lattice (quantum > 0) can be refined")
    d = path.increments
    q = 0.5 * path.quantum
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


def pullback_path(horizon: float, dt: float, seed: int) -> OUPath:
    """The stationary OU chain on [-horizon, 0], drawn backward from time 0 (module docstring).

    Its increments dW_n = z_{n+1} - exp(-dt) z_n are off the lattice
    (quantum 0), so the path is not refined.  A negative horizon, or one that
    is not a whole number of steps (horizon_steps), raises ValueError before
    any draw.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = horizon_steps(horizon, dt)
    rng = rng_for(seed, "pullback", 0)
    z0 = rng.standard_normal() * math.sqrt(dt / -math.expm1(-2.0 * dt))
    z = _ou_scan(rng.standard_normal(n) * math.sqrt(dt), z0, dt)[::-1].copy()
    # 0.0 - horizon, not -horizon: the window of horizon 0 starts at t = +0.0
    w = WienerPath(t0=0.0 - horizon, t1=0.0, dt=dt, increments=z[1:] - math.exp(-dt) * z[:-1], seed=seed)
    return OUPath(wiener=w, z=z)


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
