"""Time integration of the deterministic, stochastic and OU-conjugated systems.

Three systems share one exponential-integrating-factor skeleton (the viscous
Stokes part is diagonal in Fourier space and treated exactly):

* deterministic:   du/dt + nu A u + B(u)             = f
  run as the conjugated system with z identically 0
* conjugated:      dv/dt + nu A v + B(v + h z(t))    = f - nu A h z(t) + h z(t)
  with z the scalar OU process, advanced pathwise with left-endpoint z_n
* Ito (EM):        du + (nu A u + B(u)) dt           = f dt + h dW
  exponential viscous part, explicit drift, additive noise applied after the
  linear solve

Schemes: "etd1" is the exponential Euler update u+ = E u + dt phi1 F(u);
"etd2" adds a second-order multistep correction dt (phi1+phi2) F_n - dt phi2
F_{n-1}, bootstrapped by one etd1 step.  The Ito system always takes the
etd1 drift; "em" gives the other two systems that drift as well, so the
h = 0 Ito step reduces to the "em" deterministic step bit for bit.

One trajectory is one stepper, built from (cfg, path): the path type selects
the system (None deterministic, OUPath conjugated, WienerPath Ito), and
step(state, stepper, n) takes step n of it.  trajectory() yields the initial
state and then one state per step; it is the only time loop, and integrate()
records every stride-th state it yields.

The stepper runs in half-spectrum vorticity (spectral.HalfSpectrum): it
carries w = curl u, takes the curls of f, h - nu A h and h once, and gets
curl B from spectral.vorticity_advection (4 inverse and 1 forward real FFT
per step, pruned to the columns that meet the dealias mask, no Leray
projection).  E, phi1 and phi2 are diagonal and commute with curl, so this
is the velocity scheme up to roundoff.  Each stepper owns the buffers of its
step (the kernel workspace, the etd2 right-hand sides and the update
temporaries), so a step allocates only the new w; steppers of concurrent
trajectories share nothing but read-only tables.  Velocity SpectralFields
stay the interface: every step returns a State holding w, whose u is rebuilt
from w without an FFT on the first read, so a loop pays for velocity only
where it records or checkpoints.

State space: w represents exactly the zero-mean, divergence-free velocity
fields without Nyquist lines, and the two forms of B agree only inside the
dealias mask.  So SimConfig requires f and h inside the mask (only their
divergence-free parts act), and trajectory rejects an initial field with a
nonzero mean, a divergence or content outside the mask beyond 1e-13 relative.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import spectral
from .noise import OUPath, WienerPath
from .spectral import SpectralField, WaveGrid, sobolev_norm

__all__ = [
    "SimConfig",
    "AssumptionReport",
    "State",
    "NormSeries",
    "BlowupError",
    "check_assumption",
    "conjugate",
    "step",
    "trajectory",
    "integrate",
    "taylor_green",
    "manufactured_forcing",
]

SCHEMES = ("etd1", "etd2", "em")


@dataclass(frozen=True)
class AssumptionReport:
    """Admissibility of the noise intensity h and the derived constants.

    lhs = ||grad h||_Linf / sqrt(pi), rhs = nu * lambda_1; admissible means
    lhs < rhs strictly.  When admissible, alpha in (0, 1] solves
    lhs = (1 - alpha) rhs, beta > 0 solves lhs (1 + beta) = rhs (1 - alpha/2)
    (beta = +inf when h = 0) and lam = alpha nu lambda_1 / 4.
    """

    lhs: float
    rhs: float
    satisfied: bool
    grad_linf_op: float
    grad_linf_maxabs: float
    alpha: float | None = None
    beta: float | None = None
    lam: float | None = None

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    def summary(self) -> str:
        s = (
            f"satisfied={self.satisfied} lhs={self.lhs:.6g} rhs={self.rhs:.6g} "
            f"margin={self.margin:.6g} grad_linf_op={self.grad_linf_op:.6g} "
            f"grad_linf_maxabs={self.grad_linf_maxabs:.6g}"
        )
        if self.satisfied:
            s += f" alpha={self.alpha:.6g} beta={self.beta:.6g} lambda={self.lam:.6g}"
        return s


def check_assumption(h: SpectralField, nu: float, grid: WaveGrid) -> AssumptionReport:
    """Evaluate the noise-admissibility condition ||grad h||_Linf < sqrt(pi) nu lambda_1.

    A violated condition is a valid report (satisfied=False, constants absent),
    not an error.
    """
    if h.grid != grid:
        raise ValueError("h is not defined on the given grid")
    g_op, g_ma = spectral._grad_linf_norms(h)
    lam1 = grid.lambda1
    lhs = g_op / math.sqrt(math.pi)
    rhs = nu * lam1
    if not lhs < rhs:
        return AssumptionReport(lhs=lhs, rhs=rhs, satisfied=False,
                                grad_linf_op=g_op, grad_linf_maxabs=g_ma)
    alpha = 1.0 - lhs / rhs
    beta = math.inf if lhs == 0.0 else rhs * (1.0 - 0.5 * alpha) / lhs - 1.0
    lam = 0.25 * alpha * nu * lam1
    return AssumptionReport(lhs=lhs, rhs=rhs, satisfied=True,
                            grad_linf_op=g_op, grad_linf_maxabs=g_ma,
                            alpha=alpha, beta=beta, lam=lam)


@dataclass
class SimConfig:
    """Solver configuration: viscosity, grid, step, forcing f, noise intensity h.

    f and h must be band-limited inside the dealias mask (for h this stands in
    for h in H^3 and keeps every A^p h exactly computable).  linear_only
    disables B (diagnostic mode for closed-form linear oracles).  u0 optionally
    carries initial data attached by a config preset.
    """

    nu: float
    grid: WaveGrid
    dt: float
    f: SpectralField
    h: SpectralField
    scheme: str = "etd2"
    seed: int = 0
    stride: int = 10
    t_end: float = 1.0
    u0: SpectralField | None = None
    linear_only: bool = False
    assumption: AssumptionReport | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        for name, u in (("f", self.f), ("h", self.h)):
            if u.grid != self.grid:
                raise ValueError(f"{name} lives on {u.grid!r}, expected {self.grid!r}")
            if _outside_mask(u):
                raise ValueError(f"{name} must be band-limited inside the dealias mask")
        if self.assumption is None:
            self.assumption = check_assumption(self.h, self.nu, self.grid)


class State:
    """Trajectory state: time, velocity field and the current OU value.

    A State emitted by a stepper holds the half-spectrum vorticity w instead;
    u = HalfSpectrum.velocity(w) is built on the first read and cached, and
    stepping on from the state reuses w.  Both arrays belong to the state
    alone, so emitted states may be kept; modify neither in place.
    """

    __slots__ = ("t", "z", "_u", "_w", "_half")

    def __init__(self, t: float, u: SpectralField, z: float = 0.0):
        self.t, self.z = t, z
        self.u = u

    @classmethod
    def _of_vorticity(cls, t: float, w: np.ndarray, z: float, half: spectral.HalfSpectrum) -> "State":
        state = cls(t, None, z)
        state._w, state._half = w, half
        return state

    @property
    def u(self) -> SpectralField:
        if self._u is None:
            self._u = self._half.velocity(self._w)
        return self._u

    @u.setter
    def u(self, value: SpectralField) -> None:
        self._u, self._w, self._half = value, None, None

    def copy(self) -> "State":
        return State(t=self.t, u=self.u.copy(), z=self.z)

    def __repr__(self):
        return f"State(t={self.t!r}, z={self.z!r})"


@dataclass
class NormSeries:
    """Observer record: ||u||, ||u||_H1, ||u||_H2 and z sampled along a run."""

    t: np.ndarray
    norm_h: np.ndarray
    norm_h1: np.ndarray
    norm_h2: np.ndarray
    z: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


class BlowupError(RuntimeError):
    """A non-finite coefficient appeared; carries the last valid state."""

    def __init__(self, message: str, last_state: State):
        super().__init__(message)
        self.last_state = last_state


def conjugate(v: SpectralField, z: float, h: SpectralField) -> SpectralField:
    """The transformation u_h = v + h z linking the Ito and conjugated systems."""
    spectral._check_same_grid(v, h)
    return SpectralField(v.grid, v.coeffs + z * h.coeffs)


class _EtdStepper:
    """Exponential integrator of one trajectory, on the half-spectrum vorticity.

    Holds the system the path selects: z = path.z for an OUPath (conjugated),
    dW = path.increments for a WienerPath (Ito, etd1 drift), neither for no
    path (deterministic).  Precomputes E = exp(-nu k^2 dt) and the dt
    phi1/phi2 weights on the half spectrum, and the curls of f, h - nu A h and
    h.  advance() takes one drift step of the conjugated system; the
    deterministic and Ito drifts are the case z = 0.  etd2 keeps F_{n-1}
    between calls, so a stepper instance drives one trajectory.  The stepper
    owns every buffer its step writes: the kernel workspace, two
    right-hand-side buffers that alternate as F_n and F_{n-1}, and the update
    temporaries.  advance() returns the new w as a fresh array, the only one
    it allocates, because emitted states are kept by callers.
    """

    def __init__(self, cfg: SimConfig, path: OUPath | WienerPath | None = None):
        self.cfg = cfg
        self.z = path.z if isinstance(path, OUPath) else None
        self.dW = path.increments if isinstance(path, WienerPath) else None
        self.half = half = spectral.HalfSpectrum(cfg.grid)
        dt = cfg.dt
        z = -cfg.nu * dt * half.k2
        phi1, phi2 = _phi1(z), _phi2(z)
        self.E = np.exp(z)
        self.dt_phi1 = dt * phi1
        self.dt_phi12 = dt * (phi1 + phi2)
        self.dt_phi2 = dt * phi2
        # the Ito solver's drift is first order by construction
        self.scheme = "etd1" if self.dW is not None or cfg.scheme == "em" else cfg.scheme
        self.prev_rhs: np.ndarray | None = None
        self.hw = half.curl(cfg.h)
        self._fw = half.curl(cfg.f)
        # curl of the combined z-forcing profile h - nu A h of the conjugated right side
        self._zw = self.hw - cfg.nu * half.k2 * self.hw
        self._work = spectral.AdvectionWorkspace(half)
        self._rhs = (np.empty_like(self.hw), np.empty_like(self.hw))
        self._arg = np.empty_like(self.hw)
        self._tmp = (np.empty_like(self.hw), np.empty_like(self.hw))

    def vorticity(self, state: State) -> np.ndarray:
        """w = curl u of the state, reusing the w of a state a stepper emitted."""
        return state._w if state._w is not None else self.half.curl(state.u)

    def advance(self, w: np.ndarray, z: float) -> np.ndarray:
        """One step of the conjugated system with left-endpoint z; returns the new w."""
        # the arithmetic of E w + dt phi1 (f + z zw - curl B(w + z hw)) and its
        # etd2 form, operation by operation, into the stepper's buffers
        rhs = self._rhs[1] if self.prev_rhs is self._rhs[0] else self._rhs[0]
        np.add(self._fw, np.multiply(z, self._zw, out=rhs), out=rhs)
        if not self.cfg.linear_only:
            arg = np.add(w, np.multiply(z, self.hw, out=self._arg), out=self._arg)
            rhs -= spectral.vorticity_advection(arg, self.half, self._work)
        t, t2 = self._tmp
        if self.scheme == "etd2" and self.prev_rhs is not None:
            np.multiply(self.dt_phi12, rhs, out=t)
            t -= np.multiply(self.dt_phi2, self.prev_rhs, out=t2)
        else:
            np.multiply(self.dt_phi1, rhs, out=t)
        out = self.E * w
        out += t
        if self.scheme == "etd2":
            self.prev_rhs = rhs
        return out

    def add_noise(self, w: np.ndarray, dW: float) -> np.ndarray:
        """w + dW curl h, in place in w."""
        w += np.multiply(dW, self.hw, out=self._tmp[0])
        return w

    def emit(self, w: np.ndarray, t: float, z: float, last: State) -> State:
        """The State holding w, after a blowup check against `last`."""
        _check_finite(w, t, last)
        return State._of_vorticity(t, w, z, self.half)


def _phi1(z: np.ndarray) -> np.ndarray:
    """(e^z - 1)/z with the z -> 0 limit handled to machine accuracy."""
    out = np.ones_like(z)
    nz = z != 0.0
    out[nz] = np.expm1(z[nz]) / z[nz]
    return out


def _phi2(z: np.ndarray) -> np.ndarray:
    """(e^z - 1 - z)/z^2; series below |z| = 1e-4 to avoid cancellation."""
    out = np.full_like(z, 0.5)
    big = np.abs(z) >= 1e-4
    zb = z[big]
    out[big] = (np.expm1(zb) - zb) / (zb * zb)
    small = ~big & (z != 0.0)
    zs = z[small]
    out[small] = 0.5 + zs / 6.0 + zs * zs / 24.0
    return out


def _outside_mask(u: SpectralField) -> bool:
    """True when u has content outside the dealias mask beyond 1e-13 of its largest coefficient."""
    scale = float(np.abs(u.coeffs).max())
    return scale > 0 and float(np.abs(u.coeffs[:, ~u.grid.dealias_mask]).max()) > 1e-13 * scale


def _check_initial(v0: SpectralField, cfg: SimConfig) -> None:
    """Reject initial data off cfg's grid or outside the solver's state space."""
    if v0.grid != cfg.grid:
        raise ValueError("initial data grid does not match config grid")
    problems = spectral.field_violations(v0, rtol=1e-13)
    if _outside_mask(v0):
        problems.append("content outside the dealias mask")
    if problems:
        raise ValueError("initial data outside the solver's state space: " + "; ".join(problems))


def _check_finite(coeffs: np.ndarray, t: float, last: State) -> None:
    energy = float(np.vdot(coeffs, coeffs).real)
    if not math.isfinite(energy):
        raise BlowupError(f"non-finite coefficients at t={t:.6g}; last valid state at t={last.t:.6g}", last)


def step(state: State, stepper: _EtdStepper, n: int) -> State:
    """Step n of the stepper's trajectory, from state at t_n to t_{n+1}.

    The conjugated system takes z_n into its forcing and carries z_{n+1}; the
    Ito system adds dW_n curl h after the etd1 drift; the deterministic system
    runs the conjugated arithmetic with z = 0.
    """
    st = stepper
    w = st.advance(st.vorticity(state), 0.0 if st.z is None else float(st.z[n]))
    if st.dW is not None:
        w = st.add_noise(w, float(st.dW[n]))
    z = state.z if st.z is None else float(st.z[n + 1])
    return st.emit(w, state.t + st.cfg.dt, z, state)


def trajectory(
    v0: SpectralField,
    cfg: SimConfig,
    path: OUPath | WienerPath | None = None,
    steps: int | None = None,
    t0: float | None = None,
) -> Iterator[State]:
    """The states of one trajectory: the initial state at t0, then one per step.

    The system is selected by the path type: None integrates the deterministic
    equation (steps default to t_end/dt, t0 to 0), an OUPath the conjugated
    random equation, and a WienerPath the Ito equation by Euler-Maruyama (steps
    default to the path's length, t0 to its start).  Path dt must match cfg.dt.
    The arguments are checked on the call, before any state is drawn.  Emitted
    states are never written again, so callers may keep any of them.
    """
    _check_initial(v0, cfg)
    if path is None:
        start = 0.0
        if steps is None:
            steps = round(cfg.t_end / cfg.dt)
    else:
        if abs(path.dt - cfg.dt) > 1e-12 * max(cfg.dt, path.dt):
            raise ValueError(f"path dt {path.dt} does not match config dt {cfg.dt}")
        start = path.t0
        if steps is None:
            steps = path.n
        elif steps > path.n:
            raise ValueError(f"path covers {path.n} steps, requested {steps}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    stepper = _EtdStepper(cfg, path)
    z0 = 0.0 if stepper.z is None else float(stepper.z[0])
    return _states(State(t=start if t0 is None else t0, u=v0.copy(), z=z0), stepper, steps)


def _states(state: State, stepper: _EtdStepper, steps: int) -> Iterator[State]:
    yield state
    for n in range(steps):
        state = step(state, stepper, n)
        yield state


@dataclass
class IntegrationResult:
    state: State
    series: NormSeries


def _record(series: list, t: float, u: SpectralField, z: float) -> None:
    series.append((t, sobolev_norm(u, 0.0), sobolev_norm(u, 1.0), sobolev_norm(u, 2.0), z))


def integrate(
    v0: SpectralField,
    cfg: SimConfig,
    path: OUPath | WienerPath | None = None,
    steps: int | None = None,
    stride: int | None = None,
    t0: float | None = None,
) -> IntegrationResult:
    """Drive one trajectory (see trajectory) and record a NormSeries every stride steps.

    The series always contains floor(steps/stride) + 1 samples, starting at t0.
    Velocity is built only at the recorded steps and when the returned
    state's u is read.
    """
    stride = cfg.stride if stride is None else int(stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    rows: list = []
    for n, state in enumerate(trajectory(v0, cfg, path, steps, t0)):
        if n % stride == 0:
            _record(rows, state.t, state.u, state.z)
    arr = np.array(rows, dtype=np.float64).reshape(-1, 5)
    series = NormSeries(t=arr[:, 0], norm_h=arr[:, 1], norm_h1=arr[:, 2], norm_h2=arr[:, 3], z=arr[:, 4])
    return IntegrationResult(state=state, series=series)


def taylor_green(t: float, nu: float, grid: WaveGrid) -> SpectralField:
    """Decaying Taylor-Green vortex e^{-2 nu t} (cos x sin y, -sin x cos y).

    Exact solution of the unforced equations on the 2*pi torus: the advection
    term is a pure gradient, annihilated by the Leray projection.
    """
    if abs(grid.L - 2.0 * np.pi) > 1e-12:
        raise ValueError(f"Taylor-Green requires L = 2*pi, got L={grid.L}")
    x = grid.x[:, None]
    y = grid.x[None, :]
    amp = math.exp(-2.0 * nu * t)
    vals = np.stack([
        amp * np.cos(x) * np.sin(y),
        -amp * np.sin(x) * np.cos(y),
    ])
    return spectral.to_spectral(spectral.PhysicalField(grid, vals))


def manufactured_forcing(u0: SpectralField, nu: float) -> SpectralField:
    """f = nu A u0 + B(u0, u0), making u0 a steady state of the deterministic system."""
    return SpectralField(
        u0.grid,
        nu * u0.grid.k2 * u0.coeffs + spectral.nonlinear_term(u0, u0).coeffs,
    )
