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

The scheme is chosen apart from the system.  "etd1" is the exponential Euler
update u+ = E u + dt phi1 F(u); "etd2" adds a second-order multistep
correction dt (phi1+phi2) F_n - dt phi2 F_{n-1}, bootstrapped by one etd1
step.  The Ito system always takes the etd1 drift (Euler-Maruyama is first
order), so with h = 0 it equals the deterministic etd1 step bit for bit.

A stepper is built from (cfg, paths, states): the path type selects the
system (None deterministic, OUPath conjugated, WienerPath Ito), and one path
and one initial state per member give it B members that share cfg.  Their
vorticity is one (B, N, K) block (one member runs as the plain (N, K)
array), the stepper's only state, so the kernel and the ETD update run once
per level for all of them, each member with its own z_n or dW_n.
step(state, stepper, n, m) is one call per member-step: the first call of
step n advances the block and checks it once, and each call emits member
m's row as a State.  ensemble() takes the members' initial rows, yields
their states and then one list per step, with a member that blew up frozen
on its BlowupError while the others go on; it is the only time loop.
trajectory() is its one-member case, and integrate() records the norms
of every stride-th state that yields from an initial velocity.  Stacking changes
no bit: each member's row equals its own one-member trajectory.

The stepper runs in half-spectrum vorticity (spectral.HalfSpectrum): it
carries w = curl u as the contiguous (N, K) block of the K = (N-1)//3 + 1
rfft2 columns that meet the dealias mask, reads the config's rows
fw = curl f and hw = curl h, builds the row of h - nu A h once, and gets
curl B from spectral.vorticity_advection (on FFT grids 2 inverse and 2
forward real 2-D transforms per step in the Basdevant form, on small grids
dense DFT products; no Leray projection).  The other columns of a field
inside the mask are zero, and so stay zero on every step, so the state
never holds them.  E, phi1 and phi2 are diagonal and commute with
curl, so this is the velocity scheme up to roundoff.  Each stepper owns the
buffers of its step (the kernel workspace, the etd2 right-hand sides and the
update temporaries), so a level allocates only the new block; steppers of
concurrent trajectories share nothing but read-only tables.  A State is
built from its vorticity row w alone, and every norm a run reports comes
from it (State.norms); u is rebuilt from w without an FFT on the first
read, for callers of the public API only.

State space: w represents exactly the zero-mean, divergence-free velocity
fields with no modes |j2| >= K, and the two forms of B agree only inside the
dealias mask.  So SimConfig holds f, h and the initial data as rows audited
to that space, every field is built as a row (taylor_green,
manufactured_forcing, spectral.random_row and io's mode lists), and every
entry point but integrate takes rows, audited to the same 1e-13 relative
bound (HalfSpectrum.admit).  A velocity enters only at integrate, whose
callers pass SimConfig.u0, the velocity of w0: it is checked once there for
a nonzero mean, a divergence or content outside the mask
(spectral.field_violations), and curled; what it holds in the columns
|j2| >= K is dropped."""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import spectral
from .noise import OUPath, WienerPath, horizon_steps
from .spectral import SpectralField, WaveGrid

__all__ = [
    "SimConfig",
    "AssumptionReport",
    "State",
    "BlowupError",
    "check_assumption",
    "step",
    "ensemble",
    "trajectory",
    "integrate",
    "taylor_green",
    "manufactured_forcing",
]

SCHEMES = ("etd1", "etd2")
NORMS = ("norm_H", "norm_H1", "norm_H2")  # the columns of every reported norm (State.norms)


@dataclass(frozen=True)
class AssumptionReport:
    """Admissibility of the noise intensity h and the derived constants.

    lhs = ||grad h||_Linf / sqrt(pi), rhs = nu * lambda_1; admissible means
    lhs < rhs strictly.  When admissible, alpha in (0, 1] solves
    lhs = (1 - alpha) rhs, beta > 0 solves lhs (1 + beta) = rhs (1 - alpha/2)
    (beta = +inf when h = 0) and lam = alpha nu lambda_1 / 4; otherwise all
    three are None.
    """

    lhs: float
    rhs: float
    grad_linf_op: float
    grad_linf_maxabs: float

    @property
    def satisfied(self) -> bool:
        return self.lhs < self.rhs

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def alpha(self) -> float | None:
        return 1.0 - self.lhs / self.rhs if self.satisfied else None

    @property
    def beta(self) -> float | None:
        if not self.satisfied:
            return None
        return math.inf if self.lhs == 0.0 else self.rhs * (1.0 - 0.5 * self.alpha) / self.lhs - 1.0

    @property
    def lam(self) -> float | None:
        return self.alpha * self.rhs / 4 if self.satisfied else None

    def summary(self) -> str:
        s = (
            f"satisfied={self.satisfied} lhs={self.lhs:.6g} rhs={self.rhs:.6g} "
            f"margin={self.margin:.6g} grad_linf_op={self.grad_linf_op:.6g} "
            f"grad_linf_maxabs={self.grad_linf_maxabs:.6g}"
        )
        if self.satisfied:
            s += f" alpha={self.alpha:.6g} beta={self.beta:.6g} lambda={self.lam:.6g}"
        return s


def check_assumption(hw: np.ndarray, nu: float, grid: WaveGrid) -> AssumptionReport:
    """Evaluate the noise-admissibility condition ||grad h||_Linf < sqrt(pi) nu lambda_1.

    A violated condition is a valid report (satisfied=False, constants absent),
    not an error.  hw is the (N, K) row curl h the stepper runs (SimConfig.hw),
    so h is its divergence-free velocity; grad h is sampled off it
    (spectral.grad_linf, 64 (4N) K bytes and one block).
    """
    g_op, g_ma = spectral.grad_linf(hw, _half_spectrum(grid))
    return AssumptionReport(lhs=g_op / math.sqrt(math.pi), rhs=nu * grid.lambda1,
                            grad_linf_op=g_op, grad_linf_maxabs=g_ma)


@dataclass
class SimConfig:
    """Solver configuration: viscosity, grid, step and the rows fw = curl f, hw = curl h and w0.

    fw, hw and the optional initial row w0 are (N, K) vorticity rows of
    the forcing, the noise intensity and the initial data, audited
    (HalfSpectrum.admit) when the config is built, so h lies inside the
    dealias mask (for h in H^3, with every A^p h exactly computable); nu,
    dt and t_end must be positive and finite.  u0 is the velocity of w0,
    built on the first read for the callers of integrate.
    assumption is h's admissibility report, computed by check_assumption on
    the first read; noisy tells whether h is nonzero.
    """

    nu: float
    grid: WaveGrid
    dt: float
    fw: np.ndarray
    hw: np.ndarray
    scheme: str = "etd2"
    seed: int = 0
    stride: int = 10
    t_end: float = 1.0
    w0: np.ndarray | None = None

    def __post_init__(self):
        for name in ("nu", "dt", "t_end"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if operator.index(self.stride) < 1:  # a float stride raises TypeError
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        for name in ("fw", "hw") if self.w0 is None else ("fw", "hw", "w0"):
            _half_spectrum(self.grid).admit(getattr(self, name), name)

    @functools.cached_property
    def assumption(self) -> AssumptionReport:
        return check_assumption(self.hw, self.nu, self.grid)

    @functools.cached_property
    def u0(self) -> SpectralField:
        """The velocity of w0, for integrate; ValueError when the config carries no w0."""
        if self.w0 is None:
            raise ValueError("the config carries no initial row w0")
        return _half_spectrum(self.grid).velocity(self.w0)

    @property
    def noisy(self) -> bool:
        """Whether h is nonzero; a zero h runs the deterministic system, with no noise path."""
        return bool(self.hw.any())


class State:
    """Trajectory state: time t, vorticity row w and the current OU value z.

    w is the (N, K) masked half-spectrum vorticity row and half the grid's
    HalfSpectrum; norms() reads w.  A stepped State holds its row of the
    stepper's block, one read from a checkpoint the stored row.  Both build
    u = half.velocity(w) on the first read and cache it.  No array is
    written after the state is yielded; modify neither in place.
    """

    __slots__ = ("t", "z", "_u", "_w", "half")

    def __init__(self, t: float, w: np.ndarray, z: float, half: spectral.HalfSpectrum):
        self.t, self.z, self._u, self._w, self.half = t, z, None, w, half

    @property
    def w(self) -> np.ndarray:
        """The state's (N, K) vorticity row."""
        return self._w

    @property
    def u(self) -> SpectralField:
        if self._u is None:
            self._u = self.half.velocity(self._w)
        return self._u

    def norms(self) -> dict:
        """The NORMS columns of the velocity, read off w (HalfSpectrum.norms)."""
        return dict(zip(NORMS, self.half.norms(self._w)))

    def __repr__(self):
        return f"State(t={self.t!r}, z={self.z!r})"


class BlowupError(RuntimeError):
    """A non-finite coefficient appeared; carries the last valid state."""

    def __init__(self, message: str, last_state: State):
        super().__init__(message)
        self.last_state = last_state


class _EtdStepper:
    """Exponential integrator of B trajectories that share a config, on the half-spectrum vorticity.

    paths holds one path per member, all of one kind, which selects the
    system: z of shape (B, n+1) from OUPaths (conjugated), dW of shape (B, n)
    from WienerPaths (Ito, etd1 drift), neither for None (deterministic).
    The rows of the members' initial states make the block w, the only
    state the stepper advances; their times are the start times t0; level
    counts the steps it has taken, and step() checks each new level once
    for the whole block.
    Precomputes E = exp(-nu k^2 dt) and the dt phi1/phi2 weights as
    complex128 on the (N, K) masked columns, and the row of h - nu A h from
    cfg.hw.  _advance() takes one drift step of the conjugated system
    for the whole block, each member with its own z_n; the deterministic and
    Ito drifts are the case z = 0.  etd2 keeps F_{n-1} between levels.  The
    stepper owns every buffer its step writes: the kernel workspace, two
    right-hand-side buffers that alternate as F_n and F_{n-1}, and the
    update temporaries.  _advance() returns the new block as a fresh array,
    the only one it allocates, because the emitted states hold its rows and
    are kept by callers.

    A single member has no member axis: its block is the (N, K) array and
    its z a scalar.  The fork pays: through the block path one member
    stepped 33.8 against 28.6 us at N = 16 and 51.3 against 45.9 us at
    N = 32 (fork faster in 19 and 18 of 20 in-process rounds on 2 cores),
    from the (1, 1, 1) z column and the (1, N, K) kernel.
    """

    def __init__(self, cfg: SimConfig, paths: list, states: list):
        kind = type(paths[0])
        self.cfg = cfg
        self.B = B = len(paths)
        n = 0 if paths[0] is None else min(p.n for p in paths)
        self.z = np.stack([p.z[: n + 1] for p in paths]) if kind is OUPath else None
        self.dW = np.stack([p.increments[:n] for p in paths]) if kind is WienerPath else None
        # one member runs without the member axis: its block is (N, K), and
        # per level a scalar scales it where an ensemble's (B, 1, 1) column does
        lead = (B,) if B > 1 else ()
        self._z_cols = None if self.z is None else _per_level(self.z, B)
        self._dW_cols = None if self.dW is None else _per_level(self.dW, B)
        self._zero = np.zeros((B, 1, 1)) if B > 1 else 0.0
        self.half = half = _half_spectrum(cfg.grid)
        dt = cfg.dt
        z = -cfg.nu * dt * half.k2
        phi1, phi2 = _phi1(z), _phi2(z)
        # complex tables: a real x complex multiply casts, and costs about twice
        # a complex x complex one
        self.E, self.dt_phi1, self.dt_phi12, self.dt_phi2 = (
            a.astype(np.complex128) for a in (np.exp(z), dt * phi1, dt * (phi1 + phi2), dt * phi2))
        # the Ito solver's drift is first order by construction
        self.scheme = "etd1" if self.dW is not None else cfg.scheme
        self.prev_rhs: np.ndarray | None = None
        self.hw, self._fw = cfg.hw, cfg.fw
        # curl of the combined z-forcing profile h - nu A h of the conjugated right side
        self._zw = self.hw - cfg.nu * half.k2 * self.hw
        self._work = spectral.AdvectionWorkspace(half, B if B > 1 else None)
        block = (*lead, *self.hw.shape)
        self._rhs = (np.empty(block, np.complex128), np.empty(block, np.complex128))
        self._arg = np.empty(block, np.complex128)
        self._tmp = (np.empty(block, np.complex128), np.empty(block, np.complex128))
        self.w = np.stack([s.w for s in states]) if B > 1 else states[0].w
        self.t0 = [s.t for s in states]
        self.level = 0

    def _advance(self, w: np.ndarray, n: int) -> np.ndarray:
        """Step n of every member of the block w, each from its left-endpoint z_n; the new block."""
        # the arithmetic of E w + dt phi1 (f + z zw - curl B(w + z hw)) and its
        # etd2 form, operation by operation, into the stepper's buffers
        z = self._zero if self._z_cols is None else self._z_cols[n]
        rhs = self._rhs[1] if self.prev_rhs is self._rhs[0] else self._rhs[0]
        np.add(self._fw, np.multiply(z, self._zw, out=rhs), out=rhs)
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
        if self._dW_cols is not None:  # the Ito system: + dW_n curl h after the drift
            out += np.multiply(self._dW_cols[n], self.hw, out=t)
        return out


# one read-only HalfSpectrum per grid: each kept State holds it (0.9 MB at N = 128)
_half_spectrum = functools.lru_cache(maxsize=4)(spectral.HalfSpectrum)


def _per_level(a: np.ndarray, B: int) -> np.ndarray:
    """Indexed by level n: the (B, 1, 1) column a[:, n], or the scalar a[0, n] for one member."""
    return a.T[:, :, None, None] if B > 1 else a[0]


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


def _check_initial(v0: SpectralField, cfg: SimConfig) -> np.ndarray:
    """The row of initial velocity v0; ValueError when v0 is off cfg's grid or outside the state space."""
    if v0.grid != cfg.grid:
        raise ValueError("initial data grid does not match config grid")
    problems = spectral.field_violations(v0, rtol=1e-13)
    if problems:
        raise ValueError("initial data outside the solver's state space: " + "; ".join(problems))
    return _half_spectrum(cfg.grid).curl(v0)


def step(state: State, stepper: _EtdStepper, n: int, m: int) -> State:
    """Step n of member m of the stepper's block, from state at t_n to t_{n+1}.

    The first call of step n advances the whole block to level n + 1 and
    checks it: one energy over the block, and one per member only when that
    is not finite (the members in blown), and the level's z as Python floats
    (zs).  Every call emits member m's row as a State at t0_m + (n + 1) dt
    from the member's start time (the float arithmetic of WienerPath.times),
    or raises its BlowupError.  state supplies only the deterministic z and
    the last valid state of a BlowupError.  A step that is neither the
    block's next level nor its last raises ValueError.  An ensemble member
    whose row is not finite is frozen: its rows of the block and of F_{n-1}
    are zeroed, so later levels stay finite.  The conjugated system takes
    z_n into its forcing and carries z_{n+1}; the Ito system adds dW_n
    curl h after the etd1 drift; the deterministic system runs the
    conjugated arithmetic with z = 0.
    """
    st = stepper
    if n == st.level:
        st.w, st.level = st._advance(st.w, n), n + 1
        # one energy for the block; one per member only when that is not finite
        st.blown = () if math.isfinite(np.vdot(st.w, st.w).real) else (
            {0} if st.B == 1 else {i for i, r in enumerate(st.w) if not math.isfinite(np.vdot(r, r).real)})
        st.zs = None if st.z is None else st.z[:, n + 1].tolist()
    elif n != st.level - 1 or n < 0:
        raise ValueError(f"step {n} is neither the next nor the last level of a block at level {st.level}")
    w = st.w[m] if st.B > 1 else st.w
    t = st.t0[m] + (n + 1) * st.cfg.dt
    if m in st.blown:
        if st.B > 1:
            w[...] = 0.0
            if st.prev_rhs is not None:
                st.prev_rhs[m] = 0.0
        raise BlowupError(f"non-finite coefficients at t={t:.6g}; last valid state at t={state.t:.6g}", state)
    z = state.z if st.zs is None else st.zs[m]
    return State(t, w, z, st.half)


def ensemble(
    w0s: list,
    cfg: SimConfig,
    paths: list | None = None,
    steps: int | None = None,
) -> Iterator[list]:
    """B trajectories that share cfg, stepped as one block: the initial states, then one list per step.

    w0s holds each member's initial (N, K) vorticity row, which its initial
    State holds; one outside the state space (HalfSpectrum.violations)
    raises ValueError.  paths holds one path per member, all of one kind,
    which selects the system, the start times and the steps as in trajectory
    (steps to the shortest path); None runs B deterministic members.  Entry
    m of each list is member m's State, or, from the step at which that
    member blew up on, its BlowupError: the member is frozen and the others
    go on with the same bits as alone.  The initial states make the
    stepper's block, and each member-step is one step(state, stepper, n, m)
    call.  The arguments are checked on the call, before any state is drawn.
    """
    paths = [None] * len(w0s) if paths is None else list(paths)
    if not w0s or len(paths) != len(w0s):
        raise ValueError(f"an ensemble takes one path per member: {len(w0s)} rows, {len(paths)} paths")
    half = _half_spectrum(cfg.grid)
    for w0 in w0s:
        half.admit(w0, "initial row")
    if any(type(p) is not type(paths[0]) for p in paths):
        raise ValueError("the members of an ensemble must share one system: "
                         "all OUPath, all WienerPath or all None")
    if paths[0] is None:
        starts = [0.0] * len(paths)
        if steps is None:
            steps = horizon_steps(cfg.t_end, cfg.dt)
    else:
        for path in paths:
            if abs(path.dt - cfg.dt) > 1e-12 * max(cfg.dt, path.dt):
                raise ValueError(f"path dt {path.dt} does not match config dt {cfg.dt}")
        starts = [path.t0 for path in paths]
        n = min(path.n for path in paths)
        if steps is None:
            steps = n
        elif steps > n:
            raise ValueError(f"path covers {n} steps, requested {steps}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    z0 = [float(p.z[0]) if isinstance(p, OUPath) else 0.0 for p in paths]
    states = [State(s, w0, z, half) for w0, s, z in zip(w0s, starts, z0)]
    return _levels(states, _EtdStepper(cfg, paths, states), steps)


def _levels(states: list, stepper: _EtdStepper, steps: int) -> Iterator[list]:
    yield states
    for n in range(steps):
        states = [_step_member(s, stepper, n, m) for m, s in enumerate(states)]
        yield states


def _step_member(state, stepper: _EtdStepper, n: int, m: int):
    if isinstance(state, BlowupError):
        return state
    try:
        return step(state, stepper, n, m)
    except BlowupError as exc:
        return exc


def trajectory(
    w0: np.ndarray,
    cfg: SimConfig,
    path: OUPath | WienerPath | None = None,
    steps: int | None = None,
) -> Iterator[State]:
    """The states of one trajectory: the initial state, then one per step.

    The system is selected by the path type: None integrates the deterministic
    equation from t = 0 (steps default to t_end/dt, a ValueError unless that
    is a whole number (horizon_steps)), an OUPath the conjugated random
    equation, and a WienerPath the Ito equation by Euler-Maruyama (both from
    the path's t0; steps default to the path's length).  Path dt must match cfg.dt.
    The arguments, the (N, K) vorticity row w0 among them, are checked on the
    call, before any state is drawn.  Emitted states are never written again,
    so callers may keep any of them.  This is the one-member ensemble of w0; a blowup raises its BlowupError.
    """
    return _alone(ensemble([w0], cfg, [path], steps))


def _alone(levels: Iterator[list]) -> Iterator[State]:
    for (state,) in levels:
        if isinstance(state, BlowupError):
            raise state
        yield state


def integrate(
    v0: SpectralField,
    cfg: SimConfig,
    path: OUPath | WienerPath | None = None,
    steps: int | None = None,
    stride: int | None = None,
) -> tuple[State, list[dict]]:
    """Drive one trajectory (see trajectory) from the velocity v0: the last state and a row every stride steps.

    The one entry point that takes a velocity: v0 is checked and curled once
    (_check_initial).  The rows are those of series.csv, {t, the NORMS
    columns, z}, always floor(steps/stride) + 1 of them, the first of the
    initial state, each read off the state's vorticity (State.norms); velocity
    is built only when the returned state's u is read.  A stride that is not
    an integer raises TypeError, one below 1 ValueError, before any state is drawn.
    """
    stride = cfg.stride if stride is None else operator.index(stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    rows = []
    for n, state in enumerate(trajectory(_check_initial(v0, cfg), cfg, path, steps)):
        if n % stride == 0:
            rows.append({"t": state.t, **state.norms(), "z": state.z})
    return state, rows


def taylor_green(t: float, nu: float, grid: WaveGrid) -> np.ndarray:
    """Row of the decaying Taylor-Green vortex e^{-2 nu lambda_1 t} (cos kx sin ky, -sin kx cos ky), k = 2 pi / L.

    Exact solution of the unforced equations on every square torus: the
    advection term is a pure gradient, annihilated by the Leray projection.
    Its velocity has the four modes j = (+-1, +-1), each with
    a = e^{-2 nu lambda_1 t} / 4, u_1 = -i j_2 a and u_2 = i j_1 a, so its
    (N, K) row holds -2 k a at j = (+-1, 1), the masked columns' share.
    """
    w = np.zeros((grid.N, _half_spectrum(grid).K), dtype=np.complex128)
    w[[1, -1], 1] = -2.0 * grid.ky[0, 1] * (math.exp(-2.0 * nu * grid.lambda1 * t) / 4.0)
    return w


def manufactured_forcing(w0: np.ndarray, nu: float, grid: WaveGrid) -> np.ndarray:
    """The row nu k^2 w0 + curl B of f = nu A u0 + B(u0, u0), u0 the velocity of the row w0.

    So w0 is a steady state of the deterministic system under the
    stepper's own vorticity_advection.
    """
    half = _half_spectrum(grid)
    advection = spectral.vorticity_advection(w0, half, spectral.AdvectionWorkspace(half))
    return nu * half.k2 * w0 + advection
