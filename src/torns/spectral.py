"""Fourier representation of periodic divergence-free velocity fields on [0, L]^2.

Fields are stored as truncated Fourier series u(x) = sum_j u_hat_j exp(i k_j . x)
with physical wavenumbers k_j = (2*pi/L) * j on the integer lattice
j in {-N/2+1, ..., N/2}^2 (numpy fft ordering).  All inner products and norms
carry the physical measure dx over [0, L]^2, so the L2 norm of a coefficient
array c is L * sqrt(sum |c|^2).

The first eigenvalue of the Stokes operator on this lattice is
lambda_1 = 4*pi^2 / L^2.

The solver and its reports compute on the scalar vorticity w = curl u =
d_x u_2 - d_y u_1, held only on the K = (N-1)//3 + 1 columns of the rfft2
half spectrum that meet the dealias mask, as one contiguous (N, K) array
(HalfSpectrum; the other columns of a field inside the mask are zero).
Every field the library builds is born as such a row (random_row, and the
rows of dynamics and io).  A velocity SpectralField, coefficients with no
arithmetic, is built only at the library's edge, by HalfSpectrum.velocity
(SimConfig.u0, the velocity that dynamics.integrate takes, and State.u)
and by nonlinear_term; field_violations audits one.  There
u = (d_y psi, -d_x psi) with psi = w / |k|^2, and curl B(u, u) = (u . grad) w
(vorticity_advection) agrees with nonlinear_term up to roundoff.
nonlinear_term, the velocity form of B, has no caller in the solver: it
stays as the reference that the benchmark's sweep times and the tests check
the kernel against.  The kernel writes into the buffers of an
AdvectionWorkspace that its caller owns, so a step allocates no transform
intermediates.  Two kernels agree to roundoff, and the grid size alone
picks one: up to N = _DFT_MAX_N, where a numpy call costs mostly its Python
wrapper, real matrix products with dense DFT tables; above it the Basdevant
form, with two inverse and two forward real transforms as numpy's 1-D FFTs.
The DFT kernel's calls are too short to gain from a second thread, so the
experiments step their ensembles serially on those grids.  Both kernels
run on a block with a leading member axis, (B, N, K), B = 1 for a lone
trajectory, on which each member gets the bits of its own one-member call.

grad_linf samples the 2x2 Jacobian of the velocity of a row on a 4N x 4N
grid, but never holds that grid: one inverse transform along x on the K
columns of the row, then the irfft along y a block of rows at a time, with
running maxima.  At N = 128 a call peaks near 2.8 MB (64 (4N) K bytes and
one block), where the 4 x 512 x 512 samples alone would take 8.4 MB.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple

import numpy as np

from .rng import rng_for

__all__ = [
    "WaveGrid",
    "SpectralField",
    "nonlinear_term",
    "HalfSpectrum",
    "AdvectionWorkspace",
    "vorticity_advection",
    "grad_linf",
    "random_row",
    "field_violations",
]


class WaveGrid:
    """Wavenumber lattice and dealiasing mask for one resolution.

    Parameters
    ----------
    L : float
        Domain side length, > 0.
    N : int
        Modes per dimension; even, >= 4.  An integer: a float or a string
        raises TypeError, a numpy integer is taken as its int.
    """

    def __init__(self, L: float, N: int):
        if not (float(L) > 0.0 and np.isfinite(L)):
            raise ValueError(f"L must be positive and finite, got {L}")
        N = operator.index(N)  # a float or a string raises TypeError
        if N < 4:
            raise ValueError(f"N must be >= 4, got {N}")
        if N % 2 != 0:
            raise ValueError(f"N must be even, got {N}")
        self.L = float(L)
        self.N = N

        j = np.fft.fftfreq(N, d=1.0 / N).astype(np.int64)  # 0,1,...,N/2-1,-N/2,...,-1
        self.jx = j[:, None]
        self.jy = j[None, :]
        k0 = 2.0 * np.pi / self.L
        self.kx = k0 * self.jx.astype(np.float64)
        self.ky = k0 * self.jy.astype(np.float64)
        self.k2 = self.kx * self.kx + self.ky * self.ky
        inv = np.zeros_like(self.k2)
        nz = self.k2 > 0.0
        inv[nz] = 1.0 / self.k2[nz]
        self.inv_k2 = inv
        # 2/3 rule, strict form: keep 3|j| < N in each direction, so quadratic
        # products of retained modes are exactly alias-free (for N divisible by
        # 3 the inclusive cutoff would let the corner modes alias onto +-N/3)
        self.dealias_mask = (3 * np.abs(self.jx) < N) & (3 * np.abs(self.jy) < N)

    @property
    def lambda1(self) -> float:
        """First Stokes eigenvalue 4*pi^2 / L^2."""
        return 4.0 * np.pi**2 / self.L**2

    def __eq__(self, other) -> bool:
        return isinstance(other, WaveGrid) and other.L == self.L and other.N == self.N

    def __hash__(self):
        return hash((self.L, self.N))

    def __repr__(self):
        return f"WaveGrid(L={self.L!r}, N={self.N})"


class SpectralField:
    """Two-component velocity field as Fourier coefficients on a WaveGrid.

    coeffs has shape (2, N, N) complex128; coeffs[c][j1, j2] is the series
    coefficient of component c at lattice mode (j1, j2) in fft ordering.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: WaveGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (2, grid.N, grid.N):
            raise ValueError(f"coeffs shape {coeffs.shape} does not match grid N={grid.N}")
        self.grid = grid
        self.coeffs = coeffs

    def __repr__(self):
        return f"SpectralField(N={self.grid.N}, L={self.grid.L:g})"


def _check_same_grid(u, v) -> None:
    if u.grid != v.grid:
        raise ValueError(f"grid mismatch: {u.grid!r} vs {v.grid!r}")


def _project_coeffs(coeffs: np.ndarray, grid: WaveGrid) -> np.ndarray:
    """Per-mode removal of the component along k; zero mode forced to 0."""
    div = grid.kx * coeffs[0] + grid.ky * coeffs[1]
    fac = div * grid.inv_k2
    out = np.empty_like(coeffs)
    out[0] = coeffs[0] - grid.kx * fac
    out[1] = coeffs[1] - grid.ky * fac
    out[:, 0, 0] = 0.0
    return out


def nonlinear_term(u: SpectralField, v: SpectralField) -> SpectralField:
    """Dealiased bilinear term B(u, v) = P((u . grad) v).

    v is differentiated spectrally; u and grad v are multiplied pointwise on
    the collocation grid; the product is transformed back, masked by the 2/3
    rule and Leray-projected.  For inputs supported inside the dealias mask
    the retained modes equal the exact Galerkin convolution.  Nothing in the
    solver calls it: it stays for benchmarks/probe.py's sweep and the tests.
    """
    _check_same_grid(u, v)
    g = u.grid
    work = np.empty((6, g.N, g.N), dtype=np.complex128)
    work[0:2] = u.coeffs
    work[2:4] = (1j * g.kx) * v.coeffs  # d/dx of both components
    work[4:6] = (1j * g.ky) * v.coeffs  # d/dy
    phys = np.fft.ifft2(work, axes=(-2, -1), norm="forward").real
    adv = np.empty((2, g.N, g.N))
    adv[0] = phys[0] * phys[2] + phys[1] * phys[4]
    adv[1] = phys[0] * phys[3] + phys[1] * phys[5]
    ah = np.fft.fft2(adv, axes=(-2, -1), norm="forward")
    ah *= g.dealias_mask
    return SpectralField(g, _project_coeffs(ah, g))


# the largest timed grid up to which the dense-DFT kernel beat the FFT kernel
# on every grid, per N as the fastest of interleaved blocks; at N = 64 its
# O(N^3) products lost most blocks to the 4-transform FFT kernel, from 96 all
_DFT_MAX_N = 48


def _runs_dft(N: int) -> bool:
    """Whether vorticity_advection runs the dense-DFT kernel on an N x N grid."""
    return N <= _DFT_MAX_N


class _DftTables(NamedTuple):
    """Real matrices of vorticity_advection's four pruned transform stages.

    The kernel holds the masked columns transposed, (K, N) with j1 last; a
    complex array enters a product as its real view, with (re, im) pairs
    interleaved over the last axis, and a "[Re | Im]" row of 2N holds the N
    real parts, then the N imaginary parts.
    """

    scale: np.ndarray  # (4, K, 2N): ops = i scale, transposed, each entry twice
    R: np.ndarray  # (2N, 2N): interleaved j1 pairs -> [Re | Im] over x, of (i inv_x)^T
    Ty: np.ndarray  # (N, 2K): irfft along y, from (j2, Re/Im) rows; j2 >= 1 weighted 2
    F: np.ndarray  # (2K, 2N): [fwd_y^T | fwd_y^T], rfft along y with 1/N of both products
    Rf: np.ndarray  # (2N, 2N): [Re | Im] over x -> interleaved j1 pairs, of fwd_x^T with 1/N


def _dft_tables(ops: np.ndarray, K: int, keep_rows: np.ndarray) -> _DftTables:
    """The tables of the small-grid kernel; keep_rows is the dealias mask on j1.

    A call of _advection_dft runs (4K, 2N) @ R, giving the four fields after
    the inverse DFT along x, then Ty @ (4, 2K, N), giving them on the grid as
    (4, y, x); F sums the forward DFTs along y of the two product terms, and
    Rf takes the result back along x.  The i of the four ops sits in R, and
    the columns of Rf for the rows j1 outside the mask are zero, so the
    kernel needs no mask multiply.
    """
    N = ops.shape[1]
    n = np.arange(N)
    angle = (2.0 * np.pi / N) * (np.outer(n, n) % N)  # exact phases j n mod N
    cos, sin = np.cos(angle), np.sin(angle)
    scale = np.repeat(ops[:, :, :K].imag.transpose(0, 2, 1), 2, axis=-1)
    # i e^{i theta} (a + i b) = (-a sin - b cos) + i (a cos - b sin), theta = 2 pi j1 x / N
    R = np.empty((N, 2, 2, N))  # (j1, Re/Im in) x (Re/Im out, x)
    R[:, 0, 0], R[:, 1, 0], R[:, 0, 1], R[:, 1, 1] = -sin, -cos, cos, -sin
    Ty = np.empty((N, K, 2))
    Ty[:, :, 0], Ty[:, :, 1] = cos[:, :K], -sin[:, :K]
    Ty[:, 1:] *= 2.0
    fwd_y = np.empty((K, 2, N))  # the rfft of one product, (j2, Re/Im) x y
    fwd_y[:, 0], fwd_y[:, 1] = cos[:K] / N, -sin[:K] / N
    # (a + i b) e^{-i theta} / N = (a cos + b sin + i (b cos - a sin)) / N; rows outside the mask 0
    k = keep_rows / N
    Rf = np.empty((2, N, N, 2))  # (Re/Im in, x) x (j1, Re/Im out)
    Rf[0, :, :, 0], Rf[1, :, :, 0], Rf[0, :, :, 1], Rf[1, :, :, 1] = (
        cos * k, sin * k, -sin * k, cos * k)
    return _DftTables(
        scale=scale, R=R.reshape(2 * N, 2 * N), Ty=Ty.reshape(N, 2 * K),
        F=np.concatenate([fwd_y.reshape(2 * K, N)] * 2, axis=1), Rf=Rf.reshape(2 * N, 2 * N))


class HalfSpectrum:
    """Tables for the scalar vorticity w = curl u on the masked half-spectrum columns.

    The rfft2 half spectrum holds the modes j2 = 0..N/2 of the last axis; the
    other half of a real field follows by Hermitian symmetry.  Only its first
    K = (N-1)//3 + 1 columns (j2 < K) meet the dealias mask, so w and every
    table here is the contiguous (N, K) block of those columns; the columns
    j2 >= K of a field inside the mask are zero.  ops[c] * w gives, for
    c = 0..3, the coefficients of u_1 = d_y psi, u_2 = -d_x psi, d_x w and
    d_y w (psi = w / |k|^2).  The curl and all four are zero on the Nyquist
    line j1 = N/2, which lies outside the dealias mask.  basdevant holds the
    complex weights -(k_x^2 - k_y^2) and -k_x k_y, times the mask, that take
    the transforms of u_1 u_2 and u_2^2 - u_1^2 to (u . grad) w.  For
    N <= _DFT_MAX_N, dft holds the real tables of vorticity_advection's four
    transform stages (a _DftTables, built once here); above it dft is None
    and the kernel runs FFTs.  norms() reads the H, H1 and H2 norms of the
    velocity off w with one (3, N, K) weight table; violations() audits a
    row, and admit() is the one place that lets one in.  The tables are
    read-only, so one instance may serve several threads; the buffers that
    change per call live in an AdvectionWorkspace per trajectory.
    """

    def __init__(self, grid: WaveGrid):
        N = grid.N
        K = self.K = (N - 1) // 3 + 1
        self.grid = grid
        kx, ky = grid.kx, grid.ky[:, :K]
        self.k2 = grid.k2[:, :K]
        self.dealias_mask = grid.dealias_mask[:, :K]
        # off the Nyquist row j1 = N/2; no column j2 < K is the Nyquist column
        keep = np.broadcast_to(2 * np.abs(grid.jx) < N, (N, K))
        inv_k2 = grid.inv_k2[:, :K] * keep
        self.ops = np.stack([1j * ky * inv_k2, -1j * kx * inv_k2, 1j * kx * keep, 1j * ky * keep])
        self._curl = np.stack([-1j * ky * keep, 1j * kx * keep])
        self.basdevant = np.stack([-(kx * kx - ky * ky), -kx * ky]) * self.dealias_mask.astype(
            np.complex128)
        self.dft = _dft_tables(self.ops, K, self.dealias_mask[:, 0]) if _runs_dft(N) else None
        # L^2 |k|^(2s-2), s = 0, 1, 2: 0 at k = 0 and on the Nyquist row, doubled for j2 >= 1 (and -j2)
        nz = inv_k2 > 0.0
        self._norm_weights = (grid.L**2 * np.where(np.arange(K) > 0, 2.0, 1.0)
                              * np.stack([inv_k2, nz, self.k2 * nz]))

    def curl(self, u: SpectralField) -> np.ndarray:
        """Vorticity i k_x u_2 - i k_y u_1 of a velocity field on the K masked columns."""
        return (self._curl * u.coeffs[:, :, : self.K]).sum(axis=0)

    def velocity(self, w: np.ndarray) -> SpectralField:
        """The full (2, N, N) velocity spectrum of w, mirrored without an FFT.

        Columns j2 > N/2 are conj(u_hat(-j)); the columns K..N-K, and with
        them the Nyquist lines, are zero.  Only the library's edge calls
        this (State.u, SimConfig.u0); no loop of the solver does.
        """
        g = self.grid
        N, K = g.N, self.K
        out = np.zeros((2, N, N), dtype=np.complex128)
        half = np.multiply(self.ops[:2], w, out=out[:, :, :K])
        # row -j1 of column -j2, as slices: row 0 maps to itself, rows 1..N-1 reverse
        np.conjugate(half[:, 0, K - 1 : 0 : -1], out=out[:, 0, N - K + 1 :])
        np.conjugate(half[:, :0:-1, K - 1 : 0 : -1], out=out[:, 1:, N - K + 1 :])
        return SpectralField(g, out)

    def norms(self, w: np.ndarray) -> np.ndarray:
        """The H, H1 and H2 norms of the velocity of w, (..., 3) for w of shape (..., N, K).

        |u_hat|^2 = |w_hat|^2 / |k|^2 makes ||u||_{H^s}^2 = L^2 sum |k|^(2s-2) |w_hat|^2, one
        einsum with a weight table; equal to the per-mode sum on velocity(w) up to roundoff.
        """
        return np.sqrt(np.einsum("sjk,...jk->...s", self._norm_weights, w.real**2 + w.imag**2))

    def violations(self, w: np.ndarray) -> list[str]:
        """Audit a row against the solver's state space; returns human-readable violations (empty if valid).

        Checks a complex128 array of shape (N, K), finite, then, to 1e-13 of
        max |w|, a zero k = 0 entry, zero rows j1 outside the dealias mask
        (the Nyquist row among them) and the Hermitian symmetry
        w(-j1, 0) = conj w(j1, 0) of column 0, the one column that holds
        both j and -j.
        """
        if getattr(w, "dtype", None) != np.complex128 or w.shape != (self.grid.N, self.K):
            return [f"expected a complex128 array of shape {(self.grid.N, self.K)}, "
                    f"got {getattr(w, 'dtype', type(w).__name__)} of shape {np.shape(w)}"]
        if not np.isfinite(w).all():
            return ["coefficients contain NaN or Inf"]
        col = w[:, 0]
        largest = {  # each problem's largest |w_hat|; column 0 against its rows -j1 mod N
            "nonzero mean mode": abs(w[0, 0]),
            "content outside the dealias mask": np.abs(w[~self.dealias_mask[:, 0]]).max(),
            "Hermitian symmetry violated on column 0": np.abs(col - np.conj(np.roll(col[::-1], 1))).max()}
        return [f"{problem}: {v:.3e}" for problem, v in largest.items() if v > 1e-13 * np.abs(w).max()]

    def admit(self, w: np.ndarray, what: str) -> np.ndarray:
        """w itself when violations() finds nothing; else ValueError "<what> outside the solver's state space: ..."."""
        problems = self.violations(w)
        if problems:
            raise ValueError(f"{what} outside the solver's state space: " + "; ".join(problems))
        return w


class AdvectionWorkspace:
    """The buffers vorticity_advection writes, for one (B, N, K) block of w at a time.

    Every call overwrites them, including the array it returns, so threads
    that step concurrently need one workspace each.  members is B, the
    leading axis of B trajectories that share the grid (1 for a lone
    trajectory), and every buffer carries that axis, as does the DFT
    kernel's scale table: numpy 2.4 buffers an operand that broadcasts over
    the member axis (the FFT kernel multiplies its tables member by member,
    within 5% of block-shaped tables at N = 50 to 96).  vel, cols, uv, adv,
    rows and spec serve the FFT kernel, with the two fields first (u_1, u_2,
    then the two products); the columns j2 >= K of cols stay zero.  When the
    half spectrum has its tables, the buffers ending in _t serve the DFT
    kernel with the member axis first: the masked columns transposed, (K, N)
    with j1 last, and each stage's real result, also held in the shape of
    the product that reads it, so a call makes no views but the transpose of
    its input; phys_t holds (u_1, u_2) and (d_x w, d_y w) as two contiguous
    blocks, the operands of the products.
    """

    def __init__(self, half: HalfSpectrum, members: int):
        N, K = half.grid.N, half.K
        M = N // 2 + 1
        B = members
        self.vel = np.empty((2, B, N, K), dtype=np.complex128)  # ops[:2] * w: u_1, u_2
        self.cols = np.zeros((2, B, N, M), dtype=np.complex128)  # after the inverse FFT along x
        self.cols_k = self.cols[..., :K]
        self.uv = np.empty((2, B, N, N))  # u_1, u_2 on the grid, x first; squared in place
        self.adv = np.empty((2, B, N, N))  # u_1 u_2 and u_2^2 - u_1^2
        self.rows = np.empty((2, B, N, M), dtype=np.complex128)  # after the forward FFT along y
        self.rows_k = self.rows[..., :K]
        self.spec = np.empty((2, B, N, K), dtype=np.complex128)  # after the forward FFT along x
        self.out = np.empty((B, N, K), dtype=np.complex128)
        if half.dft is None:
            return
        self.scale = np.repeat(half.dft.scale[None], B, axis=0)  # (B, 4, K, 2N)
        self.scaled_t = np.empty((B, 4 * K, 2 * N))  # scale * w_t, (re, im) interleaved over j1
        self.scaled_t_stack = self.scaled_t.reshape(B, 4, K, 2 * N)
        self.w_t = self.scaled_t_stack.view(np.complex128)  # (B, 4, K, N): w_t in each field's rows
        self.cols_t = np.empty((B, 4 * K, 2 * N))  # after the inverse DFT along x: [Re | Im] over x
        self.cols_t_pairs = self.cols_t.reshape(B, 2, 2, 2 * K, N)
        self.phys_t = np.empty((2, B, 2, N, N))  # (u_1, u_2) and (d_x w, d_y w) on the grid, (y, x)
        self.phys_pairs = self.phys_t.transpose(1, 0, 2, 3, 4)  # (B, 2, 2, N, N), as Ty @ cols_t_pairs
        self.adv_t = np.empty((B, 2, N, N))  # the two terms of u . grad w
        self.adv_rows = self.adv_t.reshape(B, 2 * N, N)
        self.rows_t = np.empty((B, 2 * K, N))  # after the forward DFT along y: [Re | Im] over x
        self.rows_t_pairs = self.rows_t.reshape(B, K, 2 * N)
        self.spec_t = np.empty((B, K, 2 * N))  # after the forward DFT along x: interleaved over j1
        self.spec_cols = self.spec_t.view(np.complex128).mT  # (B, N, K), as out


def vorticity_advection(w: np.ndarray, half: HalfSpectrum, work: AdvectionWorkspace) -> np.ndarray:
    """Dealiased curl B(u, u) = (u . grad) w on the K masked columns, for w = curl u.

    w and the result are (B, N, K) blocks of B rows of the half spectrum
    (HalfSpectrum), with a workspace for B members; each member's result
    has the bits of its own one-member call.
    Grids with N <= _DFT_MAX_N run irfft2 of the four fields u_1, u_2, d_x w
    and d_y w and rfft2 of u . grad w as four real matrix products with the
    tables of the half spectrum, on the masked columns transposed to (K, N)
    and read as interleaved (re, im) pairs, and mask the result through the
    last table (_advection_dft).  Larger grids run the Basdevant form
    (u . grad) w = (d_x^2 - d_y^2)(u_1 u_2) + d_x d_y (u_2^2 - u_1^2) of
    divergence-free flow (_advection_fft): two inverse and two forward real
    transforms, each split into 1-D FFTs of which the ones along x run on
    the K columns only; the mask sits in the weights of the last multiply.
    Under the 2/3 rule both are exact on the retained modes, so they agree
    with each other and with the half spectrum of curl nonlinear_term(u, u)
    up to roundoff.  A call allocates no array.  The result is work.out,
    valid until the next call with the same workspace.
    """
    kernel = _advection_fft if half.dft is None else _advection_dft
    return kernel(w, half, work)


def _advection_fft(w: np.ndarray, half: HalfSpectrum, work: AdvectionWorkspace) -> np.ndarray:
    """vorticity_advection in the Basdevant form, numpy's 1-D FFTs out= into the workspace."""
    N = half.grid.N
    # one multiply per field and member, none broadcast: below N = 128 numpy 2.4
    # buffers an operand broadcast over fields or members (a transient of about vel)
    for op, vel in zip(half.ops[:2], work.vel):
        for w_m, vel_m in zip(w, vel):
            np.multiply(op, w_m, out=vel_m)
    np.fft.ifft(work.vel, n=N, axis=-2, norm="forward", out=work.cols_k)
    u = np.fft.irfft(work.cols, n=N, axis=-1, norm="forward", out=work.uv)
    adv = work.adv
    np.multiply(u[0], u[1], out=adv[0])  # before u is squared in place
    np.multiply(u, u, out=u)
    np.subtract(u[1], u[0], out=adv[1])
    np.fft.rfft(adv, n=N, axis=-1, norm="forward", out=work.rows)
    spec = np.fft.fft(work.rows_k, n=N, axis=-2, norm="forward", out=work.spec)
    for m in range(len(w)):
        np.multiply(half.basdevant, spec[:, m], out=spec[:, m])
    return np.add(spec[0], spec[1], out=work.out)


def _advection_dft(w: np.ndarray, half: HalfSpectrum, work: AdvectionWorkspace) -> np.ndarray:
    """vorticity_advection as four real matrix products with the tables of half.dft.

    The member axis stacks the products; each member's products have the
    shapes of a one-member call, so its result has the same bits.
    """
    t = half.dft
    np.copyto(work.w_t, w[..., None, :, :].mT)  # broadcast to the 4 fields
    np.multiply(work.scaled_t_stack, work.scale, out=work.scaled_t_stack)
    np.matmul(work.scaled_t, t.R, out=work.cols_t)
    np.matmul(t.Ty, work.cols_t_pairs, out=work.phys_pairs)  # (2, 2, y, x) per member
    np.multiply(work.phys_t[0], work.phys_t[1], out=work.adv_t)
    np.matmul(t.F, work.adv_rows, out=work.rows_t)  # sums the two terms
    np.matmul(work.rows_t_pairs, t.Rf, out=work.spec_t)  # zero for the rows j1 outside the mask
    np.copyto(work.out, work.spec_cols)
    return work.out


# x-rows of the oversampled grid per irfft along y in grad_linf: a block of
# the four entries is 1024 M bytes (0.5 MB at N = 128).  Blocks of 8 and 32
# rows took the same time at N = 128 and 512, blocks of N rows up to 1.5x longer
_GRAD_BLOCK_ROWS = 32
_GRAD_OVERSAMPLE = 4  # grad_linf takes the sup on the M x M grid, M = 4 N


def grad_linf(hw: np.ndarray, half: HalfSpectrum) -> tuple[float, float]:
    """The sup over the sampled points of two pointwise norms of grad h, h the velocity of hw: (op, maxabs).

    op takes the operator 2-norm of the 2x2 Jacobian (the norm that makes
    |integral |v|^2 |grad h|| <= ||grad h||_inf ||v||^2 valid), maxabs its
    largest absolute entry.  hw is an (N, K) vorticity row (HalfSpectrum),
    so h is real, divergence-free and zero on the Nyquist lines.  The
    entries d_a h_b = ops[2 + a] ops[b] hw are sampled on the M x M grid,
    M = _GRAD_OVERSAMPLE*N, as irfft2 of the half spectrum j2 >= 0, to
    control the sampling error of the sup.  The inverse transform along x
    runs once, on the K columns of the row, into a (2, 2, M, K) complex
    array; the irfft along y then runs on _GRAD_BLOCK_ROWS x-rows at a
    time, carrying both maxima.  So the call holds 64 M K bytes plus one
    block, not the 32 M^2 of all the samples.
    """
    M = _GRAD_OVERSAMPLE * half.grid.N
    cols = np.zeros((2, 2, M, half.K), dtype=np.complex128)
    cols[:, :, half.grid.jx[:, 0] % M] = half.ops[2:4, None] * (half.ops[:2] * hw)
    np.fft.ifft(cols, axis=-2, norm="forward", out=cols)
    block = np.empty((2, 2, min(_GRAD_BLOCK_ROWS, M), M))
    peaks = np.empty((-(-M // _GRAD_BLOCK_ROWS), 3))  # per block: max J, -min J, max smax^2
    for i, r in enumerate(range(0, M, _GRAD_BLOCK_ROWS)):
        part = cols[:, :, r : r + _GRAD_BLOCK_ROWS]
        J = np.fft.irfft(part, n=M, axis=-1, norm="forward", out=block[:, :, : part.shape[2]])
        # largest singular value of [[a,b],[c,d]] via trace/det of J^T J
        a, b = J[0, 0], J[0, 1]
        c, d = J[1, 0], J[1, 1]
        tr = a * a + b * b + c * c + d * d
        det = a * d - b * c
        disc = np.maximum(tr * tr - 4.0 * det * det, 0.0)
        peaks[i] = J.max(), -J.min(), (0.5 * (tr + np.sqrt(disc))).max()
    hi, neg_lo, smax2 = peaks.max(axis=0)
    return float(np.sqrt(smax2)), max(float(hi), float(neg_lo))


def random_row(
    half: HalfSpectrum,
    seed: int,
    norm: float = 1.0,
    profile: Callable[[np.ndarray], np.ndarray] | None = None,
    stream: int = 0,
) -> np.ndarray:
    """Random (N, K) vorticity row whose velocity has the L2 norm `norm`.

    Drawn from a random real streamfunction psi (u = perp-grad psi, so the
    velocity is exactly divergence-free and real in physical space): the
    row is w = -|k| amp(|k|) psi_hat on the masked columns, zero at k = 0,
    so the velocity's amplitude |k| |psi_hat| per mode follows the profile
    amp (default 1/(1+|k|^2)).  It lies in the solver's state space, and is
    rescaled to norm through half.norms.  Deterministic in (seed, stream).
    """
    rng = rng_for(seed, "field", stream)
    psi = np.fft.fft2(rng.standard_normal((half.grid.N,) * 2), norm="forward")[:, : half.K]
    kmag = np.sqrt(half.k2)
    amp = 1.0 / (1.0 + half.k2) if profile is None else np.asarray(profile(kmag), dtype=np.float64)
    w = -kmag * amp * half.dealias_mask * psi
    w[0, 0] = 0.0
    cur = float(half.norms(w)[0])
    if cur == 0.0:
        raise ValueError("profile produced an identically zero field")
    return w * (norm / cur)


def field_violations(u: SpectralField, rtol: float = 1e-13) -> list[str]:
    """Audit SpectralField invariants; returns human-readable violations (empty if valid).

    Checks finiteness, Hermitian symmetry (real physical field), zero mean,
    relative divergence |k . u_hat| and content outside the dealias mask,
    each below rtol.
    """
    out = []
    c = u.coeffs
    if not np.isfinite(c).all():
        out.append("coefficients contain NaN or Inf")
        return out
    scale = float(np.abs(c).max())
    if scale == 0.0:
        return out
    mirror = np.conj(c[:, ::-1, ::-1])
    mirror = np.roll(mirror, (1, 1), axis=(-2, -1))  # index map j -> -j mod N
    herm = float(np.abs(c - mirror).max())
    if herm > rtol * scale:
        out.append(f"Hermitian symmetry violated: max |u_hat(j) - conj(u_hat(-j))| = {herm:.3e}")
    mean = float(np.abs(c[:, 0, 0]).max())
    if mean > rtol * scale:
        out.append(f"nonzero mean mode: |u_hat(0)| = {mean:.3e}")
    g = u.grid
    div = np.abs(g.kx * c[0] + g.ky * c[1])
    ref = float((np.sqrt(g.k2) * np.sqrt(np.abs(c[0]) ** 2 + np.abs(c[1]) ** 2)).max())
    if ref > 0 and float(div.max()) > rtol * ref:
        out.append(f"divergence too large: max |k . u_hat| = {div.max():.3e} (scale {ref:.3e})")
    outside = float(np.abs(c[:, ~g.dealias_mask]).max())
    if outside > rtol * scale:
        out.append(f"content outside the dealias mask: {outside:.3e}")
    return out
