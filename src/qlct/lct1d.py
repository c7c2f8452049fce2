"""1D complex canonical transform core.

A transform axis is parameterized by a real unimodular matrix
A = [[a, b], [c, d]]. For b != 0 the kernel evaluated here is

    K(x, w) = exp(sign*1j*((a/(2b))x^2 - x*w/b + (d/(2b))w^2 - (pi/4)*sgn(b)))
              / sqrt(2*pi*|b|)

with sign = +1 for the defining kernel and sign = -1 for its conjugate,
which the two-sided transform needs only to split its j-plane kernel into
two separable 2D transforms. Inversion needs no conjugate kernel: the
inverse is the sign +1 transform with A^-1, since K_{A^-1}(x, w) =
conj K_A(w, x).
The amplitude 1/sqrt(2*pi*|b|) together with the constant phase
-(pi/4)*sgn(b) is the principal branch of 1/sqrt(2*pi*1j*b), which keeps
the transform unitary for either sign of b.

For b = 0 the transform degenerates to a chirp-weighted rescaling

    (T f)(u) = sqrt(|d|) * exp(sign*1j*(c*d/2)*u^2) * f(d*u),

implemented by exact index remapping only (no interpolation).

The quadrature transform F = Q f, Q[m, n] = K(x_n, w_m) dx, is computed
by `lct_fast`, which factors the cross term into chirp * FFT * chirp; that
is exact (not approximate) when the grids obey the matched-sampling
contract dx * dw = 2*pi*|b| / N. `kernel_matrix` builds Q itself (for
b = 0 a weighted permutation), the one kernel of every O(N^2) oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.fft

DET_TOL = 1e-9
MATCH_TOL = 1e-9


class ZeroBError(ValueError):
    """b = 0 requested on a path that requires b != 0."""


class MatchedSamplingError(ValueError):
    """Output grid is not one the axis admits: off dx * dw = 2*pi*|b| / N
    for b != 0, or off the scaled input grid for b = 0."""


@dataclass(frozen=True)
class LCTParams:
    """One axis matrix A = [[a, b], [c, d]] with a*d - b*c = 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        # relative to the products, whose rounding an exact det carries; fails NaN, inf
        ad, bc = self.a * self.d, self.b * self.c
        if not abs(ad - bc - 1.0) <= DET_TOL * max(1.0, abs(ad), abs(bc)) < math.inf:
            raise ValueError(f"det(A) = {ad - bc!r} != 1 for A = {self.astuple()}")

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def inverse(self) -> "LCTParams":
        return LCTParams(self.d, -self.b, -self.c, self.a)


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D sampling grid: sample k sits at x0 + k*dx. Valid when
    n >= 2, dx > 0 and (|x0| + n*dx)^2 is finite, since the kernels square
    x; each `signal.Grid2D` axis and each resolved output grid is one."""

    n: int
    dx: float
    x0: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 samples, got {self.n}")
        if not self.dx > 0:
            raise ValueError(f"grid spacing must be positive, got {self.dx}")
        extent = abs(float(self.x0)) + float(self.n) * float(self.dx)
        if not math.isfinite(extent * extent):
            raise ValueError(f"grid extent |x0| + n*dx = {extent!r} squares to a "
                             f"non-finite value (n = {self.n}, dx = {self.dx!r}, "
                             f"x0 = {self.x0!r})")

    @staticmethod
    def centered(n: int, dx: float) -> "Grid1D":
        return Grid1D(n, dx, -(n / 2 - 0.5) * dx)

    def coords(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    def approx_eq(self, other: "Grid1D") -> bool:
        return (self.n == other.n
                and abs(self.dx - other.dx) <= MATCH_TOL * self.dx
                and abs(self.x0 - other.x0) <= MATCH_TOL * self.dx * self.n)


def conjugate_grid(grid: Grid1D, b: float) -> Grid1D:
    """Centered output grid satisfying the matched-sampling contract."""
    if b == 0:
        raise ZeroBError("no conjugate grid for b = 0; use lct_scale_chirp")
    dw = 2 * np.pi * abs(b) / (grid.n * grid.dx)
    return Grid1D.centered(grid.n, dw)


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"kernel sign must be +1 or -1, got {sign}")
    return sign


def kernel_value(p: LCTParams, sign: int, x, w) -> np.ndarray:
    """Kernel value(s) at (x, w); broadcasts over array arguments. The two
    chirps and the cross term are separate factors, so on a fine grid a
    chirp phase of order 1/dx^2 cannot round the cross term away."""
    _check_sign(sign)
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if p.b == 0:
        phase = (p.c * p.d / 2) * w**2
        return np.sqrt(abs(p.d)) * np.exp(1j * sign * phase) * np.ones_like(x)
    chirp_x = np.exp(1j * sign * (p.a / (2 * p.b)) * x**2)
    cross = np.exp(-1j * sign * (x * w / p.b))
    chirp_w = np.exp(1j * sign * ((p.d / (2 * p.b)) * w**2 - (np.pi / 4) * np.sign(p.b)))
    return chirp_x * cross * chirp_w / np.sqrt(2 * np.pi * abs(p.b))


def _resolve_out_grid(p: LCTParams, grid_in: Grid1D,
                      grid_out: Grid1D | None = None) -> Grid1D:
    """The output grid an axis admits: for b != 0 any grid of n samples at
    the matched spacing dw = 2*pi*|b| / (n*dx) (centered by default), for
    b = 0 only the scaled input grid. A requested grid off that rule raises
    MatchedSamplingError."""
    admissible = (scale_chirp_grid(p, grid_in) if p.b == 0
                  else conjugate_grid(grid_in, p.b))
    if grid_out is None:
        return admissible
    if p.b == 0:
        if not grid_out.approx_eq(admissible):
            raise MatchedSamplingError(
                f"d*u falls off the input grid; admissible output grid has "
                f"n = {admissible.n}, dx = {admissible.dx!r}, x0 = {admissible.x0!r}")
    elif (grid_out.n != admissible.n
          or abs(grid_out.dx - admissible.dx) > MATCH_TOL * admissible.dx):
        raise MatchedSamplingError(
            f"matched sampling requires n = {admissible.n}, dw = {admissible.dx!r}; "
            f"got n = {grid_out.n}, dw = {grid_out.dx!r}")
    return grid_out


def kernel_matrix(p: LCTParams, sign: int, grid_in: Grid1D,
                  grid_out: Grid1D | None = None) -> tuple[np.ndarray, Grid1D]:
    """The quadrature matrix Q[out, in] of the sign kernel of p onto an
    admissible grid_out, so that F = Q @ f: K(x_n, w_m) * dx for b != 0,
    and for b = 0 the permutation that reads output u at input sample d*u
    (reversed when a < 0), weighted by kernel_value(p, sign, 0, u). This is
    the O(N^2) oracle's one kernel; `axis_plan` factors the same sum."""
    grid_out = _resolve_out_grid(p, grid_in, grid_out)
    w = grid_out.coords()
    if p.b == 0:
        perm = np.eye(grid_in.n) if p.a > 0 else np.eye(grid_in.n)[::-1]
        return kernel_value(p, sign, 0.0, w)[:, None] * perm, grid_out
    return (kernel_value(p, sign, grid_in.coords()[None, :], w[:, None]) * grid_in.dx,
            grid_out)


class AxisPlan(NamedTuple):
    """One axis of a fast transform, post * step(pre * f) onto grid_out,
    for `lct_fast`, `lct_scale_chirp` and `qlct2d`; on matched grids it is
    `kernel_matrix(...) @ f`, the sum of the O(N^2) oracle.
    pre carries the kernel's amplitude, dx / sqrt(2*pi*|b|) for b != 0
    and sqrt(|d|) (constant) for b = 0, so every post is a unit phase;
    step is one of "fft", "ifft" (unscaled), "flip" or None. A plan
    depends only on its matrix and grids, and `qlct2d._lct2d` skips a
    chirp that is None, as in a Gabor block's plan."""

    pre: np.ndarray | None
    step: str | None
    post: np.ndarray | None
    grid_out: Grid1D


def axis_plan(p: LCTParams, sign: int, grid_in: Grid1D,
              grid_out: Grid1D | None = None) -> AxisPlan:
    """The sign kernel of p onto an admissible grid_out. For b != 0 the
    cross term exp(-sign*1j*x*w/b) splits into grid-offset chirps and the
    pure DFT kernel exp(-sign*sgn(b)*2j*pi*n*m/N), exactly on matched grids;
    for b = 0 output sample u reads the input at d*u."""
    _check_sign(sign)
    grid_out = _resolve_out_grid(p, grid_in, grid_out)
    w = grid_out.coords()
    if p.b == 0:
        return AxisPlan(np.full(grid_in.n, np.sqrt(abs(p.d))), None if p.a > 0 else "flip",
                        np.exp(1j * sign * (p.c * p.d / 2) * w**2), grid_out)
    x = grid_in.coords()
    idx = np.arange(grid_in.n)
    pre = np.exp(1j * sign * ((p.a / (2 * p.b)) * x**2
                              - (idx * grid_in.dx) * grid_out.x0 / p.b))
    post = np.exp(1j * sign * ((p.d / (2 * p.b)) * w**2 - grid_in.x0 * w / p.b
                               - (np.pi / 4) * np.sign(p.b)))
    amplitude = grid_in.dx / np.sqrt(2 * np.pi * abs(p.b))
    return AxisPlan(pre * amplitude, "fft" if sign * p.b > 0 else "ifft", post, grid_out)


def axis_step(g: np.ndarray, plan: AxisPlan, axis: int) -> np.ndarray:
    """A plan's step along one axis of g, which the FFTs may overwrite;
    "flip" and None return views of g."""
    if plan.step in (None, "flip"):
        return g if plan.step is None else np.flip(g, axis=axis)
    fft = scipy.fft.fft if plan.step == "fft" else scipy.fft.ifft
    return fft(g, axis=axis, norm="forward" if plan.step == "ifft" else None, overwrite_x=True)


def _run_plan(plan: AxisPlan, f) -> tuple[np.ndarray, Grid1D]:
    f = np.asarray(f, dtype=complex)
    n = plan.grid_out.n
    if f.shape[-1] != n:
        raise ValueError(f"last axis has {f.shape[-1]} samples, grid has {n}")
    return plan.post * axis_step(f * plan.pre, plan, -1), plan.grid_out


def lct_fast(p: LCTParams, sign: int, f: np.ndarray, grid_in: Grid1D,
             grid_out: Grid1D | None = None) -> tuple[np.ndarray, Grid1D]:
    """Chirp-FFT-chirp transform along the last axis.

    Exactly re-factors the kernel-matrix sum on matched grids (see
    `axis_plan`). Cost O(N log N).
    """
    if p.b == 0:
        raise ZeroBError("lct_fast requires b != 0; use lct_scale_chirp")
    return _run_plan(axis_plan(p, sign, grid_in, grid_out), f)


def scale_chirp_grid(p: LCTParams, grid_in: Grid1D) -> Grid1D:
    """Admissible output grid of the b = 0 branch: the input grid scaled
    by a (the set {a * x_k}, reordered to ascend when a < 0)."""
    if p.b != 0:
        raise ValueError("scale_chirp_grid applies only to b = 0")
    dx_out = abs(p.a) * grid_in.dx
    if p.a > 0:
        x0_out = p.a * grid_in.x0
    else:
        x0_out = p.a * (grid_in.x0 + (grid_in.n - 1) * grid_in.dx)
    return Grid1D(grid_in.n, dx_out, x0_out)


def lct_scale_chirp(p: LCTParams, sign: int, f: np.ndarray, grid_in: Grid1D,
                    grid_out: Grid1D | None = None) -> tuple[np.ndarray, Grid1D]:
    """b = 0 branch along the last axis: chirp times exact index rescaling.

    Output sample u satisfies d*u = x on the input grid; d = 1/a, so the
    admissible output grid is the input grid scaled by a. A mismatching
    requested grid is rejected rather than interpolated.
    """
    if p.b != 0:
        raise ValueError(f"lct_scale_chirp requires b = 0, got b = {p.b!r}")
    return _run_plan(axis_plan(p, sign, grid_in, grid_out), f)
