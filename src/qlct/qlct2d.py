"""Two-sided 2D quaternion linear canonical transform.

The transform applies an i-plane kernel on the left along axis 1 and a
j-plane kernel on the right along axis 2:

    F(u) = sum_t K_i(t1, u1) * f(t) * K_j(t2, u2) * dx1 * dx2

with the quaternion products in exactly that order. Axes with b = 0
degenerate to the chirp-weighted rescaling branch of `lct1d`.

Two independent realizations are provided:

* `qlct_forward_direct` / method="direct": explicit quaternion kernel
  matrices multiplied with `qmul`. This is the quadrature oracle.
* `qlct_forward_fast` / method="fast": symplectic split f = qa + qb*j.
  The left kernel is an ordinary complex LCT acting on qa and qb
  independently. The right kernel e^{j*beta} mixes the planes:
  (qa + qb*j)*e^{j*beta}
  = (qa*cos(beta) - qb*sin(beta)) + (qa*sin(beta) + qb*cos(beta))*j
  by Hamilton's rules. Writing cos and sin through e^{+-i*beta} folds
  this into two complex LCTs with kernel signs +1 and -1,
  P = K+((qa + i*qb)/2) and M = K-((qa - i*qb)/2), giving the planes
  P + M and -i*(P - M); this holds for b = 0 axes too. Four complex
  LCTs per transform, cost O(N^2 log N).

Inversion uses the conjugate kernels (kernel sign -1); on matched grids
the discrete round trip is exact up to rounding, which is far inside the
stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import report
from .lct1d import (Grid1D, LCTParams, _resolve_out_grid, kernel_value,
                    lct_fast, lct_scale_chirp)
from .quat import from_complex_pair, qmul, to_complex_pair
from .signal import Grid2D, QSignal2D


@dataclass(frozen=True)
class QLCTParams:
    """Axis matrices: A1 drives the left i-kernel, A2 the right j-kernel."""

    A1: LCTParams
    A2: LCTParams

    def inverse(self) -> "QLCTParams":
        return QLCTParams(self.A1.inverse(), self.A2.inverse())

    def to_dict(self) -> dict:
        return {"A1": list(self.A1.astuple()), "A2": list(self.A2.astuple())}


def _axis_grids(grid: Grid2D) -> tuple[Grid1D, Grid1D]:
    return (Grid1D(grid.n1, grid.dx1, grid.x0_1),
            Grid1D(grid.n2, grid.dx2, grid.x0_2))


def _join_grids(g1: Grid1D, g2: Grid1D) -> Grid2D:
    return Grid2D(g1.n, g2.n, g1.dx, g2.dx, g1.x0, g2.x0)


def forward_grid(grid: Grid2D, p: QLCTParams) -> Grid2D:
    """Output grid of the forward transform (per-axis conjugate or scaled)."""
    g1, g2 = _axis_grids(grid)
    return _join_grids(_resolve_out_grid(p.A1, g1), _resolve_out_grid(p.A2, g2))


# ---------------------------------------------------------------------------
# fast path (symplectic split, batch-friendly: arrays (..., n1, n2))

def _axis_lct(p, sign, arr, gin, gout, axis):
    """Complex transform along one axis: the b = 0 rescaling branch or
    chirp-FFT-chirp."""
    moved = np.moveaxis(arr, axis, -1)
    out, g = (lct_scale_chirp if p.b == 0 else lct_fast)(p, sign, moved, gin, gout)
    return np.moveaxis(out, -1, axis), g


def _left_fast(p, fa, fb, gin, gout, axis):
    """Left i-plane kernel: the same complex transform on both planes."""
    fa, g = _axis_lct(p, 1, fa, gin, gout, axis)
    fb, _ = _axis_lct(p, 1, fb, gin, gout, axis)
    return fa, fb, g


def _right_fast(p, fa, fb, gin, gout, axis):
    """Right j-plane kernel from the +1 and -1 sign kernels K+ and K-:
    P = K+((fa + i*fb)/2) and M = K-((fa - i*fb)/2) give the planes
    P + M and -i*(P - M)."""
    P, g = _axis_lct(p, 1, (fa + 1j * fb) / 2, gin, gout, axis)
    M, _ = _axis_lct(p, -1, (fa - 1j * fb) / 2, gin, gout, axis)
    return P + M, -1j * (P - M), g


def _two_sided_fast(p: QLCTParams, fa, fb, g1in, g2in, g1out=None, g2out=None):
    fa, fb, o1 = _left_fast(p.A1, fa, fb, g1in, g1out, axis=-2)
    fa, fb, o2 = _right_fast(p.A2, fa, fb, g2in, g2out, axis=-1)
    return fa, fb, o1, o2


def qlct_forward_fast(f: QSignal2D, p: QLCTParams) -> QSignal2D:
    """Forward transform, O(N^2 log N); equals the direct oracle to 1e-9."""
    g1, g2 = _axis_grids(f.grid)
    fa, fb = to_complex_pair(f.samples)
    fa, fb, o1, o2 = _two_sided_fast(p, fa, fb, g1, g2)
    return QSignal2D(_join_grids(o1, o2), from_complex_pair(fa, fb))


# ---------------------------------------------------------------------------
# direct path (explicit quaternion kernel matrices, the oracle)

def _iquat(c: np.ndarray) -> np.ndarray:
    """Complex array -> i-plane quaternion array (re, im, 0, 0)."""
    z = np.zeros_like(c.real)
    return np.stack([c.real, c.imag, z, z], axis=-1)


def _jquat(c: np.ndarray) -> np.ndarray:
    """Complex array -> j-plane quaternion array (re, 0, im, 0)."""
    z = np.zeros_like(c.real)
    return np.stack([c.real, z, c.imag, z], axis=-1)


def _chirp_complex(p: LCTParams, sign: int, g: Grid1D) -> np.ndarray:
    u = g.coords()
    return np.sqrt(abs(p.d)) * np.exp(1j * sign * (p.c * p.d / 2) * u**2)


def _left_direct(p, sign, samples, gin, gout, transposed):
    """Contract K (left factor) against axis 0 of samples (n1, n2, 4).

    transposed=False builds K[out, in] = kernel_value(p, sign, x_in, w_out)
    (the forward orientation); transposed=True puts the output coordinate
    in the kernel's first slot, the orientation of the inversion formula.
    """
    g = _resolve_out_grid(p, gin, gout)
    if p.b == 0:
        kq = _iquat(_chirp_complex(p, sign, g))
        rows = samples if p.a > 0 else samples[::-1]
        return qmul(kq[:, None, :], rows), g
    xin = gin.coords()
    wout = g.coords()
    if transposed:
        kc = kernel_value(p, sign, wout[:, None], xin[None, :])
    else:
        kc = kernel_value(p, sign, xin[None, :], wout[:, None])
    kq = _iquat(kc)  # (n_out, n_in, 4)
    out = qmul(kq[:, :, None, :], samples[None, :, :, :]).sum(axis=1) * gin.dx
    return out, g


def _right_direct(p, sign, samples, gin, gout, transposed):
    """Contract K (right factor) against axis 1 of samples (n1, n2, 4)."""
    g = _resolve_out_grid(p, gin, gout)
    if p.b == 0:
        kq = _jquat(_chirp_complex(p, sign, g))
        cols = samples if p.a > 0 else samples[:, ::-1]
        return qmul(cols, kq[None, :, :]), g
    xin = gin.coords()
    wout = g.coords()
    if transposed:
        kc = kernel_value(p, sign, wout[None, :], xin[:, None])
    else:
        kc = kernel_value(p, sign, xin[:, None], wout[None, :])
    kq = _jquat(kc)  # (n_in, n_out, 4)
    out = qmul(samples[:, :, None, :], kq[None, :, :, :]).sum(axis=1) * gin.dx
    return out, g


def qlct_forward_direct(f: QSignal2D, p: QLCTParams) -> QSignal2D:
    """Forward transform by explicit kernel quadrature (reference path)."""
    g1, g2 = _axis_grids(f.grid)
    h, o1 = _left_direct(p.A1, 1, f.samples, g1, None, transposed=False)
    out, o2 = _right_direct(p.A2, 1, h, g2, None, transposed=False)
    return QSignal2D(_join_grids(o1, o2), out)


def qlct_inverse(F: QSignal2D, p: QLCTParams, method: str = "fast",
                 x_grid: Grid2D | None = None) -> QSignal2D:
    """Inverse transform with the conjugate kernels (kernel sign -1).

    The default reconstruction grid is the centered grid matched to F's;
    pass x_grid when the forward input grid was not centered. On matched
    grids inverse(forward(f)) is exact to rounding.
    """
    w1, w2 = _axis_grids(F.grid)
    if x_grid is None:
        # conjugate_grid depends on |b| only, so the forward grid of the
        # inverse matrices is the matched reconstruction grid
        x_grid = forward_grid(F.grid, p.inverse())
    x1, x2 = _axis_grids(x_grid)
    if method == "fast":
        fa, fb = to_complex_pair(F.samples)
        fa, fb, o1, o2 = _two_sided_fast(p.inverse(), fa, fb, w1, w2, x1, x2)
        return QSignal2D(_join_grids(o1, o2), from_complex_pair(fa, fb))
    if method != "direct":
        raise ValueError(f"method must be 'fast' or 'direct', got {method!r}")
    # Literal conjugate-kernel sums: K^{-i}(x1, u1) on the left, summed over
    # the input u with the output x in the kernel's first slot. For b = 0
    # axes the inverse matrix with the defining kernel is the exact inverse.
    if p.A1.b == 0:
        h, o1 = _left_direct(p.A1.inverse(), 1, F.samples, w1, x1, transposed=False)
    else:
        h, o1 = _left_direct(p.A1, -1, F.samples, w1, x1, transposed=True)
    if p.A2.b == 0:
        out, o2 = _right_direct(p.A2.inverse(), 1, h, w2, x2, transposed=False)
    else:
        out, o2 = _right_direct(p.A2, -1, h, w2, x2, transposed=True)
    return QSignal2D(_join_grids(o1, o2), out)


def qlct_plancherel_check(f: QSignal2D, p: QLCTParams,
                          method: str = "fast") -> report.InequalityReport:
    """Energy equality between a signal and its transform."""
    if method == "fast":
        F = qlct_forward_fast(f, p)
    else:
        F = qlct_forward_direct(f, p)
    lhs = f.l2_norm_sq()
    rhs = F.l2_norm_sq()
    return report.equality("qlct-plancherel", lhs, rhs,
                           params={"method": method, **p.to_dict()},
                           grid=f.grid.to_dict())
