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

For unimodular A the inversion kernel is K_{A^-1}(x, w) = conj K_A(w, x),
so the inverse transform is the forward transform with A^-1 on each axis,
on either path. On matched grids the discrete round trip is exact up to
rounding, which is far inside the stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import report
from .lct1d import (LCTParams, _resolve_out_grid, kernel_value, lct_fast,
                    lct_scale_chirp)
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


def forward_grid(grid: Grid2D, p: QLCTParams) -> Grid2D:
    """Output grid of the forward transform (per-axis conjugate or scaled)."""
    g1, g2 = grid.axes
    return Grid2D.from_axes(_resolve_out_grid(p.A1, g1), _resolve_out_grid(p.A2, g2))


def _check_method(method: str) -> str:
    if method not in ("fast", "direct"):
        raise ValueError(f"method must be 'fast' or 'direct', got {method!r}")
    return method


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
    P + M and -i*(P - M), with about three full-size temporaries."""
    v = 1j * fb
    u = fa + v
    u /= 2
    np.subtract(fa, v, out=v)
    v /= 2
    P, g = _axis_lct(p, 1, u, gin, gout, axis)
    del u
    M, _ = _axis_lct(p, -1, v, gin, gout, axis)
    del v
    S = P + M
    P -= M
    P *= -1j
    return S, P, g


def _two_sided_fast(p: QLCTParams, fa, fb, g1in, g2in, g1out=None, g2out=None):
    fa, fb, o1 = _left_fast(p.A1, fa, fb, g1in, g1out, axis=-2)
    fa, fb, o2 = _right_fast(p.A2, fa, fb, g2in, g2out, axis=-1)
    return fa, fb, o1, o2


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


def _left_direct(p, samples, gin, gout):
    """Contract K[out, in] = kernel_value(p, 1, x_in, w_out) (left factor)
    against axis 0 of samples (n1, n2, 4)."""
    g = _resolve_out_grid(p, gin, gout)
    if p.b == 0:
        kq = _iquat(kernel_value(p, 1, 0.0, g.coords()))
        rows = samples if p.a > 0 else samples[::-1]
        return qmul(kq[:, None, :], rows), g
    kq = _iquat(kernel_value(p, 1, gin.coords()[None, :], g.coords()[:, None]))
    out = qmul(kq[:, :, None, :], samples[None, :, :, :]).sum(axis=1) * gin.dx
    return out, g


def _right_direct(p, samples, gin, gout):
    """Contract K[in, out] = kernel_value(p, 1, x_in, w_out) (right factor)
    against axis 1 of samples (n1, n2, 4)."""
    g = _resolve_out_grid(p, gin, gout)
    if p.b == 0:
        kq = _jquat(kernel_value(p, 1, 0.0, g.coords()))
        cols = samples if p.a > 0 else samples[:, ::-1]
        return qmul(cols, kq[None, :, :]), g
    kq = _jquat(kernel_value(p, 1, gin.coords()[:, None], g.coords()[None, :]))
    out = qmul(samples[:, :, None, :], kq[None, :, :, :]).sum(axis=1) * gin.dx
    return out, g


# ---------------------------------------------------------------------------
# both paths

def _two_sided(f: QSignal2D, p: QLCTParams, method: str,
               out_grid: Grid2D | None = None) -> QSignal2D:
    """Transform f with the axis matrices p by either path onto out_grid
    (default: the grid each axis rule resolves)."""
    g1, g2 = f.grid.axes
    o1, o2 = (None, None) if out_grid is None else out_grid.axes
    if method == "fast":
        fa, fb = to_complex_pair(f.samples)
        fa, fb, o1, o2 = _two_sided_fast(p, fa, fb, g1, g2, o1, o2)
        return QSignal2D(Grid2D.from_axes(o1, o2), from_complex_pair(fa, fb))
    h, o1 = _left_direct(p.A1, f.samples, g1, o1)
    out, o2 = _right_direct(p.A2, h, g2, o2)
    return QSignal2D(Grid2D.from_axes(o1, o2), out)


def qlct_forward_fast(f: QSignal2D, p: QLCTParams) -> QSignal2D:
    """Forward transform, O(N^2 log N); equals the direct oracle to 1e-9."""
    return _two_sided(f, p, "fast")


def qlct_forward_direct(f: QSignal2D, p: QLCTParams) -> QSignal2D:
    """Forward transform by explicit kernel quadrature (reference path)."""
    return _two_sided(f, p, "direct")


def qlct_inverse(F: QSignal2D, p: QLCTParams, method: str = "fast",
                 x_grid: Grid2D | None = None) -> QSignal2D:
    """Inverse transform: the forward transform with the inverse matrices.

    The default reconstruction grid is the centered grid matched to F's;
    pass x_grid when the forward input grid was not centered. On matched
    grids inverse(forward(f)) is exact to rounding.
    """
    return _two_sided(F, p.inverse(), _check_method(method), x_grid)


def qlct_plancherel_check(f: QSignal2D, p: QLCTParams,
                          method: str = "fast") -> report.InequalityReport:
    """Energy equality between a signal and its transform."""
    fwd = qlct_forward_fast if _check_method(method) == "fast" else qlct_forward_direct
    F = fwd(f, p)
    lhs = f.l2_norm_sq()
    rhs = F.l2_norm_sq()
    return report.equality("qlct-plancherel", lhs, rhs,
                           params={"method": method, **p.to_dict()},
                           grid=f.grid.to_dict())
