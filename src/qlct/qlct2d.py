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
  this into two complex LCTs with kernel signs +1 and -1 on the halves
  u = qa + i*qb and v = qa - i*qb, P = K+(u/2) and M = K-(v/2), giving
  the planes P + M and -i*(P - M); this holds for b = 0 axes too. The
  left kernel is complex-linear, so it commutes with the mixing: two
  separable 2D transforms (chirp * FFT2 * chirp) per transform, cost
  O(N^2 log N). The kernel maps halves to halves.

For unimodular A the inversion kernel is K_{A^-1}(x, w) = conj K_A(w, x),
so the inverse transform is the forward transform with A^-1 on each axis,
on either path. On matched grids the discrete round trip is exact up to
rounding, which is far inside the stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import report
from .lct1d import (LCTParams, _fft_workers, _resolve_out_grid, axis_plan,
                    axis_step, kernel_value)
# bench/tracing.py wraps these names here; no qlct2d code calls them
from .lct1d import lct_fast, lct_scale_chirp  # noqa: F401
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

def _lct2d(plan1, plan2, g):
    """One separable 2D transform of g (..., n1, n2), which it overwrites:
    pre-chirp, one FFT2 when both axes run the same FFT (else each axis's
    step), post-chirp. The result is C-contiguous."""
    g *= np.multiply.outer(plan1.pre, plan2.pre)
    workers = _fft_workers()
    if plan1.step == plan2.step == "fft":
        spec = scipy.fft.fft2(g, overwrite_x=True, workers=workers)
    elif plan1.step == plan2.step == "ifft":
        spec = scipy.fft.ifft2(g, norm="forward", overwrite_x=True, workers=workers)
    else:
        spec = axis_step(axis_step(g, plan1.step, -2), plan2.step, -1)
    out = spec if spec.flags.c_contiguous else np.empty(spec.shape, complex)
    return np.multiply(spec, np.multiply.outer(plan1.post, plan2.post), out=out)


def _halves(qa, qb):
    """The halves qa + i*qb and qa - i*qb of qa + qb*j, C-ordered so that
    both FFTs and the post-chirps of `_two_sided_fast` run in place."""
    v = np.multiply(1j, qb, out=np.empty(np.shape(qb), complex))
    return np.add(qa, v, out=np.empty_like(v)), np.subtract(qa, v, out=v)


def _two_sided_fast(p: QLCTParams, u, v, g1in, g2in, g1out=None, g2out=None):
    """Halves P = K(A1,+1; A2,+1)u/2 and M = K(A1,+1; A2,-1)v/2, which
    overwrite the input halves u and v, over the last two axes, and their
    grids; the exact 1/2 rides on the left post-chirp."""
    left = axis_plan(p.A1, 1, g1in, g1out)
    left = left._replace(post=left.post / 2)
    plus = axis_plan(p.A2, 1, g2in, g2out)
    minus = axis_plan(p.A2, -1, g2in, g2out)
    return (_lct2d(left, plus, u), _lct2d(left, minus, v),
            left.grid_out, plus.grid_out)


# ---------------------------------------------------------------------------
# direct path (explicit quaternion kernel matrices, the oracle)

def _left_direct(p, samples, gin, gout):
    """Contract K[out, in] = kernel_value(p, 1, x_in, w_out) (left factor)
    against axis 0 of samples (n1, n2, 4)."""
    g = _resolve_out_grid(p, gin, gout)
    if p.b == 0:
        kq = from_complex_pair(kernel_value(p, 1, 0.0, g.coords()), 0)
        rows = samples if p.a > 0 else samples[::-1]
        return qmul(kq[:, None, :], rows), g
    kq = from_complex_pair(kernel_value(p, 1, gin.coords()[None, :],
                                        g.coords()[:, None]), 0)
    out = qmul(kq[:, :, None, :], samples[None, :, :, :]).sum(axis=1) * gin.dx
    return out, g


def _right_direct(p, samples, gin, gout):
    """Contract K[in, out] = kernel_value(p, 1, x_in, w_out) (right factor)
    against axis 1 of samples (n1, n2, 4)."""
    g = _resolve_out_grid(p, gin, gout)
    if p.b == 0:
        k = kernel_value(p, 1, 0.0, g.coords())
        kq = from_complex_pair(k.real, k.imag)  # the j-plane quaternion
        cols = samples if p.a > 0 else samples[:, ::-1]
        return qmul(cols, kq[None, :, :]), g
    k = kernel_value(p, 1, gin.coords()[:, None], g.coords()[None, :])
    kq = from_complex_pair(k.real, k.imag)
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
        halves = _halves(*to_complex_pair(f.samples))
        P, M, o1, o2 = _two_sided_fast(p, *halves, g1, g2, o1, o2)
        S = P + M
        P -= M
        P *= -1j
        return QSignal2D(Grid2D.from_axes(o1, o2), from_complex_pair(S, P))
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
