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
  O(N^2 log N). The kernel maps halves to halves. Its axis plans (a
  `FastPlan`) and their 2D chirps depend only on the params and grids, so
  a Gabor pass builds them once for all its blocks; a lone transform
  builds each 2D chirp where `_lct2d` applies it.

For unimodular A the inversion kernel is K_{A^-1}(x, w) = conj K_A(w, x),
so the inverse transform is the forward transform with A^-1 on each axis,
on either path. On matched grids the discrete round trip is exact up to
rounding, which is far inside the stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.fft

from . import report
from .lct1d import (AxisPlan, LCTParams, _resolve_out_grid, axis_plan, axis_step,
                    kernel_value)
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

def _lct2d(plan1, plan2, g, chirps=None):
    """One separable 2D transform of g (..., n1, n2), which it overwrites:
    pre-chirp, one FFT2 when both axes run the same FFT (else each axis's
    step), post-chirp. The result is C-contiguous.

    chirps, the (pre, post) outer products of the plans' chirps, lets a
    pass build them once for all its blocks; without it each is built at
    its point of use, so one large transform never holds both."""
    g *= np.multiply.outer(plan1.pre, plan2.pre) if chirps is None else chirps[0]
    if plan1.step == plan2.step == "fft":
        spec = scipy.fft.fft2(g, overwrite_x=True, workers=plan1.workers)
    elif plan1.step == plan2.step == "ifft":
        spec = scipy.fft.ifft2(g, norm="forward", overwrite_x=True,
                               workers=plan1.workers)
    else:
        spec = axis_step(axis_step(g, plan1, -2), plan2, -1)
    out = spec if spec.flags.c_contiguous else np.empty(spec.shape, complex)
    post = np.multiply.outer(plan1.post, plan2.post) if chirps is None else chirps[1]
    return np.multiply(spec, post, out=out)


def _halves(qa, qb):
    """The halves qa + i*qb and qa - i*qb of qa + qb*j, C-ordered so that
    both FFTs and the post-chirps of `_two_sided_fast` run in place."""
    # u below v: freed as P then M, they merge into one heap top malloc trims
    u, v = np.empty(np.shape(qb), complex), np.empty(np.shape(qb), complex)
    np.multiply(1j, qb, out=v)
    return np.add(qa, v, out=u), np.subtract(qa, v, out=v)


def _join(P, M, qa, qb):
    """Write the planes qa = P + M and qb = -i*(P - M) of the halves
    (P, M) into the given views; P is overwritten."""
    np.add(P, M, out=qa)
    np.multiply(np.subtract(P, M, out=P), -1j, out=qb)


class FastPlan(NamedTuple):
    """The axis plans of `_two_sided_fast` for one set of params and grids:
    the left plan, its post-chirp carrying the exact 1/2 of the halves, and
    the right plans of kernel sign +1 and -1. A Gabor pass builds one, and
    its `chirps`, and reuses them for every block."""

    left: AxisPlan
    plus: AxisPlan
    minus: AxisPlan

    def chirps(self):
        """The 2D (pre, post) chirps of the P and the M transform."""
        return tuple((np.multiply.outer(self.left.pre, right.pre),
                      np.multiply.outer(self.left.post, right.post))
                     for right in (self.plus, self.minus))


def _fast_plan(p: QLCTParams, g1in, g2in, g1out=None, g2out=None) -> FastPlan:
    left = axis_plan(p.A1, 1, g1in, g1out)
    return FastPlan(left._replace(post=left.post / 2),
                    axis_plan(p.A2, 1, g2in, g2out), axis_plan(p.A2, -1, g2in, g2out))


def _two_sided_fast(plan: FastPlan, u, v, chirps=(None, None)):
    """Halves P = K(A1,+1; A2,+1)u/2 and M = K(A1,+1; A2,-1)v/2 over the
    last two axes, which overwrite the input halves u and v; chirps, if
    given, is `plan.chirps()`."""
    return (_lct2d(plan.left, plan.plus, u, chirps[0]),
            _lct2d(plan.left, plan.minus, v, chirps[1]))


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
        plan = _fast_plan(p, g1, g2, o1, o2)
        P, M = _two_sided_fast(plan, *_halves(*to_complex_pair(f.samples)))
        out = np.empty((*P.shape, 4))
        _join(P, M, *to_complex_pair(out))
        return QSignal2D(Grid2D.from_axes(plan.left.grid_out, plan.plus.grid_out), out)
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
