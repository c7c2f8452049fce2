"""Two-sided 2D quaternion linear canonical transform.

The transform applies an i-plane kernel on the left along axis 1 and a
j-plane kernel on the right along axis 2:

    F(u) = sum_t K_i(t1, u1) * f(t) * K_j(t2, u2) * dx1 * dx2

with the quaternion products in exactly that order. Axes with b = 0
degenerate to the chirp-weighted rescaling branch of `lct1d`.

Two independent realizations are provided:

* `qlct_forward_direct` / method="direct": the quadrature oracle, one
  `lct1d.kernel_matrix` per axis (built once per Gabor pass) and one
  contraction, `_direct`: the i-plane K1 is complex-linear, so it maps
  f = qa + qb*j to la + lb*j = K1 qa + (K1 qb)*j, and with C + i*S = K2^T
  Hamilton's rules give (la C - lb S) + (la S + lb C)*j. No FFT, no chirps.
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
  separable 2D transforms (chirp * one FFT per axis * chirp) per
  transform, cost O(N^2 log N), mapping halves to halves. `_lct2d` applies
  each 2D chirp, the outer product of the axis plans' chirps (a
  `FastPlan`), one band of about `BLOCK_BYTES` of rows at a time, and
  skips one the plans set to None. The pre-chirps carry the kernel
  amplitudes and every post-chirp is a unit phase, so a Gabor pass folds
  the pre-chirps into its signal and, when it reads only |G|^2, drops the
  post-chirps from the one plan all its blocks share.

For unimodular A the inversion kernel is K_{A^-1}(x, w) = conj K_A(w, x),
so the inverse transform is the forward transform with A^-1 on each axis,
on either path. On matched grids the discrete round trip is exact up to
rounding, which is far inside the stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import report
from .lct1d import (AxisPlan, LCTParams, _resolve_out_grid, axis_plan, axis_step,
                    kernel_matrix)
# bench/tracing.py wraps these names here; no qlct2d code calls them
from .lct1d import lct_fast, lct_scale_chirp  # noqa: F401
from .quat import qmul  # noqa: F401
from .quat import from_complex_pair, to_complex_pair
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

#: Bytes of one cache-sized piece of work: a band of a 2D chirp in `_lct2d`
#: and one half of a Gabor block (`gabor`), sized to fit a core's L2 cache.
BLOCK_BYTES = 1 << 19


def _chirp(g, c1, c2):
    """Multiply g (..., n1, n2) in place by the 2D chirp outer(c1, c2), built
    one band of at most BLOCK_BYTES of rows at a time; returns g."""
    step = max(1, BLOCK_BYTES // (16 * len(c2)))
    for i in range(0, len(c1), step):
        g[..., i:i + step, :] *= np.multiply.outer(c1[i:i + step], c2)
    return g


def _lct2d(plan1, plan2, g):
    """One separable 2D transform of g (..., n1, n2), which it overwrites:
    pre-chirp, one FFT per b != 0 axis, post-chirp; the result is C-contiguous.

    Each 2D chirp is the outer product of the two plans' chirps, applied by
    `_chirp` one band of rows at a time, so no transform holds a full-size
    chirp; a plan pair whose pre (or post) is None skips that multiply."""
    if plan1.pre is not None:
        _chirp(g, plan1.pre, plan2.pre)
    spec = np.ascontiguousarray(axis_step(axis_step(g, plan1, -2), plan2, -1))
    return spec if plan1.post is None else _chirp(spec, plan1.post, plan2.post)


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
    the left plan, its pre-chirp carrying the exact 1/2 of the halves, and
    the right plans of kernel sign +1 and -1. Every post-chirp is a unit
    phase, so halves that leave them out keep their moduli. A Gabor pass
    builds one and reuses it, with the chirps it skips set to None, for
    every block."""

    left: AxisPlan
    plus: AxisPlan
    minus: AxisPlan


def _fast_plan(p: QLCTParams, g1in, g2in, g1out=None, g2out=None) -> FastPlan:
    left = axis_plan(p.A1, 1, g1in, g1out)
    return FastPlan(left._replace(pre=left.pre / 2),
                    axis_plan(p.A2, 1, g2in, g2out), axis_plan(p.A2, -1, g2in, g2out))


def _two_sided_fast(plan: FastPlan, u, v):
    """Halves P = K(A1,+1; A2,+1)u/2 and M = K(A1,+1; A2,-1)v/2 over the
    last two axes, which overwrite the input halves u and v."""
    return _lct2d(plan.left, plan.plus, u), _lct2d(plan.left, plan.minus, v)


# ---------------------------------------------------------------------------
# both paths

def _direct(K1, K2, q):
    """The quadrature sums K1[u1, t1] q[t] K2[u2, t2] over the sample axes
    of q (..., n1, n2, 4), K1 an i-plane and K2 a j-plane kernel matrix."""
    qa, qb = to_complex_pair(q)
    la, lb = K1 @ qa, K1 @ qb
    C, S = K2.real.T, K2.imag.T
    return from_complex_pair(la @ C - lb @ S, la @ S + lb @ C)


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
    (K1, o1), (K2, o2) = kernel_matrix(p.A1, 1, g1, o1), kernel_matrix(p.A2, 1, g2, o2)
    return QSignal2D(Grid2D.from_axes(o1, o2), _direct(K1, K2, f.samples))


def qlct_forward_fast(f: QSignal2D, p: QLCTParams) -> QSignal2D:
    """Forward transform, O(N^2 log N); equals the direct oracle to 1e-9."""
    return _two_sided(f, p, "fast")


def qlct_forward_direct(f: QSignal2D, p: QLCTParams) -> QSignal2D:
    """Forward transform by explicit kernel quadrature (reference path)."""
    return _two_sided(f, p, "direct")


def qlct_forward(f: QSignal2D, p: QLCTParams, method: str = "fast") -> QSignal2D:
    """Forward transform by the named path; each path is looked up here at
    call time, so a wrapper of either module-level name sees every call."""
    fwd = qlct_forward_fast if _check_method(method) == "fast" else qlct_forward_direct
    return fwd(f, p)


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
    F = qlct_forward(f, p, method)
    lhs = f.l2_norm_sq()
    rhs = F.l2_norm_sq()
    return report.equality("qlct-plancherel", lhs, rhs,
                           params={"method": method, **p.to_dict()},
                           grid=f.grid.to_dict())
