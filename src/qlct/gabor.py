"""Gabor (windowed) quaternion linear canonical transform.

The Gabor field of a signal f against a window phi is the two-sided
transform of the pointwise product x -> f(x) * conj(phi(x - y)), taken for
every grid-aligned translation y:

    G(omega, y) = QLCT{ f(.) conj(phi(. - y)) }(omega).

Translations are zero padded (the analysis lives on R^2, not a torus), so
windows are expected to have effective support in the grid interior.
Every translate comes from one sweep, `_translates`: a read-only strided
view of the window placed once in a zero buffer of twice its extent.
Synthesis divides by the squared window L^2 norm; with stride-1
translations and interior windows the reconstruction error is an edge
truncation effect that shrinks as the padding margin grows.

The fast path holds each row of the field as the transform halves P and
M of `qlct2d` (Ga = P + M, Gb = -i*(P - M) for G = Ga + Gb*j). With the
window halves alpha = conj(pa) - i*pb and beta = conj(pa) + i*pb of
phi = pa + pb*j, f*conj(phi) has the halves fa*alpha + i*fb*conj(beta)
and fa*beta - i*fb*conj(alpha), formed from one `_translates` sweep of
the four window planes; a real window's four planes are equal, so its
halves are (fa + i*fb)*phi and (fa - i*fb)*phi, from a sweep of one
plane. Consumers read |G|^2 = 2(|P|^2 + |M|^2), only `gabor_stream`
joins the planes, and synthesis windows the inverse halves directly:
H*phi = (P*conj(alpha) + M*conj(beta)) - i*(P*beta - M*alpha)*j. The
direct path windows each block of translations with `translate`, not the
sweep, so it checks the sweep too, and contracts it with `qlct2d._direct`
and the two kernel matrices it builds once per pass.

A pass builds its transform plan and its window-product buffers once,
folds the 2D pre-chirps, which depend on x alone, into the halves of f,
and runs each row of translations in blocks of about `BLOCK_BYTES` per
half, so that each elementwise pass works on data that stays in cache,
through the plan without its pre-chirps. The pre-chirps carry the kernel
amplitudes and every post-chirp is a unit phase, so `gabor_field_stats`,
which reads |G|^2 only, leaves the post-chirps out too: it reduces
|P|^2 + |M|^2 per translation while the block is in cache, sums the
(ny1, ny2) tables, so every sum keeps its bits whatever the block size,
and doubles the totals. With no j or k part in f or phi both halves are
fa*conj(pa), and with a2 = 0 the right axis's pre-chirp is a linear
phase, so the sign -1 kernel is the sign +1 kernel at -omega2, index
n2 - 1 - k of the centred grid: such a |G|^2 pass (every real Gaussian
one of `verify`) transforms P alone and reads M as P backwards along
omega2. A pass holds the f, phi and params it swept;
`gabor_plancherel_check` reads it.

The field is indexed y first, (ny1, ny2, nw1, nw2, 4), as the loop
yields it: (n1*n2)^2 quaternions, 32 MiB for a 32x32 signal and 16x that
for 64x64. Its unit is the y1 row, (ny2, nw1, nw2, 4), 1 MiB at 32x32:
`gabor_stream` joins the blocks of each row into one reused buffer,
`save_coefficients` writes each row as it comes, `load_coefficients`
reads them back one at a time, and synthesis and `spectrogram` consume
them in order, so no command holds more than a row of the field. Only
`gabor_analyze` builds the dense array, by collecting the rows, for
library use. The `qlct verify` suites stream through `iter_gabor_blocks`,
and none holds the (n1*n2)^2 float64 |G|^2 table (8 MiB at 32x32): a
`gabor_field_stats` pass hands out |G|^2 cells only through its `cells`
request, keeping block by block those at or above a floor set from the
windowed energy and those at given flat indices, and the concentration
masks read those cells (see `uncertainty`). A capture at or above the
field's energy has floor 0 and keeps the whole table, in flat order.

A coefficient directory, known to this module only, holds `coeffs.f64`
(the raw little-endian float64 field in `AXIS_ORDER`, shaped by the
manifest's grids and checked against its crc32), `window.qsig` and,
written last, `manifest.json`, which names that order.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from . import qlct2d, report
from .lct1d import Grid1D, LCTParams, kernel_matrix
from .quat import (from_complex_pair, pair_abs_sq, qabs_sq, qconj, qmul,
                   to_complex_pair)
# BLOCK_BYTES, the band of a 2D chirp in `qlct2d`, is also about the size of
# one half of a Gabor block, so each elementwise pass stays in a core's L2 cache
from .qlct2d import (BLOCK_BYTES, FastPlan, QLCTParams, _direct, _fast_plan, _halves,
                     _join, _two_sided_fast, forward_grid)
from .signal import (FormatError, Grid2D, GridMismatchError, NumericError, QSignal2D,
                     all_finite, check_payload_size, load, replacing, save, translate,
                     write_payload)


class RowStream:
    """A field of the given shape, made one row shape[1:] at a time.

    Iterating it makes a fresh pass of rows(), a callable returning an
    iterator; a pass reuses one buffer, so a row is valid only until the
    next. np.asarray(stream) collects the rows into a dense array."""

    def __init__(self, shape: tuple[int, ...], rows):
        self.shape = tuple(shape)
        self._rows = rows

    def __iter__(self):
        return iter(self._rows())

    def __array__(self, dtype=None, copy=None):
        out = np.empty(self.shape)
        for i, row in enumerate(self):
            out[i] = row
        return out if dtype is None else out.astype(dtype, copy=False)


@dataclass
class GaborCoefficients:
    """Gabor field G(omega, y), read one y1 row at a time.

    coeffs has shape (ny1, ny2, nw1, nw2, 4), indexed (y1, y2, omega1,
    omega2, component) like the |G|^2 table: the dense array, or a
    `RowStream` that computes or reads the rows again on each pass. y_grid
    carries the (possibly strided) translation spacing used as the
    quadrature weight in y.
    """

    omega_grid: Grid2D
    y_grid: Grid2D
    coeffs: np.ndarray | RowStream
    params: QLCTParams
    window_norm_sq: float
    stride: int = 1

    def rows(self):
        """The rows coeffs[iy1], (ny2, nw1, nw2, 4) each, in y1 order."""
        return iter(self.coeffs)


def translation_grid(grid: Grid2D, stride: int = 1) -> Grid2D:
    """Translations are whole multiples of the grid spacings, spanning the
    grid once with y = 0 included (at cell index n//2 for stride 1)."""
    largest = min(grid.n1, grid.n2) - 1
    if not 1 <= stride <= largest:
        raise ValueError(f"stride {stride} is not from 1 to {largest}, the largest that "
                         f"keeps 2 translations per axis of a {grid.n1}x{grid.n2} grid")
    y1, y2 = (Grid1D(len(range(0, g.n, stride)), stride * g.dx, -(g.n // 2) * g.dx)
              for g in grid.axes)
    return Grid2D.from_axes(y1, y2)


def _translates(planes: np.ndarray, stride: int = 1) -> np.ndarray:
    """Read-only view (k, ny1, ny2, n1, n2) of the zero-padded translates
    plane(x - y) of planes (k, n1, n2) for each kept y of
    `translation_grid(grid, stride)`: the translate with cell index l (a
    shift of l - n//2) is the window at n - 1 - l of the 2n - 1 padding."""
    _, n1, n2 = planes.shape
    padded = np.pad(planes, ((0, 0), (n1 - 1 - n1 // 2, n1 // 2),
                             (n2 - 1 - n2 // 2, n2 // 2)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (n1, n2), axis=(1, 2))
    return windows[:, ::-1, ::-1][:, ::stride, ::stride]


def _window_halves(phi: QSignal2D) -> np.ndarray:
    """Planes (alpha, beta, conj(alpha), conj(beta)) of phi = pa + pb*j,
    where conj(alpha) and conj(beta) are the halves pa +- i*conj(pb)."""
    pa, pb = to_complex_pair(phi.samples)
    calpha, cbeta = _halves(pa, np.conj(pb))
    return np.array([np.conj(calpha), np.conj(cbeta), calpha, cbeta])


def _y2_blocks(n_y2: int, cells: int) -> list[slice]:
    """The y2 slices of one row, each of as many translations as keep a
    half of `cells` complex samples per translation within BLOCK_BYTES."""
    step = max(1, BLOCK_BYTES // (16 * cells))
    return [slice(i, min(i + step, n_y2)) for i in range(0, n_y2, step)]


def iter_gabor_blocks(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                      y_stride: int = 1, method: str = "fast", post_chirp: bool = True):
    """Yield (iy1, y2_slice, P, M): the transform halves of the field at
    the y1 row iy1 and the y2 translations y2_slice (Ga = P + M,
    Gb = -i*(P - M), |G|^2 = 2(|P|^2 + |M|^2)), each of shape
    (len(y2 block), nw1, nw2). Each row comes in blocks of about
    `BLOCK_BYTES` per half, through one plan and buffers built once per
    pass, so P and M are valid only until the next `next()`.

    The fast branch folds the 2D pre-chirps into f once per pass and hands
    every block a plan whose pre-chirps are None; for a real window, whose
    four planes are equal, it forms each half with one multiply. With
    post_chirp=False the blocks' plan leaves out the post-chirps too, for a
    consumer of |G|^2 alone: they are unit phases, so the halves keep
    their moduli and |G|^2 = 2(|P|^2 + |M|^2) still holds. Such a pass
    with p.A2.a == 0 and no j or k part in f or phi has equal halves and
    a right pre-chirp that is a linear phase: it transforms P alone and
    yields M = P[..., ::-1], which is exact, since the sign -1 kernel is
    then the sign +1 kernel read at -omega2, index n2 - 1 - k."""
    if not f.grid.approx_eq(phi.grid):
        raise GridMismatchError("signal and window must share a grid")
    y_grid = translation_grid(f.grid, y_stride)
    blocks = _y2_blocks(y_grid.n2, f.grid.n1 * f.grid.n2)
    # the direct branch is the Gabor oracle, so only a known method reaches it;
    # it always yields the chirped halves
    if qlct2d._check_method(method) == "direct":
        (K1, _), (K2, _) = (kernel_matrix(A, 1, g) for A, g in zip((p.A1, p.A2), f.grid.axes))
        for iy1, y1 in enumerate(y_grid.coords1()):
            for sl in blocks:
                G = _direct(K1, K2, qmul(f.samples, qconj(np.stack(
                    [translate(phi, (y1, y2)).samples for y2 in y_grid.coords2()[sl]]))))
                yield (iy1, sl, *(h / 2 for h in _halves(*to_complex_pair(G))))
        return
    plan = _fast_plan(p, *f.grid.axes)
    pre_p, pre_m = (np.multiply.outer(plan.left.pre, right.pre)
                    for right in (plan.plus, plan.minus))
    plan = FastPlan(*(a._replace(pre=None, post=a.post if post_chirp else None)
                      for a in plan))
    fa, fb = to_complex_pair(f.samples)
    ifb = 1j * fb
    mirrored = not (post_chirp or p.A2.a or f.samples[..., 2:].any()
                    or phi.samples[..., 2:].any())
    # separate allocations, not one joint block: with a joint block, a 32x32
    # analyze-and-synthesize process peaked 2 MB higher in RSS
    u = np.empty((blocks[0].stop, *fa.shape), complex)
    v = None if mirrored else np.empty_like(u)
    if mirrored:
        # both halves are fa*conj(pa) and M is P's omega2 mirror (see the
        # docstring): one multiply and one transform per block
        sp = pre_p * fa
        pa = to_complex_pair(phi.samples)[0]
        planes = (pa.conj() if pa.imag.any() else pa.real)[None]

        def halves(w, k):
            P = qlct2d._lct2d(plan.left, plan.plus, np.multiply(sp, w[0], out=u[:k]))
            return P, P[..., ::-1]
    elif not phi.samples[..., 1:].any():
        # a real phi's four planes are equal: the halves of f*phi are
        # (fa + i*fb)*phi and (fa - i*fb)*phi, one multiply each
        sp, sm = pre_p * (fa + ifb), pre_m * (fa - ifb)
        planes = phi.samples[None, ..., 0]

        def halves(w, k):
            return _two_sided_fast(plan, np.multiply(sp, w[0], out=u[:k]),
                                   np.multiply(sm, w[0], out=v[:k]))
    else:
        pfa, pifb, mfa, mifb = pre_p * fa, pre_p * ifb, pre_m * fa, pre_m * ifb
        tmp = np.empty_like(u)
        planes = _window_halves(phi)

        def halves(w, k):
            alpha, beta, calpha, cbeta = w
            bu, bv, bt = u[:k], v[:k], tmp[:k]
            np.add(np.multiply(pfa, alpha, out=bu),
                   np.multiply(pifb, cbeta, out=bt), out=bu)
            np.subtract(np.multiply(mfa, beta, out=bv),
                        np.multiply(mifb, calpha, out=bt), out=bv)
            return _two_sided_fast(plan, bu, bv)
    sweep = _translates(planes, y_stride)
    for iy1 in range(y_grid.n1):
        for sl in blocks:
            yield (iy1, sl, *halves(sweep[:, iy1, sl], sl.stop - sl.start))


def _analysis_rows(shape, f, phi, p, y_stride, method):
    """Yield each y1 row of the field, the blocks of `iter_gabor_blocks`
    joined into one reused buffer of shape[1:]."""
    row = np.empty(shape[1:])
    ra, rb = to_complex_pair(row)
    for _, sl, P, M in iter_gabor_blocks(f, phi, p, y_stride, method):
        _join(P, M, ra[sl], rb[sl])
        if sl.stop == len(row):
            yield row


def gabor_stream(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                 y_stride: int = 1, method: str = "fast") -> GaborCoefficients:
    """Gabor analysis over the (strided) translation grid as a `RowStream`:
    each pass runs the blocked sweep again and holds one row at a time."""
    omega_grid = forward_grid(f.grid, p)
    y_grid = translation_grid(f.grid, y_stride)
    shape = (*y_grid.shape, *omega_grid.shape, 4)
    rows = RowStream(shape, lambda: _analysis_rows(shape, f, phi, p, y_stride, method))
    return GaborCoefficients(omega_grid, y_grid, rows, p, phi.l2_norm_sq(), y_stride)


def gabor_analyze(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                  y_stride: int = 1, method: str = "fast") -> GaborCoefficients:
    """Dense Gabor analysis: the rows of `gabor_stream`, collected."""
    G = gabor_stream(f, phi, p, y_stride, method)
    return dataclasses.replace(G, coeffs=np.asarray(G.coeffs))


def gabor_synthesize(G: GaborCoefficients, phi: QSignal2D) -> QSignal2D:
    """Reconstruct the signal from a stride-1 Gabor field.

    f(x) = (1/||phi||^2) sum_{omega,y} Kinv_i G(omega,y) Kinv_j phi(x-y)
           * domega * dy

    G.y_grid and G.omega_grid must be the grids that analysis against phi
    produces; any other grid raises ValueError.
    """
    if G.stride != 1:
        raise ValueError("synthesis requires stride-1 coefficients "
                         "covering every translation cell")
    if not G.y_grid.approx_eq(translation_grid(phi.grid, G.stride)):
        raise ValueError(f"y_grid {G.y_grid} is not the translation grid "
                         f"of the window grid {phi.grid}")
    if not G.omega_grid.approx_eq(forward_grid(phi.grid, G.params)):
        raise ValueError(f"omega_grid {G.omega_grid} is not the forward grid "
                         f"of the window grid {phi.grid}")
    norm_sq = phi.l2_norm_sq()
    if norm_sq == 0.0:
        raise ValueError("zero window: synthesis divides by ||phi||^2")
    # written so that a NaN or infinite recorded norm fails it too
    if not abs(norm_sq - G.window_norm_sq) <= 1e-9 * norm_sq:
        raise ValueError(
            f"window mismatch: ||phi||^2 = {norm_sq!r} but coefficients "
            f"were built with {G.window_norm_sq!r}")
    grid = phi.grid
    plan = _fast_plan(G.params.inverse(), *G.omega_grid.axes, *grid.axes)
    acc_a = np.zeros((grid.n1, grid.n2), dtype=complex)
    acc_b = np.zeros((grid.n1, grid.n2), dtype=complex)
    sweep = _translates(_window_halves(phi)).swapaxes(0, 1)
    # M becomes P calpha + M cbeta and P becomes P beta - M alpha in place, an
    # eighth of a row at a time through two buffers made once
    x, y = np.empty((2, max(1, G.y_grid.n2 // 8), grid.n1, grid.n2), dtype=complex)
    for iy1, row in enumerate(G.rows()):
        P, M = _two_sided_fast(plan, *_halves(*to_complex_pair(row)))
        for k in range(0, len(P), len(x)):
            p, m, n = P[k:k + len(x)], M[k:k + len(x)], min(len(x), len(P) - k)
            alpha, beta, calpha, cbeta = sweep[iy1, :, k:k + len(x)]
            np.multiply(p, calpha, out=x[:n])
            np.multiply(m, cbeta, out=y[:n])
            np.subtract(np.multiply(p, beta, out=p), np.multiply(m, alpha, out=m), out=p)
            np.add(x[:n], y[:n], out=m)
        acc_a += M.sum(axis=0)
        acc_b += P.sum(axis=0)
        del P, M, p, m  # the halves, freed before the next row's are made
    acc = from_complex_pair(acc_a, -1j * acc_b)
    acc *= G.y_grid.cell_area / norm_sq
    return QSignal2D(grid, acc)


def table_geometry(grid: Grid2D, p: QLCTParams, y_stride: int = 1) -> tuple[tuple, float]:
    """Shape (ny1, ny2, nw1, nw2) and cell volume domega dy of the |G|^2
    table of a pass over grid, known before the pass runs."""
    omega_grid, y_grid = forward_grid(grid, p), translation_grid(grid, y_stride)
    return (*y_grid.shape, *omega_grid.shape), omega_grid.cell_area * y_grid.cell_area


def cell_floor(energy: float, capture: float, n_cells: int, cell_volume: float) -> float:
    """The |G|^2 value at or above which the cells of a table of n_cells
    cells, with at least energy * (1 - 1e-6) of energy in all, carry more
    than `capture` of it: the cells below a floor t carry less than
    n_cells t cell_volume, so at t = (energy (1 - 2e-6) - capture) /
    (n_cells cell_volume) the rest carry more than capture + 1e-6 energy,
    room for the rounding of any sum of them. A capture at or below 0
    takes capture 0's floor, below the largest cell of such a table, and
    one at or above energy (1 - 2e-6) the floor 0, which keeps every cell."""
    return max((energy * (1.0 - 2e-6) - max(capture, 0.0)) / cell_volume / n_cells, 0.0)


def _kept_cells(block: np.ndarray, start: int, floor: float | None, wanted: np.ndarray):
    """(flat index, value) of the cells of block, the |G|^2 table from
    flat index start on, at or above floor (if any) or in wanted (sorted),
    in flat order."""
    flat = block.reshape(-1)
    keep = flat >= floor if floor is not None else np.zeros(flat.size, bool)
    lo, hi = np.searchsorted(wanted, (start, start + flat.size))
    keep[wanted[lo:hi] - start] = True
    at = np.flatnonzero(keep)
    return at + start, flat[at]


def gabor_field_stats(f: QSignal2D, phi: QSignal2D, p: QLCTParams, *,
                      s_values: tuple[float, ...] = (),
                      pprimes: tuple[float, ...] = (),
                      log_omega: bool = False, cells: tuple | None = None,
                      method: str = "fast", y_stride: int = 1) -> dict:
    """One streamed pass over the Gabor field collecting the weighted sums
    every check needs: total energy, sup |G|, |omega|/|y|/joint moments,
    p'-th power sums, the ln|omega| weighted energy and, with cells, the
    |G|^2 cells a mask reads.

    Each block's |P|^2 + |M|^2, without its unit-phase post-chirps, is
    reduced while it is in cache: one sum, max and `np.vecdot` per
    translation and omega-weight into (ny1, ny2) tables, whose sums are
    the totals; |G|^2 = 2(|P|^2 + |M|^2), so 2 then scales the totals,
    the peak and the cells, and 2^(p'/2) the p'-th power sums.
    For f and phi with no j or k part under a2 = 0, M is P's omega2
    mirror (see `iter_gabor_blocks`), so the pass runs half the FFTs and
    its |G|^2 is even in omega2 up to the order of its four squares.
    `plancherel_by_y_residual` is the largest gap between the energy of
    each translation, sum_omega |G(omega, y)|^2 domega, and
    `_windowed_energy`, over the largest right side; that estimate, taken
    before the loop, sums to `windowed_energy`.

    cells = (capture, indices) is the one way a pass hands out |G|^2
    cells. It keeps, block by block, those at or above
    `cell_floor(windowed_energy, capture, ...)` (none for a capture of
    None) and those at the flat indices `indices` of the table indexed
    (y1, y2, omega1, omega2), `table_shape`, as the flat-ordered arrays
    `cell_index` and `cell_value`, and records the capture as
    `cell_capture`. On a finite field, a capture near or above its energy
    (math.inf, say) has floor 0 and keeps every cell, so its `cell_value`
    is the whole table, flat.

    A sum not requested is None (empty for the per-order sums). `f`, `phi`,
    `params` and `method` are the inputs it swept, by reference. Every
    call is a fresh pass; `uncertainty.sweep_fields` makes one per field."""
    if not all(0.0 < s < math.inf for s in s_values):
        raise ValueError(f"moment orders s must be positive and finite, got {s_values}")
    if not all(0.0 < pp < math.inf for pp in pprimes):
        raise ValueError(f"powers p' must be positive and finite, got {pprimes}")
    omega_grid = forward_grid(f.grid, p)
    y_grid = translation_grid(f.grid, y_stride)
    table_shape, cellvol = table_geometry(f.grid, p, y_stride)
    n_cells = math.prod(table_shape)
    rhs = _windowed_energy(f, phi, y_stride)
    windowed = float(rhs.sum()) * y_grid.cell_area
    capture = cell_index = cell_value = None
    if cells is not None:
        capture, wanted = cells[0], np.unique(np.asarray(cells[1], dtype=np.int64))
        if wanted.size and not 0 <= wanted[0] <= wanted[-1] < n_cells:
            raise ValueError(f"cell indices must lie in [0, {n_cells}), the flat "
                             f"|G|^2 table of {table_shape}")
        floor = None if capture is None else cell_floor(windowed, capture, n_cells, cellvol)
        kept = []
    w1, w2 = omega_grid.meshgrid()
    omega_r2 = (w1**2 + w2**2).ravel()
    log_w = _log_radius(omega_grid).ravel() if log_omega else None
    y_r2 = y_grid.coords1()[:, None]**2 + y_grid.coords2()**2
    omega_weights = {s: omega_r2**s for s in s_values}
    # one entry per translation: sums over omega, each in its own order
    shape = y_grid.shape
    energy, peak, t_log = np.empty(shape), np.empty(shape), np.empty(shape)
    t_omega = {s: np.empty(shape) for s in s_values}
    t_joint = {s: np.empty(shape) for s in s_values}
    t_power = {pp: np.empty(shape) for pp in pprimes}
    buf = None
    for iy1, sl, P, M in iter_gabor_blocks(f, phi, p, y_stride, method, post_chirp=False):
        if buf is None:  # the first block is the largest
            buf = np.empty(P.shape)
            twice = np.empty(P.shape) if cells is not None else None
        mod2 = pair_abs_sq(P, M, out=buf[:len(P)]).reshape(len(P), -1)
        at = (iy1, sl)
        mod2.sum(axis=1, out=energy[at])
        mod2.max(axis=1, out=peak[at])
        for s in s_values:
            np.vecdot(mod2, omega_weights[s], out=t_omega[s][at])
            np.vecdot(mod2, (omega_r2 + y_r2[at][:, None])**s, out=t_joint[s][at])
        for pp in pprimes:
            (mod2**(pp / 2)).sum(axis=1, out=t_power[pp][at])
        if log_omega:
            np.vecdot(mod2, log_w, out=t_log[at])
        if cells is not None:
            block = np.multiply(mod2, 2.0, out=twice[:len(P)].reshape(mod2.shape))
            kept.append(_kept_cells(block, (iy1 * shape[1] + sl.start) * mod2.shape[1],
                                    floor, wanted))

    def total(t, scale=2.0):
        return float(t.sum()) * (scale * cellvol)

    energy_by_y = energy * (2.0 * omega_grid.cell_area)
    gap = np.max(np.abs(energy_by_y - rhs))
    if cells is not None:
        cell_index, cell_value = (np.concatenate(part) for part in zip(*kept))
        del kept
    return {
        "energy": total(energy),
        # 0 for a zero signal, which young_sup_check accepts
        "plancherel_by_y_residual": float(gap / np.max(rhs)) if gap else 0.0,
        "windowed_energy": windowed,
        "max_abs": math.sqrt(2.0 * float(peak.max())),
        "moment_omega": {s: total(t_omega[s]) for s in s_values},
        "moment_y": {s: total(y_r2**s * energy) for s in s_values},
        "moment_joint": {s: total(t_joint[s]) for s in s_values},
        "power_sums": {pp: total(t_power[pp], 2.0**(pp / 2)) for pp in pprimes},
        "log_omega_sum": total(t_log) if log_omega else None,
        "cell_index": cell_index, "cell_value": cell_value, "cell_capture": capture,
        "table_shape": table_shape,
        "cell_volume": cellvol, "method": method, "f": f, "phi": phi, "params": p,
    }


def _windowed_energy(f: QSignal2D, phi: QSignal2D, stride: int = 1) -> np.ndarray:
    """sum_x |f(x)|^2 |phi(x - y)|^2 dx for every translation y of
    `translation_grid(f.grid, stride)`, one y1 row of the sweep at a time."""
    f_mod2 = qabs_sq(f.samples)
    sweep = _translates(qabs_sq(phi.samples)[None], stride)[0]
    out = np.empty(sweep.shape[:2])
    for iy1, row in enumerate(sweep):
        out[iy1] = np.einsum("kxy,xy->k", row, f_mod2)
    return out * f.grid.cell_area


def _log_radius(grid) -> np.ndarray:
    x1, x2 = grid.meshgrid()
    r2 = x1**2 + x2**2
    if np.min(r2) == 0.0:
        raise ValueError("grid has a sample at the origin; "
                         "log weights need the centered half-cell offset")
    return 0.5 * np.log(r2)


def gabor_plancherel_check(stats: dict) -> report.InequalityReport:
    """Energy of a `gabor_field_stats` pass against ||f||^2 ||phi||^2 of
    the f and phi it swept."""
    f = stats["f"]
    return report.equality("gabor-plancherel", stats["energy"],
                           f.l2_norm_sq() * stats["phi"].l2_norm_sq(),
                           params={"method": stats["method"], **stats["params"].to_dict()},
                           grid=f.grid.to_dict())


def spectrogram(G: GaborCoefficients, kind: str,
                index: tuple[int, int] | None = None) -> np.ndarray:
    """Squared-modulus slice of the Gabor field.

    kind is one of fix_y, fix_omega (with a cell index pair), max_over_y,
    max_over_omega. fix_y and max_over_y return a field over omega;
    the others return a field over y. Every kind reads each row once, in
    order, so a stream's checks cover the whole field.
    """
    if kind in ("fix_y", "fix_omega"):
        name, grid = ("y", G.y_grid) if kind == "fix_y" else ("omega", G.omega_grid)
        i1, i2 = index
        if not (0 <= i1 < grid.n1 and 0 <= i2 < grid.n2):
            raise ValueError(f"{name} index {index} out of range {grid.n1}x{grid.n2}")
    elif kind not in ("max_over_y", "max_over_omega"):
        raise ValueError(f"unknown spectrogram slice kind {kind!r}")
    shape = G.y_grid.shape if kind in ("fix_omega", "max_over_omega") else G.omega_grid.shape
    out = np.full(shape, -np.inf) if kind == "max_over_y" else np.empty(shape)
    for iy1, row in enumerate(G.rows()):
        if kind == "fix_y":
            if iy1 == i1:
                out[...] = qabs_sq(row[i2])
        elif kind == "fix_omega":
            out[iy1] = qabs_sq(row[:, i1, i2])
        elif kind == "max_over_y":
            np.maximum(out, qabs_sq(row).max(axis=0), out=out)
        else:
            out[iy1] = qabs_sq(row).max(axis=(1, 2))
    return out


# ---------------------------------------------------------------------------
# exports

#: Axis order of `coeffs.f64`; a manifest naming none or another is refused.
AXIS_ORDER = ["y1", "y2", "omega1", "omega2", "component"]


#: The files of a coefficient directory.
DIRECTORY_FILES = ("coeffs.f64", "manifest.json", "window.qsig")


def save_coefficients(G: GaborCoefficients, phi: QSignal2D, dirpath) -> str:
    """Write the payload, then the window, then the manifest; return the
    manifest's path.

    The rows go one at a time through `replacing`, each checked finite
    and folded into the crc32 as it is written, so `coeffs.f64` is
    replaced only after the last row. A failed pass (a non-finite row
    raises NumericError) also removes every directory this call made, so
    the directory is left as it was found."""
    made, top = [], os.path.abspath(dirpath)
    while not os.path.exists(top):
        made.append(top)
        top = os.path.dirname(top)
    os.makedirs(dirpath, exist_ok=True)
    crc = 0
    try:
        with replacing(os.path.join(dirpath, "coeffs.f64")) as fh:
            for iy1, row in enumerate(G.rows()):
                row = np.ascontiguousarray(row, dtype="<f8")
                if not all_finite(row):
                    raise NumericError(f"non-finite coefficients in y1 row {iy1}; "
                                       f"nothing written to {dirpath}")
                crc = zlib.crc32(row, crc)
                write_payload(fh, row)
    except BaseException:
        for path in made:  # innermost first
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise
    save(os.path.join(dirpath, "window.qsig"), phi)
    manifest = {
        "omega_grid": G.omega_grid.to_dict(),
        "y_grid": G.y_grid.to_dict(),
        "params": G.params.to_dict(),
        "window_norm_sq": G.window_norm_sq,
        "stride": G.stride,
        "axis_order": AXIS_ORDER,
        "payload_crc32": crc,
    }
    path = os.path.join(dirpath, "manifest.json")
    with replacing(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
    return path


def _entry(value, kind: type = float):
    """A manifest number: int takes a JSON integer only, float any JSON number."""
    if type(value) not in ((int,) if kind is int else (int, float)):
        raise TypeError(f"{value!r} is not a JSON {'integer' if kind is int else 'number'}")
    return kind(value)


def load_coefficients(dirpath) -> tuple[GaborCoefficients, QSignal2D]:
    """Open a directory written by `save_coefficients` as (G, phi), where
    G.coeffs is a `RowStream` of `coeffs.f64`. A manifest that is not
    JSON, with a missing or invalid entry (an axis_order other than
    `AXIS_ORDER` included) or one of the wrong JSON type, or a payload
    whose size is not the one its grids give, raises FormatError here,
    before any row is read. Each pass reads one row at a time into one
    buffer and raises FormatError at a non-finite row, or after the last
    row when the payload's crc32 is not the manifest's."""
    path = os.path.join(dirpath, "manifest.json")
    try:  # an unreadable manifest raises OSError, which names its path
        with open(path, "rb") as fh:
            manifest = json.load(fh)
        omega_grid, y_grid = (Grid2D(*(_entry(g[k], int) for k in ("n1", "n2")),
                                     *(_entry(g[k]) for k in ("dx1", "dx2", "x0_1", "x0_2")))
                              for g in (manifest["omega_grid"], manifest["y_grid"]))
        params = QLCTParams(*(LCTParams(*map(_entry, manifest["params"][axis]))
                              for axis in ("A1", "A2")))
        window_norm_sq = _entry(manifest["window_norm_sq"])
        stride, crc = (_entry(manifest[key], int) for key in ("stride", "payload_crc32"))
        if manifest["axis_order"] != AXIS_ORDER:
            raise ValueError(f"axis_order {manifest['axis_order']!r} is not {AXIS_ORDER!r}")
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise FormatError(f"{path}: malformed manifest "
                          f"({type(exc).__name__}: {exc})") from None
    payload = os.path.join(dirpath, "coeffs.f64")
    shape = (*y_grid.shape, *omega_grid.shape, 4)
    with open(payload, "rb") as fh:
        check_payload_size(fh, shape, payload)
    rows = RowStream(shape, lambda: _stored_rows(payload, shape, crc))
    G = GaborCoefficients(omega_grid, y_grid, rows, params, window_norm_sq, stride)
    return G, load(os.path.join(dirpath, "window.qsig"))


def _stored_rows(path, shape, crc):
    """Yield the rows of the payload at path, each read into one reused
    buffer and checked finite; after the last, a running crc32 other than
    crc raises FormatError."""
    row = np.empty(shape[1:], "<f8")
    running = 0
    with open(path, "rb") as fh:
        check_payload_size(fh, shape, path)
        for _ in range(shape[0]):
            if fh.readinto(row) != row.nbytes:  # the file shrank since the check
                raise FormatError(f"{path}: truncated payload")
            if not all_finite(row):
                raise FormatError(f"{path}: non-finite values in payload")
            running = zlib.crc32(row, running)
            yield row
    if running != crc:
        raise FormatError(f"{path}: crc32 does not match the manifest's")


def export_pgm(field: np.ndarray, path) -> None:
    """8-bit binary PGM with linear min-max normalization; the (min, max)
    pair goes to a JSON sidecar so the scaling is reversible."""
    field = np.asarray(field, dtype=float)
    lo, hi = float(field.min()), float(field.max())
    span = hi - lo if hi > lo else 1.0
    levels = np.round((field - lo) / span * 255.0).astype(np.uint8)
    with replacing(path) as fh:
        fh.write(f"P5\n{field.shape[1]} {field.shape[0]}\n255\n".encode())
        fh.write(levels.tobytes())
    with replacing(str(path) + ".json", "w") as fh:
        json.dump({"min": lo, "max": hi, "rows": field.shape[0], "cols": field.shape[1]},
                  fh, sort_keys=True, indent=2)


def export_field_csv(field: np.ndarray, path) -> None:
    with replacing(path) as fh:
        np.savetxt(fh, np.asarray(field, dtype=float), delimiter=",", fmt="%.17g")
