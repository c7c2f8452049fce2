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
the four window planes. Consumers read |G|^2 = 2(|P|^2 + |M|^2), only
`gabor_analyze` joins the planes, and synthesis windows the inverse
halves directly: H*phi = (P*conj(alpha) + M*conj(beta))
- i*(P*beta - M*alpha)*j. The direct path evaluates each translation
with `gabor_analyze_at`, so it checks the sweep as well as the transform.

A pass builds its transform plans, their 2D chirps and its
window-product buffers once, then runs each row of translations in blocks
of about `BLOCK_BYTES` per half, so that each elementwise pass works on
data that stays in cache. `iter_abs_sq_blocks` hands each block's |G|^2
to its consumer while it is still in cache, one row per translation;
consumers reduce each translation on its own and then sum the (ny1, ny2)
tables, so every sum keeps its bits whatever the block size.

Full coefficient storage is (n1*n2)^2 quaternions: about 33 MB for a
32x32 signal and 16x that for 64x64. Larger runs should subsample with
y_stride or stream through `iter_gabor_blocks`.

A coefficient directory, known to this module only, holds `coeffs.f64`
(the raw little-endian float64 field, shaped by the manifest's grids and
checked against its crc32), `window.qsig` and, written last,
`manifest.json`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass

import numpy as np

from . import report
from .lct1d import Grid1D, LCTParams
from .quat import (from_complex_pair, pair_abs_sq, qabs_sq, qconj, qmul,
                   to_complex_pair)
from .qlct2d import (QLCTParams, _check_method, _fast_plan, _halves, _join,
                     _two_sided_fast, forward_grid, qlct_forward_direct,
                     qlct_forward_fast)
from .signal import (FormatError, Grid2D, GridMismatchError, QSignal2D, load,
                     read_payload, save, translate, write_payload)


@dataclass
class GaborCoefficients:
    """Dense Gabor field G(omega, y).

    coeffs has shape (nw1, nw2, ny1, ny2, 4), indexed (omega1, omega2,
    y1, y2, component). y_grid carries the (possibly strided) translation
    spacing used as the quadrature weight in y.
    """

    omega_grid: Grid2D
    y_grid: Grid2D
    coeffs: np.ndarray
    params: QLCTParams
    window_norm_sq: float
    stride: int = 1

    @property
    def cell_volume(self) -> float:
        return self.omega_grid.cell_area * self.y_grid.cell_area

    def modulus_sq(self) -> np.ndarray:
        return qabs_sq(self.coeffs)

    def scaled(self, alpha: float) -> "GaborCoefficients":
        return GaborCoefficients(self.omega_grid, self.y_grid,
                                 self.coeffs * float(alpha), self.params,
                                 self.window_norm_sq, self.stride)


def translation_grid(grid: Grid2D, stride: int = 1) -> Grid2D:
    """Translations are whole multiples of the grid spacings, spanning the
    grid once with y = 0 included (at cell index n//2 for stride 1)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    y1, y2 = (Grid1D(len(range(0, g.n, stride)), stride * g.dx, -(g.n // 2) * g.dx)
              for g in grid.axes)
    return Grid2D.from_axes(y1, y2)


def gabor_analyze_at(f: QSignal2D, phi: QSignal2D, y: tuple[float, float],
                     p: QLCTParams, method: str = "fast") -> QSignal2D:
    """Gabor field at a single translation: QLCT of f(.) * conj(phi(. - y))."""
    if not f.grid.approx_eq(phi.grid):
        raise GridMismatchError("signal and window must share a grid")
    windowed = QSignal2D(f.grid, qmul(f.samples, qconj(translate(phi, y).samples)))
    fwd = qlct_forward_fast if _check_method(method) == "fast" else qlct_forward_direct
    return fwd(windowed, p)


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


#: Bytes of one half of a Gabor block. A pass transforms each row of
#: translations in blocks of about this size, so that each elementwise pass
#: works on data that fits in a core's L2 cache.
BLOCK_BYTES = 1 << 19


def _y2_blocks(n_y2: int, cells: int) -> list[slice]:
    """The y2 slices of one row, each of as many translations as keep a
    half of `cells` complex samples per translation within BLOCK_BYTES."""
    step = max(1, BLOCK_BYTES // (16 * cells))
    return [slice(i, min(i + step, n_y2)) for i in range(0, n_y2, step)]


def iter_gabor_blocks(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                      y_stride: int = 1, method: str = "fast"):
    """Yield (iy1, y2_slice, P, M): the transform halves of the field at
    the y1 row iy1 and the y2 translations y2_slice (Ga = P + M,
    Gb = -i*(P - M), |G|^2 = 2(|P|^2 + |M|^2)), each of shape
    (len(y2 block), nw1, nw2). Each row comes in blocks of about
    `BLOCK_BYTES` per half, through plans, chirps and buffers built once
    per pass, so P and M are valid only until the next `next()`."""
    if not f.grid.approx_eq(phi.grid):
        raise GridMismatchError("signal and window must share a grid")
    y_grid = translation_grid(f.grid, y_stride)
    blocks = _y2_blocks(y_grid.n2, f.grid.n1 * f.grid.n2)
    if _check_method(method) == "direct":
        y2c = y_grid.coords2()
        for iy1, y1 in enumerate(y_grid.coords1()):
            for sl in blocks:
                rows = np.stack([gabor_analyze_at(f, phi, (y1, y2), p, "direct").samples
                                 for y2 in y2c[sl]])
                yield (iy1, sl, *(h / 2 for h in _halves(*to_complex_pair(rows))))
        return
    fa, fb = to_complex_pair(f.samples)
    ifb = 1j * fb
    plan = _fast_plan(p, *f.grid.axes)
    chirps = plan.chirps()
    # three allocations, not one (3, ...) block: with the joint block, a
    # 32x32 analyze-and-synthesize process peaked 2 MB higher in RSS
    u, v, tmp = (np.empty((blocks[0].stop, *fa.shape), complex) for _ in range(3))
    sweep = _translates(_window_halves(phi), y_stride).swapaxes(0, 1)
    for iy1, (alpha, beta, calpha, cbeta) in enumerate(sweep):
        for sl in blocks:
            k = sl.stop - sl.start
            bu, bv, bt = u[:k], v[:k], tmp[:k]
            np.add(np.multiply(fa, alpha[sl], out=bu),
                   np.multiply(ifb, cbeta[sl], out=bt), out=bu)
            np.subtract(np.multiply(fa, beta[sl], out=bv),
                        np.multiply(ifb, calpha[sl], out=bt), out=bv)
            yield (iy1, sl, *_two_sided_fast(plan, bu, bv, chirps))


def iter_abs_sq_blocks(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                       y_stride: int = 1, method: str = "fast"):
    """Yield (iy1, y2_slice, mod2) for each block of `iter_gabor_blocks`:
    |G|^2 = 2(|P|^2 + |M|^2) as a (k, nw1*nw2) array, one row per
    translation, in one buffer per pass that the next block overwrites."""
    buf = None
    for iy1, sl, P, M in iter_gabor_blocks(f, phi, p, y_stride, method):
        if buf is None:  # the first block is the largest
            buf = np.empty(P.shape)
        mod2 = pair_abs_sq(P, M, out=buf[:len(P)])
        mod2 *= 2
        yield iy1, sl, mod2.reshape(len(P), -1)


def gabor_analyze(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                  y_stride: int = 1, method: str = "fast") -> GaborCoefficients:
    """Dense Gabor analysis over the (strided) translation grid."""
    omega_grid = forward_grid(f.grid, p)
    y_grid = translation_grid(f.grid, y_stride)
    coeffs = np.empty((omega_grid.n1, omega_grid.n2, y_grid.n1, y_grid.n2, 4))
    ca, cb = to_complex_pair(coeffs)
    for iy1, sl, P, M in iter_gabor_blocks(f, phi, p, y_stride, method):
        # in the coefficients' axis order, so that each write runs along y2
        _join(np.moveaxis(P, 0, 2), np.moveaxis(M, 0, 2),
              ca[:, :, iy1, sl], cb[:, :, iy1, sl])
    return GaborCoefficients(omega_grid, y_grid, coeffs, p,
                             phi.l2_norm_sq(), y_stride)


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
    ga, gb = to_complex_pair(G.coeffs)
    for iy1, (alpha, beta, calpha, cbeta) in enumerate(sweep):
        halves = _halves(*(np.moveaxis(c[:, :, iy1], 2, 0) for c in (ga, gb)))
        P, M = _two_sided_fast(plan, *halves)
        acc_a += (P * calpha + M * cbeta).sum(axis=0)
        acc_b += (P * beta - M * alpha).sum(axis=0)
    acc = from_complex_pair(acc_a, -1j * acc_b)
    acc *= G.y_grid.cell_area / norm_sq
    return QSignal2D(grid, acc)


def gabor_plancherel_check(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                           method: str = "fast") -> report.InequalityReport:
    """Gabor energy against ||f||^2 ||phi||^2, streamed over the blocks;
    its lhs is summed as `uncertainty.gabor_field_stats` sums its energy."""
    omega_grid = forward_grid(f.grid, p)
    y_grid = translation_grid(f.grid, 1)
    cellvol = omega_grid.cell_area * y_grid.cell_area
    energy = np.empty(y_grid.shape)
    for iy1, sl, mod2 in iter_abs_sq_blocks(f, phi, p, 1, method):
        mod2.sum(axis=1, out=energy[iy1, sl])
    lhs = float(energy.sum()) * cellvol
    rhs = f.l2_norm_sq() * phi.l2_norm_sq()
    return report.equality("gabor-plancherel", lhs, rhs,
                           params={"method": method, **p.to_dict()},
                           grid=f.grid.to_dict())


def spectrogram(G: GaborCoefficients, kind: str,
                index: tuple[int, int] | None = None) -> np.ndarray:
    """Squared-modulus slice of the Gabor field.

    kind is one of fix_y, fix_omega (with a cell index pair), max_over_y,
    max_over_omega. fix_y and max_over_y return a field over omega;
    the others return a field over y.
    """
    mod2 = G.modulus_sq()
    if kind == "fix_y":
        i1, i2 = index
        if not (0 <= i1 < G.y_grid.n1 and 0 <= i2 < G.y_grid.n2):
            raise ValueError(f"y index {index} out of range "
                             f"{G.y_grid.n1}x{G.y_grid.n2}")
        return mod2[:, :, i1, i2]
    if kind == "fix_omega":
        i1, i2 = index
        if not (0 <= i1 < G.omega_grid.n1 and 0 <= i2 < G.omega_grid.n2):
            raise ValueError(f"omega index {index} out of range "
                             f"{G.omega_grid.n1}x{G.omega_grid.n2}")
        return mod2[i1, i2, :, :]
    if kind == "max_over_y":
        return mod2.max(axis=(2, 3))
    if kind == "max_over_omega":
        return mod2.max(axis=(0, 1))
    raise ValueError(f"unknown spectrogram slice kind {kind!r}")


# ---------------------------------------------------------------------------
# exports

def save_coefficients(G: GaborCoefficients, phi: QSignal2D, dirpath) -> str:
    """Write the payload, then the window, then the manifest; return the
    manifest's path."""
    os.makedirs(dirpath, exist_ok=True)
    payload = np.ascontiguousarray(G.coeffs, dtype="<f8")
    with open(os.path.join(dirpath, "coeffs.f64"), "wb") as fh:
        write_payload(fh, payload)
    save(os.path.join(dirpath, "window.qsig"), phi)
    manifest = {
        "omega_grid": G.omega_grid.to_dict(),
        "y_grid": G.y_grid.to_dict(),
        "params": G.params.to_dict(),
        "window_norm_sq": G.window_norm_sq,
        "stride": G.stride,
        "payload_crc32": zlib.crc32(payload),
    }
    path = os.path.join(dirpath, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
    return path


def load_coefficients(dirpath) -> tuple[GaborCoefficients, QSignal2D]:
    """Read a directory written by `save_coefficients` as (G, phi). A
    manifest with a missing or malformed entry, or a payload whose size is
    not the one its grids give or whose crc32 is not the manifest's,
    raises FormatError."""
    path = os.path.join(dirpath, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    try:
        omega_grid = Grid2D.from_dict(manifest["omega_grid"])
        y_grid = Grid2D.from_dict(manifest["y_grid"])
        params = QLCTParams(LCTParams(*manifest["params"]["A1"]),
                            LCTParams(*manifest["params"]["A2"]))
        window_norm_sq = float(manifest["window_norm_sq"])
        stride = int(manifest["stride"])
        crc = int(manifest["payload_crc32"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed manifest "
                          f"({type(exc).__name__}: {exc})") from None
    payload = os.path.join(dirpath, "coeffs.f64")
    with open(payload, "rb") as fh:
        coeffs = read_payload(fh, (*omega_grid.shape, *y_grid.shape, 4), payload)
    if zlib.crc32(coeffs) != crc:
        raise FormatError(f"{payload}: crc32 does not match the manifest's")
    G = GaborCoefficients(omega_grid, y_grid, coeffs, params, window_norm_sq, stride)
    return G, load(os.path.join(dirpath, "window.qsig"))


def export_pgm(field: np.ndarray, path) -> None:
    """8-bit binary PGM with linear min-max normalization; the (min, max)
    pair goes to a JSON sidecar so the scaling is reversible."""
    field = np.asarray(field, dtype=float)
    lo, hi = float(field.min()), float(field.max())
    span = hi - lo if hi > lo else 1.0
    levels = np.round((field - lo) / span * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{field.shape[1]} {field.shape[0]}\n255\n".encode())
        fh.write(levels.tobytes())
    with open(str(path) + ".json", "w") as fh:
        json.dump({"min": lo, "max": hi,
                   "rows": field.shape[0], "cols": field.shape[1]},
                  fh, sort_keys=True, indent=2)


def export_field_csv(field: np.ndarray, path) -> None:
    np.savetxt(path, np.asarray(field, dtype=float), delimiter=",", fmt="%.17g")
