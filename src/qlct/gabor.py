"""Gabor (windowed) quaternion linear canonical transform.

The Gabor field of a signal f against a window phi is the two-sided
transform of the pointwise product x -> f(x) * conj(phi(x - y)), taken for
every grid-aligned translation y:

    G(omega, y) = QLCT{ f(.) conj(phi(. - y)) }(omega).

Translations are zero padded (the analysis lives on R^2, not a torus), so
windows are expected to have effective support in the grid interior.
Synthesis divides by the squared window L^2 norm; with stride-1
translations and interior windows the reconstruction error is an edge
truncation effect that shrinks as the padding margin grows.

Full coefficient storage is (n1*n2)^2 quaternions: about 33 MB for a
32x32 signal and 16x that for 64x64. Larger runs should subsample with
y_stride or stream through `iter_gabor_blocks`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import report
from .lct1d import LCTParams
from .quat import from_complex_pair, qabs_sq, qconj, qmul, to_complex_pair
from .qlct2d import (QLCTParams, _axis_grids, _check_method, _two_sided_fast,
                     forward_grid, qlct_forward_direct, qlct_forward_fast)
from .signal import (FormatError, Grid2D, GridMismatchError, QSignal2D, load,
                     save, shift_slices, translate)


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

    def energy(self) -> float:
        return float(np.sum(self.coeffs * self.coeffs) * self.cell_volume)

    def scaled(self, alpha: float) -> "GaborCoefficients":
        return GaborCoefficients(self.omega_grid, self.y_grid,
                                 self.coeffs * float(alpha), self.params,
                                 self.window_norm_sq, self.stride)


def translation_grid(grid: Grid2D, stride: int = 1) -> Grid2D:
    """Translations are whole multiples of the grid spacings, spanning the
    grid once with y = 0 included (at cell index n//2 for stride 1)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    n1 = len(range(0, grid.n1, stride))
    n2 = len(range(0, grid.n2, stride))
    return Grid2D(n1, n2, stride * grid.dx1, stride * grid.dx2,
                  -(grid.n1 // 2) * grid.dx1, -(grid.n2 // 2) * grid.dx2)


def gabor_analyze_at(f: QSignal2D, phi: QSignal2D, y: tuple[float, float],
                     p: QLCTParams, method: str = "fast") -> QSignal2D:
    """Gabor field at a single translation: QLCT of f(.) * conj(phi(. - y))."""
    if not f.grid.approx_eq(phi.grid):
        raise GridMismatchError("signal and window must share a grid")
    windowed = QSignal2D(f.grid, qmul(f.samples, qconj(translate(phi, y).samples)))
    fwd = qlct_forward_fast if _check_method(method) == "fast" else qlct_forward_direct
    return fwd(windowed, p)


def _shifted_block(arr: np.ndarray, m1: int, m2_list, n1: int, n2: int):
    """Zero-padded translates arr(x - y) for one y1 row, all kept y2."""
    block = np.zeros((len(m2_list), n1, n2, 4))
    d1, s1 = shift_slices(m1, n1)
    for idx, m2 in enumerate(m2_list):
        d2, s2 = shift_slices(m2, n2)
        block[idx, d1, d2] = arr[s1, s2]
    return block


def iter_gabor_blocks(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                      y_stride: int = 1, method: str = "fast"):
    """Yield (iy1, block) with block shape (ny2, nw1, nw2, 4), one y1 row at
    a time, without materializing the full 4D field."""
    if not f.grid.approx_eq(phi.grid):
        raise GridMismatchError("signal and window must share a grid")
    _check_method(method)
    grid = f.grid
    g1, g2 = _axis_grids(grid)
    phi_conj = qconj(phi.samples)
    l1_list = range(0, grid.n1, y_stride)
    l2_list = range(0, grid.n2, y_stride)
    m2_list = [l2 - grid.n2 // 2 for l2 in l2_list]
    for iy1, l1 in enumerate(l1_list):
        m1 = l1 - grid.n1 // 2
        shifted = _shifted_block(phi_conj, m1, m2_list, grid.n1, grid.n2)
        products = qmul(f.samples[None, :, :, :], shifted)
        if method == "fast":
            fa, fb = to_complex_pair(products)
            fa, fb, _, _ = _two_sided_fast(p, fa, fb, g1, g2)
            yield iy1, from_complex_pair(fa, fb)
        else:
            rows = [qlct_forward_direct(QSignal2D(grid, products[i]), p).samples
                    for i in range(products.shape[0])]
            yield iy1, np.stack(rows, axis=0)


def gabor_analyze(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                  y_stride: int = 1, method: str = "fast") -> GaborCoefficients:
    """Dense Gabor analysis over the (strided) translation grid."""
    omega_grid = forward_grid(f.grid, p)
    y_grid = translation_grid(f.grid, y_stride)
    coeffs = np.empty((omega_grid.n1, omega_grid.n2, y_grid.n1, y_grid.n2, 4))
    for iy1, block in iter_gabor_blocks(f, phi, p, y_stride, method):
        coeffs[:, :, iy1, :, :] = np.moveaxis(block, 0, 2)
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
    if abs(norm_sq - G.window_norm_sq) > 1e-9 * max(norm_sq, G.window_norm_sq):
        raise ValueError(
            f"window mismatch: ||phi||^2 = {norm_sq!r} but coefficients "
            f"were built with {G.window_norm_sq!r}")
    grid = phi.grid
    g1, g2 = _axis_grids(grid)
    w1, w2 = _axis_grids(G.omega_grid)
    pinv = G.params.inverse()
    acc = np.zeros((grid.n1, grid.n2, 4))
    m2_list = [l2 - grid.n2 // 2 for l2 in range(grid.n2)]
    phi_plain = phi.samples
    for iy1 in range(G.y_grid.n1):
        block = np.moveaxis(G.coeffs[:, :, iy1], 2, 0)  # (ny2, nw1, nw2, 4)
        fa, fb = to_complex_pair(block)
        fa, fb, _, _ = _two_sided_fast(pinv, fa, fb, w1, w2, g1, g2)
        h = from_complex_pair(fa, fb)
        m1 = iy1 - grid.n1 // 2
        shifted = _shifted_block(phi_plain, m1, m2_list, grid.n1, grid.n2)
        acc += qmul(h, shifted).sum(axis=0)
    acc *= G.y_grid.cell_area / norm_sq
    return QSignal2D(grid, acc)


def gabor_plancherel_check(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                           method: str = "fast") -> report.InequalityReport:
    """Gabor energy against ||f||^2 ||phi||^2, streamed over y rows."""
    omega_grid = forward_grid(f.grid, p)
    y_grid = translation_grid(f.grid, 1)
    cellvol = omega_grid.cell_area * y_grid.cell_area
    energy = 0.0
    for _, block in iter_gabor_blocks(f, phi, p, 1, method):
        energy += float(np.sum(block * block))
    lhs = energy * cellvol
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

def save_coefficients(G: GaborCoefficients, dirpath) -> str:
    """Write one QSIG file per translation cell plus a JSON manifest."""
    os.makedirs(dirpath, exist_ok=True)
    slices = []
    for iy1 in range(G.y_grid.n1):
        for iy2 in range(G.y_grid.n2):
            fname = f"slice_{iy1:04d}_{iy2:04d}.qsig"
            save(os.path.join(dirpath, fname),
                 QSignal2D(G.omega_grid, G.coeffs[:, :, iy1, iy2, :]))
            slices.append({"iy1": iy1, "iy2": iy2, "file": fname})
    manifest = {
        "omega_grid": G.omega_grid.to_dict(),
        "y_grid": G.y_grid.to_dict(),
        "params": G.params.to_dict(),
        "window_norm_sq": G.window_norm_sq,
        "stride": G.stride,
        "slices": slices,
    }
    path = os.path.join(dirpath, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
    return path


def load_coefficients(dirpath) -> GaborCoefficients:
    """Read a directory written by `save_coefficients`. A manifest with a
    missing key, a translation cell listed out of range or other than
    exactly once, or a slice off `omega_grid` raises FormatError."""
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
        files = {}
        for entry in manifest["slices"]:
            cell = (int(entry["iy1"]), int(entry["iy2"]))
            if not (0 <= cell[0] < y_grid.n1 and 0 <= cell[1] < y_grid.n2):
                raise FormatError(f"{path}: slice {cell} is outside the "
                                  f"{y_grid.n1}x{y_grid.n2} translation grid")
            if cell in files:
                raise FormatError(f"{path}: slice {cell} is listed twice")
            files[cell] = str(entry["file"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed manifest "
                          f"({type(exc).__name__}: {exc})") from None
    if len(files) != y_grid.n1 * y_grid.n2:
        raise FormatError(f"{path}: {len(files)} slices listed for a "
                          f"{y_grid.n1}x{y_grid.n2} translation grid")
    coeffs = np.zeros((omega_grid.n1, omega_grid.n2, y_grid.n1, y_grid.n2, 4))
    for (iy1, iy2), fname in files.items():
        sig = load(os.path.join(dirpath, fname))
        if sig.grid != omega_grid:
            raise FormatError(f"{fname}: slice grid {sig.grid} is not the "
                              f"manifest's omega_grid {omega_grid}")
        coeffs[:, :, iy1, iy2, :] = sig.samples
    return GaborCoefficients(omega_grid, y_grid, coeffs, params,
                             window_norm_sq, stride)


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
