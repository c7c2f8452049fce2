"""Sampled 2D quaternion signals: grids, quadrature, windows, and file I/O.

A signal lives on a uniform rectangular grid whose two axes are each a
`lct1d.Grid1D`: sample k on an axis sits at x = x0 + k*dx, and that class
alone decides whether an axis is valid and when two axes match. The
centered factory puts x0 = -(n/2 - 1/2)*dx so the origin falls between the
two middle samples and no sample has |x| = 0, which keeps log-weighted
integrals finite. All L^2 quantities are Riemann sums with
weight dx1*dx2.

On-disk formats:

* QSIG (binary, little-endian): magic "QSIG", u32 version = 1, u32 n1,
  u32 n2, f64 x0_1, f64 x0_2, f64 dx1, f64 dx2, then n1*n2 records of

  4 f64 (w, x, y, z), row-major with axis 1 outermost. Lossless.
* CSV: header ``x1,x2,qw,qx,qy,qz``, one row per sample in the same
  row-major order; grid geometry is inferred and must be uniform to 1e-9
  relative.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

from .lct1d import Grid1D
from .quat import qconj, qmul

_QSIG_MAGIC = b"QSIG"
_QSIG_VERSION = 1
_QSIG_HEADER = struct.Struct("<4sIIIdddd")
_MAX_DIM = 2**24  # per-axis sanity cap for file headers


class FormatError(ValueError):
    """Malformed QSIG or CSV payload."""


class GridMismatchError(ValueError):
    """Operands that must share a grid do not."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform 2D sampling grid: the product of two `Grid1D` axes, which
    decide what a valid grid is and when two grids match."""

    n1: int
    n2: int
    dx1: float
    dx2: float
    x0_1: float
    x0_2: float

    axes: tuple[Grid1D, Grid1D] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # building the axes validates them
        object.__setattr__(self, "axes", (Grid1D(self.n1, self.dx1, self.x0_1),
                                          Grid1D(self.n2, self.dx2, self.x0_2)))

    @staticmethod
    def from_axes(g1: Grid1D, g2: Grid1D) -> "Grid2D":
        return Grid2D(g1.n, g2.n, g1.dx, g2.dx, g1.x0, g2.x0)

    @staticmethod
    def centered(n1: int, n2: int, dx1: float, dx2: float) -> "Grid2D":
        """Grid with the origin centered between the two middle samples."""
        return Grid2D.from_axes(Grid1D.centered(n1, dx1), Grid1D.centered(n2, dx2))

    def coords1(self) -> np.ndarray:
        return self.axes[0].coords()

    def coords2(self) -> np.ndarray:
        return self.axes[1].coords()

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.coords1(), self.coords2(), indexing="ij")

    @property
    def cell_area(self) -> float:
        return self.dx1 * self.dx2

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n1, self.n2)

    def approx_eq(self, other: "Grid2D", tol: float = 1e-9) -> bool:
        return all(a.approx_eq(b, tol) for a, b in zip(self.axes, other.axes))

    def to_dict(self) -> dict:
        return {"n1": self.n1, "n2": self.n2, "dx1": self.dx1, "dx2": self.dx2,
                "x0_1": self.x0_1, "x0_2": self.x0_2}

    @staticmethod
    def from_dict(d: dict) -> "Grid2D":
        return Grid2D(int(d["n1"]), int(d["n2"]), float(d["dx1"]), float(d["dx2"]),
                      float(d["x0_1"]), float(d["x0_2"]))


class QSignal2D:
    """Quaternion-valued samples on a Grid2D, immutable after construction.

    `samples` has shape (n1, n2, 4) with components (w, x, y, z).
    """

    __slots__ = ("grid", "samples")

    def __init__(self, grid: Grid2D, samples: np.ndarray):
        samples = np.ascontiguousarray(samples, dtype=float)
        if samples.shape != (grid.n1, grid.n2, 4):
            raise ValueError(
                f"samples shape {samples.shape} does not match grid {grid.n1}x{grid.n2}x4")
        samples.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "samples", samples)

    def __setattr__(self, name, value):
        raise AttributeError("QSignal2D is immutable")

    def l2_norm_sq(self) -> float:
        return float(np.sum(self.samples * self.samples) * self.grid.cell_area)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.l2_norm_sq()))

    def lp_norm(self, p: float) -> float:
        """Quadrature p-norm of the pointwise quaternion modulus."""
        mod = np.sqrt(np.sum(self.samples * self.samples, axis=-1))
        return float(np.sum(mod**p) * self.grid.cell_area) ** (1.0 / p)

    def modulus(self) -> np.ndarray:
        return np.sqrt(np.sum(self.samples * self.samples, axis=-1))

    def scaled(self, alpha: float) -> "QSignal2D":
        return QSignal2D(self.grid, self.samples * float(alpha))


@dataclass(frozen=True)
class WindowSpec:
    """Window description: kind in {gaussian, rect, hann} with per-axis
    parameters (sigmas for gaussian, half-widths otherwise) and a center."""

    kind: str
    params: tuple[float, float]
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.kind not in ("gaussian", "rect", "hann"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if not all(p > 0 for p in self.params):
            raise ValueError(f"window parameters must be positive, got {self.params}")

    def to_string(self) -> str:
        key = "sigma" if self.kind == "gaussian" else "width"
        s = f"{self.kind}:{key}={self.params[0]!r},{self.params[1]!r}"
        if self.center != (0.0, 0.0):
            s += f",center={self.center[0]!r},{self.center[1]!r}"
        return s


def parse_window_spec(text: str) -> WindowSpec:
    """Parse the ``kind:key=val[,val][,key=val...]`` micro-grammar,
    e.g. ``gaussian:sigma=1.0,1.0`` or ``rect:width=2``."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    fields: dict[str, list[float]] = {}
    current = None
    for seg in filter(None, (s.strip() for s in rest.split(","))):
        if "=" in seg:
            key, _, val = seg.partition("=")
            current = key.strip()
            fields[current] = [float(val)]
        elif current is not None:
            fields[current].append(float(seg))
        else:
            raise ValueError(f"bad window spec {text!r}: value {seg!r} before any key")
    key = "sigma" if kind == "gaussian" else "width"
    if key not in fields:
        raise ValueError(f"window spec {text!r} is missing {key}=")
    vals = fields[key]
    params = (vals[0], vals[1] if len(vals) > 1 else vals[0])
    cvals = fields.get("center", [0.0, 0.0])
    center = (cvals[0], cvals[1] if len(cvals) > 1 else cvals[0])
    return WindowSpec(kind, params, center)


def sample(grid: Grid2D, fn) -> QSignal2D:
    """Sample a vectorized pointwise function on the grid.

    `fn(X1, X2)` receives coordinate meshes of shape (n1, n2) and must
    return either a real array (taken as the scalar part) or an array of
    shape (n1, n2, 4). Non-finite values are rejected with the offending
    coordinates.
    """
    x1, x2 = grid.meshgrid()
    vals = np.asarray(fn(x1, x2), dtype=float)
    if vals.shape == (grid.n1, grid.n2):
        full = np.zeros((grid.n1, grid.n2, 4))
        full[..., 0] = vals
        vals = full
    if vals.shape != (grid.n1, grid.n2, 4):
        raise ValueError(f"sampler returned shape {vals.shape}, "
                         f"expected {(grid.n1, grid.n2)} or {(grid.n1, grid.n2, 4)}")
    bad = ~np.isfinite(vals)
    if bad.any():
        k1, k2, _ = np.argwhere(bad)[0]
        raise ValueError(
            f"non-finite sample at x=({x1[k1, k2]:g}, {x2[k1, k2]:g}) (cell {k1},{k2})")
    return QSignal2D(grid, vals)


def inner_product(f: QSignal2D, g: QSignal2D) -> np.ndarray:
    """Quadrature inner product sum f(x) * conj(g(x)) * dx1*dx2 (quaternion)."""
    if not f.grid.approx_eq(g.grid):
        raise GridMismatchError("inner_product requires identical grids")
    prod = qmul(f.samples, qconj(g.samples))
    return np.sum(prod, axis=(0, 1)) * f.grid.cell_area


def shift_slices(m: int, n: int) -> tuple[slice, slice]:
    """(dst, src) slices of one axis of n samples such that out[dst] = a[src]
    is the zero-padded shift out[k] = a[k - m]; both are empty for |m| >= n."""
    m = max(-n, min(m, n))
    return slice(max(m, 0), n + min(m, 0)), slice(max(-m, 0), n - max(m, 0))


def translate(f: QSignal2D, y: tuple[float, float]) -> QSignal2D:
    """Shift f by y with zero padding. y must be an integer multiple of the
    grid spacings; samples shifted off the grid are dropped."""
    shifts = []
    for yk, dxk in zip(y, (f.grid.dx1, f.grid.dx2)):
        lk = round(yk / dxk)
        if abs(yk - lk * dxk) > 1e-9 * max(dxk, abs(yk)):
            near = (round(y[0] / f.grid.dx1) * f.grid.dx1,
                    round(y[1] / f.grid.dx2) * f.grid.dx2)
            raise ValueError(
                f"translation {y} is not grid-aligned; nearest aligned value is {near}")
        shifts.append(lk)
    d1, s1 = shift_slices(shifts[0], f.grid.n1)
    d2, s2 = shift_slices(shifts[1], f.grid.n2)
    out = np.zeros_like(f.samples)
    out[d1, d2] = f.samples[s1, s2]
    return QSignal2D(f.grid, out)


def make_window(spec: WindowSpec, grid: Grid2D) -> QSignal2D:
    """Realize a window spec as a real (scalar-part-only) signal.

    The samples are rescaled so the largest one equals 1, which pins the
    peak of a gaussian to the cell nearest its center even on grids that
    do not sample the center exactly.
    """
    x1, x2 = grid.meshgrid()
    u1 = x1 - spec.center[0]
    u2 = x2 - spec.center[1]
    p1, p2 = spec.params
    if spec.kind == "gaussian":
        vals = np.exp(-(u1**2 / (2 * p1**2) + u2**2 / (2 * p2**2)))
    elif spec.kind == "rect":
        vals = ((np.abs(u1) < p1) & (np.abs(u2) < p2)).astype(float)
    else:  # hann
        w1 = np.where(np.abs(u1) < p1, 0.5 * (1 + np.cos(np.pi * u1 / p1)), 0.0)
        w2 = np.where(np.abs(u2) < p2, 0.5 * (1 + np.cos(np.pi * u2 / p2)), 0.0)
        vals = w1 * w2
    peak = vals.max()
    if not peak > 0:
        raise ValueError(f"window {spec} vanishes on the whole grid")
    full = np.zeros((grid.n1, grid.n2, 4))
    full[..., 0] = vals / peak
    return QSignal2D(grid, full)


def save(path, f: QSignal2D) -> None:
    """Write the QSIG binary format (lossless round trip)."""
    g = f.grid
    header = _QSIG_HEADER.pack(_QSIG_MAGIC, _QSIG_VERSION, g.n1, g.n2,
                               g.x0_1, g.x0_2, g.dx1, g.dx2)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(f.samples, dtype="<f8").tobytes())


def load(path) -> QSignal2D:
    """Read the QSIG binary format with distinct diagnostics per failure."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _QSIG_HEADER.size:
        raise FormatError(f"{path}: bad magic (file shorter than the header)")
    magic, version, n1, n2, x0_1, x0_2, dx1, dx2 = _QSIG_HEADER.unpack_from(raw)
    if magic != _QSIG_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != _QSIG_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if n1 > _MAX_DIM or n2 > _MAX_DIM:
        raise FormatError(f"{path}: dimension overflow ({n1}x{n2})")
    try:
        grid = Grid2D(n1, n2, dx1, dx2, x0_1, x0_2)
    except ValueError as exc:
        raise FormatError(f"{path}: bad grid geometry: {exc}") from None
    need = n1 * n2 * 4 * 8
    body = raw[_QSIG_HEADER.size:]
    if len(body) < need:
        raise FormatError(f"{path}: truncated payload "
                          f"({len(body)} bytes, expected {need})")
    if len(body) > need:
        raise FormatError(f"{path}: trailing data ({len(body) - need} extra bytes)")
    samples = np.frombuffer(body, dtype="<f8").reshape(n1, n2, 4)
    if not np.isfinite(samples).all():
        raise FormatError(f"{path}: non-finite values in payload")
    return QSignal2D(grid, samples.astype(float))


def export_csv(path, f: QSignal2D) -> None:
    """Write the CSV format (17 significant digits, round trips to 1e-15)."""
    x1 = f.grid.coords1()
    x2 = f.grid.coords2()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "qw", "qx", "qy", "qz"])
        for k1 in range(f.grid.n1):
            for k2 in range(f.grid.n2):
                q = f.samples[k1, k2]
                writer.writerow([f"{x1[k1]:.17g}", f"{x2[k2]:.17g}",
                                 f"{q[0]:.17g}", f"{q[1]:.17g}",
                                 f"{q[2]:.17g}", f"{q[3]:.17g}"])


def _infer_axis(vals: np.ndarray, name: str, path) -> tuple[int, float, float]:
    uniq = []
    for v in vals:
        if not uniq or v != uniq[-1]:
            uniq.append(v)
    n = len(uniq)
    if n < 2:
        raise FormatError(f"{path}: {name} axis has fewer than 2 distinct values")
    steps = np.diff(uniq)
    d = float(np.mean(steps))
    if d <= 0 or np.any(np.abs(steps - d) > 1e-9 * abs(d)):
        raise FormatError(f"{path}: {name} axis is not uniform to 1e-9 relative")
    return n, d, float(uniq[0])


def import_csv(path) -> QSignal2D:
    """Read the CSV format, inferring the grid geometry from the rows."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["x1", "x2", "qw", "qx", "qy", "qz"]:
            raise FormatError(f"{path}: bad header {header}")
        rows = []
        for idx, row in enumerate(reader, start=2):
            if len(row) != 6:
                raise FormatError(f"{path}: row {idx}: expected 6 fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise FormatError(f"{path}: row {idx}: non-numeric field") from None
    if not rows:
        raise FormatError(f"{path}: no data rows")
    data = np.array(rows)
    # axis 1 outermost: x1 is constant within each block of n2 rows
    n2, dx2, x0_2 = _infer_axis(data[data[:, 0] == data[0, 0], 1], "x2", path)
    if len(data) % n2 != 0:
        raise FormatError(f"{path}: {len(data)} rows is not a multiple of n2={n2}")
    n1, dx1, x0_1 = _infer_axis(data[::n2, 0], "x1", path)
    if n1 * n2 != len(data):
        raise FormatError(f"{path}: row count {len(data)} != {n1}x{n2}")
    samples = data[:, 2:6].reshape(n1, n2, 4)
    if not np.isfinite(samples).all():
        raise FormatError(f"{path}: non-finite values")
    return QSignal2D(Grid2D(n1, n2, dx1, dx2, x0_1, x0_2), samples)
