"""Sampled 2D quaternion signals: grids, quadrature, windows, and file I/O.

A signal lives on a uniform rectangular grid whose two axes are each a
`lct1d.Grid1D`: sample k on an axis sits at x = x0 + k*dx, and that class
alone decides whether an axis is valid and when two axes match. The
centered factory puts x0 = -(n/2 - 1/2)*dx so the origin falls between the
two middle samples and no sample has |x| = 0, which keeps log-weighted
integrals finite. All L^2 quantities are Riemann sums with
weight dx1*dx2.

On disk a signal is a QSIG file (binary, little-endian): magic "QSIG",
u32 version = 1, u32 n1, u32 n2, f64 x0_1, f64 x0_2, f64 dx1, f64 dx2,
then n1*n2 records of 4 f64 (w, x, y, z), row-major with axis 1
outermost. Lossless.

QSIG bodies and the Gabor coefficient payload share one float64 writer and
one size check, which compares the file's size with the expected shape
before anything is read, so no header or manifest can make a reader
allocate more than the file holds.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import struct
from dataclasses import dataclass, field

import numpy as np

from .lct1d import Grid1D
from .quat import qabs
# bench/tracing.py wraps this name here; no signal code multiplies quaternions
from .quat import qmul  # noqa: F401

_QSIG_MAGIC = b"QSIG"
_QSIG_VERSION = 1
_QSIG_HEADER = struct.Struct("<4sIIIdddd")
_MAX_DIM = 2**24  # per-axis sanity cap for file headers


class FormatError(ValueError):
    """Malformed QSIG file or coefficient directory."""


class NumericError(RuntimeError):
    """Numeric contract violation: non-finite values produced."""


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

    def approx_eq(self, other: "Grid2D") -> bool:
        return all(a.approx_eq(b) for a, b in zip(self.axes, other.axes))

    def to_dict(self) -> dict:
        return {"n1": self.n1, "n2": self.n2, "dx1": self.dx1, "dx2": self.dx2,
                "x0_1": self.x0_1, "x0_2": self.x0_2}


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
        """Quadrature energy sum |x|^2 dx1 dx2, taken as sum (x/p)^2 * t^2
        with p = max|x| and t = p sqrt(dx1) sqrt(dx2), so neither the
        squares nor the cell area overflow or underflow."""
        p = max(float(self.samples.max()), -float(self.samples.min()))
        if not 0.0 < p < math.inf:
            return p * p  # 0.0 for a zero signal; inf and nan pass through
        y = self.samples / p
        y *= y
        t = p * math.sqrt(self.grid.dx1) * math.sqrt(self.grid.dx2)
        return float(np.sum(y)) * t * t

    def l2_norm(self) -> float:
        return float(np.sqrt(self.l2_norm_sq()))

    def lp_norm(self, p: float) -> float:
        """Quadrature p-norm of the pointwise quaternion modulus m, taken
        as (sum (m/q)^p)^(1/p) * t with q = max m and t = q dx1^(1/p)
        dx2^(1/p), scaled by the peak as `l2_norm_sq` is."""
        m = self.modulus()
        q = float(m.max())
        if not 0.0 < q < math.inf:
            return q  # 0.0 for a zero signal; inf and nan pass through
        m /= q
        t = q * self.grid.dx1**(1.0 / p) * self.grid.dx2**(1.0 / p)
        return float(np.sum(m**p))**(1.0 / p) * t

    def modulus(self) -> np.ndarray:
        """Pointwise |x|, taken on the samples divided by a power of two
        near their peak and multiplied back, so the squares neither
        overflow nor underflow at the peak, and no bit moves where the
        unscaled squares stay normal."""
        peak = max(float(self.samples.max()), -float(self.samples.min()))
        if not 0.0 < peak < math.inf:
            return qabs(self.samples)
        scale = math.ldexp(1.0, math.frexp(peak)[1] - 1)  # peak is in [scale, 2 scale)
        m = qabs(self.samples / scale)
        m *= scale
        return m

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
        if not all(math.isfinite(v) for v in (*self.params, *self.center)):
            raise ValueError(f"window parameters and center must be finite, "
                             f"got {self.params} and {self.center}")


def parse_window_spec(text: str) -> WindowSpec:
    """Parse the ``kind:key=val[,val][,key=val...]`` micro-grammar,
    e.g. ``gaussian:sigma=1.0,1.0`` or ``rect:width=2``. The keys are the
    kind's ``sigma`` (gaussian) or ``width`` (rect, hann) and ``center``,
    each given once with one or two values."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    key = "sigma" if kind == "gaussian" else "width"
    fields: dict[str, list[float]] = {}
    current = None
    for seg in filter(None, (s.strip() for s in rest.split(","))):
        if "=" in seg:
            name, _, val = seg.partition("=")
            current = name.strip()
            if current not in (key, "center") or current in fields:
                raise ValueError(f"bad window spec {text!r}: unknown or repeated "
                                 f"key {current!r}")
            fields[current] = [float(val)]
        elif current is not None and len(fields[current]) < 2:
            fields[current].append(float(seg))
        else:
            raise ValueError(f"bad window spec {text!r}: value {seg!r} "
                             "before any key or after a key's two values")
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
    if not all_finite(vals):
        k1, k2, _ = np.argwhere(~np.isfinite(vals))[0]
        raise ValueError(
            f"non-finite sample at x=({x1[k1, k2]:g}, {x2[k1, k2]:g}) (cell {k1},{k2})")
    return QSignal2D(grid, vals)


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
    do not sample the center exactly. The profile is evaluated in float64
    with overflow and underflow running to their limits, so a finite spec
    whose window vanishes on the grid fails with one message.
    """
    p1, p2 = np.asarray(spec.params, dtype=float)

    def profile(x1, x2):
        with np.errstate(all="ignore"):
            u1 = x1 - spec.center[0]
            u2 = x2 - spec.center[1]
            if spec.kind == "gaussian":
                # (u/sigma)^2, not u^2/sigma^2: 0/0 at a sampled center otherwise
                vals = np.exp(-((u1 / p1)**2 / 2 + (u2 / p2)**2 / 2))
            elif spec.kind == "rect":
                vals = ((np.abs(u1) < p1) & (np.abs(u2) < p2)).astype(float)
            else:  # hann
                w1 = np.where(np.abs(u1) < p1, 0.5 * (1 + np.cos(np.pi * u1 / p1)), 0.0)
                w2 = np.where(np.abs(u2) < p2, 0.5 * (1 + np.cos(np.pi * u2 / p2)), 0.0)
                vals = w1 * w2
        peak = vals.max()
        if not peak > 0:
            raise ValueError(f"window {spec} vanishes on the whole grid")
        return vals / peak

    return sample(grid, profile)


def all_finite(values: np.ndarray) -> bool:
    # min and max propagate NaN and expose +-inf, without a full-size mask
    return bool(np.isfinite([values.min(), values.max()]).all())


def write_payload(fh, values: np.ndarray) -> None:
    """Write values to fh as raw little-endian float64, without a bytes
    copy, through fh.write, so a pipe that has no file position takes them."""
    fh.write(np.ascontiguousarray(values, dtype="<f8").data)


def check_payload_size(fh, shape: tuple[int, ...], name) -> None:
    """Refuse, from fstat alone, a rest of fh that is not float64 values
    of shape."""
    need = math.prod(shape) * 8  # Python ints: no overflow
    have = os.fstat(fh.fileno()).st_size - fh.tell()
    if have < need:
        raise FormatError(f"{name}: truncated payload ({have} bytes, expected {need})")
    if have > need:
        raise FormatError(f"{name}: trailing data ({have - need} extra bytes)")


def read_payload(fh, shape: tuple[int, ...], name) -> np.ndarray:
    """Read the rest of fh as finite little-endian float64 values of shape;
    its size is checked before anything is allocated."""
    check_payload_size(fh, shape, name)
    values = np.fromfile(fh, dtype="<f8", count=math.prod(shape)).reshape(shape)
    if not all_finite(values):
        raise FormatError(f"{name}: non-finite values in payload")
    return values


@contextlib.contextmanager
def replacing(path, mode: str = "wb"):
    """Write `<target>.part`, target being path with its symlinks resolved,
    and on a clean exit put it in target's place with target's mode bits;
    on an exception remove it. A path that exists but is not a regular
    file this process may write (os.devnull, a FIFO, a read-only file) is
    opened in place instead, so it is written or refused as by `open`."""
    if os.path.exists(path) and not (os.path.isfile(path) and os.access(path, os.W_OK)):
        with open(path, mode) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    part = target + ".part"
    try:
        with open(part, mode) as fh:
            yield fh
        if os.path.exists(target):
            shutil.copymode(target, part)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise
    # a remove first keeps ext4 (auto_da_alloc) from writing the part back
    # before the rename (20 ms for 32 MiB on 2 vCPUs); a kill between the
    # two leaves no target, and the new bytes whole in the part
    with contextlib.suppress(FileNotFoundError):
        os.remove(target)
    os.replace(part, target)


def save(path, f: QSignal2D) -> None:
    """Write the QSIG binary format (lossless round trip)."""
    g = f.grid
    with replacing(path) as fh:
        fh.write(_QSIG_HEADER.pack(_QSIG_MAGIC, _QSIG_VERSION, g.n1, g.n2,
                                   g.x0_1, g.x0_2, g.dx1, g.dx2))
        write_payload(fh, f.samples)


def load(path) -> QSignal2D:
    """Read the QSIG binary format with distinct diagnostics per failure."""
    with open(path, "rb") as fh:
        header = fh.read(_QSIG_HEADER.size)
        if len(header) < _QSIG_HEADER.size:
            raise FormatError(f"{path}: bad magic (file shorter than the header)")
        magic, version, n1, n2, x0_1, x0_2, dx1, dx2 = _QSIG_HEADER.unpack(header)
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
        return QSignal2D(grid, read_payload(fh, (n1, n2, 4), path))
