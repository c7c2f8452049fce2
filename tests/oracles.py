"""Reference implementations that the tests compare `qlct` against.

None of them runs in `qlct` itself: `lct_direct` is the O(N^2) 1D oracle
of `lct1d.lct_fast`, `gabor_analyze_at` the Gabor field at one
translation, windowed and transformed on its own by either path,
`modulus_sq` the |G|^2 of a dense Gabor field, `abs_sq_table` the
|G|^2 table of a pass, read from the cells of a full-capture request,
`moment` the dense twin of the weighted moments of
`gabor.gabor_field_stats`, `random_mask` and `greedy_minimal_mask` the
boolean masks over a whole |G|^2 table that `uncertainty`'s masks, which
read only the cells a pass keeps, reproduce as flat indices, and the
quaternion constructors build the values the `quat` tests multiply.
pytest collects no test from this file.
"""

import math

import numpy as np

from qlct.gabor import GaborCoefficients, gabor_field_stats
from qlct.lct1d import Grid1D, LCTParams, ZeroBError, _check_sign, kernel_matrix
from qlct.qlct2d import QLCTParams, qlct_forward
from qlct.quat import qabs_sq, qconj, qmul
from qlct.signal import GridMismatchError, QSignal2D, translate

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])


def quaternion(w=0.0, x=0.0, y=0.0, z=0.0) -> np.ndarray:
    """Build a quaternion array from components (broadcast together)."""
    return np.stack(np.broadcast_arrays(
        np.asarray(w, dtype=float), np.asarray(x, dtype=float),
        np.asarray(y, dtype=float), np.asarray(z, dtype=float)), axis=-1)


def qexp_axis(axis: str, theta) -> np.ndarray:
    """Unit quaternion cos(theta) + axis*sin(theta) for axis 'i' or 'j'.

    Evaluates the kernel phase factors e^{i theta} and e^{j theta}.
    """
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    zero = np.zeros_like(c)
    if axis == "i":
        return np.stack([c, s, zero, zero], axis=-1)
    if axis == "j":
        return np.stack([c, zero, s, zero], axis=-1)
    raise ValueError(f"axis must be 'i' or 'j', got {axis!r}")


def lct_direct(p: LCTParams, sign: int, f: np.ndarray, grid_in: Grid1D,
               grid_out: Grid1D | None = None) -> tuple[np.ndarray, Grid1D]:
    """Quadrature transform Q @ f by the explicit kernel matrix along the
    last axis.

    O(N^2); the reference implementation the fast path is tested against.
    """
    _check_sign(sign)
    if p.b == 0:
        raise ZeroBError("lct_direct requires b != 0; use lct_scale_chirp")
    Q, grid_out = kernel_matrix(p, sign, grid_in, grid_out)
    f = np.asarray(f, dtype=complex)
    if f.shape[-1] != grid_in.n:
        raise ValueError(f"last axis has {f.shape[-1]} samples, grid has {grid_in.n}")
    return np.einsum("mn,...n->...m", Q, f), grid_out


def gabor_analyze_at(f: QSignal2D, phi: QSignal2D, y: tuple[float, float],
                     p: QLCTParams, method: str = "fast") -> QSignal2D:
    """Gabor field at a single translation: QLCT of f(.) * conj(phi(. - y))."""
    if not f.grid.approx_eq(phi.grid):
        raise GridMismatchError("signal and window must share a grid")
    windowed = QSignal2D(f.grid, qmul(f.samples, qconj(translate(phi, y).samples)))
    return qlct_forward(windowed, p, method)


def modulus_sq(G: GaborCoefficients) -> np.ndarray:
    """|G|^2 of every cell of a dense Gabor field."""
    return qabs_sq(np.asarray(G.coeffs))


def abs_sq_table(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                 **request) -> tuple[np.ndarray, dict]:
    """(table, stats) of a `gabor_field_stats` pass asking `request` and
    the full-capture cells (math.inf, ()), whose floor 0 keeps every cell:
    table is its `cell_value`, checked to be every flat index in order,
    shaped (y1, y2, omega1, omega2) as `table_shape`."""
    stats = gabor_field_stats(f, phi, p, cells=(math.inf, ()), **request)
    shape = stats["table_shape"]
    np.testing.assert_array_equal(stats["cell_index"], np.arange(math.prod(shape)))
    return stats["cell_value"].reshape(shape), stats


def cell_volume(G: GaborCoefficients) -> float:
    """Quadrature weight domega dy of one cell of a dense Gabor field."""
    return G.omega_grid.cell_area * G.y_grid.cell_area


def moment(G: GaborCoefficients, which: str, s: float) -> float:
    """Quadrature of the weighted energy |.|^{2s} |G|^2 over (omega, y).

    which selects the |omega|, |y|, or joint |(omega, y)| radius, with
    |(omega, y)|^2 = |omega|^2 + |y|^2.
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"moment order s must be positive and finite, got {s}")
    mod2 = modulus_sq(G)
    w1, w2 = G.omega_grid.meshgrid()
    y1, y2 = G.y_grid.meshgrid()
    omega_r2 = w1**2 + w2**2
    y_r2 = (y1**2 + y2**2)[:, :, None, None]
    if which == "omega":
        weight = omega_r2**s
    elif which == "y":
        weight = y_r2**s
    elif which == "joint":
        weight = (omega_r2 + y_r2)**s
    else:
        raise ValueError(f"which must be omega, y, or joint, got {which!r}")
    return float(np.sum(weight * mod2) * cell_volume(G))


def random_mask(table: np.ndarray, cv: float, target_measure: float,
                rng: np.random.Generator) -> np.ndarray:
    """Boolean mask of uniformly random cells of a |G|^2 table of cells of
    volume cv totalling approximately target_measure, drawn by flat index
    over the table's (y1, y2, omega1, omega2) with one `rng.choice` call."""
    total = table.size
    count = max(1, min(total, round(target_measure / cv)))
    mask = np.zeros(table.shape, dtype=bool)
    mask.reshape(-1)[rng.choice(total, size=count, replace=False)] = True
    return mask


def greedy_minimal_mask(table: np.ndarray, cv: float, capture: float) -> np.ndarray:
    """The k largest cells of a |G|^2 table of cells of volume cv, with k
    read off the running energy of the whole table sorted in descending
    order, and ties at the k-th value taken in flat order (a stable sort)."""
    flat = table.reshape(-1)
    order = np.argsort(-flat, kind="stable")
    csum = np.cumsum(flat[order])
    csum *= cv
    k = int(np.searchsorted(csum, capture - 1e-12)) + 1
    if k > flat.size:
        raise ValueError(f"field energy {csum[-1]!r} cannot capture {capture!r}")
    mask = np.zeros(flat.size, dtype=bool)
    mask[order[:k]] = True
    return mask.reshape(table.shape)
