"""Seeded test-signal families used by the verification harness and tests.

Covers the transformations the uncertainty arguments lean on: dilation
(normalized Gaussian dilates), modulation (Gaussian-enveloped quaternion
chirps), and generic smoothness (Gaussian envelope times a random
low-order polynomial with standard-normal coefficients).
"""

from __future__ import annotations

import numpy as np

from .lct1d import LCTParams
from .qlct2d import QLCTParams
from .signal import Grid2D, QSignal2D, sample

FOURIER = LCTParams(0.0, 1.0, -1.0, 0.0)

#: Parameter sets exercised by the oracle-equivalence and Plancherel
#: checks: the Fourier case, a generic case, and one with b < 0.
PARAM_SETS = {
    "fourier": QLCTParams(FOURIER, FOURIER),
    "generic": QLCTParams(LCTParams(1.0, 2.0, 0.5, 2.0), FOURIER),
    "neg-b": QLCTParams(LCTParams(0.8, -1.25, 0.4, 0.625),
                        LCTParams(2.0, 1.0, 1.0, 1.0)),
}


def default_grid(n: int, dx: float | None = None) -> Grid2D:
    """Square centered grid; by default dx = sqrt(2 pi / n) so that the
    Fourier-case conjugate grid has the same spacing and extent."""
    if dx is None:
        dx = float(np.sqrt(2 * np.pi / n))
    return Grid2D.centered(n, n, dx, dx)


def gaussian(grid: Grid2D, sigma: float = 1.0) -> QSignal2D:
    """Scalar Gaussian exp(-|x|^2 / (2 sigma^2))."""
    return sample(grid, lambda x1, x2: np.exp(-(x1**2 + x2**2) / (2 * sigma**2)))


def dilated_gaussian(grid: Grid2D, t: float, sigma: float = 1.0) -> QSignal2D:
    """L^2-normalized dilate f_t(x) = f(x/t) / t of the sigma Gaussian."""
    st = sigma * t
    return sample(grid, lambda x1, x2: np.exp(-(x1**2 + x2**2) / (2 * st**2)) / t)


def gaussian_chirp(grid: Grid2D, sigma: float = 1.0,
                   rate1: float = 0.5, rate2: float = -0.3) -> QSignal2D:
    """Gaussian envelope times e^{i rate1 x1^2} on the left and
    e^{j rate2 x2^2} on the right: a full four-component signal."""
    def components(x1, x2):
        env = np.exp(-(x1**2 + x2**2) / (2 * sigma**2))
        t1 = rate1 * x1**2
        t2 = rate2 * x2**2
        return np.stack([
            env * np.cos(t1) * np.cos(t2),
            env * np.sin(t1) * np.cos(t2),
            env * np.cos(t1) * np.sin(t2),
            env * np.sin(t1) * np.sin(t2),
        ], axis=-1)
    return sample(grid, components)


def random_smooth(grid: Grid2D, rng: np.random.Generator,
                  degree: int = 2, sigma: float = 1.0) -> QSignal2D:
    """Gaussian envelope times an independent random polynomial of the
    given total degree in each quaternion component."""
    def components(x1, x2):
        env = np.exp(-(x1**2 + x2**2) / (2 * sigma**2))
        return np.stack([env * sum(rng.standard_normal() * x1**i * x2**j
                                   for i in range(degree + 1)
                                   for j in range(degree + 1 - i))
                         for _ in range(4)], axis=-1)
    return sample(grid, components)


def random_quaternion_signal(grid: Grid2D, rng: np.random.Generator) -> QSignal2D:
    """Unstructured standard-normal samples in all four components."""
    return QSignal2D(grid, rng.standard_normal((grid.n1, grid.n2, 4)))


def impulse(grid: Grid2D, cell: tuple[int, int],
            component: int = 0) -> QSignal2D:
    """Unit-quadrature impulse: value 1/(dx1 dx2) at one cell."""
    vals = np.zeros((grid.n1, grid.n2, 4))
    vals[cell[0], cell[1], component] = 1.0 / grid.cell_area
    return QSignal2D(grid, vals)


def normalized(f: QSignal2D) -> QSignal2D:
    """Scale to unit quadrature L^2 norm."""
    n = f.l2_norm()
    if n == 0:
        raise ValueError("cannot normalize the zero signal")
    return f.scaled(1.0 / n)
