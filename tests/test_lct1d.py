import math

import numpy as np
import pytest

from qlct.lct1d import (Grid1D, LCTParams, MatchedSamplingError, ZeroBError,
                        conjugate_grid, kernel_matrix, kernel_value, lct_fast,
                        lct_scale_chirp, scale_chirp_grid)

from oracles import lct_direct

FOURIER = LCTParams(0.0, 1.0, -1.0, 0.0)


# ---------------------------------------------------------------------------
# independent oracles

def dft_sum_oracle(f, x, w, dx):
    """Plain centered Riemann Fourier sum: F(w_m) = sum_n f_n e^{-i x_n w_m} dx."""
    out = np.zeros(len(w), dtype=complex)
    for m, wm in enumerate(w):
        out[m] = np.sum(f * np.exp(-1j * x * wm)) * dx
    return out


def inline_kernel(a, b, c, d, sign, x, w):
    """Fresh transcription of the b != 0 kernel formula for oracle use."""
    phase = (a / (2 * b)) * x**2 - x * w / b + (d / (2 * b)) * w**2 \
        - (np.pi / 4) * np.sign(b)
    return np.exp(1j * sign * phase) / np.sqrt(2 * np.pi * np.abs(b))


def dense_quadrature_oracle(a, b, c, d, fn, n, dx, w, refine=4):
    """Riemann sum of the defining integral on a refine-times finer input
    grid with the same physical extent, evaluated at the output points w."""
    nn = n * refine
    xx = Grid1D.centered(nn, dx / refine).coords()
    ff = fn(xx)
    out = np.zeros(len(w), dtype=complex)
    for m, wm in enumerate(w):
        out[m] = np.sum(inline_kernel(a, b, c, d, 1, xx, wm) * ff) * (dx / refine)
    return out


# ---------------------------------------------------------------------------
# params and kernel values

def test_params_unimodularity():
    LCTParams(1.0, 2.0, 0.5, 2.0)
    with pytest.raises(ValueError, match="det"):
        LCTParams(1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e100])
def test_det_tolerance_scales_with_the_products(scale):
    # ad = (scale + 1)(1 + t) and bc = scale put the det t (scale + 1) off 1:
    # within the tolerance, 1e-9 of the larger product, for t = 0.5e-9 only
    LCTParams(scale + 1.0, scale, 1.0, 1 + 0.5e-9)
    with pytest.raises(ValueError, match="det"):
        LCTParams(scale + 1.0, scale, 1.0, 1 + 2e-9)


@pytest.mark.parametrize("entries", [(math.nan, 1.0, -1.0, 0.0), (math.inf, 1.0, -1.0, 0.0),
                                     (math.inf, 0.0, 0.0, 1.0), (1e200, 0.0, 0.0, 1e200),
                                     (1.0, 1.0, math.inf, 2.0)])
def test_non_finite_entry_or_product_fails_the_det_check(entries):
    with pytest.raises(ValueError, match="det"):
        LCTParams(*entries)


def test_kernel_fourier_case_at_origin():
    val = kernel_value(FOURIER, 1, 0.0, 0.0)
    expected = np.exp(-1j * np.pi / 4) / np.sqrt(2 * np.pi)
    assert abs(val - expected) < 1e-15


def test_kernel_fourier_case_general_points():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, w = rng.uniform(-3, 3, size=2)
        val = kernel_value(FOURIER, 1, x, w)
        expected = np.exp(-1j * (x * w + np.pi / 4)) / np.sqrt(2 * np.pi)
        assert abs(val - expected) < 1e-14


def test_kernel_sign_is_conjugation():
    rng = np.random.default_rng(1)
    p = LCTParams(1.0, 2.0, 0.5, 2.0)
    for _ in range(100):
        x, w = rng.uniform(-5, 5, size=2)
        assert abs(kernel_value(p, -1, x, w)
                   - np.conj(kernel_value(p, 1, x, w))) < 1e-15


def test_kernel_negative_b_constant_phase():
    # amplitude uses |b| and the constant phase flips with sgn(b)
    p = LCTParams(0.0, -1.0, 1.0, 0.0)
    val = kernel_value(p, 1, 0.0, 0.0)
    expected = np.exp(1j * np.pi / 4) / np.sqrt(2 * np.pi)
    assert abs(val - expected) < 1e-15


# ---------------------------------------------------------------------------
# direct transform

def test_direct_impulse_gives_kernel_row():
    g = Grid1D.centered(32, 0.5)
    n0 = 12
    f = np.zeros(32, dtype=complex)
    f[n0] = 1.0 / g.dx
    p = LCTParams(1.0, 2.0, 0.5, 2.0)
    F, go = lct_direct(p, 1, f, g)
    expected = kernel_value(p, 1, g.coords()[n0], go.coords())
    np.testing.assert_allclose(F, expected, atol=1e-12)


def test_direct_fourier_case_matches_dft_oracle():
    rng = np.random.default_rng(2)
    g = Grid1D.centered(32, 0.4)
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    F, go = lct_direct(FOURIER, 1, f, g)
    oracle = dft_sum_oracle(f, g.coords(), go.coords(), g.dx)
    oracle *= np.exp(-1j * np.pi / 4) / np.sqrt(2 * np.pi)
    np.testing.assert_allclose(F, oracle, atol=1e-12)


def test_direct_fractional_fourier_gaussian():
    theta = np.pi / 4
    p = LCTParams(np.cos(theta), np.sin(theta), -np.sin(theta), np.cos(theta))
    g = Grid1D.centered(64, 0.25)
    fn = lambda x: np.exp(-x**2 / 2)
    F, go = lct_direct(p, 1, fn(g.coords()).astype(complex), g)
    oracle = dense_quadrature_oracle(*p.astuple(), fn, g.n, g.dx, go.coords())
    assert np.max(np.abs(np.abs(F) - np.abs(oracle))) <= 1e-5
    # the unit gaussian is an eigenfunction: |F| is the same gaussian
    assert np.max(np.abs(np.abs(F) - np.exp(-go.coords()**2 / 2))) <= 1e-5


def test_direct_rejects_b_zero():
    g = Grid1D.centered(8, 1.0)
    with pytest.raises(ZeroBError):
        lct_direct(LCTParams(1.0, 0.0, 0.5, 1.0), 1, np.ones(8), g)


# ---------------------------------------------------------------------------
# fast path

def test_fast_matches_direct_random():
    rng = np.random.default_rng(3)
    g = Grid1D.centered(64, 0.3)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    p = LCTParams(1.0, 2.0, 0.5, 2.0)
    Fd, _ = lct_direct(p, 1, f, g)
    Ff, _ = lct_fast(p, 1, f, g)
    assert np.max(np.abs(Fd - Ff)) <= 1e-9


def test_fast_matches_direct_negative_b_and_conjugate_sign():
    rng = np.random.default_rng(4)
    g = Grid1D.centered(48, 0.37)
    f = rng.standard_normal(48) + 1j * rng.standard_normal(48)
    for p in (LCTParams(0.8, -1.25, 0.4, 0.625), LCTParams(0.0, -1.0, 1.0, 0.0)):
        for sign in (1, -1):
            Fd, _ = lct_direct(p, sign, f, g)
            Ff, _ = lct_fast(p, sign, f, g)
            assert np.max(np.abs(Fd - Ff)) <= 1e-9


def test_fast_impulse_gives_kernel_row():
    g = Grid1D.centered(32, 0.5)
    f = np.zeros(32, dtype=complex)
    f[20] = 1.0 / g.dx
    p = LCTParams(1.0, 2.0, 0.5, 2.0)
    F, go = lct_fast(p, 1, f, g)
    np.testing.assert_allclose(F, kernel_value(p, 1, g.coords()[20], go.coords()),
                               atol=1e-12)


def test_fast_linearity():
    rng = np.random.default_rng(5)
    g = Grid1D.centered(32, 0.5)
    f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    p = LCTParams(1.0, 2.0, 0.5, 2.0)
    alpha = 2.5 - 1.25j
    lhs, _ = lct_fast(p, 1, alpha * f + h, g)
    Ff, _ = lct_fast(p, 1, f, g)
    Fh, _ = lct_fast(p, 1, h, g)
    assert np.max(np.abs(lhs - (alpha * Ff + Fh))) <= 1e-12 * np.max(np.abs(lhs))


def test_fast_rejects_unmatched_grid():
    g = Grid1D.centered(32, 0.5)
    bad = Grid1D.centered(32, 0.5)  # dw != 2 pi |b| / (n dx)
    with pytest.raises(MatchedSamplingError, match="dw"):
        lct_fast(FOURIER, 1, np.ones(32, dtype=complex), g, bad)


def test_fast_batched_last_axis():
    rng = np.random.default_rng(6)
    g = Grid1D.centered(16, 0.5)
    batch = rng.standard_normal((3, 5, 16)) + 1j * rng.standard_normal((3, 5, 16))
    p = LCTParams(1.0, 2.0, 0.5, 2.0)
    F, _ = lct_fast(p, 1, batch, g)
    for i in range(3):
        for j in range(5):
            row, _ = lct_fast(p, 1, batch[i, j], g)
            np.testing.assert_allclose(F[i, j], row, atol=1e-14)


# ---------------------------------------------------------------------------
# b = 0 branch

def test_scale_chirp_identity():
    g = Grid1D.centered(16, 0.5)
    f = np.arange(16, dtype=complex)
    out, go = lct_scale_chirp(LCTParams(1.0, 0.0, 0.0, 1.0), 1, f, g)
    np.testing.assert_array_equal(out, f)
    assert go == g


def test_scale_chirp_pure_chirp_preserves_modulus():
    rng = np.random.default_rng(7)
    g = Grid1D.centered(16, 0.5)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    out, _ = lct_scale_chirp(LCTParams(1.0, 0.0, 0.7, 1.0), 1, f, g)
    np.testing.assert_allclose(np.abs(out), np.abs(f), atol=1e-14)


def test_scale_chirp_pure_scaling():
    g = Grid1D.centered(16, 0.5)
    f = np.arange(16, dtype=complex)
    p = LCTParams(2.0, 0.0, 0.0, 0.5)
    out, go = lct_scale_chirp(p, 1, f, g)
    assert go.dx == pytest.approx(2 * g.dx)
    # output(u) = sqrt(1/2) f(u/2): same index on the doubled grid
    np.testing.assert_allclose(out, np.sqrt(0.5) * f, atol=1e-15)


def test_scale_chirp_negative_a_reverses():
    g = Grid1D.centered(8, 1.0)
    f = np.arange(8, dtype=complex)
    out, go = lct_scale_chirp(LCTParams(-1.0, 0.0, 0.0, -1.0), 1, f, g)
    np.testing.assert_array_equal(out, f[::-1])
    np.testing.assert_allclose(go.coords(), g.coords(), atol=0)


def test_scale_chirp_rejects_mismatched_grid():
    g = Grid1D.centered(16, 0.5)
    with pytest.raises(ValueError, match="admissible"):
        lct_scale_chirp(LCTParams(2.0, 0.0, 0.0, 0.5), 1,
                        np.ones(16, dtype=complex), g, Grid1D.centered(16, 0.5))


def test_scale_chirp_requires_b_zero():
    g = Grid1D.centered(8, 1.0)
    with pytest.raises(ValueError, match="b = 0"):
        lct_scale_chirp(FOURIER, 1, np.ones(8, dtype=complex), g)


@pytest.mark.parametrize("p", [LCTParams(2.0, 0.0, 0.7, 0.5),
                               LCTParams(-1.6, 0.0, -0.3, -0.625)], ids=["a>0", "a<0"])
@pytest.mark.parametrize("sign", [1, -1])
def test_kernel_matrix_for_b_zero_is_the_scale_chirp(p, sign):
    # the direct path's b = 0 matrix is a weighted permutation, the same
    # index remap the fast path's plan makes
    g = Grid1D.centered(16, 0.5)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    Q, go = kernel_matrix(p, sign, g)
    nonzero = Q != 0
    assert (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all()
    want, gw = lct_scale_chirp(p, sign, f, g)
    assert go == gw
    np.testing.assert_allclose(Q @ f, want, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# invariants: round trip and unitarity

@pytest.mark.parametrize("p", [
    FOURIER,
    LCTParams(1.0, 2.0, 0.5, 2.0),
    LCTParams(0.8, -1.25, 0.4, 0.625),
    LCTParams(np.cos(1.0), np.sin(1.0), -np.sin(1.0), np.cos(1.0)),
])
def test_round_trip_and_plancherel(p):
    g = Grid1D.centered(64, 0.25)
    f = np.exp(-g.coords()**2 / 2).astype(complex)
    F, go = lct_fast(p, 1, f, g)
    back, _ = lct_fast(p.inverse(), 1, F, go, g)
    rel = np.linalg.norm(back - f) / np.linalg.norm(f)
    assert rel <= 1e-8
    norm_in = np.sum(np.abs(f)**2) * g.dx
    norm_out = np.sum(np.abs(F)**2) * go.dx
    assert abs(norm_out / norm_in - 1) <= 1e-6


def test_conjugate_grid_contract():
    g = Grid1D.centered(32, 0.5)
    go = conjugate_grid(g, 2.0)
    assert go.dx * g.dx * g.n == pytest.approx(2 * np.pi * 2.0, rel=1e-15)
    assert np.min(np.abs(go.coords())) > 0
    with pytest.raises(ZeroBError):
        conjugate_grid(g, 0.0)


def test_scale_chirp_grid_covers_negative_a():
    g = Grid1D.centered(8, 0.5)
    ga = scale_chirp_grid(LCTParams(-2.0, 0.0, 0.0, -0.5), g)
    np.testing.assert_allclose(sorted(-2.0 * g.coords()), ga.coords(), atol=1e-15)
