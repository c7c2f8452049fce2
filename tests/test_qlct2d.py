import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qlct.families import (FOURIER, PARAM_SETS, default_grid, gaussian,
                           gaussian_chirp, impulse, random_quaternion_signal,
                           random_smooth)
from qlct.gabor import (_translates, _window_halves, gabor_analyze_at,
                        iter_gabor_blocks)
from qlct.lct1d import (Grid1D, LCTParams, MatchedSamplingError,
                        conjugate_grid, kernel_value)
from qlct.qlct2d import (QLCTParams, _two_sided_fast, forward_grid,
                         qlct_forward_direct, qlct_forward_fast, qlct_inverse,
                         qlct_plancherel_check)
from qlct.quat import to_complex_pair
from qlct.signal import Grid2D, QSignal2D
from qlct.uncertainty import hausdorff_young_check


# ---------------------------------------------------------------------------
# independent two-sided QFT oracle (matrix-represented quaternion algebra)

def _lmat(w, x, y, z):
    """4x4 matrix of left multiplication by the quaternion (w, x, y, z)."""
    return np.array([[w, -x, -y, -z],
                     [x, w, -z, y],
                     [y, z, w, -x],
                     [z, -y, x, w]])


def _rmat(w, x, y, z):
    """4x4 matrix of right multiplication by (w, x, y, z)."""
    return np.array([[w, -x, -y, -z],
                     [x, w, z, -y],
                     [y, -z, w, x],
                     [z, y, -x, w]])


def two_sided_qft_oracle(f: QSignal2D) -> np.ndarray:
    """(1/2pi) e^{-i pi/4} [sum_t e^{-i t1 u1} f(t) e^{-j t2 u2} dt] e^{-j pi/4}

    on the matched conjugate grid, coded with explicit loops and matrix
    quaternion products, independent of the library's transform paths.
    """
    g = f.grid
    out_grid = Grid2D.centered(g.n1, g.n2,
                               2 * np.pi / (g.n1 * g.dx1),
                               2 * np.pi / (g.n2 * g.dx2))
    t1 = g.coords1()
    t2 = g.coords2()
    u1 = out_grid.coords1()
    u2 = out_grid.coords2()
    const_l = _lmat(np.cos(np.pi / 4), -np.sin(np.pi / 4), 0.0, 0.0)
    const_r = _rmat(np.cos(np.pi / 4), 0.0, -np.sin(np.pi / 4), 0.0)
    out = np.zeros((g.n1, g.n2, 4))
    for m1 in range(g.n1):
        for m2 in range(g.n2):
            acc = np.zeros(4)
            for k1 in range(g.n1):
                left = _lmat(np.cos(t1[k1] * u1[m1]), -np.sin(t1[k1] * u1[m1]),
                             0.0, 0.0)
                for k2 in range(g.n2):
                    right = _rmat(np.cos(t2[k2] * u2[m2]), 0.0,
                                  -np.sin(t2[k2] * u2[m2]), 0.0)
                    acc = acc + right @ (left @ f.samples[k1, k2])
            out[m1, m2] = const_r @ (const_l @ acc)
    return out * g.cell_area / (2 * np.pi)


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(np.sum((a - b)**2) / np.sum(b**2)))


# ---------------------------------------------------------------------------

def test_impulse_gives_rank_one_kernel_product():
    grid = Grid2D.centered(8, 8, 0.5, 0.5)
    p = PARAM_SETS["generic"]
    f = impulse(grid, (2, 5))
    F = qlct_forward_direct(f, p)
    og = F.grid
    k1 = kernel_value(p.A1, 1, grid.coords1()[2], og.coords1())  # (n1,)
    k2 = kernel_value(p.A2, 1, grid.coords2()[5], og.coords2())  # (n2,)
    # K^i is in the i-plane and K^j in the j-plane: the product
    # (a + bi)(c + dj) = ac + (bc)i + (ad)j + (bd)k
    expected = np.empty((8, 8, 4))
    expected[..., 0] = np.outer(k1.real, k2.real)
    expected[..., 1] = np.outer(k1.imag, k2.real)
    expected[..., 2] = np.outer(k1.real, k2.imag)
    expected[..., 3] = np.outer(k1.imag, k2.imag)
    np.testing.assert_allclose(F.samples, expected, atol=1e-12)


def test_fourier_case_matches_independent_qft_oracle():
    rng = np.random.default_rng(20)
    grid = Grid2D.centered(8, 8, 0.6, 0.45)
    f = random_quaternion_signal(grid, rng)
    p = PARAM_SETS["fourier"]
    oracle = two_sided_qft_oracle(f)
    for transform in (qlct_forward_direct, qlct_forward_fast):
        F = transform(f, p)
        assert np.max(np.abs(F.samples - oracle)) <= 1e-12
        assert F.grid.approx_eq(Grid2D.centered(
            8, 8, 2 * np.pi / (8 * 0.6), 2 * np.pi / (8 * 0.45)))


def test_gaussian_fourier_output_modulus_symmetric():
    grid = default_grid(32)
    f = gaussian(grid, 1.0)
    F = qlct_forward_direct(f, PARAM_SETS["fourier"])
    mod = F.modulus()
    # centered grids flip under index reversal: u -> -u
    assert np.max(np.abs(mod - mod[::-1, ::-1])) <= 1e-10
    # the unit gaussian is an eigenfunction: |F| = exp(-|w|^2 / 2) exactly
    w1, w2 = F.grid.meshgrid()
    np.testing.assert_allclose(mod, np.exp(-(w1**2 + w2**2) / 2), atol=1e-9)


@pytest.mark.parametrize("name", ["fourier", "generic", "neg-b"])
def test_fast_matches_direct_oracle(name):
    rng = np.random.default_rng(21)
    grid = default_grid(16)
    p = PARAM_SETS[name]
    for _ in range(3):
        f = random_quaternion_signal(grid, rng)
        Fd = qlct_forward_direct(f, p)
        Ff = qlct_forward_fast(f, p)
        assert np.max(np.abs(Fd.samples - Ff.samples)) <= 1e-9


@pytest.mark.parametrize("name", ["fourier", "generic", "neg-b"])
@pytest.mark.parametrize("method", ["fast", "direct"])
def test_round_trip(name, method):
    rng = np.random.default_rng(22)
    grid = default_grid(16)
    f = random_quaternion_signal(grid, rng)
    p = PARAM_SETS[name]
    fwd = qlct_forward_fast if method == "fast" else qlct_forward_direct
    F = fwd(f, p)
    back = qlct_inverse(F, p, method)
    assert rel_l2(back.samples, f.samples) <= 1e-8
    assert back.grid.approx_eq(f.grid)
    # forward(inverse(F)) also recovers F
    again = fwd(back, p)
    assert rel_l2(again.samples, F.samples) <= 1e-8


def test_impulse_round_trip():
    grid = Grid2D.centered(16, 16, 0.5, 0.5)
    f = impulse(grid, (4, 11), component=2)
    p = PARAM_SETS["generic"]
    back = qlct_inverse(qlct_forward_fast(f, p), p)
    assert rel_l2(back.samples, f.samples) <= 1e-8


MIXED_CASES = {
    "b1-zero": QLCTParams(LCTParams(2.0, 0.0, 0.7, 0.5), FOURIER),
    "b2-zero": QLCTParams(FOURIER, LCTParams(0.5, 0.0, -0.3, 2.0)),
    "both-zero": QLCTParams(LCTParams(1.0, 0.0, 0.4, 1.0),
                            LCTParams(-1.0, 0.0, 0.2, -1.0)),
}


@pytest.mark.parametrize("name", list(MIXED_CASES))
def test_degenerate_axis_routing(name):
    rng = np.random.default_rng(23)
    grid = default_grid(16)
    f = random_quaternion_signal(grid, rng)
    p = MIXED_CASES[name]
    Fd = qlct_forward_direct(f, p)
    Ff = qlct_forward_fast(f, p)
    assert np.max(np.abs(Fd.samples - Ff.samples)) <= 1e-9
    for method in ("fast", "direct"):
        back = qlct_inverse(Ff if method == "fast" else Fd, p, method)
        assert rel_l2(back.samples, f.samples) <= 1e-8
    assert Ff.grid.approx_eq(forward_grid(grid, p))


def _row_block_layouts(grid, rng):
    """(k, n1, n2) half pairs in the layouts the Gabor path hands the fast
    kernel: a windowed row (the halves of a signal times `_translates`
    views of the window halves, laid out (n1, k, n2)) and a synthesis row
    (the halves of a strided moveaxis of the coefficient planes)."""
    f = random_quaternion_signal(grid, rng)
    phi = random_quaternion_signal(grid, rng)
    alpha, beta, calpha, cbeta = _translates(_window_halves(phi))[:, 1]
    fa, fb = to_complex_pair(f.samples)
    ga, gb = (np.moveaxis(c, 2, 0) for c in
              to_complex_pair(rng.standard_normal((grid.n1, grid.n2, 5, 4))))
    return {"windowed": (fa * alpha + 1j * fb * cbeta, fa * beta - 1j * fb * calpha),
            "synthesis": (ga + 1j * gb, ga - 1j * gb)}


@pytest.mark.parametrize("name", [*PARAM_SETS, *MIXED_CASES])
def test_fast_kernel_takes_any_batch_layout(name):
    # each slice of a batch in any memory layout transforms bit for bit as
    # it does alone, and the halves come back C-contiguous, so sums over
    # them keep one order
    p = {**PARAM_SETS, **MIXED_CASES}[name]
    grid = Grid2D.centered(8, 6, 0.5, 0.6)
    blocks = _row_block_layouts(grid, np.random.default_rng(27))
    for layout, (bu, bv) in blocks.items():
        assert not bu.flags.c_contiguous, layout
        P, M, _, _ = _two_sided_fast(p, bu.copy(order="K"), bv.copy(order="K"),
                                     *grid.axes)
        assert P.flags.c_contiguous and M.flags.c_contiguous, layout
        for i in range(len(bu)):
            sp, sm, _, _ = _two_sided_fast(p, bu[i].copy(), bv[i].copy(),
                                           *grid.axes)
            np.testing.assert_array_equal(P[i], sp, err_msg=layout)
            np.testing.assert_array_equal(M[i], sm, err_msg=layout)


@pytest.mark.parametrize("name", list(PARAM_SETS))
def test_fft_threads_leave_every_bit(name, monkeypatch):
    f = random_quaternion_signal(default_grid(64), np.random.default_rng(28))
    monkeypatch.delenv("QLCT_THREADS", raising=False)
    single = qlct_forward_fast(f, PARAM_SETS[name]).samples
    monkeypatch.setenv("QLCT_THREADS", "2")
    threaded = qlct_forward_fast(f, PARAM_SETS[name]).samples
    np.testing.assert_array_equal(threaded, single)


@pytest.mark.parametrize("name", list(PARAM_SETS))
def test_fast_transform_peak_memory(name):
    # the half planes, their temporaries and the output within 3x the input
    f = random_quaternion_signal(default_grid(256), np.random.default_rng(29))
    qlct_forward_fast(f, PARAM_SETS[name])
    tracemalloc.start()
    try:
        qlct_forward_fast(f, PARAM_SETS[name])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * f.samples.nbytes, peak / f.samples.nbytes


@pytest.mark.parametrize("name", ["b1-zero", "b2-zero", "generic"])
@pytest.mark.parametrize("axis", [1, 2])
@pytest.mark.parametrize("method", ["fast", "direct"])
def test_inverse_rejects_grid_off_the_axis_rule(name, axis, method):
    # both paths resolve every axis output grid through one rule
    p = {**MIXED_CASES, **PARAM_SETS}[name]
    grid = default_grid(8)
    F = qlct_forward_fast(random_quaternion_signal(grid, np.random.default_rng(25)), p)
    dx = f"dx{axis}"
    bad = dataclasses.replace(grid, **{dx: 2 * getattr(grid, dx)})
    with pytest.raises(MatchedSamplingError):
        qlct_inverse(F, p, method=method, x_grid=bad)


@pytest.mark.parametrize("name", list(MIXED_CASES) + ["generic", "neg-b"])
@pytest.mark.parametrize("method", ["fast", "direct"])
def test_inverse_onto_off_centre_grid_round_trips(name, method):
    p = {**MIXED_CASES, **PARAM_SETS}[name]
    grid = Grid2D(12, 10, 0.5, 0.4, -1.3, 0.7)
    f = random_quaternion_signal(grid, np.random.default_rng(26))
    fwd = qlct_forward_fast if method == "fast" else qlct_forward_direct
    back = qlct_inverse(fwd(f, p), p, method, x_grid=grid)
    assert back.grid.approx_eq(grid)
    assert np.max(np.abs(back.samples - f.samples)) <= 1e-8 * np.max(np.abs(f.samples))


def _assert_inverse_kernel_is_conjugate_transpose(A, grid):
    # the inverse transform is the forward one with A^-1 because
    # K_{A^-1}(x, w) = conj K_A(w, x) for unimodular A
    x = grid.coords()[:, None]
    w = conjugate_grid(grid, A.b).coords()[None, :]
    inv = kernel_value(A.inverse(), 1, x, w)
    fwd = kernel_value(A, 1, w, x)
    assert np.max(np.abs(inv - np.conj(fwd))) <= 1e-12 * np.max(np.abs(fwd))


@pytest.mark.parametrize("A", [getattr(p, axis) for p in PARAM_SETS.values()
                               for axis in ("A1", "A2")
                               if getattr(p, axis).b != 0])
def test_inverse_kernel_is_conjugate_transpose(A):
    grid = Grid1D.centered(64, np.sqrt(2 * np.pi / 64))
    _assert_inverse_kernel_is_conjugate_transpose(A, grid)


@pytest.mark.parametrize("call", [
    lambda f, p, m: qlct_inverse(qlct_forward_fast(f, p), p, m),
    lambda f, p, m: qlct_plancherel_check(f, p, m),
    lambda f, p, m: next(iter_gabor_blocks(f, f, p, 1, m)),
    lambda f, p, m: gabor_analyze_at(f, f, (0.0, 0.0), p, m),
    lambda f, p, m: hausdorff_young_check(f, p, 2.0, m),
], ids=["qlct_inverse", "qlct_plancherel_check", "iter_gabor_blocks",
        "gabor_analyze_at", "hausdorff_young_check"])
def test_unknown_method_is_rejected(call):
    f = gaussian(default_grid(8), 1.0)
    with pytest.raises(ValueError, match="method must be 'fast' or 'direct'"):
        call(f, PARAM_SETS["fourier"], "bogus")


_MAGNITUDE = st.floats(0.4, 2.5)
_SIGN = st.sampled_from([1.0, -1.0])


@st.composite
def _axis_params(draw):
    """Unimodular axis matrix: b < 0, b = 0 with a < 0, or any signs."""
    kind = draw(st.sampled_from(["b<0", "b=0", "generic"]))
    if kind == "b=0":
        a = -draw(_MAGNITUDE)
        return LCTParams(a, 0.0, draw(st.floats(-1.0, 1.0)), 1 / a)
    a = draw(_MAGNITUDE) * draw(_SIGN)
    d = draw(_MAGNITUDE) * draw(_SIGN)
    b = draw(_MAGNITUDE) * (-1.0 if kind == "b<0" else draw(_SIGN))
    return LCTParams(a, b, (a * d - 1) / b, d)


@st.composite
def _grids(draw):
    n1 = draw(st.integers(4, 24))
    n2 = draw(st.integers(4, 23))
    n2 += n2 >= n1  # n2 != n1
    return Grid2D.centered(n1, n2, draw(st.floats(0.2, 1.0)),
                           draw(st.floats(0.2, 1.0)))


@given(_axis_params(), _axis_params(), _grids(), st.integers(0, 2**32 - 1))
def test_random_params_fast_matches_direct_and_round_trips(A1, A2, grid, seed):
    p = QLCTParams(A1, A2)
    f = random_quaternion_signal(grid, np.random.default_rng(seed))
    Ff = qlct_forward_fast(f, p)
    Fd = qlct_forward_direct(f, p)
    assert Ff.grid.approx_eq(Fd.grid)
    assert np.max(np.abs(Ff.samples - Fd.samples)) <= 1e-9
    scale = np.max(np.abs(f.samples))
    for method in ("fast", "direct"):
        back = qlct_inverse(Ff, p, method)
        assert back.grid.approx_eq(grid)
        assert np.max(np.abs(back.samples - f.samples)) <= 1e-8 * scale


@given(_axis_params().filter(lambda A: A.b != 0), st.integers(4, 24),
       st.floats(0.2, 1.0))
def test_random_inverse_kernel_is_conjugate_transpose(A, n, dx):
    _assert_inverse_kernel_is_conjugate_transpose(A, Grid1D.centered(n, dx))


def test_plancherel_gaussian_and_zero():
    grid = Grid2D.centered(64, 64, 0.25, 0.25)
    f = gaussian(grid, 1.0)
    rep = qlct_plancherel_check(f, PARAM_SETS["fourier"])
    assert 0.999 <= rep.ratio <= 1.001
    zero = QSignal2D(grid, np.zeros((64, 64, 4)))
    rep = qlct_plancherel_check(zero, PARAM_SETS["fourier"])
    assert rep.lhs == rep.rhs == 0.0
    assert rep.ratio == 1.0


def test_plancherel_random_smooth():
    rng = np.random.default_rng(24)
    grid = default_grid(32)
    for _ in range(5):
        f = random_smooth(grid, rng)
        rep = qlct_plancherel_check(f, PARAM_SETS["generic"])
        assert 0.99 <= rep.ratio <= 1.01


def test_left_right_kernel_order_matters():
    # permuting the kernels (j-plane on the left, i-plane on the right)
    # must change the output on an asymmetric quaternion signal
    grid = default_grid(8)
    f = gaussian_chirp(grid, 1.0, 0.8, 0.6)
    p = PARAM_SETS["fourier"]
    F = qlct_forward_direct(f, p)

    g1c = grid.coords1()
    g2c = grid.coords2()
    og = F.grid
    swapped = np.zeros_like(F.samples)
    for m1 in range(8):
        k1 = kernel_value(p.A1, 1, g1c, og.coords1()[m1])
        for m2 in range(8):
            k2 = kernel_value(p.A2, 1, g2c, og.coords2()[m2])
            acc = np.zeros(4)
            for t1 in range(8):
                for t2 in range(8):
                    # j-plane kernel on the left, i-plane kernel on the right
                    left = np.array([k2[t2].real, 0.0, k2[t2].imag, 0.0])
                    right = np.array([k1[t1].real, k1[t1].imag, 0.0, 0.0])
                    from qlct.quat import qmul
                    acc = acc + qmul(qmul(left, f.samples[t1, t2]), right)
            swapped[m1, m2] = acc * grid.cell_area
    assert np.max(np.abs(swapped - F.samples)) > 1e-3


def test_forward_grid_is_matched_and_centered():
    grid = Grid2D.centered(16, 16, 0.5, 0.25)
    p = PARAM_SETS["generic"]
    og = forward_grid(grid, p)
    assert og.dx1 * grid.dx1 * 16 == pytest.approx(2 * np.pi * abs(p.A1.b))
    assert og.dx2 * grid.dx2 * 16 == pytest.approx(2 * np.pi * abs(p.A2.b))
    assert np.min(np.abs(og.coords1())) > 0
