import numpy as np
import pytest

from qlct.quat import qconj, qmul, quaternion
from qlct.signal import (FormatError, Grid2D, GridMismatchError, QSignal2D,
                         WindowSpec, export_csv, import_csv, inner_product,
                         load, make_window, parse_window_spec, sample, save,
                         shift_slices, translate)


def grid4():
    return Grid2D.centered(4, 4, 1.0, 1.0)


def const_one(grid):
    return sample(grid, lambda x1, x2: np.ones_like(x1))


def test_grid_validation():
    nan, inf = float("nan"), float("inf")
    for bad in [(1, 4, 1.0, 1.0, 0.0, 0.0), (4, 4, -1.0, 1.0, 0.0, 0.0),
                (4, 4, 1.0, nan, 0.0, 0.0), (4, 4, inf, 1.0, 0.0, 0.0),
                (4, 4, 1.0, 1.0, nan, 0.0), (4, 4, 1.0, 1.0, 0.0, -inf),
                (4, 4, 1e200, 1.0, 0.0, 0.0), (4, 4, 1.0, 1.0, 0.0, 2e154)]:
        with pytest.raises(ValueError):
            Grid2D(*bad)


def test_grid_approx_eq_holds_each_axis_to_its_own_spacing():
    g = Grid2D(8, 8, 1.0, 1e-3, -3.5, -3.5e-3)
    assert g.approx_eq(Grid2D(8, 8, 1.0, 1e-3 * (1 + 1e-10), -3.5, -3.5e-3))
    # each axis is held to its own spacing, not to the larger of the two
    assert not g.approx_eq(Grid2D(8, 8, 1.0, 1e-3 * (1 + 1e-7), -3.5, -3.5e-3))
    assert not g.approx_eq(Grid2D(8, 8, 1.0, 1e-3, -3.5, -3.5e-3 + 4e-9))
    assert Grid2D.from_axes(*g.axes) == g


@pytest.mark.parametrize("n1, n2, dx1, dx2", [
    (4, 4, 1.0, 1.0), (8, 8, 0.5, 0.5), (64, 64, 0.25, 0.25), (6, 5, 0.7, 0.4),
    (4, 4, 0.5, 0.5), (6, 6, 0.5, 0.5), (32, 32, 0.25, 0.25), (5, 5, 1.0, 1.0),
    (8, 8, 1.0, 1.0), (16, 16, 0.25, 0.25), (8, 8, 0.37, 0.11), (5, 7, 0.3, 0.9),
    (8, 8, 0.6, 0.6)])
def test_centered_grid_is_bitwise_the_closed_form(n1, n2, dx1, dx2):
    g = Grid2D.centered(n1, n2, dx1, dx2)
    assert g == Grid2D(n1, n2, dx1, dx2, -(n1 / 2 - 0.5) * dx1, -(n2 / 2 - 0.5) * dx2)
    assert np.array_equal(g.coords1(), g.x0_1 + g.dx1 * np.arange(n1))
    assert np.array_equal(g.coords2(), g.x0_2 + g.dx2 * np.arange(n2))


def test_centered_grid_avoids_origin():
    g = Grid2D.centered(8, 8, 0.5, 0.5)
    assert np.min(np.abs(g.coords1())) > 0
    assert np.min(np.abs(g.coords2())) > 0
    # symmetric about 0
    np.testing.assert_allclose(g.coords1(), -g.coords1()[::-1], atol=0)


def test_sample_constant_norm():
    f = const_one(grid4())
    assert f.l2_norm_sq() == pytest.approx(16.0, abs=0)


def test_sample_gaussian_norm_matches_analytic():
    # integral of exp(-r^2) over the plane is pi
    g = Grid2D.centered(64, 64, 0.25, 0.25)
    f = sample(g, lambda x1, x2: np.exp(-(x1**2 + x2**2) / 2))
    assert abs(f.l2_norm_sq() - np.pi) < 1e-6


def test_pure_j_signal_same_norm():
    g = Grid2D.centered(64, 64, 0.25, 0.25)
    env = lambda x1, x2: np.exp(-(x1**2 + x2**2) / 2)
    f = sample(g, env)

    def jfn(x1, x2):
        vals = np.zeros(x1.shape + (4,))
        vals[..., 2] = env(x1, x2)
        return vals

    fj = sample(g, jfn)
    assert fj.l2_norm_sq() == pytest.approx(f.l2_norm_sq(), rel=1e-15)


def test_sample_rejects_non_finite():
    g = grid4()

    def bad(x1, x2):
        vals = np.ones_like(x1)
        vals[2, 3] = np.inf
        return vals

    with pytest.raises(ValueError, match="non-finite"):
        sample(g, bad)


def test_inner_product_examples():
    f = const_one(grid4())
    np.testing.assert_allclose(inner_product(f, f), quaternion(16.0), atol=0)
    fi = QSignal2D(f.grid, qmul(quaternion(0, 1, 0, 0), f.samples))
    np.testing.assert_allclose(inner_product(fi, f), quaternion(0, 16, 0, 0),
                               atol=0)


def test_inner_product_conjugate_symmetry_against_loop_oracle():
    rng = np.random.default_rng(7)
    g = Grid2D.centered(6, 5, 0.7, 0.4)
    f = QSignal2D(g, rng.standard_normal((6, 5, 4)))
    h = QSignal2D(g, rng.standard_normal((6, 5, 4)))

    # independent double-loop quadrature oracle
    acc = np.zeros(4)
    for k1 in range(6):
        for k2 in range(5):
            acc = acc + qmul(f.samples[k1, k2], qconj(h.samples[k1, k2]))
    acc *= g.cell_area

    np.testing.assert_allclose(inner_product(f, h), acc, atol=1e-12)
    np.testing.assert_allclose(inner_product(f, h),
                               qconj(inner_product(h, f)), atol=1e-12)


def test_inner_product_grid_mismatch():
    f = const_one(grid4())
    h = const_one(Grid2D.centered(4, 4, 0.5, 0.5))
    with pytest.raises(GridMismatchError):
        inner_product(f, h)


def test_translate_identity_and_impulse():
    g = Grid2D.centered(6, 6, 0.5, 0.5)
    vals = np.zeros((6, 6, 4))
    vals[2, 3, 0] = 1.0
    f = QSignal2D(g, vals)
    np.testing.assert_array_equal(translate(f, (0.0, 0.0)).samples, f.samples)
    shifted = translate(f, (0.5, 0.0))
    assert shifted.samples[3, 3, 0] == 1.0
    assert np.sum(shifted.samples != 0) == 1


def test_translate_norm_preservation_for_interior_window():
    g = Grid2D.centered(32, 32, 0.25, 0.25)
    phi = make_window(WindowSpec("gaussian", (0.35, 0.35)), g)
    n0 = phi.l2_norm()
    # all shifts up to n dx / 4 in either axis
    for y in [(0.5, 0.0), (-0.75, 0.5), (2.0, 2.0), (-2.0, 1.5)]:
        assert abs(translate(phi, y).l2_norm() - n0) <= 1e-10


def test_translate_round_trip_on_interior_cells():
    rng = np.random.default_rng(8)
    g = Grid2D.centered(8, 8, 1.0, 1.0)
    f = QSignal2D(g, rng.standard_normal((8, 8, 4)))
    back = translate(translate(f, (2.0, -1.0)), (-2.0, 1.0))
    # cells that never left the grid are recovered exactly
    np.testing.assert_array_equal(back.samples[:6, 1:], f.samples[:6, 1:])


@pytest.mark.parametrize("n", [2, 3, 5])
def test_shift_slices_match_naive_shift(n):
    a = np.arange(1.0, n + 1.0)
    for m in range(-n - 2, n + 3):
        dst, src = shift_slices(m, n)
        out = np.zeros(n)
        out[dst] = a[src]
        naive = [a[k - m] if 0 <= k - m < n else 0.0 for k in range(n)]
        np.testing.assert_array_equal(out, naive, err_msg=f"m={m}")


def test_translate_beyond_grid_is_zero():
    rng = np.random.default_rng(9)
    g = Grid2D.centered(5, 5, 1.0, 1.0)
    f = QSignal2D(g, rng.standard_normal((5, 5, 4)))
    for y in [(5.0, 0.0), (-7.0, 1.0), (0.0, 6.0), (-5.0, -5.0)]:
        assert not translate(f, y).samples.any(), y


def test_translate_rejects_off_grid_with_suggestion():
    f = const_one(grid4())
    with pytest.raises(ValueError, match=r"nearest aligned"):
        translate(f, (0.3, 0.0))


def test_gaussian_window_peak_at_cell_nearest_origin():
    g = Grid2D.centered(64, 64, 0.25, 0.25)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), g)
    mod = phi.samples[..., 0]
    assert mod.max() == 1.0
    k1, k2 = np.unravel_index(np.argmax(mod), mod.shape)
    x1, x2 = g.coords1()[k1], g.coords2()[k2]
    assert abs(x1) <= g.dx1 / 2 + 1e-15 and abs(x2) <= g.dx2 / 2 + 1e-15
    assert np.all(phi.samples[..., 1:] == 0)


def test_rect_window_exact_block():
    g = Grid2D.centered(8, 8, 0.5, 0.5)
    phi = make_window(WindowSpec("rect", (1.0, 1.0)), g)
    inside = phi.samples[..., 0] == 1.0
    assert inside.sum() == 16  # 4x4 block of ones where |x| < 1
    x1, x2 = g.meshgrid()
    np.testing.assert_array_equal(inside, (np.abs(x1) < 1) & (np.abs(x2) < 1))


def test_hann_window_zero_at_boundary():
    g = Grid2D.centered(16, 16, 0.25, 0.25)
    phi = make_window(WindowSpec("hann", (1.0, 1.0)), g)
    x1, x2 = g.meshgrid()
    outside = (np.abs(x1) >= 1.0) | (np.abs(x2) >= 1.0)
    assert np.max(np.abs(phi.samples[outside])) <= 1e-12


def test_window_spec_validation_and_parsing():
    with pytest.raises(ValueError):
        WindowSpec("gaussian", (0.0, 1.0))
    with pytest.raises(ValueError):
        WindowSpec("box", (1.0, 1.0))
    spec = parse_window_spec("gaussian:sigma=1.5,2.0")
    assert spec == WindowSpec("gaussian", (1.5, 2.0))
    spec = parse_window_spec("rect:width=2")
    assert spec == WindowSpec("rect", (2.0, 2.0))
    spec = parse_window_spec("hann:width=1.0,2.0,center=0.5,0.5")
    assert spec.center == (0.5, 0.5)
    roundtrip = parse_window_spec(spec.to_string())
    assert roundtrip == spec


def test_qsig_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(9)
    g = Grid2D.centered(8, 8, 0.37, 0.11)
    f = QSignal2D(g, rng.standard_normal((8, 8, 4)))
    path = tmp_path / "f.qsig"
    save(path, f)
    back = load(path)
    assert np.array_equal(back.samples, f.samples)
    assert back.grid == f.grid


def test_qsig_error_diagnostics(tmp_path):
    path = tmp_path / "bad.qsig"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="bad magic"):
        load(path)
    path.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(FormatError, match="bad magic"):
        load(path)

    g = Grid2D.centered(4, 4, 1.0, 1.0)
    f = const_one(g)
    good = tmp_path / "good.qsig"
    save(good, f)
    raw = good.read_bytes()

    (tmp_path / "trunc.qsig").write_bytes(raw[:-16])
    with pytest.raises(FormatError, match="truncated payload"):
        load(tmp_path / "trunc.qsig")

    (tmp_path / "trail.qsig").write_bytes(raw + b"\x00" * 8)
    with pytest.raises(FormatError, match="trailing"):
        load(tmp_path / "trail.qsig")

    import struct
    hdr = struct.pack("<4sIIIdddd", b"QSIG", 1, 2**30, 2**30, 0.0, 0.0, 1.0, 1.0)
    (tmp_path / "big.qsig").write_bytes(hdr)
    with pytest.raises(FormatError, match="dimension overflow"):
        load(tmp_path / "big.qsig")

    bad_vals = np.array(f.samples)
    bad_vals[0, 0, 0] = np.nan
    body = raw[:48] + bad_vals.astype("<f8").tobytes()
    (tmp_path / "nan.qsig").write_bytes(body)
    with pytest.raises(FormatError, match="non-finite"):
        load(tmp_path / "nan.qsig")


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    g = Grid2D.centered(5, 7, 0.3, 0.9)
    f = QSignal2D(g, rng.standard_normal((5, 7, 4)))
    path = tmp_path / "f.csv"
    export_csv(path, f)
    back = import_csv(path)
    assert back.grid.approx_eq(f.grid)
    np.testing.assert_allclose(back.samples, f.samples, rtol=1e-15, atol=1e-15)


def test_csv_error_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,qw,qx,qy,qz\n0,0,1,0,0,0\n1,0,1,0,0\n")
    with pytest.raises(FormatError, match="row 3"):
        import_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(FormatError, match="bad header"):
        import_csv(path)


def test_quadrature_linearity():
    rng = np.random.default_rng(11)
    g = Grid2D.centered(8, 8, 0.6, 0.6)
    f = QSignal2D(g, rng.standard_normal((8, 8, 4)))
    for alpha in (0.25, -3.0, 7.5):
        assert abs(f.scaled(alpha).l2_norm() - abs(alpha) * f.l2_norm()) \
            <= 1e-12 * f.l2_norm()


def test_parallelogram_law():
    rng = np.random.default_rng(12)
    g = Grid2D.centered(8, 8, 0.6, 0.6)
    for _ in range(20):
        f = QSignal2D(g, rng.standard_normal((8, 8, 4)))
        h = QSignal2D(g, rng.standard_normal((8, 8, 4)))
        lhs = (QSignal2D(g, f.samples + h.samples).l2_norm_sq()
               + QSignal2D(g, f.samples - h.samples).l2_norm_sq())
        rhs = 2 * f.l2_norm_sq() + 2 * h.l2_norm_sq()
        assert abs(lhs - rhs) <= 1e-10 * rhs


def test_signal_is_immutable():
    f = const_one(grid4())
    with pytest.raises((ValueError, AttributeError)):
        f.samples[0, 0, 0] = 2.0
    with pytest.raises(AttributeError):
        f.grid = grid4()
