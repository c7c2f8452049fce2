import dataclasses
import json
import os
import zlib

import numpy as np
import pytest

from qlct import gabor, lct1d, qlct2d
from qlct.families import (PARAM_SETS, gaussian, impulse, normalized,
                           random_quaternion_signal)
from qlct.gabor import (GaborCoefficients, _translates, export_field_csv,
                        export_pgm, gabor_analyze, gabor_field_stats,
                        gabor_plancherel_check, gabor_synthesize,
                        load_coefficients, save_coefficients, spectrogram,
                        translation_grid)
from qlct.lct1d import LCTParams, axis_plan
from qlct.qlct2d import (FastPlan, QLCTParams, _fast_plan, _two_sided_fast,
                         forward_grid, qlct_forward_fast, qlct_inverse)
from qlct.signal import (FormatError, Grid2D, NumericError, QSignal2D, WindowSpec,
                         make_window, translate)
from qlct.quat import pair_abs_sq, qabs_sq, qconj, qmul

from oracles import abs_sq_table, gabor_analyze_at, modulus_sq
from test_qlct2d import MIXED_CASES


def rel_l2(a, b):
    return float(np.sqrt(np.sum((a - b)**2) / np.sum(b**2)))


# ---------------------------------------------------------------------------
# dense-sum oracle of the defining windowed-transform integral

def windowed_transform_oracle(f, phi, y, p):
    """Direct Riemann sum of K_i(x1, w1) f(x) conj(phi(x - y)) K_j(x2, w2)
    with inline kernels and inline matrix quaternion products."""

    def lmat(w, x, yy, z):
        return np.array([[w, -x, -yy, -z], [x, w, -z, yy],
                         [yy, z, w, -x], [z, -yy, x, w]])

    def rmat(w, x, yy, z):
        return np.array([[w, -x, -yy, -z], [x, w, z, -yy],
                         [yy, -z, w, x], [z, yy, -x, w]])

    def phase(pp, x, w):
        return ((pp.a / (2 * pp.b)) * x**2 - x * w / pp.b
                + (pp.d / (2 * pp.b)) * w**2 - (np.pi / 4) * np.sign(pp.b))

    g = f.grid
    og = forward_grid(g, p)
    shifted = translate(phi, y)
    windowed = qmul(f.samples, qconj(shifted.samples))
    amp = 1.0 / np.sqrt(2 * np.pi * abs(p.A1.b)) \
        / np.sqrt(2 * np.pi * abs(p.A2.b))
    out = np.zeros((og.n1, og.n2, 4))
    x1 = g.coords1()
    x2 = g.coords2()
    for m1 in range(og.n1):
        w1 = og.coords1()[m1]
        for m2 in range(og.n2):
            w2 = og.coords2()[m2]
            acc = np.zeros(4)
            for k1 in range(g.n1):
                th1 = phase(p.A1, x1[k1], w1)
                left = lmat(np.cos(th1), np.sin(th1), 0.0, 0.0)
                for k2 in range(g.n2):
                    th2 = phase(p.A2, x2[k2], w2)
                    right = rmat(np.cos(th2), 0.0, np.sin(th2), 0.0)
                    acc = acc + right @ (left @ windowed[k1, k2])
            out[m1, m2] = acc * amp * g.cell_area
    return QSignal2D(og, out)


def test_analyze_at_matches_defining_integral_oracle():
    grid = Grid2D.centered(8, 8, 0.5, 0.5)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (0.8, 0.8)), grid)
    p = PARAM_SETS["fourier"]
    oracle = windowed_transform_oracle(f, phi, (0.0, 0.0), p)
    for method in ("fast", "direct"):
        got = gabor_analyze_at(f, phi, (0.0, 0.0), p, method)
        assert np.max(np.abs(got.samples - oracle.samples)) <= 1e-9
    # and at a nonzero translation
    oracle = windowed_transform_oracle(f, phi, (1.0, -0.5), p)
    got = gabor_analyze_at(f, phi, (1.0, -0.5), p)
    assert np.max(np.abs(got.samples - oracle.samples)) <= 1e-9


def test_analyze_at_full_rect_window_reduces_to_qlct():
    grid = Grid2D.centered(16, 16, 0.5, 0.5)
    rng = np.random.default_rng(30)
    f = random_quaternion_signal(grid, rng)
    phi = make_window(WindowSpec("rect", (100.0, 100.0)), grid)
    assert np.all(phi.samples[..., 0] == 1.0)
    p = PARAM_SETS["generic"]
    got = gabor_analyze_at(f, phi, (0.0, 0.0), p)
    expected = qlct_forward_fast(f, p)
    np.testing.assert_allclose(got.samples, expected.samples, atol=1e-12)


def test_analyze_at_zero_signal():
    grid = Grid2D.centered(8, 8, 0.5, 0.5)
    zero = QSignal2D(grid, np.zeros((8, 8, 4)))
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    got = gabor_analyze_at(zero, phi, (0.0, 0.0), PARAM_SETS["fourier"])
    assert np.all(got.samples == 0)


def test_analyze_slices_match_analyze_at():
    grid = Grid2D.centered(16, 16, 0.5, 0.5)
    rng = np.random.default_rng(31)
    f = random_quaternion_signal(grid, rng)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    p = PARAM_SETS["fourier"]
    G = gabor_analyze(f, phi, p, 1)
    assert G.coeffs.shape == (16, 16, 16, 16, 4)
    y1 = G.y_grid.coords1()
    y2 = G.y_grid.coords2()
    for iy1, iy2 in [(0, 0), (8, 8), (3, 12), (15, 1)]:
        at = gabor_analyze_at(f, phi, (y1[iy1], y2[iy2]), p)
        np.testing.assert_allclose(G.coeffs[iy1, iy2], at.samples,
                                   atol=1e-12)


def test_analyze_stride_two_is_a_subset():
    grid = Grid2D.centered(16, 16, 0.5, 0.5)
    rng = np.random.default_rng(32)
    f = random_quaternion_signal(grid, rng)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    p = PARAM_SETS["fourier"]
    G1 = gabor_analyze(f, phi, p, 1)
    G2 = gabor_analyze(f, phi, p, 2)
    assert G2.coeffs.shape == (8, 8, 16, 16, 4)
    assert G2.y_grid.dx1 == 2 * grid.dx1
    np.testing.assert_array_equal(G2.coeffs, G1.coeffs[::2, ::2])
    # the retained translation values coincide
    np.testing.assert_allclose(G2.y_grid.coords1(), G1.y_grid.coords1()[::2])


def test_gaussian_field_peaks_at_origin_and_decays():
    grid = Grid2D.centered(16, 16, 0.5, 0.5)
    f = normalized(gaussian(grid, 1.0))
    G = gabor_analyze(f, f, PARAM_SETS["fourier"], 1)
    mod2 = modulus_sq(G)
    peak = np.unravel_index(np.argmax(mod2), mod2.shape)
    # peak sits at a cell nearest (y, omega) = (0, 0); the omega axes have
    # no sample at 0, so the two straddling cells tie
    assert peak[:2] == (8, 8)
    assert peak[2] in (7, 8) and peak[3] in (7, 8)
    # radial decrease along each positive axis ray from the peak
    for axis in range(4):
        idx = list(peak)
        vals = []
        for k in range(peak[axis], mod2.shape[axis]):
            idx[axis] = k
            vals.append(mod2[tuple(idx)])
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_synthesis_round_trip_and_padding_improvement():
    p = PARAM_SETS["fourier"]
    errors = []
    for dx in (0.5, 0.75):
        grid = Grid2D.centered(16, 16, dx, dx)
        f = gaussian(grid, 1.0)
        phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
        G = gabor_analyze(f, phi, p, 1)
        back = gabor_synthesize(G, phi)
        errors.append(rel_l2(back.samples, f.samples))
    assert errors[0] <= 1e-2
    assert errors[1] < errors[0]


def test_synthesize_zero_and_scaling():
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (0.8, 0.8)), grid)
    p = PARAM_SETS["fourier"]
    G = gabor_analyze(f, phi, p, 1)
    zero = GaborCoefficients(G.omega_grid, G.y_grid, np.zeros_like(G.coeffs),
                             p, G.window_norm_sq, 1)
    assert np.all(gabor_synthesize(zero, phi).samples == 0)
    a = gabor_synthesize(dataclasses.replace(G, coeffs=G.coeffs * 2.5), phi).samples
    b = 2.5 * gabor_synthesize(G, phi).samples
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_synthesize_rejects_stride_and_window_mismatch():
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (0.8, 0.8)), grid)
    p = PARAM_SETS["fourier"]
    G2 = gabor_analyze(f, phi, p, 2)
    with pytest.raises(ValueError, match="stride"):
        gabor_synthesize(G2, phi)
    G = gabor_analyze(f, phi, p, 1)
    other = make_window(WindowSpec("gaussian", (0.7, 0.7)), grid)
    with pytest.raises(ValueError, match="window mismatch"):
        gabor_synthesize(G, other)
    # norms far below any absolute tolerance still have to match
    tiny = phi.scaled(1e-7)
    G_tiny = gabor_analyze(f, tiny, p, 1)
    with pytest.raises(ValueError, match="window mismatch"):
        gabor_synthesize(G_tiny, tiny.scaled(2.0))
    # an omega_grid other than forward_grid(phi.grid, p)
    og = G.omega_grid
    shifted = dataclasses.replace(og, x0_1=og.x0_1 + og.dx1)
    with pytest.raises(ValueError, match="omega_grid"):
        gabor_synthesize(dataclasses.replace(G, omega_grid=shifted), phi)


# ---------------------------------------------------------------------------
# quaternion-valued windows: every term of the symplectic windowing product

def quaternion_window(grid):
    """Gaussian scaled by the quaternion (1, 0.3, -0.2, 0.5), so both
    symplectic planes of the window are nonzero."""
    vals = gaussian(grid, 0.8).samples[..., :1] * np.array([1.0, 0.3, -0.2, 0.5])
    return QSignal2D(grid, vals)


def synthesize_qmul_reference(G, phi):
    """Stride-1 synthesis with quaternion-array products: each slice is
    inverted on its own and multiplied by the translated window with qmul."""
    grid = phi.grid
    y1, y2 = G.y_grid.coords1(), G.y_grid.coords2()
    acc = np.zeros((grid.n1, grid.n2, 4))
    for i1 in range(G.y_grid.n1):
        for i2 in range(G.y_grid.n2):
            slice_ = QSignal2D(G.omega_grid, G.coeffs[i1, i2])
            h = qlct_inverse(slice_, G.params, x_grid=grid).samples
            acc += qmul(h, translate(phi, (y1[i1], y2[i2])).samples)
    return acc * G.y_grid.cell_area / phi.l2_norm_sq()


def test_quaternion_window_fast_matches_direct():
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = random_quaternion_signal(grid, np.random.default_rng(60))
    phi = quaternion_window(grid)
    assert np.all(np.abs(phi.samples[..., 2:]).max(axis=(0, 1)) > 0)
    p = PARAM_SETS["generic"]

    fast = gabor_analyze(f, phi, p, 1, "fast").coeffs
    direct = gabor_analyze(f, phi, p, 1, "direct").coeffs
    assert np.max(np.abs(fast - direct)) <= 1e-9 * np.max(np.abs(direct))

    kwargs = dict(s_values=(0.5, 1.0), pprimes=(1.5, 2.0), log_omega=True)
    sf = gabor_field_stats(f, phi, p, method="fast", **kwargs)
    sd = gabor_field_stats(f, phi, p, method="direct", **kwargs)
    for key in ("energy", "max_abs", "log_omega_sum"):
        assert sf[key] == pytest.approx(sd[key], rel=1e-9), key
    for key in ("moment_omega", "moment_y", "moment_joint", "power_sums"):
        for k in sd[key]:
            assert sf[key][k] == pytest.approx(sd[key][k], rel=1e-9), (key, k)

    rf, rd = gabor_plancherel_check(sf), gabor_plancherel_check(sd)
    assert rf.lhs == pytest.approx(rd.lhs, rel=1e-9)
    assert rf.rhs == rd.rhs


def test_fast_sweep_one_cell_off_disagrees_with_direct(monkeypatch):
    # the direct branch windows with `translate`, not the fast path's
    # sweep, so a sweep whose every translate sits one cell off shows up
    # in the fast-vs-direct comparison of the field statistics
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = random_quaternion_signal(grid, np.random.default_rng(60))
    phi = quaternion_window(grid)
    p = PARAM_SETS["generic"]
    sweep = gabor._translates
    monkeypatch.setattr(gabor, "_translates", lambda planes, stride=1:
                        np.roll(sweep(planes, stride), 1, axis=-1))
    sf = gabor_field_stats(f, phi, p, method="fast", s_values=(1.0,))
    sd = gabor_field_stats(f, phi, p, method="direct", s_values=(1.0,))
    for key in ("energy", "max_abs"):
        assert sf[key] != pytest.approx(sd[key], rel=1e-9), key
    assert sf["moment_y"][1.0] != pytest.approx(sd["moment_y"][1.0], rel=1e-9)


def test_direct_pass_builds_two_kernel_matrices(monkeypatch):
    # a direct pass builds K1 and K2 once, as a fast pass builds one plan,
    # and contracts every block of translations with them
    built = []

    def counted(*args):
        built.append(args)
        return lct1d.kernel_matrix(*args)

    for module in (gabor, qlct2d):
        monkeypatch.setattr(module, "kernel_matrix", counted)
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = random_quaternion_signal(grid, np.random.default_rng(62))
    p = PARAM_SETS["generic"]
    stats = gabor_field_stats(f, quaternion_window(grid), p, method="direct")
    assert stats["energy"] > 0
    assert [(args[0], args[2]) for args in built] == [(p.A1, grid.axes[0]), (p.A2, grid.axes[1])]


def test_quaternion_window_synthesis_matches_qmul_reference():
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = random_quaternion_signal(grid, np.random.default_rng(61))
    phi = quaternion_window(grid)
    G = gabor_analyze(f, phi, PARAM_SETS["generic"], 1)
    got = gabor_synthesize(G, phi).samples
    want = synthesize_qmul_reference(G, phi)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_plancherel_ratio_and_monotone_refinement():
    p = PARAM_SETS["fourier"]
    errs = []
    for n in (16, 32, 64):
        grid = Grid2D.centered(n, n, 8.0 / n, 8.0 / n)
        f = gaussian(grid, 1.0)
        phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
        rep = gabor_plancherel_check(gabor_field_stats(f, phi, p))
        errs.append(abs(rep.ratio - 1.0))
    assert errs[1] >= 0.98 * errs[1]  # sanity
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] <= 0.02  # 32x32 criterion band holds even at 16


def test_plancherel_single_cell_window_and_zero_signal():
    grid = Grid2D.centered(16, 16, 0.5, 0.5)
    f = gaussian(grid, 1.0)
    cell = np.zeros((16, 16, 4))
    cell[8, 8, 0] = 1.0
    tiny = QSignal2D(grid, cell)
    p = PARAM_SETS["fourier"]
    rep = gabor_plancherel_check(gabor_field_stats(f, tiny, p))
    assert abs(rep.ratio - 1.0) <= 5e-2
    zero = QSignal2D(grid, np.zeros((16, 16, 4)))
    rep = gabor_plancherel_check(gabor_field_stats(zero, tiny, p))
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_spectrogram_slices():
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    rng = np.random.default_rng(33)
    f = random_quaternion_signal(grid, rng)
    phi = make_window(WindowSpec("gaussian", (0.8, 0.8)), grid)
    p = PARAM_SETS["fourier"]
    G = gabor_analyze(f, phi, p, 1)
    for kind, index in [("fix_y", (4, 4)), ("fix_omega", (2, 3)),
                        ("max_over_y", None), ("max_over_omega", None)]:
        field = spectrogram(G, kind, index)
        assert field.shape == (8, 8)
        assert np.all(field >= 0)
    with pytest.raises(ValueError, match="out of range"):
        spectrogram(G, "fix_y", (99, 0))
    with pytest.raises(ValueError, match="slice kind"):
        spectrogram(G, "bogus")


def test_spectrogram_full_window_fix_y_equals_qlct_power():
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    rng = np.random.default_rng(34)
    f = random_quaternion_signal(grid, rng)
    phi = make_window(WindowSpec("rect", (100.0, 100.0)), grid)
    p = PARAM_SETS["fourier"]
    G = gabor_analyze(f, phi, p, 1)
    field = spectrogram(G, "fix_y", (4, 4))  # y = 0 cell
    assert G.y_grid.coords1()[4] == 0.0
    F = qlct_forward_fast(f, p)
    np.testing.assert_allclose(field, F.modulus()**2, atol=1e-12)


def test_spectrogram_impulse_peaks_at_translation_cell():
    grid = Grid2D.centered(8, 8, 0.5, 0.5)
    cell = (6, 2)
    f = impulse(grid, cell)
    phi = make_window(WindowSpec("gaussian", (0.5, 0.5)), grid)
    p = PARAM_SETS["fourier"]
    G = gabor_analyze(f, phi, p, 1)
    field = spectrogram(G, "max_over_omega")
    iy1, iy2 = np.unravel_index(np.argmax(field), field.shape)
    # the peak translation is the y value nearest the impulse position
    x1 = grid.coords1()[cell[0]]
    x2 = grid.coords2()[cell[1]]
    assert abs(G.y_grid.coords1()[iy1] - x1) <= grid.dx1 / 2 + 1e-12
    assert abs(G.y_grid.coords2()[iy2] - x2) <= grid.dx2 / 2 + 1e-12


def test_coefficient_save_load_round_trip(tmp_path):
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    rng = np.random.default_rng(35)
    f = random_quaternion_signal(grid, rng)
    phi = make_window(WindowSpec("gaussian", (0.8, 0.8)), grid)
    G = gabor_analyze(f, phi, PARAM_SETS["generic"], 1)
    outdir = tmp_path / "coef"
    manifest = save_coefficients(G, phi, outdir)
    with open(manifest) as fh:
        data = json.load(fh)
    assert data["omega_grid"] == G.omega_grid.to_dict()
    assert sorted(os.listdir(outdir)) == ["coeffs.f64", "manifest.json",
                                          "window.qsig"]
    payload = (outdir / "coeffs.f64").read_bytes()
    assert payload == G.coeffs.astype("<f8").tobytes()
    assert data["payload_crc32"] == zlib.crc32(payload)
    back, phi_back = load_coefficients(outdir)
    assert np.array_equal(back.coeffs, G.coeffs)
    assert back.omega_grid == G.omega_grid and back.y_grid == G.y_grid
    assert back.params == G.params
    assert back.window_norm_sq == G.window_norm_sq
    assert back.stride == G.stride
    assert np.array_equal(phi_back.samples, phi.samples)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("n1,n2", [(8, 8), (9, 7)])
def test_computed_and_stored_rows_are_the_dense_rows_bit_for_bit(tmp_path, n1, n2,
                                                                  stride):
    grid = Grid2D.centered(n1, n2, 0.6, 0.5)
    f = random_quaternion_signal(grid, np.random.default_rng(n1 * n2 + stride))
    phi = quaternion_window(grid)
    p = PARAM_SETS["generic"]
    dense = gabor_analyze(f, phi, p, stride).coeffs
    computed = gabor.gabor_stream(f, phi, p, stride)
    save_coefficients(computed, phi, tmp_path)
    assert (tmp_path / "coeffs.f64").read_bytes() == dense.astype("<f8").tobytes()
    stored, _ = load_coefficients(tmp_path)
    for G in (computed, stored):
        assert isinstance(G.coeffs, gabor.RowStream)
        assert G.coeffs.shape == dense.shape
        rows = [row.copy() for row in G.rows()]  # a pass reuses one buffer
        assert len(rows) == len(dense)
        for got, want in zip(rows, dense):
            assert got.tobytes() == want.tobytes()
        assert np.asarray(G.coeffs).tobytes() == dense.tobytes()


def test_a_stored_pass_checks_the_crc_after_its_last_row(tmp_path):
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = random_quaternion_signal(grid, np.random.default_rng(36))
    save_coefficients(gabor_analyze(f, f, PARAM_SETS["fourier"]), f, tmp_path)
    payload = tmp_path / "coeffs.f64"
    raw = bytearray(payload.read_bytes())
    raw[-8] ^= 1  # the last value's lowest mantissa bit: still finite
    payload.write_bytes(bytes(raw))
    G, _ = load_coefficients(tmp_path)
    rows = G.rows()
    for _ in range(G.y_grid.n1):
        next(rows)
    with pytest.raises(FormatError, match="crc32 does not match"):
        next(rows)


@pytest.mark.parametrize("damage, message", [(b"", "truncated payload"),
                                             (b"\0" * 8, "trailing data")])
def test_a_payload_of_the_wrong_size_is_refused_before_any_row_is_read(
        tmp_path, monkeypatch, damage, message):
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = random_quaternion_signal(grid, np.random.default_rng(37))
    save_coefficients(gabor_analyze(f, f, PARAM_SETS["fourier"]), f, tmp_path)
    payload = tmp_path / "coeffs.f64"
    raw = payload.read_bytes()
    payload.write_bytes(raw + damage if damage else raw[:-8])
    monkeypatch.setattr(gabor, "_stored_rows", lambda *args: pytest.fail("read a row"))
    with pytest.raises(FormatError, match=message):
        load_coefficients(tmp_path)


def test_a_failed_save_leaves_an_older_directory_as_it_was(tmp_path):
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = random_quaternion_signal(grid, np.random.default_rng(38))
    G = gabor_analyze(f, f, PARAM_SETS["fourier"])
    save_coefficients(G, f, tmp_path / "coef")
    before = {p.name: p.read_bytes() for p in (tmp_path / "coef").iterdir()}
    coeffs = G.coeffs.copy()
    coeffs[5, 3, 2, 1, 0] = np.nan  # a middle row
    for out in ("coef", "new/nested"):
        with pytest.raises(NumericError, match="y1 row 5"):
            save_coefficients(dataclasses.replace(G, coeffs=coeffs), f, tmp_path / out)
    assert {p.name: p.read_bytes() for p in (tmp_path / "coef").iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coef"]


def test_pgm_and_csv_export(tmp_path):
    field = np.linspace(0.0, 2.0, 12).reshape(3, 4)
    pgm = tmp_path / "f.pgm"
    export_pgm(field, pgm)
    raw = pgm.read_bytes()
    assert raw.startswith(b"P5\n4 3\n255\n")
    assert len(raw) == len(b"P5\n4 3\n255\n") + 12
    sidecar = json.loads((tmp_path / "f.pgm.json").read_text())
    assert sidecar["min"] == 0.0 and sidecar["max"] == 2.0
    csv_path = tmp_path / "f.csv"
    export_field_csv(field, csv_path)
    back = np.loadtxt(csv_path, delimiter=",")
    np.testing.assert_allclose(back, field, atol=1e-15)


def test_translation_grid_contains_zero():
    grid = Grid2D.centered(16, 16, 0.5, 0.5)
    yg = translation_grid(grid, 1)
    assert 0.0 in yg.coords1()
    assert yg.n1 == 16 and yg.dx1 == grid.dx1
    yg2 = translation_grid(grid, 2)
    assert 0.0 in yg2.coords1()


def test_translation_grid_keeps_two_translations_per_axis():
    # the largest stride is min(n1, n2) - 1: one more keeps a single
    # translation on the shorter axis, which is no grid
    grid = Grid2D.centered(8, 6, 0.5, 0.5)
    assert translation_grid(grid, 5).shape == (2, 2)
    for stride in (0, 6, 8):
        with pytest.raises(ValueError, match=f"^stride {stride} is not from 1 to 5, "):
            translation_grid(grid, stride)


@pytest.mark.parametrize("n1,n2", [(8, 6), (7, 5)])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_translates_equal_translate_at_every_kept_y(n1, n2, stride):
    grid = Grid2D.centered(n1, n2, 0.5, 0.25)
    rng = np.random.default_rng(n1 * 10 + stride)
    phi = QSignal2D(grid, rng.standard_normal((n1, n2, 4)))
    yg = translation_grid(grid, stride)
    view = _translates(np.moveaxis(phi.samples, -1, 0), stride)
    assert view.shape == (4, *yg.shape, n1, n2)
    for i1, y1 in enumerate(yg.coords1()):
        for i2, y2 in enumerate(yg.coords2()):
            np.testing.assert_array_equal(np.moveaxis(view[:, i1, i2], 0, -1),
                                          translate(phi, (y1, y2)).samples)
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0, 0, 0, 0] = 2.0


# ---------------------------------------------------------------------------
# blocked sweep: a row of translations runs in blocks of gabor.BLOCK_BYTES

_BLOCK_GRIDS = [(8, 8), (12, 10), (16, 16)]  # ny2 is never a multiple of 3


def _block_bytes(grid, stride):
    """BLOCK_BYTES giving one translation per block, ragged blocks of 3 and
    one block per whole row."""
    cell = 16 * grid.n1 * grid.n2
    return {"one": cell, "ragged": 3 * cell,
            "row": translation_grid(grid, stride).n2 * cell}


def _blocked(grid, stride, monkeypatch, size):
    monkeypatch.setattr(gabor, "BLOCK_BYTES", _block_bytes(grid, stride)[size])


def _y2_slices(f, phi, p, stride):
    return [(iy1, sl.start, sl.stop)
            for iy1, sl, _, _ in gabor.iter_gabor_blocks(f, phi, p, stride)]


@pytest.mark.parametrize("name", list(PARAM_SETS))
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("n1,n2", _BLOCK_GRIDS)
def test_block_size_leaves_every_bit(name, stride, n1, n2, monkeypatch):
    grid = Grid2D.centered(n1, n2, 0.6, 0.5)
    f = random_quaternion_signal(grid, np.random.default_rng(n1 + n2 + stride))
    phi = quaternion_window(grid)
    p = PARAM_SETS[name]
    ny2 = translation_grid(grid, stride).n2
    kwargs = dict(s_values=(0.5, 1.0), pprimes=(1.5, 3.0), log_omega=True,
                  y_stride=stride)
    results = {}
    for size in ("one", "ragged", "row"):
        _blocked(grid, stride, monkeypatch, size)
        blocks = _y2_slices(f, phi, p, stride)
        step = {"one": 1, "ragged": 3, "row": ny2}[size]
        assert blocks == [(iy1, i, min(i + step, ny2))
                          for iy1 in range(translation_grid(grid, stride).n1)
                          for i in range(0, ny2, step)], size
        results[size] = (gabor_field_stats(f, phi, p, **kwargs),
                         gabor_analyze(f, phi, p, stride).coeffs,
                         gabor_plancherel_check(gabor_field_stats(f, phi, p)).lhs)
    stats, coeffs, lhs = results["row"]
    for size in ("one", "ragged"):
        got_stats, got_coeffs, got_lhs = results[size]
        for key in ("energy", "max_abs", "log_omega_sum", "moment_omega",
                    "moment_y", "moment_joint", "power_sums"):
            assert got_stats[key] == stats[key], (size, key)
        np.testing.assert_array_equal(got_coeffs, coeffs, err_msg=size)
        assert got_lhs == lhs, size


@pytest.mark.parametrize("name", list(PARAM_SETS))
def test_multi_block_rows_match_direct(name, monkeypatch):
    grid = Grid2D.centered(12, 10, 0.6, 0.5)
    f = random_quaternion_signal(grid, np.random.default_rng(62))
    phi = quaternion_window(grid)
    p = PARAM_SETS[name]
    _blocked(grid, 1, monkeypatch, "ragged")
    assert len(_y2_slices(f, phi, p, 1)) == 4 * grid.n1
    fast = gabor_analyze(f, phi, p, 1, "fast").coeffs
    direct = gabor_analyze(f, phi, p, 1, "direct").coeffs
    assert np.max(np.abs(fast - direct)) <= 1e-9 * np.max(np.abs(direct))
    kwargs = dict(s_values=(1.0,), pprimes=(1.5,))
    sf = gabor_field_stats(f, phi, p, method="fast", **kwargs)
    sd = gabor_field_stats(f, phi, p, method="direct", **kwargs)
    assert sf["energy"] == pytest.approx(sd["energy"], rel=1e-9)
    assert sf["max_abs"] == pytest.approx(sd["max_abs"], rel=1e-9)
    assert sf["moment_y"][1.0] == pytest.approx(sd["moment_y"][1.0], rel=1e-9)
    assert sf["power_sums"][1.5] == pytest.approx(sd["power_sums"][1.5], rel=1e-9)


@pytest.mark.parametrize("name", list(PARAM_SETS))
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("window", ["real", "quaternion"])
def test_field_stats_without_post_chirps_match_direct(name, stride, window):
    # the fast pass reduces |P|^2 + |M|^2 without post-chirps and scales
    # once; the direct branch keeps them: every sum agrees at the oracle
    # tolerance, for the one-multiply real window and the quaternion one
    grid = Grid2D.centered(10, 8, 0.6, 0.5)
    f = random_quaternion_signal(grid, np.random.default_rng(65))
    phi = gaussian(grid, 0.8) if window == "real" else quaternion_window(grid)
    p = PARAM_SETS[name]
    kwargs = dict(s_values=(0.5, 1.0), pprimes=(1.5, 2.0, 3.0), log_omega=True,
                  y_stride=stride)
    tf, sf = abs_sq_table(f, phi, p, method="fast", **kwargs)
    td, sd = abs_sq_table(f, phi, p, method="direct", **kwargs)
    for key in ("energy", "max_abs", "log_omega_sum"):
        assert sf[key] == pytest.approx(sd[key], rel=1e-9), key
    for key in ("moment_omega", "moment_y", "moment_joint", "power_sums"):
        assert sf[key].keys() == sd[key].keys()
        for k in sd[key]:
            assert sf[key][k] == pytest.approx(sd[key][k], rel=1e-9), (key, k)
    assert np.max(np.abs(tf - td)) <= 1e-9 * np.max(td)
    assert sf["plancherel_by_y_residual"] <= 1e-12


@pytest.mark.parametrize("name", list(PARAM_SETS))
@pytest.mark.parametrize("stride", [1, 2])
def test_each_translation_keeps_its_windowed_energy(name, stride, monkeypatch):
    # Plancherel for each y on its own: sum_omega |G(omega, y)|^2 domega
    # equals sum_x |f(x)|^2 |phi(x - y)|^2 dx, an identity of the discrete
    # transform that no sum over y can hide
    grid = Grid2D.centered(16, 12, 0.6, 0.5)
    f = random_quaternion_signal(grid, np.random.default_rng(63))
    phi = quaternion_window(grid)
    p = PARAM_SETS[name]
    _blocked(grid, stride, monkeypatch, "ragged")
    dw = forward_grid(grid, p).cell_area
    window_sq = _translates(qabs_sq(phi.samples)[None], stride)[0]
    rhs = (qabs_sq(f.samples) * window_sq).sum(axis=(-2, -1)) * grid.cell_area
    lhs = np.full(rhs.shape, np.nan)
    blocks = 0
    for iy1, sl, P, M in gabor.iter_gabor_blocks(f, phi, p, stride):
        lhs[iy1, sl] = 2 * pair_abs_sq(P, M).sum(axis=(-2, -1)) * dw
        blocks += 1
    assert blocks > translation_grid(grid, stride).n1
    np.testing.assert_array_less(np.abs(lhs - rhs), 1e-12 * rhs)
    # a pass checks the same identity on the translations it swept
    np.testing.assert_allclose(gabor._windowed_energy(f, phi, stride), rhs, rtol=1e-14)
    assert gabor_field_stats(f, phi, p, y_stride=stride)["plancherel_by_y_residual"] <= 1e-12


# b = 0 left axes: their plans' pre-chirps are constant and they run no
# FFT; with a < 0 the step is a flip, whose result takes a fresh array
_CHIRP_PARAMS = {**PARAM_SETS,
                 "b1-zero": QLCTParams(LCTParams(1.0, 0.0, 0.5, 1.0),
                                       PARAM_SETS["fourier"].A2),
                 "b1-zero-flip": QLCTParams(LCTParams(-1.0, 0.0, 0.5, -1.0),
                                            PARAM_SETS["fourier"].A2)}


def _assert_modulus(chirp, want):
    np.testing.assert_array_less(np.abs(np.abs(chirp) - want), 4 * np.spacing(want))


_AMPLITUDE_PARAMS = {**_CHIRP_PARAMS, **{f"mixed-{k}": v for k, v in MIXED_CASES.items()}}


@pytest.mark.parametrize("name", list(_AMPLITUDE_PARAMS))
@pytest.mark.parametrize("sign", [1, -1])
def test_every_post_chirp_has_the_constant_modulus_of_its_plan(name, sign):
    # a |G|^2 pass leaves out the post-chirps and scales by 2 alone, which
    # is exact only while every |post| is 1 and the pre-chirps carry the
    # kernel amplitude, halved on the left plan of the halves
    p = _AMPLITUDE_PARAMS[name]
    for grid in (Grid2D.centered(12, 10, 0.6, 0.5), Grid2D.centered(64, 64, 0.3, 0.4)):
        fast = _fast_plan(p, *grid.axes)
        for A, axis, fast_plans in ((p.A1, grid.axes[0], [(fast.left, 0.5)]),
                                    (p.A2, grid.axes[1], [(fast.plus, 1.0), (fast.minus, 1.0)])):
            amplitude = axis.dx / np.sqrt(2 * np.pi * abs(A.b)) if A.b else np.sqrt(abs(A.d))
            for plan, share in [(axis_plan(A, sign, axis), 1.0), *fast_plans]:
                _assert_modulus(plan.post, 1.0)
                _assert_modulus(plan.pre, share * amplitude)
        for right in (fast.plus, fast.minus):
            _assert_modulus(np.multiply.outer(fast.left.post, right.post), 1.0)


@pytest.mark.parametrize("name", list(PARAM_SETS))
def test_fast_pass_matches_direct_on_a_fine_grid(name):
    # the pre-chirps scale the halves before a |G|^2 pass squares and sums
    # them, so at dx = 1e-60 the pass stays finite where the direct oracle
    # does: its s = 1 omega-moment is about 5.6e119, and the halves of the
    # unit Gaussian's 1e59 samples, unscaled, overflowed it; for d != 0 the
    # oracle agrees only because its kernel keeps the cross term apart from
    # the (d/2b)w^2 chirp, which is about 1e120 rad here
    f = normalized(gaussian(Grid2D.centered(8, 8, 1e-60, 1e-60), 1.0))
    fast, direct = (gabor_field_stats(f, f, PARAM_SETS[name], s_values=(1.0,),
                                      method=method) for method in ("fast", "direct"))
    for got, want in ((fast["energy"], direct["energy"]),
                      (fast["moment_omega"][1.0], direct["moment_omega"][1.0])):
        assert np.isfinite(got) and np.isfinite(want)
        assert got == pytest.approx(want, rel=1e-12)


def _folded_halves(f, phi, plan, y):
    """The windowed halves of f*conj(phi(. - y)) in the pass's order: the
    2D pre-chirps folded into f first, then one multiply per half for a
    real window and the two-product formula for a quaternion one."""
    pre_p, pre_m = (np.multiply.outer(plan.left.pre, right.pre)
                    for right in (plan.plus, plan.minus))
    fa, fb = (c[None] for c in gabor.to_complex_pair(f.samples))
    ifb = 1j * fb
    shifted = translate(phi, y)
    if not phi.samples[..., 1:].any():
        w = shifted.samples[None, ..., 0]
        return pre_p * (fa + ifb) * w, pre_m * (fa - ifb) * w
    alpha, beta, calpha, cbeta = (h[None] for h in gabor._window_halves(shifted))
    return ((pre_p * fa) * alpha + (pre_p * ifb) * cbeta,
            (pre_m * fa) * beta - (pre_m * ifb) * calpha)


@pytest.mark.parametrize("name", list(_CHIRP_PARAMS))
def test_pass_chirps_keep_every_bit(name, monkeypatch):
    # a pass folds its 2D pre-chirps into f once and hands every block a
    # plan without them; each block's halves are f with its pre-chirps
    # folded in, times the window, and its P and M equal a lone transform
    # of them, with the pre-chirp left out (all ones) and, for a |G|^2
    # pass, the post-chirp too
    grid = Grid2D.centered(12, 10, 0.6, 0.5)
    f = random_quaternion_signal(grid, np.random.default_rng(64))
    p = _CHIRP_PARAMS[name]
    _blocked(grid, 1, monkeypatch, "ragged")
    calls = []
    two_sided = gabor._two_sided_fast

    def spy(plan, u, v):
        calls.append((u.copy(), v.copy(), plan))
        return two_sided(plan, u, v)

    monkeypatch.setattr(gabor, "_two_sided_fast", spy)
    plan = _fast_plan(p, *grid.axes)
    yg = translation_grid(grid)
    for phi in (gaussian(grid, 0.8), quaternion_window(grid)):
        for post_chirp in (True, False):
            # multiplying by ones rounds nothing
            lone = FastPlan(*(a._replace(pre=np.ones(a.pre.shape),
                                         post=a.post if post_chirp else np.ones(a.post.shape))
                              for a in plan))
            calls.clear()
            for iy1, sl, P, M in gabor.iter_gabor_blocks(f, phi, p, post_chirp=post_chirp):
                u, v, _ = calls[-1]
                for i, y2 in enumerate(yg.coords2()[sl]):
                    want_u, want_v = _folded_halves(f, phi, plan, (yg.coords1()[iy1], y2))
                    np.testing.assert_array_equal(u[i], want_u[0])
                    np.testing.assert_array_equal(v[i], want_v[0])
                want_P, want_M = _two_sided_fast(lone, u, v)
                np.testing.assert_array_equal(P, want_P, err_msg=f"P {iy1} {sl}")
                np.testing.assert_array_equal(M, want_M, err_msg=f"M {iy1} {sl}")
            assert len(calls) == 4 * grid.n1
            # every block's plan has no pre-chirp, and no post-chirp
            # exactly when post_chirp=False
            for *_, block_plan in calls:
                assert all(a.pre is None for a in block_plan)
                assert all((a.post is not None) == post_chirp for a in block_plan)
    # the Plancherel check reads the energy of the pass it is handed
    monkeypatch.undo()
    stats = gabor_field_stats(f, phi, p)
    assert gabor_plancherel_check(stats).lhs == stats["energy"]


def test_field_stats_carry_the_inputs_they_swept():
    # by reference: a check reads f, phi and params from its pass alone
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = random_quaternion_signal(grid, np.random.default_rng(62))
    phi = quaternion_window(grid)
    p = PARAM_SETS["neg-b"]
    stats = gabor_field_stats(f, phi, p, method="direct")
    assert stats["f"] is f and stats["phi"] is phi and stats["params"] is p
    assert stats["method"] == "direct"


# a2 = 0 on the right axis (the QFT's, generic's and a b2 < 0 matrix's):
# a pass with no j or k part in f or phi reads M as P backwards along
# omega2; neg-b (a2 = 2) and quaternion data keep both transforms
_MIRROR_PARAMS = {"fourier": PARAM_SETS["fourier"], "generic": PARAM_SETS["generic"],
                  "b2-neg": QLCTParams(PARAM_SETS["generic"].A1,
                                       LCTParams(0.0, -2.0, 0.5, 3.0))}


def iplane_signal(grid, seed):
    """Random values in components 0 and 1: f = fa, with no j or k part."""
    samples = np.zeros((grid.n1, grid.n2, 4))
    samples[..., :2] = np.random.default_rng(seed).standard_normal((grid.n1, grid.n2, 2))
    return QSignal2D(grid, samples)


def iplane_window(grid):
    """Gaussian times exp(i*theta(x)) with a phase varying over the grid."""
    x1, x2 = grid.meshgrid()
    theta = 0.7 * x1 - 0.4 * x2 + 0.2 * x1 * x2
    samples = np.zeros((grid.n1, grid.n2, 4))
    samples[..., 0], samples[..., 1] = np.cos(theta), np.sin(theta)
    return QSignal2D(grid, samples * gaussian(grid, 0.8).samples[..., :1])


_MIRROR_KWARGS = dict(s_values=(0.5, 1.0), pprimes=(1.5, 3.0), log_omega=True)


def _assert_stats_match(fast, direct):
    """Every sum and the |G|^2 table of the (table, stats) pairs agree at
    the oracle's tolerance."""
    (tf, sf), (td, sd) = fast, direct
    for key in ("energy", "max_abs", "log_omega_sum"):
        if sd[key] is not None:
            assert sf[key] == pytest.approx(sd[key], rel=1e-9), key
    for key in ("moment_omega", "moment_y", "moment_joint", "power_sums"):
        assert sf[key].keys() == sd[key].keys()
        for k in sd[key]:
            assert sf[key][k] == pytest.approx(sd[key][k], rel=1e-9), (key, k)
    assert np.max(np.abs(tf - td)) <= 1e-9 * np.max(td)


@pytest.mark.parametrize("name", list(_MIRROR_PARAMS))
@pytest.mark.parametrize("n1,n2", [(10, 8), (9, 7)])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("window", ["real", "iplane"])
def test_mirrored_pass_matches_direct(name, n1, n2, stride, window):
    grid = Grid2D.centered(n1, n2, 0.6, 0.5)
    f = iplane_signal(grid, n1 + n2 + stride)
    phi = gaussian(grid, 0.8) if window == "real" else iplane_window(grid)
    p = _MIRROR_PARAMS[name]
    # an odd grid samples omega = 0, where ln|omega| has no value
    kwargs = dict(_MIRROR_KWARGS, y_stride=stride, log_omega=n1 % 2 == 0)
    table, sf = fast = abs_sq_table(f, phi, p, method="fast", **kwargs)
    _assert_stats_match(fast, abs_sq_table(f, phi, p, method="direct", **kwargs))
    assert sf["plancherel_by_y_residual"] <= 1e-12
    # |G|^2 is even in omega2; the table's cells k and n2 - 1 - k add the
    # same four squares in another order, so they agree to rounding
    np.testing.assert_allclose(table, table[..., ::-1], rtol=4 * np.finfo(float).eps)


def test_mirror_one_omega2_column_off_disagrees_with_direct(monkeypatch):
    # a mirror that reads M one omega2 cell off keeps every energy but
    # moves the table and each omega-weighted sum beyond the oracle's 1e-9
    grid = Grid2D.centered(10, 8, 0.6, 0.5)
    f, phi, p = iplane_signal(grid, 66), gaussian(grid, 0.8), PARAM_SETS["fourier"]
    blocks = gabor.iter_gabor_blocks

    def off_by_one(*args, **kwargs):
        for iy1, sl, P, M in blocks(*args, **kwargs):
            assert np.shares_memory(P, M)  # the pass took the mirror
            yield iy1, sl, P, np.roll(P[..., ::-1], 1, -1)

    td, sd = direct = abs_sq_table(f, phi, p, method="direct", **_MIRROR_KWARGS)
    _assert_stats_match(abs_sq_table(f, phi, p, **_MIRROR_KWARGS), direct)
    monkeypatch.setattr(gabor, "iter_gabor_blocks", off_by_one)
    tf, sf = abs_sq_table(f, phi, p, **_MIRROR_KWARGS)
    assert sf["energy"] == pytest.approx(sd["energy"], rel=1e-9)
    assert sf["moment_omega"][1.0] != pytest.approx(sd["moment_omega"][1.0], rel=1e-9)
    assert sf["log_omega_sum"] != pytest.approx(sd["log_omega_sum"], rel=1e-9)
    assert np.max(np.abs(tf - td)) > 1e-9 * np.max(td)


@pytest.mark.parametrize("name", [*_MIRROR_PARAMS, "neg-b"])
@pytest.mark.parametrize("n1,n2", [(10, 8), (9, 7)])
@pytest.mark.parametrize("stride", [1, 2])
def test_mirrored_blocks_match_the_two_half_path(name, n1, n2, stride, monkeypatch):
    # each mirrored block transforms its one half once, with P bit-equal to
    # a lone transform of the pass's halves and M its omega2 mirror, so the
    # |G|^2 tables agree within 8 eps of their peak; a pass on neg-b
    # (a2 != 0) or with post-chirps keeps both transforms and every bit
    grid = Grid2D.centered(n1, n2, 0.6, 0.5)
    f = iplane_signal(grid, 67)
    p = _MIRROR_PARAMS.get(name) or PARAM_SETS[name]
    mirrored = name != "neg-b"
    _blocked(grid, stride, monkeypatch, "ragged")
    kernels = []
    lct2d = gabor.qlct2d._lct2d

    def spy(plan1, plan2, g):
        if plan1.pre is None:  # a block of the pass, not a lone transform
            kernels.append(g.copy())
        return lct2d(plan1, plan2, g)

    monkeypatch.setattr(gabor.qlct2d, "_lct2d", spy)
    plan = _fast_plan(p, *grid.axes)
    yg = translation_grid(grid, stride)
    eps = np.finfo(float).eps
    for phi in (gaussian(grid, 0.8), iplane_window(grid)):
        for post_chirp in (False, True):
            lone = FastPlan(*(a._replace(pre=np.ones(a.pre.shape),
                                         post=a.post if post_chirp else np.ones(a.post.shape))
                              for a in plan))
            mirror = mirrored and not post_chirp
            got, want = (np.zeros((*yg.shape, grid.n1, grid.n2)) for _ in range(2))
            blocks = 0
            for iy1, sl, P, M in gabor.iter_gabor_blocks(f, phi, p, stride,
                                                         post_chirp=post_chirp):
                blocks += 1
                assert len(kernels) == (1 if mirror else 2) * blocks
                halves = [_folded_halves(f, phi, plan, (yg.coords1()[iy1], y2))
                          for y2 in yg.coords2()[sl]]
                want_u, want_v = (np.concatenate(h) for h in zip(*halves))
                np.testing.assert_array_equal(kernels[-1 if mirror else -2], want_u)
                want_P, want_M = _two_sided_fast(lone, want_u, want_v)
                np.testing.assert_array_equal(P, want_P)
                if not mirror:
                    np.testing.assert_array_equal(M, want_M)
                    continue
                np.testing.assert_array_equal(M, P[..., ::-1])
                pair_abs_sq(P, M, out=got[iy1, sl])
                pair_abs_sq(want_P, want_M, out=want[iy1, sl])
            assert blocks > yg.n1
            if mirror:
                np.testing.assert_array_less(np.abs(got - want), 8 * eps * want.max())
            kernels.clear()
