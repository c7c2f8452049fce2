import builtins
import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest

from qlct import gabor, signal
from qlct.families import (PARAM_SETS, dilated_gaussian, gaussian, gaussian_chirp,
                           random_smooth)
from qlct.report import gated, lower_bound, write_reports
from qlct.signal import (FormatError, Grid2D, QSignal2D, WindowSpec, load,
                         make_window, parse_window_spec, sample, save,
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


@pytest.mark.parametrize("dx, value", [(1e-200, 1e200), (1e150, 1e-170)])
def test_norm_neither_overflows_nor_underflows(dx, value):
    # the energy 16 (value dx)^2 of a constant on a 4x4 grid is a normal
    # float, though the squares overflow (then the cell area underflows)
    # or underflow
    g = Grid2D.centered(4, 4, dx, dx)
    f = QSignal2D(g, const_one(g).samples * value)
    assert f.l2_norm_sq() == pytest.approx(16 * (value * dx)**2, rel=1e-15)
    assert QSignal2D(g, np.zeros((4, 4, 4))).l2_norm_sq() == 0.0


@pytest.mark.parametrize("dx, value", [(1e-200, 1e200), (1e150, 1e-170)])
def test_modulus_and_lp_norm_neither_overflow_nor_underflow(dx, value):
    # every component value: the modulus 2 value, the p-norm
    # (16 (2 value)^p dx^2)^(1/p); unscaled, 1e200 squared to inf and read
    # lp_norm nan and modulus inf (a warning is an error here)
    g = Grid2D.centered(4, 4, dx, dx)
    f = QSignal2D(g, np.full((4, 4, 4), value))
    assert f.modulus().max() == 2 * value
    assert f.lp_norm(2.0)**2 == pytest.approx(f.l2_norm_sq(), rel=1e-12)
    if value == 1e200:
        assert f.l2_norm_sq() == 64.0
    for p in (1.5, 4.0):
        want = 16**(1 / p) * 2 * value * dx**(2 / p)
        assert f.lp_norm(p) == pytest.approx(want, rel=1e-14)
    zero = QSignal2D(g, np.zeros((4, 4, 4)))
    assert zero.lp_norm(2.0) == 0.0 and not zero.modulus().any()


def test_modulus_keeps_every_bit_where_the_squares_stay_normal():
    """Dividing by a power of two and multiplying back is exact, so in the
    normal range the scaled modulus is qabs's, bit for bit."""
    g = Grid2D.centered(6, 5, 0.3, 0.3)
    samples = np.random.default_rng(66).normal(size=(6, 5, 4)) * 1e3
    f = QSignal2D(g, samples)
    np.testing.assert_array_equal(f.modulus(), np.sqrt(np.sum(samples**2, axis=-1)))


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


@pytest.mark.parametrize("build", [
    lambda g: gaussian(g, float("nan")),
    lambda g: dilated_gaussian(g, 1.0, float("nan")),
    lambda g: gaussian_chirp(g, sigma=float("nan")),
    lambda g: random_smooth(g, np.random.default_rng(0), sigma=float("nan")),
], ids=["gaussian", "dilated_gaussian", "gaussian_chirp", "random_smooth"])
def test_formula_families_reject_non_finite_samples_in_one_line(build):
    # they build through `sample`; a NaN sigma gave an all-NaN signal
    with pytest.raises(ValueError, match=r"non-finite sample at x=\(") as err:
        build(grid4())
    assert "\n" not in str(err.value)


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


@pytest.mark.parametrize("text", ["gaussian:sigma=1.0,1.0",
                                  "gaussian:sigma=0.7,1.3,center=0.2,-0.45",
                                  "rect:width=1.1,0.8,center=-0.3",
                                  "hann:width=1.5,0.9,center=0.3,0.1"])
def test_window_samples_are_the_profile_formula_bit_for_bit(text):
    spec = parse_window_spec(text)
    g = Grid2D.centered(12, 10, 0.3, 0.4)
    x1, x2 = g.meshgrid()
    (p1, p2), (c1, c2) = spec.params, spec.center
    u1, u2 = x1 - c1, x2 - c2
    if spec.kind == "gaussian":
        vals = np.exp(-((u1 / p1)**2 / 2 + (u2 / p2)**2 / 2))
    elif spec.kind == "rect":
        vals = ((np.abs(u1) < p1) & (np.abs(u2) < p2)).astype(float)
    else:
        vals = (np.where(np.abs(u1) < p1, 0.5 * (1 + np.cos(np.pi * u1 / p1)), 0.0)
                * np.where(np.abs(u2) < p2, 0.5 * (1 + np.cos(np.pi * u2 / p2)), 0.0))
    phi = make_window(spec, g)
    assert np.array_equal(phi.samples[..., 0], vals / vals.max())
    assert not phi.samples[..., 1:].any()


def test_narrow_gaussian_at_a_sampled_center_is_the_one_cell_window():
    # sigma far below the spacing: the limit is the cell at the center, at
    # sigma=1e-300 as at 1e-3, where u^2/(2 sigma^2) took 0/0 there
    g = Grid2D.centered(9, 9, 0.5, 0.5)
    narrow = make_window(parse_window_spec("gaussian:sigma=1e-300"), g)
    one_cell = make_window(parse_window_spec("gaussian:sigma=1e-3"), g)
    np.testing.assert_array_equal(narrow.samples, one_cell.samples)
    assert np.count_nonzero(narrow.samples) == 1 and narrow.samples[4, 4, 0] == 1.0
    # sigma = 1 keeps the bits of u^2/(2 sigma^2)
    x1, x2 = g.meshgrid()
    unit = make_window(parse_window_spec("gaussian:sigma=1"), g)
    np.testing.assert_array_equal(unit.samples[..., 0], np.exp(-(x1**2 / 2 + x2**2 / 2)))


@pytest.mark.parametrize("text, match", [
    ("gaussian:sigma=inf", "finite"),
    ("gaussian:sigma=1,center=nan", "finite"),
    ("gaussian:sigma=1,foo=2", "unknown or repeated key 'foo'"),
    ("gaussian:width=1", "unknown or repeated key 'width'"),
    ("rect:width=1,width=2", "unknown or repeated key 'width'"),
    ("gaussian:sigma=1,2,3", "two values"),
    ("rect:width=1,center=1,2,3", "two values"),
    ("hann:2,width=1", "before any key"),
])
def test_window_spec_rejects_what_it_would_drop(text, match):
    with pytest.raises(ValueError, match=match):
        parse_window_spec(text)


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
    assert spec == WindowSpec("hann", (1.0, 2.0), (0.5, 0.5))


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


def test_qsig_load_checks_size_before_allocating(tmp_path):
    path = tmp_path / "sparse.qsig"
    save(path, const_one(Grid2D.centered(2, 2, 1.0, 1.0)))
    with open(path, "r+b") as fh:  # a 64 MiB hole after the 2x2 body
        fh.truncate(path.stat().st_size + 64 * 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="trailing data"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


class _Fault(Exception):
    pass


class _FailingFile:
    """A file whose second write raises once the first went through."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def _count(self):
        self._writes += 1
        if self._writes == 2:
            raise _Fault

    def write(self, data):
        self._count()
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _write_qsig(path, seed):
    save(path, random_smooth(grid4(), np.random.default_rng(seed)))


def _write_coefficients(path, seed):
    f = random_smooth(grid4(), np.random.default_rng(seed))
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), f.grid)
    gabor.save_coefficients(gabor.gabor_stream(f, phi, PARAM_SETS["fourier"]), phi,
                            path.parent)


def _write_spectrogram(path, seed):
    field = np.random.default_rng(seed).random((3, 5))
    stem = str(path).removesuffix(".json").removesuffix(".csv")
    gabor.export_pgm(field, stem)
    gabor.export_field_csv(field, stem + ".csv")


def _write_reports(path, seed):
    reps = [gated(lower_bound(f"r{i}", seed + i, 0.5), "margin", 0.0) for i in range(3)]
    write_reports(reps, path.parent / "r.json", path.parent / "r.csv")


#: Each file qlct writes, by its name and a call that writes it with its
#: siblings from a seed.
WRITERS = {"f.qsig": _write_qsig, "coeffs.f64": _write_coefficients,
           "manifest.json": _write_coefficients, "s.pgm": _write_spectrogram,
           "s.pgm.json": _write_spectrogram, "s.pgm.csv": _write_spectrogram,
           "r.json": _write_reports, "r.csv": _write_reports}


@pytest.mark.parametrize("existed", [True, False], ids=["over-old", "new"])
@pytest.mark.parametrize("name", list(WRITERS))
def test_a_writer_that_fails_partway_leaves_the_old_target(tmp_path, monkeypatch, name,
                                                           existed):
    """Every writer goes through `replacing`: one that raises after its
    first write leaves its target as it was (or absent) and no .part, and
    its next run writes the bytes a fresh one does."""
    target, write = tmp_path / "out" / name, WRITERS[name]
    target.parent.mkdir()
    if existed:
        write(target, seed=1)
    before = target.read_bytes() if existed else None

    def failing_open(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return _FailingFile(fh) if file == f"{target}.part" else fh

    with monkeypatch.context() as m:
        m.setattr(signal, "open", failing_open, raising=False)
        with pytest.raises(_Fault):
            write(target, seed=2)
    assert (target.read_bytes() if target.exists() else None) == before
    assert not list(tmp_path.rglob("*.part"))
    write(target, seed=2)
    fresh = tmp_path / "fresh" / name
    fresh.parent.mkdir()
    write(fresh, seed=2)
    assert target.read_bytes() == fresh.read_bytes()



def test_a_fifo_output_is_written_in_place(tmp_path):
    """A path that is no regular file gets the bytes through itself: no
    `.part` file is made beside it, and a FIFO stays a FIFO. A QSIG save,
    whose payload has no file position to seek in a FIFO, gets them too."""
    field = np.random.default_rng(0).random((3, 5))
    sig = random_smooth(grid4(), np.random.default_rng(0))
    writers = {"csv": lambda path: gabor.export_field_csv(field, path),
               "qsig": lambda path: save(path, sig)}
    for suffix, write in writers.items():
        plain, fifo = tmp_path / f"plain.{suffix}", tmp_path / f"fifo.{suffix}"
        write(plain)
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda path=fifo: got.append(path.read_bytes()),
                                  daemon=True)
        reader.start()
        write(fifo)
        reader.join(timeout=10)
        assert got == [plain.read_bytes()], suffix
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fifo.csv", "fifo.qsig", "plain.csv", "plain.qsig"]


def test_a_replaced_output_keeps_its_mode_and_a_read_only_one_is_refused_as_open_would(
        tmp_path):
    rng = np.random.default_rng(0)
    out = tmp_path / "f.qsig"
    save(out, random_smooth(grid4(), rng))
    out.chmod(0o640)
    new = random_smooth(grid4(), rng)
    save(out, new)
    assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
    assert np.array_equal(load(out).samples, new.samples)
    out.chmod(0o444)
    before = out.read_bytes()
    if os.access(out, os.W_OK):  # a superuser may write any file
        save(out, random_smooth(grid4(), rng))
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o444
        assert out.read_bytes() != before
    else:
        with pytest.raises(PermissionError):
            save(out, random_smooth(grid4(), rng))
        assert out.read_bytes() == before
    assert not list(tmp_path.glob("*.part"))
