import contextlib
import dataclasses
import json
import os
import stat
import struct
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from qlct import cli, families, gabor, qlct2d, signal, uncertainty
from qlct.cli import main
from qlct.families import PARAM_SETS, gaussian, impulse
from qlct.signal import Grid2D, QSignal2D, load, save

from oracles import modulus_sq


def write_gaussian(path, n=16, dx=0.5):
    grid = Grid2D.centered(n, n, dx, dx)
    save(path, gaussian(grid, 1.0))


def rel_l2(a, b):
    return float(np.sqrt(np.sum((a - b)**2) / np.sum(b**2)))


def test_forward_inverse_file_round_trip(tmp_path, capsys):
    src = tmp_path / "f.qsig"
    write_gaussian(src)
    fwd = tmp_path / "F.qsig"
    back = tmp_path / "f2.qsig"
    assert main(["forward", "--a1", "0,1,-1,0", "--a2", "0,1,-1,0",
                 "-i", str(src), "-o", str(fwd), "--method", "fast",
                 "--check"]) == 0
    out = capsys.readouterr()
    assert "plancherel ratio" in out.out
    assert out.err == ""
    assert main(["inverse", "-i", str(fwd), "-o", str(back)]) == 0
    f = load(src)
    f2 = load(back)
    assert rel_l2(f2.samples, f.samples) <= 1e-8


@pytest.mark.parametrize("command", ["forward", "inverse"])
def test_transform_check_reuses_the_signals_it_holds(tmp_path, capsys, monkeypatch,
                                                     command):
    # --check reads the energies of the input and the output, so the
    # command's one transform makes the only two 2D kernel calls
    src, dst = tmp_path / "f.qsig", tmp_path / "F.qsig"
    write_gaussian(src)
    kernels = []
    lct2d = qlct2d._lct2d
    monkeypatch.setattr(qlct2d, "_lct2d",
                        lambda *args: kernels.append(args) or lct2d(*args))
    assert main([command, "--a1", "0,1,-1,0", "--a2", "0,1,-1,0",
                 "-i", str(src), "-o", str(dst), "--check"]) == 0
    assert len(kernels) == 2
    monkeypatch.undo()
    f, out = load(src), load(dst)
    if command == "forward":
        ratio = qlct2d.qlct_plancherel_check(f, PARAM_SETS["fourier"]).ratio
    else:
        ratio = out.l2_norm_sq() / f.l2_norm_sq()
    assert capsys.readouterr().out == f"plancherel ratio {ratio!r}\n"


@pytest.mark.parametrize("b", [1e-300, -1e-300, 1e-200, -1e-200, 1e-160, -1e-160,
                               1e-155, -1e-155])
def test_check_ratio_stays_exact_at_extreme_b(tmp_path, capsys, b):
    # each axis scales the transform by 1/sqrt(2 pi |b|): squared samples
    # overflow at these b, so the energy is summed scaled by max|x|
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=8)
    matrix = f"0,{b!r},{-1 / b!r},0"
    assert main(["forward", f"--a1={matrix}", f"--a2={matrix}", "-i", str(src),
                 "-o", str(tmp_path / "F.qsig"), "--check"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert abs(float(out.removeprefix("plancherel ratio ")) - 1.0) <= 1e-15


@pytest.mark.parametrize("dx", ["1e-100", "1e-150", "5e-82"])
def test_verify_plancherel_holds_at_extreme_dx(capsys, dx):
    # a trial's transform scales by dx^2 / (2 pi), so its squared samples
    # underflow: to zero energy (ratio inf) or to subnormals (at 5e-82,
    # ratios 1.024 and 1.075) unless the energy is summed scaled
    assert main(["verify", "plancherel", "--trials", "1", "--dx", dx]) == 0
    assert capsys.readouterr().err == ""


THREAD_COMMANDS = {"forward": ["forward"], "inverse": ["inverse"],
                   "gabor-analyze": ["gabor", "analyze"],
                   "gabor-synthesize": ["gabor", "synthesize"],
                   "gabor-spectrogram": ["gabor", "spectrogram"],
                   "verify": ["verify", "plancherel", "--trials", "1"],
                   "verify-direct": ["verify", "plancherel", "--trials", "1",
                                     "--method", "direct"]}


@pytest.mark.parametrize("value", ["two", "1.5", "-1"])
@pytest.mark.parametrize("command", list(THREAD_COMMANDS.values()), ids=list(THREAD_COMMANDS))
def test_bad_thread_count_exits_2(tmp_path, capsys, monkeypatch, value, command):
    # refused before any file is read or written: the input does not exist,
    # and no output appears
    out = str(tmp_path / "out")
    paths = (["--report", out] if command[0] == "verify"
             else ["-i", str(tmp_path / "missing"), "-o", out])
    monkeypatch.setenv("QLCT_THREADS", value)
    assert main([*command, *paths]) == 2
    assert capsys.readouterr() == (
        "", f"error: QLCT_THREADS must be a non-negative integer, got {value!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_forward_direct_method(tmp_path):
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=8)
    assert main(["forward", "-i", str(src), "-o", str(tmp_path / "F.qsig"),
                 "--method", "direct"]) == 0


@pytest.mark.parametrize("command", [["forward"], ["inverse"],
                                     ["gabor", "analyze", "--stride", "128"]],
                         ids=["forward", "inverse", "gabor-analyze"])
def test_direct_method_over_the_budget_exits_2_before_any_transform(tmp_path, capsys,
                                                                    command):
    """A 256x256 signal counts 512 MiB under --method direct, above
    VERIFY_BUDGET_BYTES: the command refuses it in one line once the input
    has loaded, before any transform."""
    src, out = tmp_path / "f.qsig", tmp_path / "out"
    write_gaussian(src, n=256, dx=0.1)
    tracemalloc.start()
    try:
        code = main([*command, "--method", "direct", "-i", str(src), "-o", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert "byte budget" in captured.err
    assert not out.exists()
    assert peak < 2**25, f"peak {peak / 2**20:.2f} MiB"


def test_non_unimodular_matrix_exits_2(tmp_path, capsys):
    src = tmp_path / "f.qsig"
    write_gaussian(src)
    code = main(["forward", "--a1", "1,1,1,1", "-i", str(src),
                 "-o", str(tmp_path / "F.qsig")])
    assert code == 2
    assert "det(A1) != 1" in capsys.readouterr().err


def test_exact_unimodular_matrix_of_large_products_exits_0(tmp_path, capsys):
    # ad and bc near -1.1e7 round the float det to 1.0000000018626451; the
    # det tolerance scales with them, and a kernel with b != 0 never reads c
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=8)
    code = main(["forward", "--a1=124.89247601196774,2193825.507683052,"
                 "-4.910560427603814,-86257.49178088145", "-i", str(src),
                 "-o", str(tmp_path / "F.qsig"), "--check"])
    assert code == 0
    ratio = float(capsys.readouterr().out.removeprefix("plancherel ratio "))
    assert abs(ratio - 1.0) <= 1e-12, ratio


@pytest.mark.parametrize("entry", ["nan", "inf"])
@pytest.mark.parametrize("command", [["forward"], ["gabor", "analyze"]],
                         ids=["forward", "gabor-analyze"])
def test_non_finite_matrix_exits_2(tmp_path, capsys, command, entry):
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=8)
    code = main([*command, "--a1", f"{entry},1,-1,0", "-i", str(src),
                 "-o", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "det(A1) != 1" in err
    assert err.count("\n") == 1


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["forward", "-i", str(tmp_path / "nope.qsig"),
                 "-o", str(tmp_path / "F.qsig")])
    assert code == 2
    assert capsys.readouterr().err != ""


def test_same_input_output_rejected(tmp_path, capsys):
    src = tmp_path / "f.qsig"
    write_gaussian(src)
    assert main(["forward", "-i", str(src), "-o", str(src)]) == 2


def test_overflowing_signal_exits_3(tmp_path, capsys):
    grid = Grid2D.centered(8, 8, 0.5, 0.5)
    vals = np.full((8, 8, 4), 1e308)
    save(tmp_path / "huge.qsig", QSignal2D(grid, vals))
    code = main(["forward", "-i", str(tmp_path / "huge.qsig"),
                 "-o", str(tmp_path / "F.qsig")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite" in err


def test_gabor_analyze_of_overflowing_signal_exits_3(tmp_path, capsys):
    grid = Grid2D.centered(8, 8, 0.5, 0.5)
    save(tmp_path / "huge.qsig", QSignal2D(grid, np.full((8, 8, 4), 1e308)))
    code = main(["gabor", "analyze", "-i", str(tmp_path / "huge.qsig"),
                 "-o", str(tmp_path / "coef")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite" in err
    assert not (tmp_path / "coef").exists()


def test_gabor_spectrogram_of_overflowing_field_exits_3(tmp_path, capsys):
    # a finite field whose |G|^2 overflows, written with a valid checksum
    f = gaussian(Grid2D.centered(8, 8, 0.5, 0.5), 1.0)
    G = gabor.gabor_analyze(f, f, PARAM_SETS["fourier"])
    gabor.save_coefficients(dataclasses.replace(G, coeffs=G.coeffs * 1e300), f,
                            tmp_path / "coef")
    code = main(["gabor", "spectrogram", "-i", str(tmp_path / "coef"),
                 "-o", str(tmp_path / "spec.pgm")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite" in err
    assert not (tmp_path / "spec.pgm").exists()


# byte offsets of x0_1 and dx1 in the QSIG header
@pytest.mark.parametrize("offset, value", [(16, float("nan")), (32, float("inf")),
                                           (32, 1e-320)],
                         ids=["x0-nan", "dx-inf", "dx-subnormal"])
@pytest.mark.parametrize("command", [["forward"], ["gabor", "analyze"]],
                         ids=["forward", "gabor-analyze"])
def test_bad_qsig_geometry_exits_2(tmp_path, capsys, command, offset, value):
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=8)
    raw = bytearray(src.read_bytes())
    struct.pack_into("<d", raw, offset, value)
    src.write_bytes(bytes(raw))
    code = main([*command, "-i", str(src), "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_gabor_analyze_synthesize_spectrogram(tmp_path, capsys):
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=16, dx=0.5)
    coef = tmp_path / "coef"
    assert main(["gabor", "analyze", "-i", str(src), "-o", str(coef),
                 "--window", "gaussian:sigma=1.0,1.0"]) == 0
    out = capsys.readouterr().out
    assert "256 translations" in out
    assert sorted(p.name for p in coef.iterdir()) == ["coeffs.f64", "manifest.json",
                                                      "window.qsig"]
    G = gabor.gabor_analyze(load(src), load(coef / "window.qsig"), PARAM_SETS["fourier"])
    assert (coef / "coeffs.f64").read_bytes() == G.coeffs.astype("<f8").tobytes()

    back = tmp_path / "back.qsig"
    assert main(["gabor", "synthesize", "-i", str(coef), "-o", str(back)]) == 0
    f = load(src)
    fb = load(back)
    assert rel_l2(fb.samples, f.samples) <= 1e-2

    pgm = tmp_path / "spec.pgm"
    assert main(["gabor", "spectrogram", "-i", str(coef),
                 "--slice", "max_over_omega", "-o", str(pgm)]) == 0
    assert pgm.read_bytes().startswith(b"P5\n")
    sidecar = json.loads((tmp_path / "spec.pgm.json").read_text())
    assert sidecar["max"] >= sidecar["min"]
    assert (tmp_path / "spec.pgm.csv").exists()


def test_gabor_spectrogram_checks_the_slice_kind_before_reading(tmp_path, capsys):
    # an unknown kind is named even when the directory is missing
    code = main(["gabor", "spectrogram", "-i", str(tmp_path / "missing"),
                 "--slice", "bogus", "-o", str(tmp_path / "spec.pgm")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: unknown spectrogram slice kind 'bogus'\n"
    assert not (tmp_path / "spec.pgm").exists()


# ---------------------------------------------------------------------------
# the coefficient directory, streamed one y1 row at a time

#: Each spectrogram slice as the dense |G|^2 array (y1, y2, omega1, omega2) gives it.
DENSE_SLICES = {"max_over_y": lambda mod2: mod2.max(axis=(0, 1)),
                "max_over_omega": lambda mod2: mod2.max(axis=(2, 3)),
                "fix_y=3,5": lambda mod2: mod2[3, 5],
                "fix_omega=6,2": lambda mod2: mod2[:, :, 6, 2]}

STREAM_OUTPUTS = ("back.qsig", "spec.pgm", "spec.pgm.json", "spec.pgm.csv")


def _matrix_args(p):
    return ["--a1", ",".join(map(repr, p.A1.astuple())),
            "--a2", ",".join(map(repr, p.A2.astuple()))]


def _analyzed(tmp_path, capsys):
    """The coefficient directory of an 8x8 Gaussian."""
    src, coef = tmp_path / "f.qsig", tmp_path / "coef"
    write_gaussian(src, n=8)
    assert main(["gabor", "analyze", "-i", str(src), "-o", str(coef)]) == 0
    capsys.readouterr()
    return coef


def _contents(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _synthesize_and_spectrogram(coef, tmp_path, capsys):
    """(exit code, stderr) of synthesize and of spectrogram on coef, after
    checking that neither left an output file."""
    results = []
    for argv in (["synthesize", "-o", str(tmp_path / "back.qsig")],
                 ["spectrogram", "-o", str(tmp_path / "spec.pgm")]):
        code = main(["gabor", argv[0], "-i", str(coef), *argv[1:]])
        results.append((code, capsys.readouterr().err))
    assert not [name for name in STREAM_OUTPUTS if (tmp_path / name).exists()]
    return results


@pytest.mark.parametrize("name", list(PARAM_SETS))
def test_streamed_gabor_commands_write_the_dense_path_bytes(tmp_path, capsys, name):
    p = PARAM_SETS[name]
    src, coef = tmp_path / "f.qsig", tmp_path / "coef"
    save(src, families.random_smooth(Grid2D.centered(8, 8, 0.5, 0.5),
                                     np.random.default_rng(39)))
    assert main(["gabor", "analyze", *_matrix_args(p), "-i", str(src),
                 "-o", str(coef)]) == 0
    phi = load(coef / "window.qsig")
    G = gabor.gabor_analyze(load(src), phi, p)
    assert (coef / "coeffs.f64").read_bytes() == G.coeffs.astype("<f8").tobytes()
    assert main(["gabor", "synthesize", "-i", str(coef),
                 "-o", str(tmp_path / "back.qsig")]) == 0
    save(tmp_path / "dense.qsig", gabor.gabor_synthesize(G, phi))
    assert (tmp_path / "back.qsig").read_bytes() == (tmp_path / "dense.qsig").read_bytes()
    mod2 = modulus_sq(G)
    for kind, take in DENSE_SLICES.items():
        assert main(["gabor", "spectrogram", "-i", str(coef), "--slice", kind,
                     "-o", str(tmp_path / "spec.pgm")]) == 0
        gabor.export_pgm(take(mod2), tmp_path / "dense.pgm")
        gabor.export_field_csv(take(mod2), tmp_path / "dense.pgm.csv")
        for suffix in ("", ".json", ".csv"):
            assert ((tmp_path / f"spec.pgm{suffix}").read_bytes()
                    == (tmp_path / f"dense.pgm{suffix}").read_bytes()), (kind, suffix)


def test_a_crc_mismatch_in_the_last_row_exits_2_writing_nothing(tmp_path, capsys):
    coef = _analyzed(tmp_path, capsys)
    raw = bytearray((coef / "coeffs.f64").read_bytes())
    raw[-8] ^= 1  # the last value's lowest mantissa bit: still finite
    (coef / "coeffs.f64").write_bytes(bytes(raw))
    for code, err in _synthesize_and_spectrogram(coef, tmp_path, capsys):
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "crc32 does not match" in err


def test_a_non_finite_middle_row_exits_2_writing_nothing(tmp_path, capsys):
    coef = _analyzed(tmp_path, capsys)
    row_bytes = 8 * 8 * 8 * 4 * 8
    with open(coef / "coeffs.f64", "r+b") as fh:
        fh.seek(4 * row_bytes + 800)
        fh.write(struct.pack("<d", float("inf")))
    for code, err in _synthesize_and_spectrogram(coef, tmp_path, capsys):
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "non-finite" in err


@pytest.mark.parametrize("damage, message", [(b"", "truncated payload"),
                                             (b"\0" * 8, "trailing data")])
def test_a_payload_of_the_wrong_size_exits_2_before_any_row_is_read(
        tmp_path, capsys, monkeypatch, damage, message):
    coef = _analyzed(tmp_path, capsys)
    raw = (coef / "coeffs.f64").read_bytes()
    (coef / "coeffs.f64").write_bytes(raw + damage if damage else raw[:-8])
    monkeypatch.setattr(gabor, "_stored_rows", lambda *args: pytest.fail("read a row"))
    for code, err in _synthesize_and_spectrogram(coef, tmp_path, capsys):
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err


@pytest.mark.parametrize("kind", list(DENSE_SLICES))
def test_every_spectrogram_of_an_overflowing_field_exits_3(tmp_path, capsys, kind):
    f = gaussian(Grid2D.centered(8, 8, 0.5, 0.5), 1.0)
    G = gabor.gabor_analyze(f, f, PARAM_SETS["fourier"])
    gabor.save_coefficients(dataclasses.replace(G, coeffs=G.coeffs * 1e300), f,
                            tmp_path / "coef")
    code = main(["gabor", "spectrogram", "-i", str(tmp_path / "coef"),
                 "--slice", kind, "-o", str(tmp_path / "spec.pgm")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite" in err
    assert not [name for name in STREAM_OUTPUTS if (tmp_path / name).exists()]


@pytest.mark.parametrize("via", ["directory", "symlink"])
@pytest.mark.parametrize("command, name", [
    ("synthesize", "coeffs.f64"), ("synthesize", "window.qsig"),
    ("synthesize", "manifest.json"), ("spectrogram", "coeffs.f64"),
    ("spectrogram", "window.qsig"),
    # the PGM's .json sidecar would replace the manifest
    ("spectrogram", "manifest")])
def test_an_output_onto_the_input_directory_exits_2_leaving_it(tmp_path, capsys,
                                                                command, name, via):
    coef = _analyzed(tmp_path, capsys)
    before = _contents(coef)
    where = coef
    if via == "symlink":
        where = tmp_path / "alias"
        where.symlink_to(coef)
    code = main(["gabor", command, "-i", str(coef), "-o", str(where / name)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: output {where / name}") and err.count("\n") == 1, err
    assert "input coefficient directory" in err
    assert _contents(coef) == before


@pytest.mark.parametrize("name", ["window.qsig", "coeffs.f64", "coeffs.f64.part",
                                  "manifest.json.part"])
@pytest.mark.parametrize("into", [".", "new/.."])
def test_gabor_analyze_refuses_an_input_it_would_write_over(tmp_path, capsys, name, into):
    """An input inside the output directory, under a name analysis writes,
    exits 2 in one line before anything is written or made: `new/..` names
    the directory through one that makedirs would create."""
    out = tmp_path / "out"
    out.mkdir()
    src = out / name
    write_gaussian(src, n=8)
    before = src.read_bytes()
    assert main(["gabor", "analyze", "-i", str(src), "-o", str(out / into)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: output {out / into / name} would overwrite its input {src}\n", err
    assert src.read_bytes() == before
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted([name, "out"])


def test_a_failed_gabor_analyze_leaves_what_it_found(tmp_path, capsys):
    coef = _analyzed(tmp_path, capsys)
    before = _contents(coef)
    huge = tmp_path / "huge.qsig"
    save(huge, QSignal2D(Grid2D.centered(8, 8, 0.5, 0.5), np.full((8, 8, 4), 1e308)))
    for out in (coef, tmp_path / "new" / "coef"):
        code = main(["gabor", "analyze", "-i", str(huge), "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err
    assert _contents(coef) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coef", "f.qsig", "huge.qsig"]


def test_gabor_commands_hold_a_row_not_the_field(tmp_path, capsys):
    """Every gabor command on a 32x32 signal peaks at 4 MiB of traced
    allocations or less, synthesize at 3 MiB; the dense field alone is
    32 MiB."""
    src, coef = tmp_path / "f.qsig", tmp_path / "coef"
    save(src, families.random_smooth(families.default_grid(32), np.random.default_rng(0)))
    commands = {"analyze": ["analyze", "-i", str(src), "-o", str(coef)],
                "synthesize": ["synthesize", "-i", str(coef),
                               "-o", str(tmp_path / "back.qsig")]}
    for kind in ("max_over_y", "max_over_omega", "fix_y=16,16", "fix_omega=16,16"):
        commands[kind] = ["spectrogram", "-i", str(coef), "--slice", kind,
                          "-o", str(tmp_path / "spec.pgm")]
    peaks = {}
    tracemalloc.start()
    try:
        for name, argv in commands.items():
            tracemalloc.reset_peak()
            assert main(["gabor", *argv]) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = {"synthesize": 3 * 2**20}
    over = {k: f"{v / 2**20:.2f} MiB" for k, v in peaks.items() if v > bound.get(k, 4 * 2**20)}
    assert not over, over


def test_an_output_aliasing_the_input_by_symlink_exits_2_leaving_it(tmp_path, capsys):
    src, link = tmp_path / "f.qsig", tmp_path / "link.qsig"
    write_gaussian(src)
    link.symlink_to(src)
    before = src.read_bytes()
    for output in (src, link):
        assert main(["forward", "-i", str(src), "-o", str(output)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: output {output} would overwrite its input {src}\n", err
    assert src.read_bytes() == before


def test_forward_to_the_null_device_exits_0_and_leaves_it_a_device(tmp_path, capsys):
    """`-o os.devnull` with `--check` prints the Plancherel ratio alone:
    the device is written in place, not replaced through a `.part` file."""
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=8)
    assert main(["forward", "-i", str(src), "-o", os.devnull, "--check"]) == 0
    assert "plancherel" in capsys.readouterr().out.lower()
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert not os.path.exists(os.devnull + ".part")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_forward_to_stdout_through_a_pipe_writes_the_bytes_of_a_file_output(tmp_path):
    """`-o /dev/stdout` into a pipe, which has no file position, exits 0
    with the bytes `-o` a file gets."""
    src, out = tmp_path / "f.qsig", tmp_path / "F.qsig"
    write_gaussian(src, n=8)
    assert main(["forward", "-i", str(src), "-o", str(out)]) == 0
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(cli.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "qlct.cli", "forward", "-i", str(src),
                          "-o", "/dev/stdout"], capture_output=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=path))
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == out.read_bytes()


def test_an_output_whose_part_file_is_the_input_exits_2_before_reading_it(tmp_path, capsys):
    """An output is written to `<output>.part` first, so an input of that
    name is refused before it is read: here it is no QSIG file at all."""
    src = tmp_path / "x.qsig.part"
    src.write_bytes(b"not a signal")
    out = tmp_path / "x.qsig"
    assert main(["forward", "-i", str(src), "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: output {out}.part would overwrite its input {src}\n"
    assert src.read_bytes() == b"not a signal" and not out.exists()


def test_a_symlinked_output_keeps_its_link_and_its_target_gets_the_bytes(tmp_path, capsys):
    src, link, old = tmp_path / "f.qsig", tmp_path / "link.qsig", tmp_path / "old.qsig"
    write_gaussian(src)
    write_gaussian(old, n=8)
    link.symlink_to(old)
    for output in (link, tmp_path / "plain.qsig"):
        assert main(["forward", "-i", str(src), "-o", str(output)]) == 0
    assert link.is_symlink() and link.resolve() == old
    assert old.read_bytes() == (tmp_path / "plain.qsig").read_bytes()
    assert not list(tmp_path.glob("*.part"))


@pytest.mark.parametrize("kind", ["max_over_y", "max_over_omega"])
def test_gabor_spectrogram_refuses_a_value_on_a_max_slice(tmp_path, capsys, kind):
    src, coef = tmp_path / "f.qsig", tmp_path / "coef"
    write_gaussian(src, n=8)
    assert main(["gabor", "analyze", "-i", str(src), "-o", str(coef)]) == 0
    capsys.readouterr()
    for value, code in (("=3", 2), ("=1,2", 2), ("=", 2), ("", 0)):
        pgm = tmp_path / f"s{code}.pgm"
        assert main(["gabor", "spectrogram", "-i", str(coef), "--slice", kind + value,
                     "-o", str(pgm)]) == code, value
        err = capsys.readouterr().err
        assert err.count("\n") == (code != 0), err
        if code:
            assert err.startswith("error: ") and kind in err and not pgm.exists(), err
        else:
            assert pgm.exists()


def test_gabor_spectrogram_impulse_peak(tmp_path):
    grid = Grid2D.centered(8, 8, 0.5, 0.5)
    save(tmp_path / "imp.qsig", impulse(grid, (6, 2)))
    coef = tmp_path / "coef"
    assert main(["gabor", "analyze", "-i", str(tmp_path / "imp.qsig"),
                 "-o", str(coef), "--window", "gaussian:sigma=0.5,0.5"]) == 0
    assert main(["gabor", "spectrogram", "-i", str(coef),
                 "--slice", "max_over_omega",
                 "-o", str(tmp_path / "s.pgm")]) == 0
    field = np.loadtxt(tmp_path / "s.pgm.csv", delimiter=",")
    iy = np.unravel_index(np.argmax(field), field.shape)
    # y value nearest the impulse position x = (1.25, -1.25)
    assert iy == (6, 2) or abs(field[iy] - field[6, 2]) <= 1e-12


def test_gabor_memory_refusal_and_force(tmp_path, capsys):
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=40, dx=0.25)
    code = main(["gabor", "analyze", "-i", str(src),
                 "-o", str(tmp_path / "coef")])
    assert code == 2
    assert "--force" in capsys.readouterr().err
    # strided analysis is allowed without --force
    assert main(["gabor", "analyze", "-i", str(src), "--stride", "8",
                 "-o", str(tmp_path / "coef2")]) == 0


def test_gabor_analyze_refuses_a_stride_that_keeps_one_translation(tmp_path, capsys):
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=32, dx=0.25)
    code = main(["gabor", "analyze", "-i", str(src), "--stride", "32",
                 "-o", str(tmp_path / "coef")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: stride 32 ") and err.count("\n") == 1, err
    assert "from 1 to 31" in err
    assert not (tmp_path / "coef").exists()
    assert main(["gabor", "analyze", "-i", str(src), "--stride", "31",
                 "-o", str(tmp_path / "coef")]) == 0
    assert "wrote 4 translations" in capsys.readouterr().out


def test_gabor_memory_guard_counts_bytes_at_any_stride(tmp_path, capsys):
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=48, dx=0.25)
    code = main(["gabor", "analyze", "-i", str(src), "--stride", "2",
                 "-o", str(tmp_path / "coef")])
    assert code == 2
    err = capsys.readouterr().err
    assert "--force" in err
    assert str(48 * 48 * 24 * 24 * 32) in err  # the estimate in bytes
    assert not (tmp_path / "coef").exists()
    # stride 3 keeps ceil(64 / 3) = 22 translations per axis
    write_gaussian(src, n=64, dx=0.25)
    assert main(["gabor", "analyze", "-i", str(src), "--stride", "3",
                 "-o", str(tmp_path / "coef")]) == 2
    nbytes = 64 * 64 * 22 * 22 * 32
    assert capsys.readouterr().err == (
        f"error: stride-3 analysis of a 64x64 signal stores {nbytes} bytes "
        f"({nbytes / 2**20:.1f} MiB) of coefficients, above the {cli.COEFF_BUDGET_BYTES} "
        "byte budget; pass --force or use a larger --stride\n")
    assert not (tmp_path / "coef").exists()


# Each corruption edits the manifest dict (written back afterwards) or the
# files in coef, and returns a fragment of the error it must cause.

def _payload_8_bytes_short(manifest, coef):
    with open(coef / "coeffs.f64", "r+b") as fh:
        fh.truncate(fh.seek(0, 2) - 8)
    return "truncated payload"


def _payload_1_extra_byte(manifest, coef):
    with open(coef / "coeffs.f64", "ab") as fh:
        fh.write(b"\0")
    return "trailing data"


def _payload_missing(manifest, coef):
    (coef / "coeffs.f64").unlink()
    return "coeffs.f64"


def _payload_nan_at_byte_800(manifest, coef):
    with open(coef / "coeffs.f64", "r+b") as fh:
        fh.seek(800)
        fh.write(struct.pack("<d", float("nan")))
    return "non-finite"


def _payload_bit_62_flipped(manifest, coef):
    # the first value stays finite (about 1e302), so only the checksum sees it
    with open(coef / "coeffs.f64", "r+b") as fh:
        first = bytearray(fh.read(8))
        first[7] ^= 0x40
        fh.seek(0)
        fh.write(first)
    return "crc32"


def _payload_crc32_missing(manifest, coef):
    del manifest["payload_crc32"]
    return "malformed manifest"


def _omega_grid_n1_is_9(manifest, coef):
    manifest["omega_grid"]["n1"] = 9
    return "truncated payload"


def _y_grid_spacing_edited(manifest, coef):
    manifest["y_grid"]["dx1"] *= 2
    return "translation grid"


def _omega_grid_enlarged(manifest, coef):
    # 10^12 cells per translation: the size check refuses it before any allocation
    manifest["omega_grid"]["n1"] = manifest["omega_grid"]["n2"] = 10**6
    return "truncated payload"


def _window_norm_sq_nan(manifest, coef):
    manifest["window_norm_sq"] = float("nan")
    return "window mismatch"


def _window_norm_sq_inf(manifest, coef):
    manifest["window_norm_sq"] = float("inf")
    return "window mismatch"


def _window_all_zero(manifest, coef):
    window = load(coef / "window.qsig")
    save(coef / "window.qsig", QSignal2D(window.grid, np.zeros_like(window.samples)))
    manifest["window_norm_sq"] = 0.0
    return "zero window"


@pytest.mark.parametrize("corrupt", [_payload_8_bytes_short, _payload_1_extra_byte,
                                     _payload_missing, _payload_nan_at_byte_800,
                                     _payload_bit_62_flipped, _payload_crc32_missing,
                                     _omega_grid_n1_is_9, _y_grid_spacing_edited,
                                     _omega_grid_enlarged, _window_norm_sq_nan,
                                     _window_norm_sq_inf, _window_all_zero])
def test_gabor_synthesize_rejects_malformed_manifest(tmp_path, capsys, corrupt):
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=8)
    coef = tmp_path / "coef"
    assert main(["gabor", "analyze", "-i", str(src), "-o", str(coef)]) == 0
    path = coef / "manifest.json"
    manifest = json.loads(path.read_text())
    expected = corrupt(manifest, coef)
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["gabor", "synthesize", "-i", str(coef),
                 "-o", str(tmp_path / "back.qsig")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err
    assert "Traceback" not in err
    assert not (tmp_path / "back.qsig").exists()


def _set(*path_and_value):
    """A manifest edit setting the entry at the key path to a value."""
    *path, key, value = path_and_value

    def edit(manifest):
        node = manifest
        for step in path:
            node = node[step]
        node[key] = value(node[key]) if callable(value) else value
    return edit


@pytest.mark.parametrize("edit", [
    _set("stride", 1.9), _set("stride", "1"), _set("stride", True),
    _set("omega_grid", "n1", 8.7), _set("y_grid", "n1", "8"),
    # int() truncates this back to the true checksum
    _set("payload_crc32", lambda crc: crc + 0.5),
    _set("window_norm_sq", "abc"), _set("params", "A1", [False, True, -1, False]),
    "{not json", "[" * 100_000 + "]" * 100_000,
    # a directory that names no axis order, or the omega-first one, would
    # read the square payload in the wrong order
    lambda manifest: manifest.pop("axis_order"),
    _set("axis_order", ["omega1", "omega2", "y1", "y2", "component"]),
], ids=["stride-1.9", "stride-string", "stride-true", "omega-n1-8.7", "y-n1-string",
        "crc-plus-half", "window-norm-string", "matrix-of-booleans", "not-json",
        "nested-past-the-parser-depth", "no-axis-order", "omega-first-order"])
def test_a_manifest_not_json_or_of_the_wrong_json_type_exits_2_naming_it(
        tmp_path, capsys, edit):
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=8)
    coef = tmp_path / "coef"
    assert main(["gabor", "analyze", "-i", str(src), "-o", str(coef)]) == 0
    path = coef / "manifest.json"
    if isinstance(edit, str):
        path.write_text(edit)
    else:
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    capsys.readouterr()
    for argv in (["synthesize", "-o", str(tmp_path / "back.qsig")],
                 ["spectrogram", "-o", str(tmp_path / "spec.pgm")]):
        assert main(["gabor", argv[0], "-i", str(coef), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed manifest (") and err.endswith(")\n")
        assert err.count("\n") == 1, err
    assert not (tmp_path / "back.qsig").exists() and not (tmp_path / "spec.pgm").exists()


def test_verify_young_writes_reports(tmp_path, capsys):
    rpt = tmp_path / "young.json"
    code = main(["verify", "young", "--trials", "5", "--seed", "7",
                 "--report", str(rpt)])
    assert code == 0
    out = capsys.readouterr()
    assert "suite young: pass" in out.out
    reports = json.loads(rpt.read_text())
    assert len(reports) == 15  # each pass's residual, and 5 trials x 2 exponent pairs
    assert min(r["margin"] for r in reports) >= -1e-6
    assert (tmp_path / "young.csv").exists()


def test_verify_names_each_suite_that_ignores_grid_and_dx(capsys):
    assert main(["verify", "young", "--dx", "1e5"]) == 0
    out = capsys.readouterr().out
    assert "suite young reads neither --grid nor --dx: it runs on 16x16\n" in out
    assert main(["verify", "lieb", "--grid", "8x8"]) == 0
    assert "suite lieb reads neither --grid nor --dx: it runs on 32x32 and 64x64\n" in (
        capsys.readouterr().out)
    assert set(cli.VERIFY_NAMES) - set(cli.FIXED_GRIDS) == {
        "plancherel", "heisenberg", "moment-concentration"}
    assert main(["verify", "lemma-log"]) == 0
    assert "reads neither" not in capsys.readouterr().out
    assert main(["verify", "plancherel", "--grid", "16x16", "--trials", "1"]) == 0
    assert "reads neither" not in capsys.readouterr().out


def test_verify_runs_share_no_field_entries(monkeypatch, capsys):
    passes = []
    original = uncertainty.gabor_field_stats

    def counted(*args, **kwargs):
        passes.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(uncertainty, "gabor_field_stats", counted)
    for run in (1, 2):
        assert main(["verify", "young", "--trials", "3", "--grid", "16x16"]) == 0
        out = capsys.readouterr().out
        assert "field passes: pass (3 reports)" in out and "suite young: pass (6 reports)" in out
        # one pass per trial field serves both Hoelder exponents
        assert len(passes) == 3 * run


def test_each_field_pass_builds_its_plancherel_right_side_once(monkeypatch, capsys):
    # both Hoelder exponents of a young trial read the residual of one pass
    calls = []
    windowed_energy = gabor._windowed_energy

    def counted(*args):
        calls.append(1)
        return windowed_energy(*args)

    monkeypatch.setattr(gabor, "_windowed_energy", counted)
    assert main(["verify", "young", "--trials", "3", "--grid", "16x16"]) == 0
    out = capsys.readouterr().out
    assert "field passes: pass (3 reports)" in out and "suite young: pass (6 reports)" in out
    assert len(calls) == 3


@pytest.mark.parametrize("suite", ["young", "eps-concentration"])
def test_verify_rejects_a_negative_seed_before_any_suite(tmp_path, capsys, suite):
    rpt = tmp_path / "r.json"
    assert main(["verify", suite, "--seed", "-1", "--report", str(rpt)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --seed must be non-negative, got -1\n"
    assert not rpt.exists()


def test_heisenberg_and_lieb_share_their_gaussian_passes(monkeypatch):
    """lieb sweeps the normalized Gaussians heisenberg sweeps, so in one
    plan the two suites make 5 passes, one of them at 64^2."""
    sizes = []
    original = uncertainty.gabor_field_stats

    def counted(f, *args, **kwargs):
        sizes.append(f.grid.n1)
        return original(f, *args, **kwargs)

    monkeypatch.setattr(uncertainty, "gabor_field_stats", counted)
    cfg = cli.VerifyConfig()
    names = ["heisenberg", "lieb"]
    plan = cli.verify_plan(cfg, names)
    for name in names:
        out = cli.Collector(cfg.seed)
        cli.SUITES[name](cfg, out, plan[name])
        assert out.reports and not out.failures, out.failures
    assert len(sizes) == 5 and sizes.count(64) == 1, sizes


def test_concentration_suites_stay_within_32_mib():
    """Both concentration suites in one plan read the 8 MiB |G|^2 table of
    one pass, so together they hold less than the 32 MiB dense 32^2 field."""
    cfg = cli.VerifyConfig()
    names = ["concentration", "eps-concentration"]
    tracemalloc.start()
    try:
        plan = cli.verify_plan(cfg, names)
        for name in names:
            out = cli.Collector(cfg.seed)
            cli.SUITES[name](cfg, out, plan.pop(name))
            assert out.reports and not out.failures
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("suite", ["concentration", "eps-concentration"])
def test_concentration_suite_holds_its_table_and_under_4_mib_more(suite):
    """The masks and their checks read only the cells their pass kept, no
    8 MiB 32^2 |G|^2 table and no array of its size: a whole run peaks
    below 4 MiB."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["verify", suite]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])


def test_verify_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify", "lemma-log", "--seed", "3",
                     "--report", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_verify_refuses_a_report_its_csv_would_overwrite(tmp_path, capsys):
    """The CSV goes beside the JSON with a .csv extension, so a --report
    ending in .csv, or one whose .csv twin links to it, exits 2 in one line
    before any suite runs; so does one in a missing directory."""
    rpt = tmp_path / "missing" / "r.json"
    assert main(["verify", "log", "--report", str(rpt)]) == 2
    assert capsys.readouterr() == ("", f"error: --report {rpt}: no such directory\n")
    rpt = tmp_path / "out.csv"
    assert main(["verify", "log", "--seed", "0", "--report", str(rpt)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1, out
    assert out.err == f"error: output {rpt} would overwrite the JSON report {rpt}\n"
    assert not rpt.exists()
    rpt = tmp_path / "r.json"
    rpt.write_text("kept")
    (tmp_path / "r.csv").symlink_to(rpt)
    assert main(["verify", "log", "--report", str(rpt)]) == 2
    assert capsys.readouterr().out == "" and rpt.read_text() == "kept"


def test_verify_report_is_written_as_it_is_encoded(tmp_path):
    """The JSON and CSV go to their files as they are encoded, never as
    whole strings: a young run with --report peaks within 0.5 MiB of the
    same run without it (1.5 MiB above it when serialized whole)."""
    def peak(*report):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["verify", "young", "--trials", "150", *report]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    rpt = tmp_path / "y.json"
    extra = peak("--report", str(rpt)) - peak()
    assert extra < 2**19, f"{extra / 2**20:.2f} MiB"
    assert len(json.loads(rpt.read_text())) == 450
    assert not list(tmp_path.glob("*.part"))


def test_verify_plancherel_direct_holds_on_a_fine_grid(capsys):
    # at dx = 1e-10 the w-chirp of `generic` is about 1e20 rad: the direct
    # path passes because its kernel keeps the cross term a factor of its own
    assert main(["verify", "plancherel", "--method", "direct", "--dx", "1e-10",
                 "--trials", "1"]) == 0
    assert capsys.readouterr().err == ""


def test_verify_grid_and_dx_flags(tmp_path):
    rpt = tmp_path / "log.json"
    assert main(["verify", "log", "--grid", "16x16", "--dx", "0.5",
                 "--report", str(rpt)]) == 0
    reports = json.loads(rpt.read_text())
    assert all(r["grid"]["n1"] == 32 for r in reports)  # log suite pins 32x32


@pytest.mark.parametrize("flag", [["--dx", "0"], ["--grid", "1x1"], ["--dx", "1e200"],
                                  ["--dx", "inf"], ["--trials", "0"], ["--trials", "-3"],
                                  ["--grid", "0x0"], ["--dx", "1e-200"],
                                  ["--grid", "30000x30000"],
                                  ["--method", "direct", "--grid", "1024x1024"],
                                  ["--trials", "1000000000"]])
def test_verify_rejects_bad_grid_before_any_suite(tmp_path, capsys, flag):
    """A bad grid, a --grid whose largest array is over the budget and a
    --trials out of range exit 2 in one line before any signal is built."""
    # hausdorff-young runs at fixed sizes, so it never reads cfg.grid() itself
    rpt = tmp_path / "r.json"
    tracemalloc.start()
    try:
        code = main(["verify", "hausdorff-young", *flag, "--report", str(rpt)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1, out.err
    assert not rpt.exists()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("window, code", [
    ("gaussian:sigma=1e308", 0),
    ("gaussian:sigma=inf", 2),
    ("gaussian:sigma=1,foo=2", 2),
    ("gaussian:sigma=1,2,3", 2),
    ("rect:width=1,center=1,2,3", 2),
    ("gaussian:sigma=1e-300", 2),
    ("gaussian:sigma=1,center=1e200", 2),
    ("hann:width=1,center=1e308", 2),
])
def test_gabor_analyze_window_specs_keep_the_one_line_exit(tmp_path, capsys, window, code):
    """A spec that overflowed, was dropped in part or warned gives a window
    or exits 2 in one line; numpy warnings raise under pytest, so a warning
    or a traceback fails here."""
    src, coef = tmp_path / "f.qsig", tmp_path / "coef"
    write_gaussian(src, n=8)
    assert main(["gabor", "analyze", "-i", str(src), "-o", str(coef),
                 "--window", window]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == (code != 0) and "Traceback" not in err, err
    if code == 0:  # the flat window a Gaussian tends to
        assert np.all(load(coef / "window.qsig").samples[..., 0] == 1.0)
    else:
        assert err.startswith("error: ") and not coef.exists()


def test_verify_refuses_a_gabor_pass_above_the_cell_bound_before_any_pass(
        tmp_path, capsys, monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass started")

    monkeypatch.setattr(gabor, "iter_gabor_blocks", no_pass)
    rpt = tmp_path / "r.json"
    start = time.perf_counter()
    code = main(["verify", "heisenberg", "--grid", "256x256", "--trials", "1",
                 "--report", str(rpt)])
    assert time.perf_counter() - start < 20
    assert code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "cell bound" in out.err, out.err
    assert not rpt.exists()
    # the bound is the 128^2 field, read off the declared specs
    assert cli.VERIFY_PASS_CELLS == 128**4
    with pytest.raises(AssertionError, match="a pass started"):
        cli.verify_plan(cli.VerifyConfig(128, 128), ["heisenberg"])
    with pytest.raises(cli.FormatError, match="cell bound"):
        cli.verify_plan(cli.VerifyConfig(129, 128), ["heisenberg"])
    # a stride-1 pass on n1 x n2 sweeps (n1 n2)^2 cells
    with pytest.raises(cli.FormatError) as err:
        cli.verify_plan(cli.VerifyConfig(128, 129), ["heisenberg"])
    assert str(err.value) == (f"a Gabor pass on the 128x129 grid sweeps {(128 * 129)**2} "
                              f"cells, above the {128**4} cell bound (the 128x128 field)")


@pytest.mark.parametrize("argv", [["verify", "heisenberg", "--grid", "2048x2048"],
                                  ["verify", "all", "--grid", "1024x1024"]])
def test_a_refused_verify_plan_builds_no_signal(tmp_path, capsys, monkeypatch, argv):
    """The cell bound reads each spec's grid, so a refused plan exits 2 in
    one line before any signal is sampled."""
    def no_signal(*args, **kwargs):
        raise AssertionError("a signal was built")

    for module in (signal, families):
        monkeypatch.setattr(module, "sample", no_signal)
    rpt = tmp_path / "r.json"
    tracemalloc.start()
    try:
        code = main([*argv, "--trials", "1", "--report", str(rpt)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("\n") == 1 and "cell bound" in out.err, out.err
    assert not rpt.exists()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_young_plan_stays_under_its_per_trial_bound(tmp_path):
    """A whole verify run grows with --trials in young's passes and
    reports and plancherel's reports, all serialized at the end: their
    marginal peaks per trial, each taken between two trial counts, keep a
    `verify all` at MAX_TRIALS under VERIFY_BUDGET_BYTES."""
    def peak(suite, trials):
        rpt = tmp_path / f"{suite}-{trials}.json"
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(["verify", suite, "--trials", "1"])  # warm the FFT plans
            tracemalloc.start()
            try:
                assert main(["verify", suite, "--trials", str(trials),
                             "--report", str(rpt)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    per_trial = sum((peak(suite, 160) - peak(suite, 40)) / 120 for suite in ("young", "plancherel"))
    assert per_trial <= cli.VERIFY_BUDGET_BYTES / cli.MAX_TRIALS, f"{per_trial:.0f} B a trial"


@pytest.mark.parametrize("argv, code, text", [
    (["heisenberg", "--dx", "1e-100"], 3, "suite heisenberg family dilated-0.5"),
    (["heisenberg", "--dx", "1e-150"], 3, "suite heisenberg family dilated-0.5"),
    (["plancherel", "--dx", "1e150"], 2, "random trial 0 is the zero signal"),
    (["heisenberg", "--dx", "1e3"], 2, "error: suite heisenberg family dilated-0.5: "
     "cannot normalize the zero signal on the 32x32 grid with dx 1000.0\n"),
    (["all", "--dx", "1e150"], 2, "error: suite heisenberg family dilated-0.5: "
     "cannot normalize the zero signal on the 32x32 grid with dx 1e+150\n"),
], ids=["heisenberg-1e-100", "heisenberg-1e-150", "plancherel-1e150", "heisenberg-1e3",
        "all-1e150"])
def test_verify_at_an_extreme_dx_exits_in_one_line(tmp_path, capsys, argv, code, text):
    """A --dx whose dilates' Gabor sums overflow exits 3 before any suite
    runs, and one whose random trial or a suite's Gaussian underflows to
    the zero signal exits 2; numpy warnings raise under pytest, so a
    warning or a traceback fails here."""
    rpt = tmp_path / "r.json"
    assert main(["verify", *argv, "--trials", "1", "--report", str(rpt)]) == code
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ") and out.err.count("\n") == 1
    assert text in out.err, out.err
    assert not rpt.exists()


def test_verify_without_a_gabor_field_takes_any_budgeted_grid(tmp_path, capsys):
    rpt = tmp_path / "r.json"
    assert main(["verify", "plancherel", "--grid", "256x256", "--trials", "1",
                 "--report", str(rpt)]) == 0
    assert all(r["ratio"] == pytest.approx(1.0, abs=1e-2)
               for r in json.loads(rpt.read_text()))
