import json
import struct

import numpy as np
import pytest

from qlct import gabor, qlct2d, uncertainty
from qlct.cli import main
from qlct.families import PARAM_SETS, gaussian, impulse
from qlct.signal import Grid2D, QSignal2D, load, save


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


def test_forward_direct_method(tmp_path):
    src = tmp_path / "f.qsig"
    write_gaussian(src, n=8)
    assert main(["forward", "-i", str(src), "-o", str(tmp_path / "F.qsig"),
                 "--method", "direct"]) == 0


def test_non_unimodular_matrix_exits_2(tmp_path, capsys):
    src = tmp_path / "f.qsig"
    write_gaussian(src)
    code = main(["forward", "--a1", "1,1,1,1", "-i", str(src),
                 "-o", str(tmp_path / "F.qsig")])
    assert code == 2
    assert "det(A1) != 1" in capsys.readouterr().err


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
    gabor.save_coefficients(G.scaled(1e300), f, tmp_path / "coef")
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


@pytest.mark.parametrize("corrupt", [_payload_8_bytes_short, _payload_1_extra_byte,
                                     _payload_missing, _payload_nan_at_byte_800,
                                     _payload_bit_62_flipped, _payload_crc32_missing,
                                     _omega_grid_n1_is_9, _y_grid_spacing_edited,
                                     _omega_grid_enlarged])
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


def test_verify_young_writes_reports(tmp_path, capsys):
    rpt = tmp_path / "young.json"
    code = main(["verify", "young", "--trials", "5", "--seed", "7",
                 "--report", str(rpt)])
    assert code == 0
    out = capsys.readouterr()
    assert "suite young: pass" in out.out
    reports = json.loads(rpt.read_text())
    assert len(reports) == 10  # 5 trials x 2 exponent pairs
    assert min(r["margin"] for r in reports) >= -1e-6
    assert (tmp_path / "young.csv").exists()


def test_verify_runs_share_no_field_entries(monkeypatch, capsys):
    passes = []
    original = uncertainty.gabor_field_stats

    def counted(*args, **kwargs):
        passes.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(uncertainty, "gabor_field_stats", counted)
    for run in (1, 2):
        assert main(["verify", "young", "--trials", "3", "--grid", "16x16"]) == 0
        assert "suite young: pass (6 reports)" in capsys.readouterr().out
        # one pass per trial field serves both Hoelder exponents
        assert len(passes) == 3 * run


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


def test_verify_grid_and_dx_flags(tmp_path):
    rpt = tmp_path / "log.json"
    assert main(["verify", "log", "--grid", "16x16", "--dx", "0.5",
                 "--report", str(rpt)]) == 0
    reports = json.loads(rpt.read_text())
    assert all(r["grid"]["n1"] == 32 for r in reports)  # log suite pins 32x32


@pytest.mark.parametrize("flag", [["--dx", "0"], ["--grid", "1x1"], ["--dx", "1e200"],
                                  ["--dx", "inf"], ["--trials", "0"], ["--trials", "-3"],
                                  ["--grid", "0x0"], ["--dx", "1e-200"]])
def test_verify_rejects_bad_grid_before_any_suite(capsys, flag):
    # hausdorff-young runs at fixed sizes, so it never reads cfg.grid() itself
    assert main(["verify", "hausdorff-young", *flag]) == 2
    out = capsys.readouterr()
    assert "suite" not in out.out
    assert out.err.count("\n") == 1
