"""Fuzzed inputs to the two payload readers, to the matrices and to the
Gabor commands' arguments, through the CLI.

An 8x8 QSIG file goes through `forward`, and an 8x8 coefficient directory
through `gabor synthesize` and `gabor spectrogram`, after a truncation, a single-bit flip, or an
edit of one header field or manifest entry. Whatever the damage, the run
must end with a documented exit code (0, 2 or 3) and at most one line on
stderr; any exception or warning escaping `main` fails the test. Any
damage to the coefficient payload must exit 2: the manifest's crc32
catches the flips that leave every value finite. The same holds for
`forward --check` of the 8x8 Gaussian under det-1 matrices of any
magnitude, and a run that exits 0 prints a Plancherel ratio of 1; and for
`gabor analyze`, `spectrogram` and `synthesize` of QSIG signals of 2 to 9
samples per axis, under any window spec, stride and slice, where a run
that exits 0 writes finite outputs and no run leaves a `.part` file.
"""

import contextlib
import io
import json
import math
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlct.cli import main
from qlct.families import gaussian
from qlct.gabor import load_coefficients
from qlct.signal import Grid2D, load, save

FILES = ("coeffs.f64", "manifest.json", "window.qsig")

MANIFEST_ENTRIES = [("omega_grid", "n1"), ("omega_grid", "dx2"),
                    ("omega_grid", "x0_1"), ("y_grid", "n2"), ("y_grid", "dx1"),
                    ("params", "A1"), ("params",), ("window_norm_sq",),
                    ("stride",), ("payload_crc32",)]

json_values = st.one_of(st.none(), st.booleans(),
                        st.integers(-2**70, 2**70), st.floats(),
                        st.text(max_size=3), st.lists(st.floats(), max_size=5))


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A directory holding an 8x8 QSIG signal and its coefficient directory."""
    root = tmp_path_factory.mktemp("pristine")
    save(root / "f.qsig", gaussian(Grid2D.centered(8, 8, 0.5, 0.5), 1.0))
    assert _run(["gabor", "analyze", "-i", str(root / "f.qsig"),
                 "-o", str(root / "coef")])[0] == 0
    return root


def _run(argv, out=None):
    err = io.StringIO()
    with (contextlib.redirect_stdout(out or io.StringIO()), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


def _check(code, err):
    assert code in (0, 2, 3), err
    assert err.count("\n") <= 1, err
    assert "Traceback" not in err
    return code


def _damage(data: bytes, kind: str, at: int) -> bytes:
    if kind == "truncate":
        return data[:at % len(data)]
    bit = at % (8 * len(data))
    raw = bytearray(data)
    raw[bit // 8] ^= 1 << (bit % 8)
    return bytes(raw)


damage = st.tuples(st.sampled_from(["truncate", "flip"]), st.integers(0, 2**40))


@settings(max_examples=50)
@given(edit=st.one_of(
    damage,
    # version, n1, n2; then x0_1, x0_2, dx1, dx2
    st.tuples(st.just("<I"), st.sampled_from([4, 8, 12]), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("<d"), st.sampled_from([16, 24, 32, 40]), st.floats())))
def test_fuzzed_qsig_through_forward(pristine, edit):
    data = (pristine / "f.qsig").read_bytes()
    if edit[0] in ("<I", "<d"):
        raw = bytearray(data)
        struct.pack_into(edit[0], raw, edit[1], edit[2])
        data = bytes(raw)
    else:
        data = _damage(data, *edit)
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "f.qsig")
        with open(src, "wb") as fh:
            fh.write(data)
        _check(*_run(["forward", "-i", src, "-o", os.path.join(tmp, "F.qsig")]))


@settings(max_examples=50)
@given(edit=st.one_of(
    st.tuples(st.sampled_from(FILES), damage),
    st.tuples(st.just("manifest"), st.sampled_from(MANIFEST_ENTRIES),
              st.one_of(st.just("delete"), json_values))))
# the top exponent bit of the first coefficient: a finite 1e302-sized
# value that synthesize once turned into wrong output and spectrogram into
# an inf-scaled PGM, both with exit 0
@example(edit=("coeffs.f64", ("flip", 62)))
# int(inf) raises OverflowError, which must read as a malformed manifest
@example(edit=("manifest", ("omega_grid", "n1"), float("inf")))
def test_fuzzed_coefficient_directory_through_synthesize_and_spectrogram(pristine, edit):
    files = {name: (pristine / "coef" / name).read_bytes() for name in FILES}
    if edit[0] == "manifest":
        path, value = edit[1:]
        manifest = json.loads(files["manifest.json"])
        node = manifest
        for key in path[:-1]:
            node = node[key]
        if value == "delete":
            del node[path[-1]]
        else:
            node[path[-1]] = value
        files["manifest.json"] = json.dumps(manifest).encode()
    else:
        name, (kind, at) = edit
        files[name] = _damage(files[name], kind, at)
    with tempfile.TemporaryDirectory() as tmp:
        coef = os.path.join(tmp, "coef")
        os.mkdir(coef)
        for name, data in files.items():
            with open(os.path.join(coef, name), "wb") as fh:
                fh.write(data)
        codes = [_check(*_run(["gabor", "synthesize", "-i", coef,
                               "-o", os.path.join(tmp, "back.qsig")])),
                 _check(*_run(["gabor", "spectrogram", "-i", coef,
                               "-o", os.path.join(tmp, "spec.pgm")]))]
    if edit[0] == "coeffs.f64":
        assert codes == [2, 2], edit


magnitudes = st.builds(lambda sign, exponent: sign * 10.0**exponent,
                       st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0))
# (a, b, (ad - 1)/b, d), and for b = 0 the (a, 0, c, 1/a) scale-chirp
matrices = st.one_of(
    st.tuples(magnitudes, magnitudes, magnitudes).map(
        lambda m: (m[0], m[1], (m[0] * m[2] - 1.0) / m[1], m[2])),
    st.tuples(magnitudes, magnitudes).map(lambda m: (m[0], 0.0, m[1], 1.0 / m[0])))


@settings(max_examples=100)
@given(a1=matrices, a2=matrices)
# each axis scales the transform by 1/sqrt(2 pi |b|), so its energy sum
# once overflowed to nan (1e-300, 1e-200) or inf (ratio 0.0, 1e-160 and
# 1e-155), where the ROADMAP's random probe met it in 4 of 400 matrices
@example(a1=(0.0, 1e-300, -1e300, 0.0), a2=(0.0, 1e-300, -1e300, 0.0))
@example(a1=(0.0, -1e-300, 1e300, 0.0), a2=(0.0, -1e-300, 1e300, 0.0))
@example(a1=(0.0, 1e-200, -1e200, 0.0), a2=(0.0, 1e-200, -1e200, 0.0))
@example(a1=(0.0, -1e-200, 1e200, 0.0), a2=(0.0, -1e-200, 1e200, 0.0))
@example(a1=(0.0, 1e-160, -1e160, 0.0), a2=(0.0, 1e-160, -1e160, 0.0))
@example(a1=(0.0, -1e-160, 1e160, 0.0), a2=(0.0, -1e-160, 1e160, 0.0))
@example(a1=(0.0, 1e-155, -1e155, 0.0), a2=(0.0, 1e-155, -1e155, 0.0))
@example(a1=(0.0, -1e-155, 1e155, 0.0), a2=(0.0, -1e-155, 1e155, 0.0))
# ad and bc near -1.1e7 round its det to 1 + 1.9e-9, which an absolute
# det tolerance refused
@example(a1=(124.89247601196774, 2193825.507683052, -4.910560427603814, -86257.49178088145),
         a2=(0.0, 1.0, -1.0, 0.0))
def test_fuzzed_matrices_through_forward_check(pristine, a1, a2):
    # --a1=... since argparse reads a leading "-" as an option
    matrix = {name: ",".join(map(repr, m)) for name, m in (("a1", a1), ("a2", a2))}
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        code = _check(*_run(["forward", f"--a1={matrix['a1']}", f"--a2={matrix['a2']}",
                             "-i", str(pristine / "f.qsig"),
                             "-o", os.path.join(tmp, "F.qsig"), "--check"], out))
    if code == 0:
        ratio = float(out.getvalue().removeprefix("plancherel ratio "))
        assert abs(ratio - 1.0) <= 1e-9, (matrix, ratio)


positives = st.floats(-300.0, 300.0).map(lambda exponent: 10.0**exponent)
numbers = st.one_of(magnitudes, st.sampled_from([0.0, -0.0, math.nan]))


def _window_text(kind, values, center):
    key = "sigma" if kind == "gaussian" else "width"
    text = f"{kind}:{key}={','.join(map(repr, values))}"
    return text + (f",center={','.join(map(repr, center))}" if center else "")


def _windows(params, centers):
    return st.builds(_window_text, st.sampled_from(["gaussian", "rect", "hann"]),
                     st.lists(params, min_size=1, max_size=2),
                     st.one_of(st.none(), st.lists(centers, min_size=1, max_size=2)))


# half the specs are valid, so most runs get past the window
windows = st.one_of(_windows(positives, st.one_of(st.just(0.0), magnitudes)),
                    _windows(numbers, numbers))
slices = st.one_of(
    st.sampled_from(["max_over_y", "max_over_omega"]),
    st.builds("{}={},{}".format, st.sampled_from(["fix_y", "fix_omega"]),
              st.integers(-2, 10), st.integers(-2, 10)),
    st.text(max_size=12))


@st.composite
def gabor_runs(draw):
    n1, n2 = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    # half the strides are valid, from 1 to min(n1, n2) - 1
    stride = draw(st.one_of(st.integers(1, max(1, min(n1, n2) - 1)),
                            st.integers(0, max(n1, n2))))
    return n1, n2, draw(windows), stride, draw(slices)


def _no_part_left(root):
    assert not [name for _, _, names in os.walk(root) for name in names
                if name.endswith(".part")]


@settings(max_examples=150)
@given(run=gabor_runs())
def test_fuzzed_gabor_arguments(run):
    n1, n2, window, stride, kind = run
    with tempfile.TemporaryDirectory() as tmp:
        src, coef = os.path.join(tmp, "f.qsig"), os.path.join(tmp, "coef")
        save(src, gaussian(Grid2D.centered(n1, n2, 0.5, 0.5), 1.0))
        # --opt=value, since argparse reads a leading "-" as an option
        code = _check(*_run(["gabor", "analyze", "-i", src, "-o", coef,
                             f"--window={window}", f"--stride={stride}"]))
        _no_part_left(tmp)
        if code != 0:
            return
        G, phi = load_coefficients(coef)
        assert all(np.isfinite(row).all() for row in G.rows())
        assert np.isfinite(phi.samples).all()
        spec, back = os.path.join(tmp, "spec.pgm"), os.path.join(tmp, "back.qsig")
        if _check(*_run(["gabor", "spectrogram", "-i", coef, "-o", spec,
                         f"--slice={kind}"])) == 0:
            with open(spec + ".json") as fh:
                scale = json.load(fh)
            assert math.isfinite(scale["min"]) and math.isfinite(scale["max"])
            assert np.isfinite(np.loadtxt(spec + ".csv", delimiter=",", ndmin=2)).all()
        if _check(*_run(["gabor", "synthesize", "-i", coef, "-o", back])) == 0:
            assert np.isfinite(load(back).samples).all()
        _no_part_left(tmp)
