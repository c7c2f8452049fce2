"""The benchmark's tracer (`bench/tracing.py`) wraps qlct functions by
(module, attribute) name. Every binding it lists must still resolve, and
every wrapper must still call what it wraps with the arguments it passes,
or `bench/run.py --trace 1` breaks; `pytest bench` is not part of the
default test run, so these checks live here. The workloads
(`bench/workloads.py`) are imported too, so a renamed or deleted name
they import fails this module's collection."""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from qlct import cli, gabor, qlct2d, uncertainty  # noqa: E402
from qlct.families import PARAM_SETS, gaussian  # noqa: E402
from qlct.signal import Grid2D  # noqa: E402


def test_tracer_installs_and_restores_every_binding():
    before = qlct2d.qlct_inverse
    with tracing.Tracer().recording(0):
        assert qlct2d.qlct_inverse is not before
    assert qlct2d.qlct_inverse is before


def test_tracer_counts_one_field_pass_of_a_young_check(monkeypatch):
    f = gaussian(Grid2D.centered(8, 8, 0.5, 0.5), 1.0)
    kernels = []
    lct2d = qlct2d._lct2d
    monkeypatch.setattr(qlct2d, "_lct2d",
                        lambda *args: kernels.append(args) or lct2d(*args))
    tracer = tracing.Tracer()
    with tracer.recording(0):
        p = PARAM_SETS["fourier"]
        uncertainty.young_sup_check(uncertainty.gabor_field_stats(f, f, p), 2.0)
        qlct2d.qlct_forward_fast(f, PARAM_SETS["generic"])
    metrics = tracing.layer_metrics(tracer, [0], 1, 1.0)
    assert metrics["uncertainty.field_stats.calls"] == 1
    rows, transforms = metrics["gabor.rows.calls"], metrics["qlct2d.forward.calls"]
    assert (rows, transforms) == (8, 1)
    # two separable 2D transforms, P and M, per transform, each one FFT per
    # axis; a Gabor row of a real f and window under a2 = 0 transforms P
    # alone and reads M as its omega2 mirror
    assert len(kernels) == rows + 2 * transforms
    assert metrics["lct1d.fft.calls"] == 2 * rows + 4 * transforms


@pytest.mark.parametrize("name", list(PARAM_SETS))
def test_tracer_counts_every_fft_of_a_transform(name):
    # the P and M halves, each one FFT per b != 0 axis
    tracer = tracing.Tracer()
    with tracer.recording(0):
        qlct2d.qlct_forward_fast(gaussian(Grid2D.centered(8, 8, 0.5, 0.5), 1.0),
                                 PARAM_SETS[name])
    assert tracing.layer_metrics(tracer, [0], 1, 1.0)["lct1d.fft.calls"] == 4


def _multi_block_pass(monkeypatch, name):
    """A young check's pass over an 8x8 real Gaussian whose rows of 8
    translations run in blocks of 3: its metrics and `_lct2d` calls."""
    grid = Grid2D.centered(8, 8, 0.5, 0.5)
    f = gaussian(grid, 1.0)
    monkeypatch.setattr(gabor, "BLOCK_BYTES", 3 * 16 * grid.n1 * grid.n2)
    kernels = []
    lct2d = qlct2d._lct2d
    monkeypatch.setattr(qlct2d, "_lct2d",
                        lambda *args: kernels.append(args) or lct2d(*args))
    tracer = tracing.Tracer()
    with tracer.recording(0):
        p = PARAM_SETS[name]
        uncertainty.young_sup_check(uncertainty.gabor_field_stats(f, f, p), 2.0)
    metrics = tracing.layer_metrics(tracer, [0], 1, 1.0)
    assert metrics["uncertainty.field_stats.calls"] == 1
    assert metrics["gabor.rows.calls"] == 8 * 3
    return metrics, len(kernels)


def test_tracer_counts_each_block_of_a_multi_block_pass(monkeypatch):
    # each of the 3 blocks of a row is one gabor.rows span; under generic
    # (a2 = 0) the real halves are equal, so a block is one separable 2D
    # transform, P, with M read as its omega2 mirror
    metrics, kernels = _multi_block_pass(monkeypatch, "generic")
    assert kernels == 8 * 3
    assert metrics["lct1d.fft.calls"] == 2 * 8 * 3


def test_tracer_counts_both_halves_of_each_block_under_neg_b(monkeypatch):
    # neg-b's right axis has a2 = 2, whose pre-chirp is no linear phase, so
    # every block keeps both transforms, P and M, each one FFT per axis
    metrics, kernels = _multi_block_pass(monkeypatch, "neg-b")
    assert kernels == 2 * 8 * 3
    assert metrics["lct1d.fft.calls"] == 4 * 8 * 3


def test_verify_lieb_transforms_one_half_per_gaussian_block(monkeypatch, capsys):
    """lieb's three passes sweep real Gaussians under the QFT, so each of
    their blocks makes one `_lct2d` call: 576 in all, where transforming
    both halves made 1152."""
    calls = []
    lct2d = qlct2d._lct2d
    monkeypatch.setattr(qlct2d, "_lct2d", lambda *args: calls.append(1) or lct2d(*args))
    assert cli.main(["verify", "lieb"]) == 0
    assert len(calls) == 576


def test_traced_verify_lieb_counts_its_three_field_passes(capsys):
    """`bench/run.py --trace 1` wraps the sweep's pass and the suites; lieb
    sweeps three distinct fields: the 32^2 Gaussian at p' = 1.5 and 2, its
    (2f, 3f) pair and the 64^2 Gaussian."""
    tracer = tracing.Tracer()
    with tracer.recording(0):
        assert cli.main(["verify", "lieb"]) == 0
    metrics = tracing.layer_metrics(tracer, [0], 1, 1.0)
    assert metrics["uncertainty.field_stats.calls"] == 3
    assert metrics["cli.suite.lieb.s"] > 0


def test_traced_verify_gabor_plancherel_counts_its_two_field_passes(capsys):
    """gabor-plancherel's two fields go through the sweep like every other
    suite's, so the traced pass binding sees both: the 32^2 Gaussian
    against the Gaussian window and against the single-cell window."""
    tracer = tracing.Tracer()
    with tracer.recording(0):
        assert cli.main(["verify", "gabor-plancherel"]) == 0
    metrics = tracing.layer_metrics(tracer, [0], 1, 1.0)
    assert metrics["uncertainty.field_stats.calls"] == 2
    assert metrics["cli.suite.gabor-plancherel.s"] > 0


def test_row_bindings_resolve_to_the_blocked_sweep():
    for module, attr in tracing.BINDINGS["gabor.rows"]:
        assert getattr(importlib.import_module(module), attr) is gabor.iter_gabor_blocks


def test_workloads_take_both_forward_paths_from_qlct2d():
    # the set-up oracle compares these two; renaming either breaks the benchmark
    assert workloads.qlct_forward_fast is qlct2d.qlct_forward_fast
    assert workloads.qlct_forward_direct is qlct2d.qlct_forward_direct
