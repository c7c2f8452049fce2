"""The benchmark's tracer (`bench/tracing.py`) wraps qlct functions by
(module, attribute) name. Every binding it lists must still resolve, and
every wrapper must still call what it wraps with the arguments it passes,
or `bench/run.py --trace 1` breaks; `pytest bench` is not part of the
default test run, so these checks live here."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import tracing  # noqa: E402
from qlct import qlct2d, uncertainty  # noqa: E402
from qlct.families import PARAM_SETS, gaussian  # noqa: E402
from qlct.signal import Grid2D  # noqa: E402


def test_tracer_installs_and_restores_every_binding():
    before = qlct2d.qlct_inverse
    with tracing.Tracer().recording(0):
        assert qlct2d.qlct_inverse is not before
    assert qlct2d.qlct_inverse is before


def test_tracer_counts_one_field_pass_of_a_young_check():
    f = gaussian(Grid2D.centered(8, 8, 0.5, 0.5), 1.0)
    tracer = tracing.Tracer()
    with tracer.recording(0):
        uncertainty.young_sup_check(f, f, PARAM_SETS["fourier"], 2.0)
        qlct2d.qlct_forward_fast(f, PARAM_SETS["generic"])
    metrics = tracing.layer_metrics(tracer, [0], 1, 1.0)
    assert metrics["uncertainty.field_stats.calls"] == 1
    # the halved right kernel: two LCTs per side, per row and per transform
    assert metrics["gabor.lct_calls_per_row"] == 4
    assert metrics["qlct2d.lct_calls_per_transform"] == 4
