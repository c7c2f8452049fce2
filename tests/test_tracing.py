"""The benchmark's tracer (`bench/tracing.py`) wraps qlct functions by
(module, attribute) name. Every binding it lists must still resolve, or
`bench/run.py --trace 1` breaks; `pytest bench` is not part of the
default test run, so this check lives here."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench"))

import tracing  # noqa: E402
from qlct import qlct2d  # noqa: E402


def test_tracer_installs_and_restores_every_binding():
    before = qlct2d.qlct_inverse
    with tracing.Tracer().recording(0):
        assert qlct2d.qlct_inverse is not before
    assert qlct2d.qlct_inverse is before
