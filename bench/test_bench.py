"""Self-tests of the benchmark: negative controls for its output checks,
exact self-time arithmetic, and agreement with BENCHMARK.json.

    python3 -m pytest bench -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402
from qlct import cli, signal  # noqa: E402
from qlct.signal import QSignal2D  # noqa: E402


def _after(monkeypatch, command, damage):
    """Run damage(argv) after every cli.main(argv) whose argv[0] is command."""
    real = cli.main

    def damaged(argv):
        code = real(argv)
        if argv[0] == command:
            damage(argv)
        return code
    monkeypatch.setattr(cli, "main", damaged)


def test_corrupted_round_trip_sample_fails_the_op(tmp_path, monkeypatch):
    wl = workloads.TransformWorkload(0, str(tmp_path), n=32)
    assert wl.setup() == []
    assert workloads.measure(wl, 0)["failed"] == 0

    once = itertools.count()

    def corrupt(argv):
        if next(once):
            return
        out = argv[argv.index("-o") + 1]
        r = signal.load(out)
        vals = r.samples.copy()
        vals[3, 5, 1] += 1e-6
        signal.save(out, QSignal2D(r.grid, vals))
    _after(monkeypatch, "inverse", corrupt)
    result = workloads.measure(wl, 0)
    assert (result["attempted"], result["failed"]) == (wl.cycle, 1)
    assert "round trip max error" in result["problems"][0]


def test_changed_report_byte_fails_the_op(tmp_path, monkeypatch):
    wl = workloads.VerifyAllWorkload(0, str(tmp_path), suite="hausdorff-young")
    assert workloads.measure(wl, 0)["failed"] == 0

    def change_digit(argv):
        path = argv[argv.index("--report") + 1]
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
        at = raw.index(b'"lhs": ') + len(b'"lhs": ')
        while not chr(raw[at]).isdigit():
            at += 1
        raw[at] = ord("1") if raw[at] != ord("1") else ord("2")
        with open(path, "wb") as fh:
            fh.write(raw)
    _after(monkeypatch, "verify", change_digit)
    result = workloads.measure(wl, 0)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "sha256" in result["problems"][0]


def test_self_times_exact_on_synthetic_nested_trace():
    #        A [0, 8]
    #        +- B [1, 3]
    #        +- C [2.5, 6]   overlaps B: the union [1, 6] is covered once
    #        |  +- D [3, 4]
    #        +- E [7.5, 9]   clipped to A's end
    start = [0.0, 1.0, 2.5, 3.0, 7.5]
    end = [8.0, 3.0, 6.0, 4.0, 9.0]
    parent = [-1, 0, 0, 2, 0]
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [2.5, 2.0, 2.5, 1.0, 1.5]


def test_layer_metrics_self_time_through_real_wrappers(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    inner = tracer.wrap("signal.load", lambda: None)
    outer = tracer.wrap("cli.main", lambda: (inner(), inner()))
    tracer.op = 0
    outer()     # cli.main [0, 5], loads [1, 2] and [3, 4]
    m = tracing.layer_metrics(tracer, [0], setup_reps=1, overhead_ratio=1.0)
    assert m["cli.main.self_s"] == 3.0
    assert m["signal.load.s"] == 2.0
    assert m["signal.load.calls"] == 2


def test_recording_restores_every_binding(tmp_path):
    import qlct.qlct2d
    before = qlct.qlct2d.lct_fast, dict(cli.SUITES)
    with tracing.Tracer().recording(0):
        assert qlct.qlct2d.lct_fast is not before[0]
    assert (qlct.qlct2d.lct_fast, cli.SUITES) == before


def test_traced_counts_are_exact(tmp_path):
    tracer = tracing.Tracer()
    wl = workloads.TransformWorkload(1, str(tmp_path / "t"), n=32)
    os.makedirs(wl.dir)
    wl.setup()
    result = workloads.measure(wl, 0, tracer)
    assert result["failed"] == 0
    m = tracing.layer_metrics(tracer, result["traced_ops"], 1, 1.0)
    assert m["qlct2d.lct_calls_per_transform"] == 6
    assert m["lct1d.lct_scale_chirp.calls"] > 0

    tracer = tracing.Tracer()
    wl = workloads.GaborWorkload(1, str(tmp_path / "g"), n=16)
    os.makedirs(wl.dir)
    wl.setup()
    result = workloads.measure(wl, 0, tracer)
    assert result["failed"] == 0
    m = tracing.layer_metrics(tracer, result["traced_ops"], 1, 1.0)
    assert m["gabor.lct_calls_per_row"] == 6
    assert m["gabor.save_coefficients.files"] == 16 * 16


def test_benchmark_json_matches_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
            == workloads.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
            == [m[:3] for m in tracing.LAYER_METRICS])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gabor-32", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
