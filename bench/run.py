"""Layered benchmark for qlct.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else. One process runs one workload (see
`workloads.WORKLOADS`) single-threaded, as a closed loop with one caller,
in whole cycles of its parameter sets until S seconds have passed. Every
output is checked; an op whose check fails counts as failed.

--trace 0 prints the end-to-end metrics (`workloads.END_TO_END`).
setup_s is the median of SETUP_REPS set-ups, each a fresh interpreter
importing qlct plus the workload's input build, file writes and oracle
spot check.
--trace 1 runs ops in untraced/traced pairs and prints the per-layer
metrics (`tracing.LAYER_METRICS`); its spans go to
``.bench_out/trace-<workload>-seed<N>.npz``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["transform-1024", "gabor-32", "verify-all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_qlct():
    """Import qlct from ROOT/src only; exit non-zero if it is not there."""
    src = ROOT / "src"
    if not (src / "qlct" / "__init__.py").is_file():
        sys.exit(f"error: no qlct sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import qlct
    if Path(qlct.__file__).resolve().parent != (src / "qlct").resolve():
        sys.exit(f"error: imported qlct from {qlct.__file__}, not {src}")


def import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import qlct."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qlct"], check=True,
                   capture_output=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return time.perf_counter() - t


def cache_sizes() -> dict:
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30,
                             env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    return {m.group(1): m.group(2).strip()
            for m in re.finditer(r"^(L[23]) cache:\s*(.+)$", out, re.M)}


def environment(wl, qlct_threads) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cache": cache_sizes(),
        "QLCT_THREADS": qlct_threads,
        "largest_array_bytes": wl.largest_array_bytes,
    }


def tail(times: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            value = statistics.quantiles(times, n=1000, method="inclusive")[
                round(pct * 10) - 1]
            return f"p{pct:g} = {value!r} s over {n} ops"
    return f"omitted: {n} ops leave fewer than ten beyond the median"


def main(argv=None) -> int:
    args = parse_args(argv)
    # single-threaded baseline: the FFT honours QLCT_THREADS, BLAS these
    qlct_threads = os.environ.pop("QLCT_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_qlct()

    import tracing
    import workloads

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cls, _ = workloads.WORKLOADS[args.workload]
        wl = cls(args.seed, str(workdir))
        tracer = tracing.Tracer() if args.trace else None
        setup_times, setup_problems = [], []
        for _ in range(SETUP_REPS):
            start_s = import_seconds()
            t = time.perf_counter()
            if tracer is not None:
                with tracer.recording(-1):
                    problems = wl.setup()
            else:
                problems = wl.setup()
            setup_times.append(start_s + time.perf_counter() - t)
            setup_problems = list(dict.fromkeys(setup_problems + problems))
        result = workloads.measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(wl, qlct_threads), sort_keys=True))
    for problem in setup_problems + result["problems"]:
        print(f"FAIL {problem}")
    times = result["times"]
    print(f"fail_ratio {result['failed']}/{result['attempted']}")
    print(f"op_s_tail {tail(times)}")
    if wl.samples_per_op is not None:
        print(f"msamples_per_s {wl.samples_per_op / statistics.median(times) / 1e6!r}")

    if tracer is None:
        values = {
            "op_s_p50": statistics.median(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = {name: unit for name, unit, _ in workloads.END_TO_END}
    else:
        overhead = statistics.median(result["traced_times"]) / statistics.median(times)
        values = tracing.layer_metrics(tracer, result["traced_ops"], SETUP_REPS, overhead)
        units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
        moves = {name: why for name, _, _, why in tracing.LAYER_METRICS}
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_path)
        print(f"spans {len(tracer.spans)} written to {trace_path}")
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        note = f"  ({moves[name]})" if tracer is not None else ""
        print(f"metric {name} {m['value']!r} {m['unit']}{note}")
    print(json.dumps({"correct": not setup_problems and result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
