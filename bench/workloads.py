"""Benchmark workloads: inputs built with qlct.families, operations run
through the public entry point ``qlct.cli.main(argv)``, every output
checked.

Each workload is driven as a closed loop with one caller: the next
operation starts only after the previous one and its checks finish. The
program receives only the generated files and argv.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
import traceback

import numpy as np

from qlct import cli, families, signal
from qlct.lct1d import LCTParams
from qlct.qlct2d import QLCTParams, qlct_forward_direct, qlct_forward_fast

#: End-to-end metrics printed by an untraced run: (name, unit, better).
END_TO_END = [
    ("op_s_p50", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: The three PARAM_SETS plus one b = 0 axis, which runs lct_scale_chirp.
TRANSFORM_SETS = [*families.PARAM_SETS.values(),
                  QLCTParams(LCTParams(2.0, 0.0, 0.5, 0.5), families.FOURIER)]
GABOR_SETS = list(families.PARAM_SETS.values())
WINDOW = "gaussian:sigma=1.0,1.0"

ROUND_TRIP_TOL = 1e-8    # criterion 02, relative to max|f|
PLANCHEREL_TOL = 1e-9    # exact on matched grids up to rounding
SYNTHESIS_TOL = 1e-2     # criterion 06, relative L2
ORACLE_TOL = 1e-9        # criterion 01, fast vs direct


def matrix_arg(p: LCTParams) -> str:
    return ",".join(repr(float(v)) for v in p.astuple())


def param_args(p: QLCTParams) -> list[str]:
    return ["--a1", matrix_arg(p.A1), "--a2", matrix_arg(p.A2)]


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """qlct.cli.main(argv) with its output captured; an escaping exception
    is returned as the output with code None, so the op counts as failed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
    return code, out.getvalue()


def oracle_spot_check(seed: int) -> list[str]:
    """Fast vs direct at 32x32 on every transform parameter set."""
    rng = np.random.default_rng([seed, 32])
    f = families.random_quaternion_signal(families.default_grid(32), rng)
    problems = []
    for p in TRANSFORM_SETS:
        diff = float(np.max(np.abs(qlct_forward_fast(f, p).samples
                                   - qlct_forward_direct(f, p).samples)))
        if not diff <= ORACLE_TOL:
            problems.append(f"oracle spot check {p.to_dict()}: max diff {diff!r}")
    return problems


def _remove(*paths) -> None:
    for path in paths:
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)


def _exit_codes(codes) -> list[str]:
    return [f"{argv[0]}: exit {code}, output {out[-300:]!r}"
            for argv, (code, out) in codes if code != 0]


class Workload:
    """One workload; `setup` may run several times, `op` is timed, `check`
    is not."""

    samples_per_op: float | None = None
    #: ops per full cycle of parameter sets
    cycle = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def setup(self) -> list[str]:
        return oracle_spot_check(self.seed)

    def op(self, k: int):
        """Run op k; returns [(argv, (exit code, output)), ...]."""
        codes = []
        for argv in self.argvs(k):
            codes.append((argv, run_cli(argv)))
            if codes[-1][1][0] != 0:
                break
        return codes

    def argvs(self, k: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, k: int, codes) -> list[str]:
        raise NotImplementedError


class TransformWorkload(Workload):
    """forward then inverse, file to file, on a random quaternion signal."""

    cycle = len(TRANSFORM_SETS)

    def __init__(self, seed: int, workdir: str, n: int = 1024):
        super().__init__(seed, workdir)
        self.n = n
        self.samples_per_op = 2 * n * n
        self.largest_array_bytes = n * n * 4 * 8

    def setup(self) -> list[str]:
        rng = np.random.default_rng(self.seed)
        self.f = families.random_quaternion_signal(families.default_grid(self.n), rng)
        self.f_max = float(np.max(np.abs(self.f.samples)))
        self.f_energy = self.f.l2_norm_sq()
        signal.save(self.path("f.qsig"), self.f)
        return super().setup()

    def argvs(self, k):
        params = param_args(TRANSFORM_SETS[k % self.cycle])
        return [["forward", *params, "-i", self.path("f.qsig"), "-o", self.path("F.qsig")],
                ["inverse", *params, "-i", self.path("F.qsig"), "-o", self.path("r.qsig")]]

    def check(self, k, codes) -> list[str]:
        try:
            problems = _exit_codes(codes)
            if problems:
                return problems
            F = signal.load(self.path("F.qsig"))
            r = signal.load(self.path("r.qsig"))
            if not r.grid.approx_eq(self.f.grid):
                return [f"round trip grid {r.grid} != input grid {self.f.grid}"]
            err = float(np.max(np.abs(r.samples - self.f.samples)))
            if not err <= ROUND_TRIP_TOL * self.f_max:
                problems.append(f"round trip max error {err!r} > "
                                f"{ROUND_TRIP_TOL} x {self.f_max!r}")
            ratio = F.l2_norm_sq() / self.f_energy
            if not abs(ratio - 1.0) <= PLANCHEREL_TOL:
                problems.append(f"Plancherel ratio {ratio!r}")
            return problems
        finally:
            _remove(self.path("F.qsig"), self.path("r.qsig"))


class GaborWorkload(Workload):
    """gabor analyze (stride 1), synthesize, spectrogram max_over_y."""

    cycle = len(GABOR_SETS)

    def __init__(self, seed: int, workdir: str, n: int = 32):
        super().__init__(seed, workdir)
        self.n = n
        self.samples_per_op = 2 * (n * n) ** 2
        self.largest_array_bytes = (n * n) ** 2 * 4 * 8

    def setup(self) -> list[str]:
        rng = np.random.default_rng(self.seed)
        self.f = families.random_smooth(families.default_grid(self.n), rng)
        signal.save(self.path("f.qsig"), self.f)
        return super().setup()

    def argvs(self, k):
        params = param_args(GABOR_SETS[k % self.cycle])
        coeffs = self.path("coeffs")
        return [["gabor", "analyze", *params, "-i", self.path("f.qsig"), "-o", coeffs,
                 "--window", WINDOW, "--stride", "1"],
                ["gabor", "synthesize", "-i", coeffs, "-o", self.path("rec.qsig")],
                ["gabor", "spectrogram", "-i", coeffs, "-o", self.path("spec.pgm"),
                 "--slice", "max_over_y"]]

    def check(self, k, codes) -> list[str]:
        pgm = self.path("spec.pgm")
        try:
            problems = _exit_codes(codes)
            if problems:
                return problems
            rec = signal.load(self.path("rec.qsig")).samples
            f = self.f.samples
            rel = float(np.sqrt(np.sum((rec - f) ** 2) / np.sum(f ** 2)))
            if not rel <= SYNTHESIS_TOL:
                problems.append(f"synthesis relative L2 error {rel!r}")
            header = f"P5\n{self.n} {self.n}\n255\n".encode()
            with open(pgm, "rb") as fh:
                data = fh.read()
            if not data.startswith(header) or len(data) != len(header) + self.n ** 2:
                problems.append(f"PGM header/size wrong: {data[:20]!r}, {len(data)} bytes")
            with open(pgm + ".json") as fh:
                side = json.load(fh)
            if (side.get("rows"), side.get("cols")) != (self.n, self.n):
                problems.append(f"PGM sidecar says {side.get('rows')}x{side.get('cols')}")
            return problems
        finally:
            # The slice files stay for the next op to overwrite: deleting and
            # recreating 1024 files makes the file system's own work, not
            # qlct's, dominate the spread. Without the manifest and window
            # a failed analyze cannot pass off the old slices as new.
            coeffs = self.path("coeffs")
            _remove(os.path.join(coeffs, "manifest.json"),
                    os.path.join(coeffs, "window.qsig"), self.path("rec.qsig"),
                    pgm, pgm + ".json", pgm + ".csv")


class VerifyAllWorkload(Workload):
    """qlct verify all at the defaults (32x32 grid, fast method)."""

    #: the dense 32x32 Gabor field of the concentration suites
    largest_array_bytes = (32 * 32) ** 2 * 4 * 8

    def __init__(self, seed: int, workdir: str, suite: str = "all"):
        super().__init__(seed, workdir)
        self.suite = suite
        self.reference = None

    def argvs(self, k):
        return [["verify", self.suite, "--seed", str(self.seed),
                 "--report", self.path("report.json")]]

    def check(self, k, codes) -> list[str]:
        report, csv_path = self.path("report.json"), self.path("report.csv")
        try:
            problems = _exit_codes(codes)
            if problems:
                return problems
            with open(report, "rb") as fh:
                raw = fh.read()
            digest = hashlib.sha256(raw).hexdigest()
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                problems.append(f"report sha256 {digest} differs from the first "
                                f"op's {self.reference} at the same seed")
            reports = json.loads(raw)
            if not reports or not all("name" in r for r in reports):
                problems.append("report JSON is empty or has unnamed entries")
            with open(csv_path) as fh:
                rows = fh.read().count("\n")
            if rows != len(reports) + 1:
                problems.append(f"CSV has {rows} lines for {len(reports)} reports")
            return problems
        finally:
            _remove(report, csv_path)


WORKLOADS = {
    "transform-1024": (TransformWorkload,
                       "few large calls: FFT, full-array passes and 32 MB QSIG I/O dominate; "
                       "a chirp cache or shared Gabor pass must show no change here"),
    "gabor-32": (GaborWorkload,
                 "many small batched transforms, qmul shift-multiply per y-row and 1024 "
                 "slice files written and read twice per op; no field-stats pass"),
    "verify-all": (VerifyAllWorkload,
                   "the harness run users make; dominated by streamed 64x64 Gabor "
                   "field passes, some sweeping the same field twice"),
}


def measure(wl: Workload, seconds: float, tracer=None) -> dict:
    """Closed loop with one caller: whole cycles of wl's parameter sets,
    at least one, until `seconds` have passed.

    The sets differ in cost, so stopping mid-cycle would let the median
    depend on where the clock ran out. With a tracer, ops come in pairs,
    one untraced and one traced, that share a parameter set, so the two
    medians compare like with like.
    """
    step = wl.cycle * (2 if tracer is not None else 1)
    times = {False: [], True: []}
    traced_ops, problems = [], []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while k == 0 or k % step or time.perf_counter() - start < seconds:
        # pairs alternate which side runs first, so drift cancels
        traced = tracer is not None and k % 2 != (k // 2) % 2
        index = k // 2 if tracer is not None else k
        with tracer.recording(k) if traced else contextlib.nullcontext():
            t = time.perf_counter()
            codes = wl.op(index)
            times[traced].append(time.perf_counter() - t)
        if traced:
            traced_ops.append(k)
        try:
            op_problems = wl.check(index, codes)
        except (OSError, ValueError) as exc:
            op_problems = [f"unreadable output: {exc}"]
        attempted += 1
        if op_problems:
            failed += 1
            problems.extend(f"op {k}: {p}" for p in op_problems)
        k += 1
    return {"times": times[False], "traced_times": times[True],
            "traced_ops": traced_ops, "attempted": attempted,
            "failed": failed, "problems": problems}
