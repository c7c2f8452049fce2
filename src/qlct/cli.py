"""Command-line front end.

Subcommands:

* ``forward`` / ``inverse``: transform a QSIG file.
* ``gabor analyze|synthesize|spectrogram``: windowed analysis to a
  coefficient directory (see `gabor`), reconstruction from it, and
  squared-modulus exports.
* ``verify <suite>``: run the seeded verification families for one named
  inequality suite (or ``all``) and write JSON + CSV reports.

Exit codes: 0 success, 1 verification invariant violation, 2 I/O or
parse errors, 3 numeric contract violations (non-finite output).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import families, gabor, report, signal, uncertainty
from .lct1d import LCTParams
from .qlct2d import (QLCTParams, forward_grid, qlct_forward_direct,
                     qlct_forward_fast, qlct_inverse, qlct_plancherel_check)
from .signal import FormatError, Grid2D, WindowSpec, parse_window_spec

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

#: Largest coefficient array `gabor analyze` writes without --force: the
#: stride-1 field of a 32x32 signal, 32^4 quaternions of 32 bytes.
COEFF_BUDGET_BYTES = 32**4 * 32


@dataclass
class VerifyConfig:
    n1: int = 32
    n2: int = 32
    dx: float | None = None
    seed: int = 0
    trials: int | None = None
    method: str = "fast"

    def n_trials(self, default: int) -> int:
        return self.trials if self.trials is not None else default

    def grid(self, n: int | None = None) -> Grid2D:
        if n is not None:
            return families.default_grid(n)
        # max(n1, 1) leaves a bad --grid to the grid rule, not to a division by 0
        dx = self.dx if self.dx is not None else float(np.sqrt(2 * np.pi / max(self.n1, 1)))
        return Grid2D.centered(self.n1, self.n2, dx, dx)


def _parse_matrix(text: str, name: str) -> LCTParams:
    parts = text.split(",")
    if len(parts) != 4:
        raise FormatError(f"{name} needs 4 comma-separated entries, got {text!r}")
    try:
        a, b, c, d = (float(v) for v in parts)
    except ValueError:
        raise FormatError(f"{name} has a non-numeric entry in {text!r}") from None
    try:
        return LCTParams(a, b, c, d)
    except ValueError as exc:
        raise FormatError(f"det({name}) != 1 for {text!r}: {exc}") from None


def _parse_params(args) -> QLCTParams:
    return QLCTParams(_parse_matrix(args.a1, "A1"), _parse_matrix(args.a2, "A2"))


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        n1, _, n2 = text.lower().partition("x")
        return int(n1), int(n2 or n1)
    except ValueError:
        raise FormatError(f"bad grid spec {text!r}, expected e.g. 32x32") from None


class NumericError(RuntimeError):
    """Numeric contract violation: non-finite values produced."""


def _quiet_overflow():
    """Silence numpy's overflow and invalid-value warnings inside a
    transform; `_finite_or_die` then reports the result in one line."""
    return np.errstate(over="ignore", invalid="ignore")


def _finite_or_die(values: np.ndarray, stage: str) -> None:
    if not signal.all_finite(values):
        raise NumericError(f"non-finite output at stage {stage!r}")


# ---------------------------------------------------------------------------
# transform commands

def cmd_qlct(args) -> int:
    p = _parse_params(args)
    f = signal.load(args.input)
    with _quiet_overflow():
        if args.command == "forward":
            out = (qlct_forward_fast if args.method == "fast"
                   else qlct_forward_direct)(f, p)
        else:
            out = qlct_inverse(f, p, method=args.method)
    _finite_or_die(out.samples, args.command)
    signal.save(args.output, out)
    if args.check:
        # Plancherel from the two signals already held: no second transform
        x, F = (f, out) if args.command == "forward" else (out, f)
        rep = report.equality("qlct-plancherel", x.l2_norm_sq(), F.l2_norm_sq())
        print(f"plancherel ratio {rep.ratio!r}")
    return EXIT_OK


def cmd_gabor_analyze(args) -> int:
    p = _parse_params(args)
    f = signal.load(args.input)
    y = gabor.translation_grid(f.grid, args.stride)
    nbytes = f.grid.n1 * f.grid.n2 * y.n1 * y.n2 * 32
    if nbytes > COEFF_BUDGET_BYTES and not args.force:
        print(f"error: stride-{args.stride} analysis of a {f.grid.n1}x{f.grid.n2} "
              f"signal stores {nbytes} bytes ({nbytes / 2**20:.1f} MiB) of "
              f"coefficients, above the {COEFF_BUDGET_BYTES} byte budget; "
              "pass --force or use a larger --stride", file=sys.stderr)
        return EXIT_IO
    spec = parse_window_spec(args.window)
    phi = signal.make_window(spec, f.grid)
    with _quiet_overflow():
        G = gabor.gabor_analyze(f, phi, p, args.stride, args.method)
    _finite_or_die(G.coeffs, "gabor analyze")
    manifest = gabor.save_coefficients(G, phi, args.output)
    print(f"wrote {G.y_grid.n1 * G.y_grid.n2} translations to {manifest}")
    return EXIT_OK


def cmd_gabor_synthesize(args) -> int:
    G, phi = gabor.load_coefficients(args.input)
    with _quiet_overflow():
        out = gabor.gabor_synthesize(G, phi)
    _finite_or_die(out.samples, "synthesize")
    signal.save(args.output, out)
    return EXIT_OK


def cmd_gabor_spectrogram(args) -> int:
    G, _ = gabor.load_coefficients(args.input)
    kind, _, idx = args.slice.partition("=")
    index = None
    if kind in ("fix_y", "fix_omega"):
        try:
            i1, i2 = (int(v) for v in idx.split(","))
        except ValueError:
            raise FormatError(f"slice {args.slice!r} needs =I,J indices") from None
        index = (i1, i2)
    with _quiet_overflow():
        field = gabor.spectrogram(G, kind, index)
    _finite_or_die(field, "spectrogram")
    gabor.export_pgm(field, args.output)
    gabor.export_field_csv(field, str(args.output) + ".csv")
    print(f"wrote {args.output} ({field.shape[0]}x{field.shape[1]}), "
          f"sidecar and CSV alongside")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites

class Collector:
    """Reports and failures of one suite run.

    `add` stamps a report with the run's seed and its tags and keeps it;
    `fail_if` records a failure message when its condition holds.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.reports: list[report.InequalityReport] = []
        self.failures: list[str] = []

    def add(self, rep: report.InequalityReport, trial: int | None = None,
            **tags) -> report.InequalityReport:
        if trial is not None:
            rep.params["trial"] = trial
        rep.params.update(tags)
        rep.seed = self.seed
        self.reports.append(rep)
        return rep

    def fail_if(self, bad: bool, msg: str) -> None:
        if bad:
            self.failures.append(msg)


#: Fourier matrices on both axes: the two-sided quaternion Fourier transform.
QFT = families.PARAM_SETS["fourier"]


def _gabor_windows(grid: Grid2D) -> tuple[signal.QSignal2D, signal.QSignal2D]:
    """Unit Gaussian window and the single-cell window at the grid centre."""
    cell = np.zeros((grid.n1, grid.n2, 4))
    cell[grid.n1 // 2, grid.n2 // 2, 0] = 1.0
    return (signal.make_window(WindowSpec("gaussian", (1.0, 1.0)), grid),
            signal.QSignal2D(grid, cell))


def _gaussian_constants(cfg: VerifyConfig, out: Collector, check):
    """Run check(f, f, QFT, 1, method) on normalized unit Gaussians at
    32^2 and 64^2 and on normalized dilates t in (0.5, 1, 2) on cfg.grid(),
    failing a case whose per-translation Plancherel residual exceeds 1e-10;
    return the empirical constants keyed by n and by t."""
    def run(f, family):
        rep = out.add(check(f, f, QFT, 1.0, cfg.method), family=family)
        residual = rep.params["plancherel_by_y_residual"]
        out.fail_if(not residual <= 1e-10,
                    f"{rep.name} {family}: per-translation Plancherel residual {residual!r}")
        return rep.empirical_constant

    sized, dilated = {}, {}
    for n in (32, 64):
        f = families.normalized(families.gaussian(cfg.grid(n), 1.0))
        sized[n] = run(f, f"gaussian-{n}")
    for t in (0.5, 1.0, 2.0):
        f = families.normalized(families.dilated_gaussian(cfg.grid(), t))
        dilated[t] = run(f, f"dilated-{t}")
    return sized, dilated


def _unit_gaussian_field(cfg: VerifyConfig):
    """Normalized 32^2 Gaussian and its stride-1 Gabor field against itself,
    built once per run (`uncertainty.field_memo`)."""
    f = families.normalized(families.gaussian(cfg.grid(32), 1.0))
    return f, uncertainty.memo_gabor_analyze(f, f, QFT, method=cfg.method)


def suite_plancherel(cfg: VerifyConfig, out: Collector):
    rng = np.random.default_rng(cfg.seed)
    f64 = families.gaussian(Grid2D.centered(64, 64, 0.25, 0.25), 1.0)
    for name, p in families.PARAM_SETS.items():
        rep = out.add(qlct_plancherel_check(f64, p, cfg.method), family=f"gaussian-{name}")
        out.fail_if(not 0.999 <= rep.ratio <= 1.001,
                    f"plancherel gaussian {name}: ratio {rep.ratio!r}")
    grid = cfg.grid()
    for k in range(cfg.n_trials(20)):
        f = families.random_smooth(grid, rng)
        for name in ("fourier", "generic"):
            rep = out.add(qlct_plancherel_check(f, families.PARAM_SETS[name], cfg.method),
                          trial=k, family=f"random-smooth-{name}")
            out.fail_if(not 0.99 <= rep.ratio <= 1.01,
                        f"plancherel random trial {k} {name}: ratio {rep.ratio!r}")


def suite_gabor_plancherel(cfg: VerifyConfig, out: Collector):
    grid = cfg.grid(32)
    f = families.gaussian(grid, 1.0)
    gauss, cell = _gabor_windows(grid)
    # single-cell window: the discrete substitution is near-exact
    for family, phi, lo, hi in (("gaussian", gauss, 0.98, 1.02),
                                ("single-cell", cell, 0.95, 1.05)):
        rep = out.add(gabor.gabor_plancherel_check(f, phi, QFT, cfg.method), family=family)
        out.fail_if(not lo <= rep.ratio <= hi,
                    f"gabor-plancherel {family}: ratio {rep.ratio!r}")


def suite_heisenberg(cfg: VerifyConfig, out: Collector):
    rng = np.random.default_rng(cfg.seed)
    trials = cfg.n_trials(50)
    worst = 0.0
    for _ in range(trials):
        A = float(rng.uniform(0.1, 10.0))
        B = float(rng.uniform(0.1, 10.0))
        s = float(rng.uniform(0.25, 3.0))
        _, _, rel = uncertainty.amgm_dilation_identity(A, B, s)
        worst = max(worst, rel)
    out.add(report.upper_bound("heisenberg-amgm", worst, 1e-10, params={"trials": trials}))
    out.fail_if(worst > 1e-10, f"heisenberg AM-GM identity worst residual {worst!r}")
    consts, dil = _gaussian_constants(cfg, out, uncertainty.heisenberg_check)
    for n, c in consts.items():
        out.fail_if(not c > 0, f"heisenberg C at {n}: not positive")
    out.fail_if(abs(consts[32] / consts[64] - 1.0) > 0.05,
                f"heisenberg C grid stability: {consts[32]!r} vs {consts[64]!r}")
    mean = sum(dil.values()) / len(dil)
    out.fail_if(any(abs(v / mean - 1.0) > 0.02 for v in dil.values()),
                f"heisenberg C dilation stability: {dil!r}")


def suite_log(cfg: VerifyConfig, out: Collector):
    grid = cfg.grid(32)
    phi = families.normalized(families.gaussian(grid, 1.0))
    cases = [("gaussian", families.normalized(families.gaussian(grid, 1.0)))]
    cases += [(f"dilated-{t}", families.normalized(families.dilated_gaussian(grid, t)))
              for t in (0.5, 2.0)]
    for name, f in cases:
        rep = out.add(uncertainty.log_check(f, phi, QFT, cfg.method), family=name)
        out.fail_if(rep.margin < -1e-3, f"log {name}: margin {rep.margin!r}")


def suite_lemma_log(cfg: VerifyConfig, out: Collector):
    grid = cfg.grid(32)
    f = families.gaussian(grid, 1.0)
    gauss, cell = _gabor_windows(grid)
    for family, label, phi, tol in (("gaussian", "gaussian", gauss, 2e-2),
                                    ("single-cell", "single cell", cell, 1e-12)):
        rep = out.add(uncertainty.lemma_log_identity_check(f, phi, QFT), family=family)
        gap = rep.params["rel_gap"]
        out.fail_if(gap > tol, f"lemma-log {label}: rel gap {gap!r}")


def suite_lieb(cfg: VerifyConfig, out: Collector):
    grid = cfg.grid(32)
    f = families.gaussian(grid, 1.0)
    phi = families.gaussian(grid, 1.0)
    base = out.add(uncertainty.lieb_check(f, phi, QFT, 1.5, cfg.method), family="gaussian")
    scaled = uncertainty.lieb_check(f.scaled(2.0), phi.scaled(3.0), QFT, 1.5, cfg.method)
    rel = abs(scaled.empirical_constant / base.empirical_constant - 1.0)
    out.add(report.upper_bound("lieb-homogeneity", rel, 1e-10, params={"p_prime": 1.5}))
    out.fail_if(rel > 1e-10, f"lieb homogeneity: relative change {rel!r}")
    consts = {}
    for n in (32, 64):
        fg = families.gaussian(cfg.grid(n), 1.0)
        rep = out.add(uncertainty.lieb_check(fg, fg, QFT, 1.5, cfg.method),
                      family=f"gaussian-{n}")
        consts[n] = rep.empirical_constant
    out.fail_if(abs(consts[32] / consts[64] - 1.0) > 0.05, f"lieb stability: {consts!r}")
    rep2 = out.add(uncertainty.lieb_check(f, phi, QFT, 2.0, cfg.method), family="pprime-2")
    plancherel_rhs = f.l2_norm_sq() * phi.l2_norm_sq()
    out.fail_if(abs(rep2.lhs - plancherel_rhs) > 1e-9 * plancherel_rhs,
                f"lieb p'=2 does not reproduce Plancherel: "
                f"{rep2.lhs!r} vs {plancherel_rhs!r}")
    out.fail_if(not rep2.notes, "lieb p'=2 report does not flag the printed constant")


def suite_young(cfg: VerifyConfig, out: Collector):
    rng = np.random.default_rng(cfg.seed)
    grid = cfg.grid(16)
    phi = signal.make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    for k in range(cfg.n_trials(100)):
        f = families.random_smooth(grid, rng)
        for hp in (2.0, 4.0):
            rep = out.add(uncertainty.young_sup_check(f, phi, QFT, hp, cfg.method), trial=k)
            out.fail_if(rep.margin < -1e-6, f"young trial {k} p={hp}: margin {rep.margin!r}")


def suite_hausdorff_young(cfg: VerifyConfig, out: Collector):
    f = families.gaussian_chirp(cfg.grid(32))
    reps = [out.add(uncertainty.hausdorff_young_check(f, QFT, pp, cfg.method),
                    family="gaussian-chirp") for pp in (2.0, 3.0, 4.0)]
    scaled = uncertainty.hausdorff_young_check(f.scaled(2.5), QFT, 2.0, cfg.method)
    rel = abs(scaled.ratio / reps[0].ratio - 1.0)
    out.add(report.upper_bound("hausdorff-young-scaling", rel, 1e-10))
    out.fail_if(rel > 1e-10, f"hausdorff-young scaling invariance: {rel!r}")


def suite_concentration(cfg: VerifyConfig, out: Collector):
    rng = np.random.default_rng(cfg.seed)
    f, G = _unit_gaussian_field(cfg)
    for m in (0.25, 0.5, 0.9):
        mask = uncertainty.random_mask(G, m, rng)
        rep = out.add(uncertainty.concentration_check(G, mask, f.l2_norm(), f.l2_norm()),
                      family=f"random-mask-{m}")
        out.fail_if(rep.margin < -1e-6,
                    f"concentration measure {m}: margin {rep.margin!r}")


def suite_eps_concentration(cfg: VerifyConfig, out: Collector):
    _, G = _unit_gaussian_field(cfg)
    measures = {}
    for eps in (0.5, 0.1):
        mask = uncertainty.greedy_minimal_mask(G, 1.0 - eps)
        rep = out.add(uncertainty.epsilon_concentration_check(G, mask, eps),
                      family=f"greedy-{eps}")
        measures[eps] = mask.measure
        out.fail_if(rep.margin < 0, f"eps-concentration eps={eps}: margin {rep.margin!r}")
    out.fail_if(measures[0.1] < measures[0.5],
                f"greedy mask measure not monotone: {measures!r}")


def suite_moment_concentration(cfg: VerifyConfig, out: Collector):
    consts, dil = _gaussian_constants(cfg, out, uncertainty.moment_concentration_check)
    for n, c in consts.items():
        out.fail_if(not c > 0, f"moment-concentration C at {n} not positive")
    out.fail_if(abs(consts[32] / consts[64] - 1.0) > 0.05,
                f"moment-concentration stability: {consts!r}")
    for t, c in dil.items():
        out.fail_if(not c > 0, f"moment-concentration C at t={t} not positive")


SUITES = {
    "plancherel": suite_plancherel,
    "gabor-plancherel": suite_gabor_plancherel,
    "heisenberg": suite_heisenberg,
    "log": suite_log,
    "lemma-log": suite_lemma_log,
    "lieb": suite_lieb,
    "young": suite_young,
    "hausdorff-young": suite_hausdorff_young,
    "concentration": suite_concentration,
    "eps-concentration": suite_eps_concentration,
    "moment-concentration": suite_moment_concentration,
}
VERIFY_NAMES = list(SUITES)


def cmd_verify(args) -> int:
    cfg = VerifyConfig(seed=args.seed, trials=args.trials, method=args.method)
    if args.grid is not None:
        cfg.n1, cfg.n2 = _parse_grid(args.grid)
    if args.dx is not None:
        cfg.dx = args.dx
    # a bad --grid or --dx fails here, before any suite runs
    forward_grid(cfg.grid(), QFT)
    if cfg.trials is not None and cfg.trials < 1:
        raise FormatError(f"--trials must be at least 1, got {cfg.trials}")
    names = VERIFY_NAMES if args.suite == "all" else [args.suite]
    all_reports: list[report.InequalityReport] = []
    all_failures: list[str] = []
    # one sweep per distinct Gabor field in this run; entries end with it
    with uncertainty.field_memo():
        for name in names:
            out = Collector(cfg.seed)
            SUITES[name](cfg, out)
            for rep in out.reports:
                extra = ("" if rep.empirical_constant is None
                         else f" C={rep.empirical_constant!r}")
                print(f"report {rep.name}: lhs={rep.lhs!r} rhs={rep.rhs!r} "
                      f"margin={rep.margin!r} ratio={rep.ratio!r}{extra}")
            print(f"suite {name}: {'FAIL' if out.failures else 'pass'} "
                  f"({len(out.reports)} reports)")
            all_reports.extend(out.reports)
            all_failures.extend(out.failures)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.reports_to_json(all_reports))
        csv_path = os.path.splitext(args.report)[0] + ".csv"
        with open(csv_path, "w") as fh:
            fh.write(report.reports_to_csv(all_reports))
        print(f"wrote {len(all_reports)} reports to {args.report} and {csv_path}")
    if all_failures:
        for f in all_failures:
            print(f"FAIL {f}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlct",
        description="Two-sided quaternion linear canonical transform toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrices(sp):
        sp.add_argument("--a1", default="0,1,-1,0",
                        help="axis-1 matrix a,b,c,d (default Fourier)")
        sp.add_argument("--a2", default="0,1,-1,0",
                        help="axis-2 matrix a,b,c,d (default Fourier)")
        sp.add_argument("--method", choices=["fast", "direct"], default="fast")

    for name in ("forward", "inverse"):
        sp = sub.add_parser(name, help=f"{name} transform of a QSIG file")
        add_matrices(sp)
        sp.add_argument("-i", "--input", required=True)
        sp.add_argument("-o", "--output", required=True)
        sp.add_argument("--check", action="store_true",
                        help="print the Plancherel ratio")
        sp.set_defaults(func=cmd_qlct)

    gp = sub.add_parser("gabor", help="windowed analysis and synthesis")
    gsub = gp.add_subparsers(dest="gabor_command", required=True)
    sp = gsub.add_parser("analyze")
    add_matrices(sp)
    sp.add_argument("-i", "--input", required=True)
    sp.add_argument("-o", "--output", required=True, help="output directory")
    sp.add_argument("--window", default="gaussian:sigma=1.0,1.0",
                    help="window spec, e.g. gaussian:sigma=1.0,1.0")
    sp.add_argument("--stride", type=int, default=1)
    sp.add_argument("--force", action="store_true",
                    help="allow a coefficient array above the 32 MiB budget")
    sp.set_defaults(func=cmd_gabor_analyze)
    sp = gsub.add_parser("synthesize")
    sp.add_argument("-i", "--input", required=True, help="coefficient directory")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_gabor_synthesize)
    sp = gsub.add_parser("spectrogram")
    sp.add_argument("-i", "--input", required=True, help="coefficient directory")
    sp.add_argument("-o", "--output", required=True, help="PGM output path")
    sp.add_argument("--slice", default="max_over_y",
                    help="max_over_y | max_over_omega | fix_y=I,J | fix_omega=I,J")
    sp.set_defaults(func=cmd_gabor_spectrogram)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=VERIFY_NAMES + ["all"])
    sp.add_argument("--grid", default=None, help="e.g. 32x32")
    sp.add_argument("--dx", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--method", choices=["fast", "direct"], default="fast")
    sp.add_argument("--report", default=None, help="JSON report path")
    sp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "input", None) and getattr(args, "output", None):
        if os.path.abspath(args.input) == os.path.abspath(args.output):
            print("error: input and output paths must differ", file=sys.stderr)
            return EXIT_IO
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
