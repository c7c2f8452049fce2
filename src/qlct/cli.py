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
import functools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import families, gabor, report, signal, uncertainty
from .lct1d import LCTParams
from .qlct2d import (QLCTParams, forward_grid, qlct_forward, qlct_inverse,
                     qlct_plancherel_check)
# bench/tracing.py wraps this name here; cli calls qlct_forward
from .qlct2d import qlct_forward_fast  # noqa: F401
from .signal import FormatError, Grid2D, NumericError, WindowSpec, parse_window_spec

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

#: Largest coefficient payload `gabor analyze` writes to disk without
#: --force: the stride-1 field of a 32x32 signal, 32^4 quaternions of 32
#: bytes. A disk budget: the gabor commands hold one y1 row of the field
#: at a time (1 MiB at 32x32), never the field.
COEFF_BUDGET_BYTES = 32**4 * 32

#: Budget of `verify`'s --grid, 128 MiB: 32 bytes a cell under --method fast
#: (to 2048x2048), 32 n1 n2 max(n1, n2) under --method direct (to 161x161, for
#: `forward`, `inverse` and `gabor analyze` too), which holds no such array:
#: that count bounds its kernel matrices, 16 (n1^2 + n2^2) bytes, and matmuls.
VERIFY_BUDGET_BYTES = 2**27
#: Most (omega, y) cells one Gabor pass of `verify` may sweep: the
#: stride-1 field of a 128x128 signal. A pass's time grows with its cells
#: (n1 n2 translations of an n1 x n2 transform), not with any one array.
VERIFY_PASS_CELLS = 2**28
#: Most --trials `verify` takes: a whole `verify all` run peaks at about
#: 14.7 KiB a trial (tracemalloc), most of it young's passes and the
#: reports the run keeps, so at 3000 trials it peaks at 45 MiB, under
#: VERIFY_BUDGET_BYTES.
MAX_TRIALS = 3000


@dataclass
class VerifyConfig:
    """The run settings of `verify`. `grid()` is the one reader of --grid
    and --dx: the plancherel trials, the dilates of `_gaussian_specs` and
    the up-front checks of `cmd_verify` call it, and every other field sits
    on a fixed `families.default_grid(n)`. `verify_plan` adds `method` to
    each pass request, so no spec carries it."""

    n1: int = 32
    n2: int = 32
    dx: float | None = None
    seed: int = 0
    trials: int | None = None
    method: str = "fast"

    def n_trials(self, default: int) -> int:
        return self.trials if self.trials is not None else default

    def grid(self) -> Grid2D:
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


def _quiet_overflow():
    """Silence numpy's overflow and invalid-value warnings inside a
    transform; `_finite_or_die` then reports the result in one line."""
    return np.errstate(over="ignore", invalid="ignore")


def _finite_or_die(values: np.ndarray, stage: str) -> None:
    if not signal.all_finite(values):
        raise NumericError(f"non-finite output at stage {stage!r}")


def _check_budget(what: str, n1: int, n2: int, method: str) -> None:
    """Refuse, before any transform, a grid whose count is above
    VERIFY_BUDGET_BYTES (see there)."""
    nbytes = 32 * n1 * n2 * (max(n1, n2) if method == "direct" else 1)
    if nbytes > VERIFY_BUDGET_BYTES:
        raise FormatError(f"{what} {n1}x{n2} counts {nbytes} bytes under "
                          f"--method {method}, above the {VERIFY_BUDGET_BYTES} byte budget")


# ---------------------------------------------------------------------------
# transform commands

def cmd_qlct(args) -> int:
    p = _parse_params(args)
    f = signal.load(args.input)
    if args.method == "direct":
        _check_budget("the input grid", f.grid.n1, f.grid.n2, args.method)
    with _quiet_overflow():
        if args.command == "forward":
            out = qlct_forward(f, p, args.method)
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
    # the input may sit in the output directory, under a name analysis writes
    _refuse_overwriting([args.input], f"its input {args.input}",
                        *(os.path.join(args.output, name) for name in gabor.DIRECTORY_FILES))
    p = _parse_params(args)
    f = signal.load(args.input)
    if args.method == "direct":
        _check_budget("the input grid", f.grid.n1, f.grid.n2, args.method)
    nbytes = math.prod(gabor.table_geometry(f.grid, p, args.stride)[0]) * 32
    if nbytes > COEFF_BUDGET_BYTES and not args.force:
        raise FormatError(f"stride-{args.stride} analysis of a {f.grid.n1}x{f.grid.n2} "
                          f"signal stores {nbytes} bytes ({nbytes / 2**20:.1f} MiB) of "
                          f"coefficients, above the {COEFF_BUDGET_BYTES} byte budget; "
                          "pass --force or use a larger --stride")
    spec = parse_window_spec(args.window)
    phi = signal.make_window(spec, f.grid)
    with _quiet_overflow():
        # rows are computed as they are written; a non-finite one raises
        # NumericError and leaves the output directory as it was
        G = gabor.gabor_stream(f, phi, p, args.stride, args.method)
        manifest = gabor.save_coefficients(G, phi, args.output)
    print(f"wrote {G.y_grid.n1 * G.y_grid.n2} translations to {manifest}")
    return EXIT_OK


def _refuse_overwriting(inputs, what: str, *outputs) -> None:
    """Refuse, before anything is read, an output path or its `.part` file
    (see `signal.replacing`) that resolves to one of the `inputs` (`what`)."""
    inputs = {os.path.realpath(path) for path in inputs}
    for path in outputs:
        target = os.path.realpath(path)
        for name, real in ((path, target), (f"{path}.part", os.path.realpath(target + ".part"))):
            if real in inputs:
                raise FormatError(f"output {name} would overwrite {what}")


def cmd_gabor_synthesize(args) -> int:
    _refuse_overwriting([os.path.join(args.input, name) for name in gabor.DIRECTORY_FILES],
                        f"a file of the input coefficient directory {args.input}", args.output)
    G, phi = gabor.load_coefficients(args.input)
    with _quiet_overflow():
        out = gabor.gabor_synthesize(G, phi)
    _finite_or_die(out.samples, "synthesize")
    signal.save(args.output, out)
    return EXIT_OK


def cmd_gabor_spectrogram(args) -> int:
    kind, eq, idx = args.slice.partition("=")
    index = None
    if kind in ("fix_y", "fix_omega"):
        try:
            i1, i2 = (int(v) for v in idx.split(","))
        except ValueError:
            raise FormatError(f"slice {args.slice!r} needs =I,J indices") from None
        index = (i1, i2)
    elif eq:
        raise FormatError(f"slice {args.slice!r}: only fix_y and fix_omega take =I,J")
    elif kind not in ("max_over_y", "max_over_omega"):
        raise FormatError(f"unknown spectrogram slice kind {kind!r}")
    pgm = str(args.output)
    _refuse_overwriting([os.path.join(args.input, name) for name in gabor.DIRECTORY_FILES],
                        f"a file of the input coefficient directory {args.input}",
                        pgm, pgm + ".json", pgm + ".csv")
    G, _ = gabor.load_coefficients(args.input)
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

@dataclass
class Collector:
    """The reports of a verify run. `add` stamps a report with the run's
    seed, its tags (into its params) and its gate, a (kind, tol) or (kind,)
    tuple for `report.gated`. `failures` is read off the gates: a line per
    failed one, naming the report's index, name and tags."""

    seed: int
    reports: list[report.InequalityReport] = field(default_factory=list)

    def add(self, rep: report.InequalityReport, gate: tuple, **tags) -> report.InequalityReport:
        rep.params.update(tags)
        rep.seed = self.seed
        self.reports.append(report.gated(rep, *gate))
        return rep

    @property
    def failures(self) -> list[str]:
        def line(i, r):
            tags = "".join(f" {k} {r.params[k]}" for k in ("family", "trial", "readers")
                           if k in r.params)
            notes = f" ({r.notes})" if r.notes else ""
            return (f"[{i}] {r.name}{tags}: {r.gate['kind']} gate at {r.gate['tol']!r} fails "
                    f"with margin {r.margin!r} ratio {r.ratio!r}{notes}")
        return [line(i, r) for i, r in enumerate(self.reports) if r.gate["passed"] is False]


#: Fourier matrices on both axes: the two-sided quaternion Fourier transform.
QFT = families.PARAM_SETS["fourier"]


def _gabor_cases():
    """The unit 32^2 Gaussian, and on its grid the unit Gaussian window and
    the single-cell window at the grid centre."""
    grid = families.default_grid(32)
    cell = np.zeros((grid.n1, grid.n2, 4))
    cell[grid.n1 // 2, grid.n2 // 2, 0] = 1.0
    return (families.gaussian(grid, 1.0),
            signal.make_window(WindowSpec("gaussian", (1.0, 1.0)), grid),
            signal.QSignal2D(grid, cell))


def _unit_gaussian(grid: Grid2D, t: float = 1.0) -> signal.QSignal2D:
    """Normalized dilate by t of the unit Gaussian (t = 1: `gaussian`'s bits)."""
    return families.normalized(families.dilated_gaussian(grid, t))


def _self_spec(family: str, grid: Grid2D, request: dict, t: float = 1.0):
    """The spec of `_unit_gaussian(grid, t)` against itself."""
    return family, grid, request, lambda: (_unit_gaussian(grid, t),) * 2


def _gaussian_specs(cfg: VerifyConfig) -> list:
    """The unit Gaussians at 32^2 and 64^2 and the dilates t in (0.5, 1, 2)
    on cfg.grid(), each against itself at s = 1."""
    request = {"s_values": (1.0,)}
    return ([_self_spec(f"gaussian-{n}", families.default_grid(n), request) for n in (32, 64)]
            + [_self_spec(f"dilated-{t}", cfg.grid(), request, t) for t in (0.5, 1.0, 2.0)])


def _gaussian_constants(out: Collector, name: str, fields, check, dilation_tol=None) -> None:
    """Run check(stats, 1) on each `_gaussian_specs` field, its empirical
    constant (its ratio) gated positive; report that at 32^2 against 64^2,
    and with dilation_tol each dilate's against their mean."""
    c = {family: out.add(check(stats, 1.0), ("positive",), family=family).empirical_constant
         for family, stats in fields}
    out.add(report.equality(f"{name}-grid-stability", c["gaussian-32"], c["gaussian-64"]),
            ("ratio", 0.05))
    dilates = [f"dilated-{t}" for t in (0.5, 1.0, 2.0)] if dilation_tol is not None else []
    for family in dilates:
        out.add(report.equality(f"{name}-dilation-stability", c[family],
                                sum(c[d] for d in dilates) / 3), ("ratio", dilation_tol),
                family=family)


#: The epsilons of `suite_eps_concentration`, each captured by a greedy mask.
EPSILONS = (0.5, 0.1)


def _concentration_masks(cfg: VerifyConfig) -> dict:
    """{m: a random mask of measure m} over the |G|^2 table of the unit
    32^2 Gaussian under QFT, for m in (0.25, 0.5, 0.9), drawn in that
    order from one generator seeded with cfg.seed, before any pass."""
    rng = np.random.default_rng(cfg.seed)
    shape, cell_volume = gabor.table_geometry(families.default_grid(32), QFT)
    return {m: uncertainty.random_mask(math.prod(shape), cell_volume, m, rng)
            for m in (0.25, 0.5, 0.9)}


def _concentration_specs(cfg: VerifyConfig) -> list:
    """The unit 32^2 Gaussian against itself, keeping the cells of its
    random masks."""
    cells = np.concatenate(list(_concentration_masks(cfg).values()))
    return [_self_spec("gaussian", families.default_grid(32), {"cells": (None, cells)})]


def _eps_concentration_specs(cfg: VerifyConfig) -> list:
    """The unit 32^2 Gaussian against itself, keeping the cells at or
    above the floor of its largest capture, 1 - min(EPSILONS)."""
    capture = 1.0 - min(EPSILONS)
    return [_self_spec("gaussian", families.default_grid(32), {"cells": (capture, ())})]


def suite_plancherel(cfg: VerifyConfig, out: Collector, fields):
    rng = np.random.default_rng(cfg.seed)
    f64 = families.gaussian(Grid2D.centered(64, 64, 0.25, 0.25), 1.0)
    for name, p in families.PARAM_SETS.items():
        out.add(qlct_plancherel_check(f64, p, cfg.method), ("ratio", 1e-3),
                family=f"gaussian-{name}")
    grid = cfg.grid()
    for k in range(cfg.n_trials(20)):
        f = families.random_smooth(grid, rng)
        if not f.samples.any():
            raise FormatError(f"plancherel random trial {k} is the zero signal on "
                              f"the --dx {grid.dx1!r} grid")
        for name in ("fourier", "generic"):
            out.add(qlct_plancherel_check(f, families.PARAM_SETS[name], cfg.method),
                    ("ratio", 1e-2), trial=k, family=f"random-smooth-{name}")


def _gabor_plancherel_specs(cfg: VerifyConfig) -> list:
    """The `_gabor_cases` Gaussian against its Gaussian and its single-cell
    window, the three signals built once."""
    cases = functools.cache(_gabor_cases)
    return [(family, families.default_grid(32), {}, lambda i=i: (cases()[0], cases()[i]))
            for family, i in (("gaussian", 1), ("single-cell", 2))]


def suite_gabor_plancherel(cfg: VerifyConfig, out: Collector, fields):
    # single-cell window: the discrete substitution is near-exact
    for (family, stats), tol in zip(fields, (0.02, 0.05)):
        out.add(gabor.gabor_plancherel_check(stats), ("ratio", tol), family=family)


def suite_heisenberg(cfg: VerifyConfig, out: Collector, fields):
    rng = np.random.default_rng(cfg.seed)
    trials = cfg.n_trials(50)
    worst = 0.0
    for _ in range(trials):
        A = float(rng.uniform(0.1, 10.0))
        B = float(rng.uniform(0.1, 10.0))
        s = float(rng.uniform(0.25, 3.0))
        _, _, rel = uncertainty.amgm_dilation_identity(A, B, s)
        worst = max(worst, rel)
    out.add(report.upper_bound("heisenberg-amgm", worst, 1e-10, params={"trials": trials}),
            ("margin", 0.0))
    _gaussian_constants(out, "heisenberg", fields, uncertainty.heisenberg_check, 0.02)


def _log_specs(cfg: VerifyConfig) -> list:
    """The unit 32^2 Gaussian and its dilates t in (0.5, 2), each against
    that Gaussian, with the ln|omega| sum."""
    grid, request = families.default_grid(32), {"log_omega": True}
    return [(family, grid, request, lambda t=t: (_unit_gaussian(grid, t), _unit_gaussian(grid)))
            for family, t in (("gaussian", 1.0), ("dilated-0.5", 0.5), ("dilated-2.0", 2.0))]


def suite_log(cfg: VerifyConfig, out: Collector, fields):
    for family, stats in fields:
        out.add(uncertainty.log_check(stats), ("margin", -1e-3), family=family)


def suite_lemma_log(cfg: VerifyConfig, out: Collector, fields):
    f, gauss, cell = _gabor_cases()
    for family, phi, tol in (("gaussian", gauss, 2e-2), ("single-cell", cell, 1e-12)):
        out.add(uncertainty.lemma_log_identity_check(f, phi, QFT), ("ratio", tol), family=family)


def _lieb_specs(cfg: VerifyConfig) -> list:
    """The unit Gaussian f against itself on 32^2 at p' = 1.5 and 2 and on
    64^2 at p' = 1.5, and (2f, 3f) on 32^2 at p' = 1.5."""
    g32, request = families.default_grid(32), {"pprimes": (1.5,)}
    return [_self_spec("gaussian-32", g32, {**request, "pprimes": (1.5, 2.0)}),
            ("scaled", g32, request,
             lambda: (_unit_gaussian(g32).scaled(2.0), _unit_gaussian(g32).scaled(3.0))),
            _self_spec("gaussian-64", families.default_grid(64), request)]


def suite_lieb(cfg: VerifyConfig, out: Collector, fields):
    # the printed bound is wrong (see `uncertainty.lieb_check`): recorded only
    case = dict(fields)
    base = out.add(uncertainty.lieb_check(case["gaussian-32"], 1.5), ("none",), family="gaussian")
    scaled = uncertainty.lieb_check(case["scaled"], 1.5)
    rel = abs(scaled.empirical_constant / base.empirical_constant - 1.0)
    out.add(report.upper_bound("lieb-homogeneity", rel, 1e-10, params={"p_prime": 1.5}),
            ("margin", 0.0))
    c64 = out.add(uncertainty.lieb_check(case["gaussian-64"], 1.5), ("none",),
                  family="gaussian-64").empirical_constant
    stats = case["gaussian-32"]
    rep2 = out.add(uncertainty.lieb_check(stats, 2.0), ("none",), family="pprime-2")
    out.add(report.equality("lieb-grid-stability", base.empirical_constant, c64), ("ratio", 0.05))
    plancherel_rhs = stats["f"].l2_norm_sq() * stats["phi"].l2_norm_sq()
    out.add(report.equality("lieb-plancherel", rep2.lhs, plancherel_rhs, params={"p_prime": 2.0}),
            ("margin", -1e-9 * plancherel_rhs))


def _young_specs(cfg: VerifyConfig) -> list:
    """cfg.n_trials(100) random smooth signals on 16^2, drawn in declared
    order from one seeded generator, against one shared Gaussian window."""
    rng = np.random.default_rng(cfg.seed)
    grid = families.default_grid(16)
    window = functools.cache(lambda: signal.make_window(WindowSpec("gaussian", (1.0, 1.0)), grid))
    return [("random-smooth", grid, {},
             lambda: (families.random_smooth(grid, rng), window()))
            for _ in range(cfg.n_trials(100))]


def suite_young(cfg: VerifyConfig, out: Collector, fields):
    for k, (_, stats) in enumerate(fields):
        for hp in (2.0, 4.0):
            out.add(uncertainty.young_sup_check(stats, hp), ("margin", -1e-6), trial=k)


def suite_hausdorff_young(cfg: VerifyConfig, out: Collector, fields):
    f = families.gaussian_chirp(families.default_grid(32))
    # the printed bound fails (see `uncertainty.hausdorff_young_check`): recorded only
    reps = [out.add(uncertainty.hausdorff_young_check(f, QFT, pp, cfg.method), ("none",),
                    family="gaussian-chirp") for pp in (2.0, 3.0, 4.0)]
    scaled = uncertainty.hausdorff_young_check(f.scaled(2.5), QFT, 2.0, cfg.method)
    rel = abs(scaled.ratio / reps[0].ratio - 1.0)
    out.add(report.upper_bound("hausdorff-young-scaling", rel, 1e-10), ("margin", 0.0))


def suite_concentration(cfg: VerifyConfig, out: Collector, fields):
    [(_, stats)] = fields
    for m, mask in _concentration_masks(cfg).items():
        out.add(uncertainty.concentration_check(stats, mask), ("margin", -1e-6),
                family=f"random-mask-{m}")


def suite_eps_concentration(cfg: VerifyConfig, out: Collector, fields):
    [(_, stats)] = fields
    measures = {}
    for eps in EPSILONS:
        mask = uncertainty.greedy_minimal_mask(stats, 1.0 - eps)
        measures[eps] = out.add(uncertainty.epsilon_concentration_check(stats, mask, eps),
                                ("margin", 0.0), family=f"greedy-{eps}").rhs
    out.add(report.lower_bound("eps-concentration-monotone", measures[0.1], measures[0.5]),
            ("margin", 0.0))


def suite_moment_concentration(cfg: VerifyConfig, out: Collector, fields):
    _gaussian_constants(out, "moment-concentration", fields,
                        uncertainty.moment_concentration_check)


#: Each suite runs as suite(cfg, out, fields), where fields are the
#: (family, stats) entries of the specs it declares in
#: `SUITE_FIELDS`, in declared order, or [] when it declares none.
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
#: The suites that read neither --grid nor --dx, each with the grid it runs
#: on, or with None when that is the grids of its `SUITE_FIELDS` specs.
FIXED_GRIDS = {"gabor-plancherel": None, "log": None, "lemma-log": "32x32", "lieb": None,
               "young": None, "hausdorff-young": "32x32", "concentration": None,
               "eps-concentration": None}

#: The Gabor fields each suite sweeps, under QFT, as (family, grid, request,
#: build) specs: a tag for the suite, the field's grid, its sums, and
#: build(), which makes (f, phi) once the plan is accepted. A run bounds
#: every pass from the specs before it builds a signal, and sweeps each
#: distinct field once over the union of its requests.
SUITE_FIELDS = {
    "gabor-plancherel": _gabor_plancherel_specs,
    "heisenberg": _gaussian_specs,
    "log": _log_specs,
    "lieb": _lieb_specs,
    "young": _young_specs,
    "concentration": _concentration_specs,
    "eps-concentration": _eps_concentration_specs,
    "moment-concentration": _gaussian_specs,
}


def verify_plan(cfg: VerifyConfig, names) -> dict[str, list]:
    """{suite: its (family, stats) entries} for the named suites
    that declare Gabor fields. A spec whose pass would sweep more than
    VERIFY_PASS_CELLS cells raises FormatError before any signal is built;
    then every spec is built in run order (one whose signals it cannot
    make, such as a Gaussian that underflows to zero, raises FormatError),
    `uncertainty.sweep_fields` makes one pass per distinct field, and a
    pass with a non-finite sum raises NumericError."""
    specs = [(name, *spec) for name in names if name in SUITE_FIELDS
             for spec in SUITE_FIELDS[name](cfg)]
    for _, _, grid, _, _ in specs:
        # a stride-1 pass under QFT: n1 n2 translations of n1 x n2 cells
        cells = math.prod(gabor.table_geometry(grid, QFT)[0])
        if cells > VERIFY_PASS_CELLS:
            raise FormatError(f"a Gabor pass on the {grid.n1}x{grid.n2} grid sweeps "
                              f"{cells} cells, above the {VERIFY_PASS_CELLS} cell bound "
                              "(the 128x128 field)")
    built = []
    for name, family, grid, request, build in specs:
        try:
            f, phi = build()
        except ValueError as exc:
            raise FormatError(f"suite {name} family {family}: {exc} on the "
                              f"{grid.n1}x{grid.n2} grid with dx {grid.dx1!r}") from None
        built.append((name, family, f, phi, request))
    with _quiet_overflow():
        passes = uncertainty.sweep_fields([(f, phi, QFT, {**request, "method": cfg.method})
                                           for *_, f, phi, request in built])
    plan: dict[str, list] = {}
    for (name, family, *_), stats in zip(built, passes):
        # a pass's sums are its float entries and its per-order dicts' values
        sums = [v for v in stats.values() if isinstance(v, float)]
        sums += [v for d in stats.values() if isinstance(d, dict) for v in d.values()]
        if not np.isfinite(sums).all():
            raise NumericError(f"non-finite sums in the Gabor pass of suite {name} "
                               f"family {family}")
        plan.setdefault(name, []).append((family, stats))
    return plan


def witness_passes(out: Collector, plan: dict[str, list]) -> None:
    """One `plancherel-by-y` report per pass of `plan`, in plan order, with its readers."""
    readers: dict[int, tuple] = {}  # a field's entries share its stats, and every pass is alive
    for name, fields in plan.items():
        for k, (family, stats) in enumerate(fields):
            readers.setdefault(id(stats), (stats, []))[1].append((name, family, k))
    for stats, who in readers.values():
        out.add(report.upper_bound("plancherel-by-y", stats["plancherel_by_y_residual"], 1e-10,
                                   **uncertainty._pass_record(stats, readers=who)),
                ("margin", 0.0))


def cmd_verify(args) -> int:
    cfg = VerifyConfig(seed=args.seed, trials=args.trials, method=args.method)
    if args.grid is not None:
        cfg.n1, cfg.n2 = _parse_grid(args.grid)
    if args.dx is not None:
        cfg.dx = args.dx
    # a bad --grid or --dx fails here, before any suite runs
    forward_grid(cfg.grid(), QFT)
    _check_budget("--grid", cfg.n1, cfg.n2, cfg.method)
    if cfg.trials is not None and not 1 <= cfg.trials <= MAX_TRIALS:
        raise FormatError(f"--trials must be from 1 to {MAX_TRIALS}, got {cfg.trials}")
    if cfg.seed < 0:
        raise FormatError(f"--seed must be non-negative, got {cfg.seed}")
    if args.report:
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.report))):
            raise FormatError(f"--report {args.report}: no such directory")
        csv_path = os.path.splitext(args.report)[0] + ".csv"
        _refuse_overwriting([args.report], f"the JSON report {args.report}", csv_path)
    names = VERIFY_NAMES if args.suite == "all" else [args.suite]
    plan = verify_plan(cfg, names)
    out = Collector(cfg.seed)
    witness_passes(out, plan)
    if out.reports:
        print(f"field passes: {'FAIL' if out.failures else 'pass'} ({len(out.reports)} reports)")
    for name in names:
        start = len(out.reports)
        if name in FIXED_GRIDS and (args.grid is not None or args.dx is not None):
            grids = FIXED_GRIDS[name] or " and ".join(f"{n1}x{n2}" for n1, n2 in sorted(
                {(g.n1, g.n2) for _, g, _, _ in SUITE_FIELDS[name](cfg)}))
            print(f"suite {name} reads neither --grid nor --dx: it runs on {grids}")
        # popped, so a suite's signals and passes are freed once it has run
        SUITES[name](cfg, out, plan.pop(name, []))
        reports = out.reports[start:]
        for rep in reports:
            extra = "" if rep.empirical_constant is None else f" C={rep.empirical_constant!r}"
            print(f"report {rep.name}: lhs={rep.lhs!r} rhs={rep.rhs!r} "
                  f"margin={rep.margin!r} ratio={rep.ratio!r}{extra}")
        failed = any(rep.gate["passed"] is False for rep in reports)
        print(f"suite {name}: {'FAIL' if failed else 'pass'} ({len(reports)} reports)")
    if args.report:
        report.write_reports(out.reports, args.report, csv_path)
        print(f"wrote {len(out.reports)} reports to {args.report} and {csv_path}")
    for line in out.failures:  # read off the gates alone, as is the exit code
        print(f"FAIL {line}", file=sys.stderr)
    return EXIT_VERIFY_FAIL if out.failures else EXIT_OK


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
                    help="allow a coefficient payload above the 32 MiB disk budget")
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
    try:
        # reserved for row threads that no transform runs yet, so checked
        # here once, before any command reads or writes a file
        threads = os.environ.get("QLCT_THREADS", "0")
        if not threads.isdecimal():
            raise ValueError(f"QLCT_THREADS must be a non-negative integer, got {threads!r}")
        if getattr(args, "input", None) and getattr(args, "output", None):
            _refuse_overwriting([args.input], f"its input {args.input}", args.output)
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
