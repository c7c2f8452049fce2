"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one pass line when its criterion holds; failures surface
as ordinary assertion errors with the measured values.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from qlct import cli, gabor, uncertainty
from qlct.cli import main
from qlct.families import (PARAM_SETS, default_grid, dilated_gaussian,
                           gaussian, normalized, random_quaternion_signal,
                           random_smooth)
from qlct.gabor import (gabor_analyze, gabor_plancherel_check,
                        gabor_synthesize)
from qlct.lct1d import Grid1D, LCTParams, lct_fast
from qlct.qlct2d import (qlct_forward_direct, qlct_forward_fast, qlct_inverse,
                         qlct_plancherel_check)
from qlct.signal import Grid2D, QSignal2D, WindowSpec, make_window
from qlct.uncertainty import (amgm_dilation_identity, concentration_check,
                              epsilon_concentration_check, gabor_field_stats,
                              greedy_minimal_mask, heisenberg_check,
                              lemma_log_identity_check, lieb_check, log_check,
                              random_mask, young_sup_check)

from oracles import lct_direct
from report_diff import report_mismatches
from test_qlct2d import two_sided_qft_oracle
from test_report import exit_code
from test_uncertainty import field_check

MARK = "ACCEPTANCE"


def _ok(num, desc):
    print(f"{MARK} {num:02d} PASS: {desc}")


def rel_l2(a, b):
    return float(np.sqrt(np.sum((a - b)**2) / np.sum(b**2)))


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = default_grid(16)
    worst = 0.0
    for name in ("fourier", "generic", "neg-b"):
        p = PARAM_SETS[name]
        for _ in range(20):
            f = random_quaternion_signal(grid, rng)
            Fd = qlct_forward_direct(f, p)
            Ff = qlct_forward_fast(f, p)
            worst = max(worst, float(np.max(np.abs(Fd.samples - Ff.samples))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"max componentwise difference {worst}"
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s"
    _ok(1, f"fast vs direct on 60 signals: max diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_round_trip_64():
    start = time.perf_counter()
    grid = Grid2D.centered(64, 64, 0.25, 0.25)
    f = gaussian(grid, 1.0)
    p = PARAM_SETS["generic"]
    worst = 0.0
    for method in ("fast", "direct"):
        fwd = qlct_forward_fast if method == "fast" else qlct_forward_direct
        F = fwd(f, p)
        back = qlct_inverse(F, p, method)
        worst = max(worst, rel_l2(back.samples, f.samples))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8, f"round trip error {worst}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    _ok(2, f"64x64 round trip both methods: rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_plancherel():
    grid = Grid2D.centered(64, 64, 0.25, 0.25)
    f = gaussian(grid, 1.0)
    worst_g = 0.0
    for name, p in PARAM_SETS.items():
        rep = qlct_plancherel_check(f, p)
        assert 0.999 <= rep.ratio <= 1.001, f"{name}: ratio {rep.ratio}"
        worst_g = max(worst_g, abs(rep.ratio - 1))
    rng = np.random.default_rng(103)
    grid32 = default_grid(32)
    worst_r = 0.0
    for _ in range(20):
        f = random_smooth(grid32, rng)
        for name in ("fourier", "generic"):
            rep = qlct_plancherel_check(f, PARAM_SETS[name])
            assert 0.99 <= rep.ratio <= 1.01, f"{name}: ratio {rep.ratio}"
            worst_r = max(worst_r, abs(rep.ratio - 1))
    _ok(3, f"plancherel: gaussian dev {worst_g:.1e}, random dev {worst_r:.1e}")


def test_criterion_04_fourier_reduction():
    rng = np.random.default_rng(104)
    grid = Grid2D.centered(8, 8, 0.6, 0.45)
    worst = 0.0
    for _ in range(3):
        f = random_quaternion_signal(grid, rng)
        oracle = two_sided_qft_oracle(f)
        for transform in (qlct_forward_direct, qlct_forward_fast):
            F = transform(f, PARAM_SETS["fourier"])
            worst = max(worst, float(np.max(np.abs(F.samples - oracle))))
    assert worst <= 1e-12, f"QFT reduction diff {worst}"
    _ok(4, f"fourier case matches independent two-sided QFT sum: {worst:.2e}")


def test_criterion_05_gabor_plancherel():
    grid = Grid2D.centered(32, 32, 0.25, 0.25)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    rep = field_check(gabor_plancherel_check, f, phi, PARAM_SETS["fourier"])
    assert 0.98 <= rep.ratio <= 1.02, f"ratio {rep.ratio}"
    _ok(5, f"gabor plancherel ratio {rep.ratio:.6f}")


def test_criterion_06_gabor_synthesis():
    p = PARAM_SETS["fourier"]
    errors = []
    for dx in (0.5, 0.75):  # growing padding margin around the unit gaussian
        grid = Grid2D.centered(16, 16, dx, dx)
        f = gaussian(grid, 1.0)
        phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
        G = gabor_analyze(f, phi, p, 1)
        errors.append(rel_l2(gabor_synthesize(G, phi).samples, f.samples))
    assert errors[0] <= 1e-2, f"synthesis error {errors[0]}"
    assert errors[1] < errors[0], f"no monotone improvement: {errors}"
    _ok(6, f"synthesis rel err {errors[0]:.2e} -> {errors[1]:.2e} with padding")


def test_criterion_07_young():
    rng = np.random.default_rng(107)
    grid = default_grid(16)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    p = PARAM_SETS["fourier"]
    worst = np.inf
    for _ in range(100):
        f = random_smooth(grid, rng)
        for hp in (2.0, 4.0):  # (p, q) = (2, 2) and (4, 4/3)
            rep = field_check(young_sup_check, f, phi, p, hp)
            worst = min(worst, rep.margin)
    assert worst >= -1e-6, f"min margin {worst}"
    _ok(7, f"young sup bound on 100 trials: min margin {worst:.2e}")


def test_criterion_08_heisenberg_structure():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(50):
        A, B = rng.uniform(0.01, 100.0, size=2)
        s = rng.uniform(0.1, 4.0)
        _, _, rel = amgm_dilation_identity(float(A), float(B), float(s))
        worst = max(worst, rel)
    assert worst <= 1e-10, f"AM-GM residual {worst}"

    p = PARAM_SETS["fourier"]
    consts = {}
    for n in (32, 64):
        grid = default_grid(n)
        f = normalized(gaussian(grid, 1.0))
        rep = field_check(heisenberg_check, f, f, p, 1.0)
        assert rep.empirical_constant > 0
        consts[n] = rep.empirical_constant
    grid_dev = abs(consts[32] / consts[64] - 1.0)
    assert grid_dev <= 0.05, f"grid stability {grid_dev}"

    grid = default_grid(32)
    dil = []
    for t in (0.5, 1.0, 2.0):
        f = normalized(dilated_gaussian(grid, t))
        rep = field_check(heisenberg_check, f, f, p, 1.0)
        assert rep.empirical_constant > 0
        dil.append(rep.empirical_constant)
    mean = sum(dil) / len(dil)
    dil_dev = max(abs(c / mean - 1.0) for c in dil)
    assert dil_dev <= 0.02, f"dilation stability {dil_dev}"
    _ok(8, f"heisenberg: amgm {worst:.1e}, grid dev {grid_dev:.1e}, "
           f"dilation dev {dil_dev:.1e}")


def test_criterion_09_log_inequality():
    grid = default_grid(32)
    p = PARAM_SETS["fourier"]
    phi = normalized(gaussian(grid, 1.0))
    worst = np.inf
    for t in (0.5, 1.0, 2.0):
        f = normalized(dilated_gaussian(grid, t))
        rep = field_check(log_check, f, phi, p)
        worst = min(worst, rep.margin)
    assert worst >= -1e-3, f"min margin {worst}"
    _ok(9, f"log inequality (Fourier case, D = psi(1/2) - ln pi): "
           f"min margin {worst:.3f}")


def test_criterion_10_lemma_log_identity():
    grid = default_grid(32)
    p = PARAM_SETS["fourier"]
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    rep = lemma_log_identity_check(f, phi, p)
    gap = rep.params["rel_gap"]
    assert gap <= 2e-2, f"gaussian window gap {gap}"
    cell = np.zeros((32, 32, 4))
    cell[16, 16, 0] = 1.0
    rep1 = lemma_log_identity_check(f, QSignal2D(grid, cell), p)
    assert rep1.params["rel_gap"] <= 1e-12, f"single-cell gap {rep1.params['rel_gap']}"
    _ok(10, f"log lemma: gaussian gap {gap:.1e}, single-cell gap "
            f"{rep1.params['rel_gap']:.1e}")


def test_criterion_11_concentration():
    rng = np.random.default_rng(111)
    grid = Grid2D.centered(32, 32, 0.25, 0.25)
    f = normalized(gaussian(grid, 1.0))
    p = PARAM_SETS["fourier"]
    shape, cv = gabor.table_geometry(grid, p)
    masks = [random_mask(math.prod(shape), cv, m, rng) for m in (0.25, 0.5, 0.9)]
    stats = gabor_field_stats(f, f, p, cells=(0.9, np.unique(np.concatenate(masks))))
    worst = np.inf
    for mask in masks:
        rep = concentration_check(stats, mask)
        worst = min(worst, rep.margin)
    assert worst >= -1e-6, f"concentration min margin {worst}"
    worst_eps = np.inf
    for eps in (0.1, 0.5):
        mask = greedy_minimal_mask(stats, 1.0 - eps)
        rep = epsilon_concentration_check(stats, mask, eps)
        worst_eps = min(worst_eps, rep.margin)
    assert worst_eps >= 0, f"eps-concentration min margin {worst_eps}"
    _ok(11, f"concentration margins >= {worst:.2e}, "
            f"eps-concentration margins >= {worst_eps:.2f}")


def test_criterion_12_lieb():
    p = PARAM_SETS["fourier"]
    grid = default_grid(32)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    base = field_check(lieb_check, f, phi, p, 1.5)
    scaled = field_check(lieb_check, f.scaled(2.0), phi.scaled(0.5), p, 1.5)
    hom = abs(scaled.empirical_constant / base.empirical_constant - 1.0)
    assert hom <= 1e-10, f"homogeneity deviation {hom}"
    consts = {}
    for n in (32, 64):
        g = default_grid(n)
        fg = gaussian(g, 1.0)
        consts[n] = field_check(lieb_check, fg, fg, p, 1.5).empirical_constant
    dev = abs(consts[32] / consts[64] - 1.0)
    assert dev <= 0.05, f"stability {dev}"
    rep2 = field_check(lieb_check, f, phi, p, 2.0)
    plan = field_check(gabor_plancherel_check, f, phi, p)
    assert rep2.lhs == pytest.approx(plan.lhs, rel=1e-12)
    assert rep2.notes, "p'=2 report must flag the printed-constant inconsistency"
    _ok(12, f"lieb: homogeneity {hom:.1e}, stability {dev:.1e}, "
            f"p'=2 reproduces Plancherel and is flagged")


#: Gabor field passes of one seed-0 `verify all --grid 32x32` run: one per
#: distinct field over the union of its declared requests. log's ln|omega|,
#: lieb's p' = 1.5 and 2 and the concentration suites' |G|^2 table join the
#: normalized Gaussian passes that heisenberg makes anyway; gabor-plancherel
#: declares its two fields like every other suite, so its passes count here.
VERIFY_ALL_PASSES = 109


@pytest.fixture(scope="module")
def verify_all_passes():
    """Field keys (`uncertainty._field_key`) of the Gabor field passes of
    each `verify_all_runs` run, in run order."""
    return []


@pytest.fixture(scope="module")
def verify_all_runs(tmp_path_factory, verify_all_passes):
    tmp = tmp_path_factory.mktemp("verify")
    paths = [tmp / "run1.json", tmp / "run2.json"]
    elapsed = []
    original = uncertainty.gabor_field_stats

    def counted(f, phi, p, **kwargs):
        verify_all_passes[-1].append(uncertainty._field_key(f, phi, p, kwargs)[0])
        return original(f, phi, p, **kwargs)

    def dense(*args, **kwargs):
        raise AssertionError("verify built a dense Gabor field")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(uncertainty, "gabor_field_stats", counted)
        mp.setattr(gabor, "gabor_analyze", dense)
        mp.setattr(gabor.GaborCoefficients, "__init__", dense)
        for path in paths:
            verify_all_passes.append([])
            start = time.perf_counter()
            code = main(["verify", "all", "--grid", "32x32", "--seed", "0",
                         "--report", str(path)])
            elapsed.append(time.perf_counter() - start)
            assert code == 0, f"verify all exited {code}"
    return elapsed, paths[0].read_bytes(), paths[1].read_bytes()


def test_criterion_13_performance(verify_all_runs):
    g = Grid1D.centered(256, 0.125)
    rng = np.random.default_rng(113)
    f = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    p = LCTParams(1.0, 2.0, 0.5, 2.0)
    lct_fast(p, 1, f, g)  # warm the FFT plan cache

    def best_of(fn, k=15):
        times = []
        for _ in range(k):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_direct = best_of(lambda: lct_direct(p, 1, f, g))
    t_fast = best_of(lambda: lct_fast(p, 1, f, g))
    speedup = t_direct / t_fast
    assert speedup >= 10.0, f"speedup only {speedup:.1f}x"

    elapsed, _, _ = verify_all_runs
    assert elapsed[0] < 600.0, f"verify all took {elapsed[0]:.0f}s"
    _ok(13, f"lct_fast {speedup:.0f}x faster at N=256; "
            f"verify all in {elapsed[0]:.0f}s")


def test_criterion_14_determinism(verify_all_runs):
    _, first, second = verify_all_runs
    assert first == second, "verify all JSON differs between identical runs"
    reports = json.loads(first)
    assert len(reports) > 0
    _ok(14, f"verify all twice: byte-identical JSON ({len(reports)} reports)")


def test_verify_all_sweeps_each_distinct_field_once(verify_all_runs,
                                                    verify_all_passes):
    assert [len(keys) for keys in verify_all_passes] == [VERIFY_ALL_PASSES] * 2


def test_verify_all_passes_are_its_declared_fields(verify_all_runs, verify_all_passes):
    """One pass per distinct declared field and none besides."""
    declared = {uncertainty._field_key(*build(), cli.QFT, request)[0]
                for specs in cli.SUITE_FIELDS.values()
                for _, _, request, build in specs(cli.VerifyConfig())}
    for keys in verify_all_passes:
        assert len(keys) == len(set(keys)), "a field was swept twice"
        assert set(keys) == declared


def test_verify_all_gates_each_pass_once(verify_all_runs):
    """One `plancherel-by-y` report per distinct pass, first in the run,
    whose readers are every declared (suite, family, entry index) once;
    no other report copies a pass's residual."""
    _, first, _ = verify_all_runs
    reports = json.loads(first)
    witness = [r for r in reports if r["name"] == "plancherel-by-y"]
    assert len(witness) == VERIFY_ALL_PASSES
    assert reports[:VERIFY_ALL_PASSES] == witness
    assert all(r["gate"] == {"kind": "margin", "tol": 0.0, "passed": True} and r["rhs"] == 1e-10
               for r in witness)
    declared = [[name, family, k] for name, specs in cli.SUITE_FIELDS.items()
                for k, (family, *_) in enumerate(specs(cli.VerifyConfig()))]
    readers = [reader for r in witness for reader in r["params"]["readers"]]
    assert sorted(readers) == sorted(declared)
    assert not any("plancherel_by_y_residual" in r["params"] for r in reports)


def test_verify_all_matches_pinned_report(verify_all_runs):
    """The seed-0 `verify all --grid 32x32` report equals the committed one;
    a failure lists every value that moved. After a change that explains
    every moved value (`python tests/report_diff.py OLD NEW` lists them),
    regenerate it with `qlct verify all --grid 32x32
    --seed 0 --report tests/data/verify_all_seed0.json` and delete the
    `verify_all_seed0.csv` the run writes beside it."""
    _, first, _ = verify_all_runs
    pinned = Path(__file__).parent / "data" / "verify_all_seed0.json"
    mismatches = report_mismatches(json.loads(first), json.loads(pinned.read_text()))
    assert not mismatches, "\n".join(mismatches)


#: Reports whose values are rounding-level residuals of an exact identity,
#: which the two paths round apart: the direct run is compared by gate only.
ROUNDING_LEVEL = {"plancherel-by-y", "lieb-homogeneity", "hausdorff-young-scaling"}
#: The values of a report that the direct run must reproduce.
COMPARED = ("lhs", "rhs", "ratio", "empirical_constant", "params")


def _float_gaps(fast, direct, where):
    """Paths of the floats in fast whose direct value differs by more than
    1e-9 relative where either exceeds 1e-9 in magnitude."""
    if isinstance(fast, dict):
        return [m for key in fast for m in _float_gaps(fast[key], direct[key], f"{where}.{key}")]
    if isinstance(fast, list):
        return [m for i, (a, b) in enumerate(zip(fast, direct))
                for m in _float_gaps(a, b, f"{where}[{i}]")]
    if not isinstance(fast, float):
        return []
    if isinstance(direct, float):
        big = max(abs(fast), abs(direct))
        if big <= 1e-9 or abs(fast - direct) <= 1e-9 * big:
            return []
    return [f"{where}: fast {fast!r}, direct {direct!r}"]


def test_direct_verify_all_agrees_with_the_fast_run(verify_all_runs, tmp_path):
    """Seed-0 `verify all --grid 32x32 --method direct`, every suite on the
    FFT-free quadrature oracle, against the fast run of `verify_all_runs`.
    The rule: the same reports in the same order with every `gate` equal;
    and, except in the rounding-level reports of ROUNDING_LEVEL, the
    COMPARED values (every float in `params` included) agree within 1e-9
    relative wherever either exceeds 1e-9 in magnitude. Margins are
    skipped: their gates are compared, and a margin near 0 is a difference
    of rounded values."""
    path = tmp_path / "direct.json"
    assert main(["verify", "all", "--grid", "32x32", "--seed", "0", "--method", "direct",
                 "--report", str(path)]) == 0
    fast, direct = json.loads(verify_all_runs[1]), json.loads(path.read_text())
    assert [r["name"] for r in direct] == [r["name"] for r in fast]
    pairs = list(enumerate(zip(fast, direct)))
    flips = [f"report[{i}] {f['name']}: gate {f['gate']}, direct {d['gate']}"
             for i, (f, d) in pairs if f["gate"] != d["gate"]]
    gaps = [gap for i, (f, d) in pairs if f["name"] not in ROUNDING_LEVEL
            for gap in _float_gaps(*({k: r[k] for k in COMPARED} for r in (f, d)),
                                   f"report[{i}] {f['name']}")]
    assert not flips + gaps, (f"{len(flips)} gate flips, {len(gaps)} values off:\n"
                              + "\n".join(flips + gaps))


def test_streamed_report_has_the_whole_string_bytes(verify_all_runs):
    """The seed-0 report, written into its file as it is encoded, has the
    bytes `json.dumps` gives its values with the same options."""
    _, first, _ = verify_all_runs
    assert first.decode() == json.dumps(json.loads(first), sort_keys=True, indent=2)


def test_qlct_plancherel_residuals_hold_the_identity(verify_all_runs):
    """On matched grids the discrete Plancherel identity is exact, so each
    residual must stay at rounding level whatever digits the pin holds."""
    _, first, _ = verify_all_runs
    reports = [r for r in json.loads(first) if r["name"] == "qlct-plancherel"]
    assert reports
    for r in reports:
        assert abs(r["lhs"] - r["rhs"]) <= 1e-12 * r["lhs"], r["params"]


def test_verify_all_exit_code_is_read_off_its_gates(verify_all_runs):
    """The run exited 0 (the fixture asserts it), and so does the exit code
    recomputed from its JSON; every report carries a gate, and only the
    printed Lieb and Hausdorff-Young bounds are record-only."""
    _, first, _ = verify_all_runs
    reports = json.loads(first)
    assert exit_code(reports) == 0
    assert {r["gate"]["kind"] for r in reports} == {"margin", "ratio", "positive", "none"}
    assert {r["name"] for r in reports if r["gate"]["kind"] == "none"} == {
        "lieb", "hausdorff-young"}


def test_lieb_pprime_2_report_flags_the_printed_constant(verify_all_runs):
    _, first, _ = verify_all_runs
    [rep] = [r for r in json.loads(first)
             if r["name"] == "lieb" and r["params"]["p_prime"] == 2.0]
    assert rep["notes"].startswith("printed constant is inconsistent at p' = 2")
