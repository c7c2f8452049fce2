import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.special

from qlct.families import (PARAM_SETS, default_grid, dilated_gaussian,
                           gaussian, gaussian_chirp, impulse, normalized,
                           random_quaternion_signal, random_smooth)
from qlct.gabor import (GaborCoefficients, gabor_analyze, gabor_plancherel_check,
                        translation_grid)
from qlct.qlct2d import (FastPlan, _fast_plan, _two_sided_fast, forward_grid,
                         qlct_forward_fast)
from qlct.quat import from_complex_pair, qabs_sq, to_complex_pair
from qlct.report import (equality, lower_bound, reports_to_csv,
                         reports_to_json, upper_bound)
from qlct.signal import (Grid2D, GridMismatchError, QSignal2D, WindowSpec,
                         make_window, translate)
from qlct import cli, gabor, uncertainty
from qlct.cli import main
from qlct.uncertainty import (D_LOG, amgm_dilation_identity,
                              concentration_check, epsilon_concentration_check,
                              gabor_field_stats, greedy_minimal_mask,
                              hausdorff_young_check, heisenberg_check,
                              lemma_log_identity_check, lieb_check, log_check,
                              mask_measure, moment_concentration_check,
                              random_mask, sweep_fields, young_sup_check)

import oracles
from oracles import cell_volume, modulus_sq, moment
from test_report import encoded

FOURIER2 = PARAM_SETS["fourier"]


def field_check(check, f, phi, p, arg=None, method="fast"):
    """check(stats, arg) on a lone pass over the field of f and phi that
    asks what check reads: s for heisenberg and moment-concentration, p'
    for lieb, ln|omega| for log, no sum for young and gabor-plancherel."""
    request = {heisenberg_check: {"s_values": (arg,)},
               moment_concentration_check: {"s_values": (arg,)},
               lieb_check: {"pprimes": (arg,)},
               log_check: {"log_omega": True}}.get(check, {})
    stats = uncertainty.gabor_field_stats(f, phi, p, method=method, **request)
    return check(stats, *(() if arg is None else (arg,)))


def single_cell_field(omega_index, y_index, value, n=8, dx=0.5):
    grid = Grid2D.centered(n, n, dx, dx)
    og = Grid2D.centered(n, n, 2 * np.pi / (n * dx), 2 * np.pi / (n * dx))
    yg = Grid2D(n, n, dx, dx, -(n // 2) * dx, -(n // 2) * dx)
    coeffs = np.zeros((n, n, n, n, 4))
    coeffs[y_index + omega_index] = value
    return GaborCoefficients(og, yg, coeffs, FOURIER2, 1.0, 1)


# ---------------------------------------------------------------------------
# moments

def test_moment_single_cell_closed_form():
    G = single_cell_field((1, 2), (3, 4), np.array([0.3, -0.4, 0.5, 0.1]))
    vsq = 0.3**2 + 0.4**2 + 0.5**2 + 0.1**2
    w1 = G.omega_grid.coords1()[1]
    w2 = G.omega_grid.coords2()[2]
    y1 = G.y_grid.coords1()[3]
    y2 = G.y_grid.coords2()[4]
    cellvol = cell_volume(G)
    for s in (0.5, 1.0, 2.0):
        assert moment(G, "omega", s) == pytest.approx(
            (w1**2 + w2**2)**s * vsq * cellvol, rel=1e-13)
        assert moment(G, "y", s) == pytest.approx(
            (y1**2 + y2**2)**s * vsq * cellvol, rel=1e-13)
        assert moment(G, "joint", s) == pytest.approx(
            (w1**2 + w2**2 + y1**2 + y2**2)**s * vsq * cellvol, rel=1e-13)


def test_joint_moment_dominates_marginals():
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    f = normalized(gaussian(grid, 1.0))
    G = gabor_analyze(f, f, FOURIER2, 1)
    mo = moment(G, "omega", 1.0)
    my = moment(G, "y", 1.0)
    mj = moment(G, "joint", 1.0)
    assert mj >= mo - 1e-12 and mj >= my - 1e-12


def test_moments_match_doubled_resolution_oracle():
    # quadrature convergence: the same continuum moment evaluated on a
    # 2x finer grid (same physical extent) agrees to 1e-3 relative
    vals = {}
    for n in (16, 32):
        grid = Grid2D.centered(n, n, 8.0 / n, 8.0 / n)
        f = normalized(gaussian(grid, 1.0))
        G = gabor_analyze(f, f, FOURIER2, 1)
        vals[n] = (moment(G, "omega", 1.0), moment(G, "y", 1.0))
    for a, b in zip(vals[16], vals[32]):
        assert abs(a / b - 1.0) <= 1e-3


def test_streamed_stats_match_dense_moments():
    grid = Grid2D.centered(8, 8, 0.6, 0.6)
    rng = np.random.default_rng(50)
    f = random_smooth(grid, rng)
    phi = make_window(WindowSpec("gaussian", (0.8, 0.8)), grid)
    G = gabor_analyze(f, phi, FOURIER2, 1)
    stats = gabor_field_stats(f, phi, FOURIER2, s_values=(1.0,),
                              pprimes=(1.5,), log_omega=True)
    energy = float(np.sum(G.coeffs * G.coeffs) * cell_volume(G))
    assert stats["energy"] == pytest.approx(energy, rel=1e-12)
    assert stats["moment_omega"][1.0] == pytest.approx(moment(G, "omega", 1.0),
                                                       rel=1e-12)
    assert stats["moment_y"][1.0] == pytest.approx(moment(G, "y", 1.0), rel=1e-12)
    assert stats["moment_joint"][1.0] == pytest.approx(moment(G, "joint", 1.0),
                                                       rel=1e-12)
    assert stats["max_abs"] == pytest.approx(np.sqrt(modulus_sq(G).max()),
                                             rel=1e-14)
    mod = np.sqrt(modulus_sq(G))
    assert stats["power_sums"][1.5] == pytest.approx(
        float(np.sum(mod**1.5)) * cell_volume(G), rel=1e-12)


def _folded_halves(f, phi, p):
    """(P, M) of each y1 row of translations of a real window, without
    post-chirps, in the pass's order but not by its code: the 2D pre-chirps
    folded into the halves of f, times each `translate` of the window, then
    the transform steps alone (a plan whose chirps are ones)."""
    yg = translation_grid(f.grid)
    plan = _fast_plan(p, *f.grid.axes)
    pre_p, pre_m = (np.multiply.outer(plan.left.pre, right.pre)
                    for right in (plan.plus, plan.minus))
    fa, fb = to_complex_pair(f.samples)
    sp, sm = pre_p * (fa + 1j * fb), pre_m * (fa - 1j * fb)
    bare = FastPlan(*(a._replace(pre=np.ones(a.pre.shape), post=np.ones(a.post.shape))
                      for a in plan))
    for y1 in yg.coords1():
        w = np.stack([translate(phi, (y1, y2)).samples[..., 0] for y2 in yg.coords2()])
        yield _two_sided_fast(bare, sp * w, sm * w)


def _pass_halves(f, phi, p):
    """(P, M) of each y1 row as the |G|^2 pass's own blocks hold them."""
    for _, sl, P, M in gabor.iter_gabor_blocks(f, phi, p, post_chirp=False):
        assert sl == slice(0, f.grid.n2)  # one block per row
        yield P, M


def test_streamed_stats_keep_the_qabs_sq_summation_order():
    """Energy, moments and the |G|^2 table bit-equal to a reference that
    reads |P|^2 + |M|^2 of the halves without post-chirps with qabs_sq,
    reduces each translation on its own (a sum, and one dot product per
    omega-weight), sums the (y1, y2) tables and then scales by the
    constant 2, so a real window's stats keep the order the
    seed-0 verify report was pinned with. With a real window under the
    Fourier params the halves come from `_folded_halves`. The generic and
    neg-b params with a quaternion window take the pass's own halves and
    pin the per-translation kernel: at s = 1.5 (generic) and 0.25 (neg-b)
    a row-wide weighted sum in place of `np.vecdot` moves the omega and
    the joint moment."""
    grid = default_grid(32)
    f = random_quaternion_signal(grid, np.random.default_rng(70))
    s_values = (0.25, 0.5, 1.0, 1.5)
    qwin = _quaternion_window(grid)
    for p, phi, halves in ((FOURIER2, normalized(gaussian(grid, 1.0)), _folded_halves),
                           (PARAM_SETS["generic"], qwin, _pass_halves),
                           (PARAM_SETS["neg-b"], qwin, _pass_halves)):
        table, stats = oracles.abs_sq_table(f, phi, p, s_values=s_values)
        og = forward_grid(grid, p)
        yg = translation_grid(grid)
        w1, w2 = og.meshgrid()
        omega_r2 = (w1**2 + w2**2).ravel()
        y1, y2 = yg.coords1(), yg.coords2()
        y_r2 = np.empty(yg.shape)
        energy = np.empty(yg.shape)
        mo = {s: np.empty(yg.shape) for s in s_values}
        mj = {s: np.empty(yg.shape) for s in s_values}
        for i1, (P, M) in enumerate(halves(f, phi, p)):
            mod2 = qabs_sq(from_complex_pair(P, M))
            np.testing.assert_array_equal(table[i1], 2.0 * mod2)
            for i2 in range(yg.n2):
                cell = mod2[i2].ravel()
                y_r2[i1, i2] = y1[i1]**2 + y2[i2]**2
                energy[i1, i2] = cell.sum()
                for s in s_values:
                    mo[s][i1, i2] = np.dot(omega_r2**s, cell)
                    mj[s][i1, i2] = np.dot((omega_r2 + y_r2[i1, i2])**s, cell)
        scale = 2.0 * (og.cell_area * yg.cell_area)
        assert stats["energy"] == float(energy.sum()) * scale
        rhs = gabor._windowed_energy(f, phi)
        gap = np.max(np.abs(energy * (2.0 * og.cell_area) - rhs))
        assert stats["plancherel_by_y_residual"] == gap / np.max(rhs)
        for s in s_values:
            assert stats["moment_omega"][s] == float(mo[s].sum()) * scale
            assert stats["moment_y"][s] == float((y_r2**s * energy).sum()) * scale
            assert stats["moment_joint"][s] == float(mj[s].sum()) * scale


def _quaternion_window(grid):
    vals = gaussian(grid, 0.8).samples[..., :1] * np.array([1.0, 0.3, -0.2, 0.5])
    return QSignal2D(grid, vals)


# ---------------------------------------------------------------------------
# per-translation Plancherel witness

@pytest.mark.parametrize("name", list(PARAM_SETS))
def test_gabor_reports_carry_the_per_translation_plancherel_residual(name, monkeypatch):
    grid = Grid2D.centered(16, 12, 0.6, 0.5)
    f = random_quaternion_signal(grid, np.random.default_rng(66))
    phi = _quaternion_window(grid)
    p = PARAM_SETS[name]
    # rows of 12 translations in blocks of 5
    monkeypatch.setattr(gabor, "BLOCK_BYTES", 5 * 16 * grid.n1 * grid.n2)
    window_sq = gabor._translates(qabs_sq(phi.samples)[None])[0]
    rhs = (qabs_sq(f.samples) * window_sq).sum(axis=(-2, -1)) * grid.cell_area
    np.testing.assert_allclose(gabor._windowed_energy(f, phi), rhs, rtol=1e-14)
    stats = gabor_field_stats(f, phi, p, s_values=(1.0,))
    # the pass's one report carries it; the checks that read the pass do not
    out = cli.Collector(0)
    cli.witness_passes(out, {"heisenberg": [("a", stats)], "moment-concentration": [("b", stats)]})
    [rep] = out.reports
    assert rep.lhs == stats["plancherel_by_y_residual"] <= 1e-12, rep.lhs
    assert rep.gate == {"kind": "margin", "tol": 0.0, "passed": True}
    assert rep.params["readers"] == [("heisenberg", "a", 0), ("moment-concentration", "b", 0)]
    for check in (heisenberg_check, moment_concentration_check):
        assert "plancherel_by_y_residual" not in check(stats, 1.0).params


def test_a_window_shifted_on_the_right_side_fails_the_residual(monkeypatch, capsys):
    windowed_energy = gabor._windowed_energy
    monkeypatch.setattr(gabor, "_windowed_energy", lambda f, phi, stride=1: windowed_energy(
        f, QSignal2D(phi.grid, np.roll(phi.samples, 1, axis=0)), stride))
    f = normalized(gaussian(default_grid(16), 1.0))
    assert gabor_field_stats(f, f, FOURIER2)["plancherel_by_y_residual"] > 1e-10
    assert main(["verify", "heisenberg", "--trials", "2", "--grid", "16x16"]) == 1
    err = capsys.readouterr().err
    assert err.count("] plancherel-by-y readers [('heisenberg', ") == 5, err


@pytest.mark.parametrize("suite", list(cli.SUITE_FIELDS))
def test_each_gabor_suite_run_alone_fails_on_a_wrong_right_side(suite, monkeypatch, capsys):
    """With the right side of the per-translation identity 1e-6 too large,
    each suite that reads a Gabor field fails, run alone, on its passes'
    `plancherel-by-y` reports and on nothing else, though no suite builds
    one: `qlct verify` gates every pass it plans."""
    windowed_energy = gabor._windowed_energy
    monkeypatch.setattr(gabor, "_windowed_energy",
                        lambda *args: windowed_energy(*args) * (1.0 + 1e-6))
    assert main(["verify", suite, "--trials", "2"]) == 1
    failed = re.findall(r"^FAIL \[\d+\] (\S+) readers \[\('([^']+)'", capsys.readouterr().err,
                        re.M)
    assert failed and set(failed) == {("plancherel-by-y", suite)}, failed


# ---------------------------------------------------------------------------
# one pass per distinct field

@pytest.fixture
def passes(monkeypatch):
    """Requests that reach `gabor_field_stats`, i.e. real field passes."""
    calls = []
    original = uncertainty.gabor_field_stats

    def counted(f, phi, p, **kwargs):
        calls.append(kwargs)
        return original(f, phi, p, **kwargs)

    monkeypatch.setattr(uncertainty, "gabor_field_stats", counted)
    return calls


def test_memo_key_separates_every_field_input(passes):
    """Same samples on another spacing, another window, other params,
    the direct method and stride 2 are each a field of their own."""
    grid = default_grid(8)
    f = normalized(gaussian(grid, 1.0))
    wide = Grid2D.centered(8, 8, 1.5 * grid.dx1, 1.5 * grid.dx2)
    requests = [
        (f, f, FOURIER2, {}),
        (QSignal2D(wide, f.samples), QSignal2D(wide, f.samples), FOURIER2, {}),
        (f, normalized(gaussian(grid, 0.7)), FOURIER2, {}),
        (f, f, PARAM_SETS["generic"], {}),
        (f, f, FOURIER2, {"method": "direct"}),
        (f, f, FOURIER2, {"y_stride": 2}),
    ]
    fields = [(sig, win, p, {"s_values": (1.0,), **kw}) for sig, win, p, kw in requests]
    stats = sweep_fields(fields + fields)
    assert passes == [{"s_values": (1.0,), **kw, "pprimes": (), "log_omega": False,
                       "cells": None} for *_, kw in requests]
    assert len({id(st) for st in stats}) == len(requests)
    assert all(a is b for a, b in zip(stats, stats[len(requests):]))


def test_the_union_asks_every_request_option_of_a_pass():
    """`_union` names every request keyword of `gabor_field_stats` (those
    `_field_key` leaves as sums: all but method and y_stride), so a pass
    option added later cannot be dropped by `sweep_fields` unseen."""
    options = [name for name, param in inspect.signature(gabor_field_stats).parameters.items()
               if param.kind is inspect.Parameter.KEYWORD_ONLY]
    assert options[-2:] == ["method", "y_stride"]
    assert set(uncertainty._union([])) == set(options[:-2])


def _assert_serves(got, want, where):
    """got has, for every sum want was asked for, the bits of want."""
    for key in ("energy", "max_abs", "cell_volume", "plancherel_by_y_residual", "method"):
        assert got[key] == want[key], (where, key)
    for key in ("moment_omega", "moment_y", "moment_joint", "power_sums"):
        assert {k: got[key][k] for k in want[key]} == want[key], (where, key)
    if want["log_omega_sum"] is not None:
        assert got["log_omega_sum"] == want["log_omega_sum"], where
    if want["cell_index"] is not None:
        # the union keeps at least the cells a lone request keeps, with their bits
        at = np.searchsorted(got["cell_index"], want["cell_index"])
        np.testing.assert_array_equal(got["cell_index"][at], want["cell_index"])
        np.testing.assert_array_equal(got["cell_value"][at], want["cell_value"])


def test_memo_serves_each_request_bit_equal_to_a_fresh_pass(passes):
    """One pass over the union of a field's requests serves them all,
    repeats included, from its read-only arrays, and each request reads
    the bits of a lone fresh pass asking it, its cells included: the union
    of cell requests keeps the largest capture and every index. With
    full-capture requests, which keep the whole |G|^2 table, that capture
    is math.inf and every request still reads its lone pass's bits."""
    grid = default_grid(8)
    f = random_smooth(grid, np.random.default_rng(80))
    phi = normalized(gaussian(grid, 1.0))
    requests = [{"s_values": (1.0,)}, {"pprimes": (1.5,), "log_omega": True},
                {"s_values": (1.0,), "pprimes": (1.5,)}, {"log_omega": True}, {},
                {"s_values": (0.5, 1.0)},
                {"cells": (0.5, [4000, 3])}, {"cells": (None, [17, 3])}, {"cells": (0.25, ())}]
    tables = [{"cells": (math.inf, ())}, {"s_values": (0.5,), "cells": (math.inf, [5])}]
    union = {"s_values": (0.5, 1.0), "pprimes": (1.5,), "log_omega": True}
    for asks, largest, every in ((requests, 0.5, [3, 17, 4000]),
                                 (requests + tables, math.inf, [3, 5, 17, 4000])):
        passes.clear()
        served = sweep_fields([(f, phi, FOURIER2, kw) for kw in asks + asks])
        [asked] = passes
        capture, indices = asked.pop("cells")
        assert asked == union and capture == largest
        np.testing.assert_array_equal(indices, every)
        assert all(got is served[0] for got in served)
        assert not served[0]["cell_index"].flags.writeable
        assert not served[0]["cell_value"].flags.writeable
        for got, kw in zip(served, asks + asks):
            _assert_serves(got, gabor_field_stats(f, phi, FOURIER2, **kw), kw)


def test_a_declared_scope_makes_one_pass_per_distinct_field(passes):
    """Every check of a swept field, the |G|^2 table's readers among them,
    reads the one pass of its field and makes none of its own; the direct
    method is a field of its own, and the shared arrays are read-only."""
    grid = default_grid(8)
    f = normalized(gaussian(grid, 1.0))
    g = random_smooth(grid, np.random.default_rng(81))
    fields = [(f, f, FOURIER2, {"s_values": (1.0,)}), (f, f, FOURIER2, {"log_omega": True}),
              (f, f, FOURIER2, {"pprimes": (1.5,)}), (f, f, FOURIER2, {"pprimes": (2.0,)}),
              (f, f, FOURIER2, {"cells": (0.5, ())}), (f, f, FOURIER2, {}),
              (g, f, FOURIER2, {}), (f, f, FOURIER2, {"s_values": (1.0,), "method": "direct"})]
    stats = sweep_fields(fields)
    shared, of_g, direct = stats[0], stats[6], stats[7]
    assert all(st is shared for st in stats[:6])
    calls = [lambda: heisenberg_check(shared, 1.0),
             lambda: moment_concentration_check(shared, 1.0),
             lambda: log_check(shared),
             lambda: lieb_check(shared, 1.5),
             lambda: lieb_check(shared, 2.0),
             lambda: young_sup_check(shared, 2.0),
             lambda: young_sup_check(of_g, 4.0),
             lambda: heisenberg_check(direct, 1.0)]
    for call in calls + calls:
        call()
    greedy_minimal_mask(shared, 0.5)
    assert len(passes) == 3, passes
    assert passes[0].pop("cells")[0] == 0.5
    assert passes[0] == {"s_values": (1.0,), "pprimes": (1.5, 2.0), "log_omega": True}
    assert calls[-1]().params["method"] == "direct"
    assert not shared["cell_index"].flags.writeable


@pytest.mark.parametrize("check, request_, missing", [
    (lambda st: heisenberg_check(st, 2.0), {"s_values": (1.0,)},
     "moment_omega at 2.0; request it with s_values"),
    (lambda st: moment_concentration_check(st, 1.0), {},
     "moment_joint at 1.0; request it with s_values"),
    (lambda st: lieb_check(st, 1.5), {"pprimes": (2.0,)},
     "power_sums at 1.5; request it with pprimes"),
    (lambda st: log_check(st), {"s_values": (1.0,)},
     "log_omega_sum; request it with log_omega=True"),
], ids=["heisenberg", "moment-concentration", "lieb", "log"])
def test_a_check_refuses_stats_without_the_sum_it_reads(check, request_, missing):
    f = normalized(gaussian(default_grid(8), 1.0))
    with pytest.raises(ValueError, match=f"carry no {missing}"):
        check(gabor_field_stats(f, f, FOURIER2, **request_))


def test_checks_read_their_inputs_from_the_pass_they_are_handed():
    """No check takes f, phi, params or norms beside its pass, so none can
    pair a pass with inputs it did not sweep: each reports on the signal,
    window and params of the stats it is handed."""
    grid = default_grid(16)
    f = normalized(gaussian(grid, 1.0))
    g = dilated_gaussian(grid, 2.0)  # the t = 2 dilate, not normalized
    rep = heisenberg_check(gabor_field_stats(g, g, FOURIER2, s_values=(1.0,)), 1.0)
    assert rep.rhs == g.l2_norm() * g.l2_norm() != f.l2_norm() * f.l2_norm()
    assert rep.empirical_constant == rep.lhs / rep.rhs
    # the field is bilinear in (g, g): lhs scales as ||g||^4, rhs as ||g||^2
    unit_g = normalized(g)
    unit = field_check(heisenberg_check, unit_g, unit_g, FOURIER2, 1.0)
    assert rep.empirical_constant == pytest.approx(
        unit.empirical_constant * g.l2_norm_sq(), rel=1e-12)
    generic = PARAM_SETS["generic"]
    stats = gabor_field_stats(f, f, generic, cells=(0.5, ()))
    eps = epsilon_concentration_check(stats, greedy_minimal_mask(stats, 0.5), 0.5)
    assert eps.params["abs_b1b2"] == abs(generic.A1.b * generic.A2.b) != 1.0
    assert {key: eps.params[key] for key in ("A1", "A2")} == generic.to_dict()
    phi = f.scaled(0.5)
    shape, cv = gabor.table_geometry(grid, FOURIER2)
    mask = random_mask(math.prod(shape), cv, 0.5, np.random.default_rng(56))
    rep = concentration_check(gabor_field_stats(g, phi, FOURIER2, cells=(None, mask)), mask)
    assert rep.lhs == g.l2_norm() * phi.l2_norm() != 1.0


# ---------------------------------------------------------------------------
# heisenberg

def test_amgm_identity_worked_example():
    at_t, target, rel = amgm_dilation_identity(4.0, 9.0, 0.5)
    assert at_t == pytest.approx(6.0, abs=1e-14)
    assert target == pytest.approx(6.0, abs=1e-14)
    assert rel <= 1e-15


def test_amgm_identity_random():
    rng = np.random.default_rng(51)
    for _ in range(50):
        A, B = rng.uniform(0.01, 100.0, size=2)
        s = rng.uniform(0.1, 4.0)
        _, _, rel = amgm_dilation_identity(A, B, s)
        assert rel <= 1e-10


def test_heisenberg_check_reports():
    grid = default_grid(16)
    f = normalized(gaussian(grid, 1.0))
    rep = field_check(heisenberg_check, f, f, FOURIER2, 1.0)
    assert rep.empirical_constant > 0
    assert rep.params["amgm_rel_err"] <= 1e-10
    assert rep.lhs == pytest.approx(
        math.sqrt(rep.params["moment_omega"] * rep.params["moment_y"]),
        rel=1e-12)
    zero = QSignal2D(grid, np.zeros((16, 16, 4)))
    with pytest.raises(ValueError, match="zero"):
        field_check(heisenberg_check, zero, f, FOURIER2, 1.0)


def test_heisenberg_dilation_invariance():
    grid = default_grid(32)
    consts = []
    for t in (0.5, 1.0, 2.0):
        f = normalized(dilated_gaussian(grid, t))
        rep = field_check(heisenberg_check, f, f, FOURIER2, 1.0)
        consts.append(rep.empirical_constant)
    mean = sum(consts) / 3
    assert all(abs(c / mean - 1.0) <= 0.02 for c in consts)


# ---------------------------------------------------------------------------
# logarithmic inequality

def test_log_constant_against_digamma_oracle():
    oracle = scipy.special.digamma(0.5) - math.log(math.pi)
    assert abs(D_LOG - oracle) <= 1e-14
    assert D_LOG == pytest.approx(-3.10824, abs=5e-6)


def test_log_check_margins():
    grid = default_grid(32)
    phi = normalized(gaussian(grid, 1.0))
    for t in (0.5, 1.0, 2.0):
        f = normalized(dilated_gaussian(grid, t))
        rep = field_check(log_check, f, phi, FOURIER2)
        assert rep.margin >= -1e-3
        assert rep.params["ln_b"] == 0.0


def test_log_check_rejects_degenerate_axis():
    grid = default_grid(16)
    f = gaussian(grid, 1.0)
    from qlct.lct1d import LCTParams
    from qlct.qlct2d import QLCTParams
    p = QLCTParams(LCTParams(1.0, 0.0, 0.5, 1.0), PARAM_SETS["fourier"].A2)
    with pytest.raises(ValueError, match="b != 0"):
        field_check(log_check, f, f, p)


def test_log_check_rejects_grid_with_origin_sample():
    # an odd grid with x0 = -(n//2) dx puts a sample exactly at the origin
    g = Grid2D(9, 9, 0.5, 0.5, -2.0, -2.0)
    vals = np.zeros((9, 9, 4))
    vals[..., 0] = 1.0
    f = QSignal2D(g, vals)
    with pytest.raises(ValueError, match="origin"):
        field_check(log_check, f, f, FOURIER2)


def test_field_stats_log_weights_reject_an_omega_sample_at_the_origin():
    # on an odd grid the centered omega grid samples the origin, where
    # ln|omega| would be -inf
    f = gaussian(Grid2D.centered(9, 9, 0.5, 0.5), 1.0)
    with pytest.raises(ValueError, match="origin"):
        gabor_field_stats(f, f, FOURIER2, log_omega=True)


def test_lemma_log_identity():
    grid = default_grid(32)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    rep = lemma_log_identity_check(f, phi, FOURIER2)
    assert rep.params["rel_gap"] <= 2e-2

    cell = np.zeros((32, 32, 4))
    cell[16, 16, 0] = 0.7
    rep = lemma_log_identity_check(f, QSignal2D(grid, cell), FOURIER2)
    assert rep.params["rel_gap"] <= 1e-12

    zero = QSignal2D(grid, np.zeros((32, 32, 4)))
    rep = lemma_log_identity_check(zero, phi, FOURIER2)
    assert rep.lhs == 0.0 and rep.rhs == 0.0


# ---------------------------------------------------------------------------
# lieb

def test_lieb_pprime_two_reproduces_plancherel_and_flags():
    from qlct.gabor import gabor_plancherel_check
    grid = default_grid(16)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    rep = field_check(lieb_check, f, phi, FOURIER2, 2.0)
    # the p' = 2 power integral IS the Gabor energy, exactly
    plan = field_check(gabor_plancherel_check, f, phi, FOURIER2)
    assert rep.lhs == pytest.approx(plan.lhs, rel=1e-12)
    # and matches ||f||^2 ||phi||^2 up to the translation edge truncation
    assert rep.lhs == pytest.approx(f.l2_norm_sq() * phi.l2_norm_sq(), rel=1e-4)
    assert "Plancherel" in rep.notes
    # the printed bound is smaller than the Plancherel value here
    assert rep.margin < 0


def test_lieb_homogeneity():
    grid = default_grid(16)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    base = field_check(lieb_check, f, phi, FOURIER2, 1.5)
    scaled = field_check(lieb_check, f.scaled(2.0), phi, FOURIER2, 1.5)
    assert scaled.lhs == pytest.approx(2.0**1.5 * base.lhs, rel=1e-12)
    assert abs(scaled.empirical_constant / base.empirical_constant - 1.0) <= 1e-10
    both = field_check(lieb_check, f.scaled(2.0), phi.scaled(0.3), FOURIER2, 1.5)
    assert abs(both.empirical_constant / base.empirical_constant - 1.0) <= 1e-10


def test_lieb_rejects_bad_exponent():
    grid = default_grid(8)
    f = gaussian(grid, 1.0)
    with pytest.raises(ValueError, match="p_prime"):
        field_check(lieb_check, f, f, FOURIER2, 2.5)
    with pytest.raises(ValueError, match="p_prime"):
        field_check(lieb_check, f, f, FOURIER2, 1.0)


def _unit_gaussian8():
    return normalized(gaussian(default_grid(8), 1.0))


@pytest.mark.parametrize("pp", [math.nan, math.inf])
def test_hausdorff_young_rejects_a_non_finite_exponent(pp):
    # NaN gave lhs NaN, inf a false failing margin
    with pytest.raises(ValueError, match="pp must be finite and >= 2"):
        hausdorff_young_check(_unit_gaussian8(), FOURIER2, pp)


@pytest.mark.parametrize("holder_p", [math.nan, math.inf])
def test_young_rejects_a_non_finite_holder_exponent(holder_p):
    f = _unit_gaussian8()
    with pytest.raises(ValueError, match="holder_p must be finite and >= 1"):
        field_check(young_sup_check, f, f, FOURIER2, holder_p)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
def test_heisenberg_rejects_a_moment_order_outside_its_domain(s):
    f = _unit_gaussian8()
    with pytest.raises(ValueError, match="positive and finite"):
        field_check(heisenberg_check, f, f, FOURIER2, s)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
def test_moment_concentration_rejects_a_moment_order_outside_its_domain(s):
    f = _unit_gaussian8()
    with pytest.raises(ValueError, match="positive and finite"):
        field_check(moment_concentration_check, f, f, FOURIER2, s)


def _disjoint_impulses8():
    """Unit impulses at opposite corners of an 8^2 grid: no translate of
    the window meets the signal, so the zero-padded Gabor field is 0."""
    grid = default_grid(8)
    return impulse(grid, (0, 0)), impulse(grid, (7, 7))


@pytest.mark.parametrize("method", ["fast", "direct"])
def test_heisenberg_rejects_a_vanishing_field(method):
    f, phi = _disjoint_impulses8()
    with pytest.raises(ValueError, match="zero Gabor field"):
        field_check(heisenberg_check, f, phi, FOURIER2, 1.0, method)


@pytest.mark.parametrize("method", ["fast", "direct"])
def test_moment_concentration_rejects_a_vanishing_field(method):
    f, phi = _disjoint_impulses8()
    with pytest.raises(ValueError, match="zero Gabor field"):
        field_check(moment_concentration_check, f, phi, FOURIER2, 1.0, method)


@pytest.mark.parametrize("pprime", [0.0, -1.0, math.nan, math.inf])
def test_field_stats_rejects_a_power_outside_its_domain(pprime):
    f = _unit_gaussian8()
    with pytest.raises(ValueError, match="positive and finite"):
        gabor_field_stats(f, f, FOURIER2, pprimes=(pprime,))


# ---------------------------------------------------------------------------
# young

def test_young_gaussian_margin():
    grid = default_grid(16)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    rep = field_check(young_sup_check, f, phi, FOURIER2, 2.0)
    assert rep.margin >= -1e-6


def test_young_scaling_invariance():
    grid = default_grid(16)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    base = field_check(young_sup_check, f, phi, FOURIER2, 2.0)
    scaled = field_check(young_sup_check, f.scaled(3.0), phi, FOURIER2, 2.0)
    assert scaled.lhs == pytest.approx(3.0 * base.lhs, rel=1e-12)
    assert scaled.rhs == pytest.approx(3.0 * base.rhs, rel=1e-12)
    assert abs(scaled.ratio / base.ratio - 1.0) <= 1e-12


def test_young_random_family_margins():
    rng = np.random.default_rng(52)
    grid = default_grid(8)
    phi = make_window(WindowSpec("gaussian", (0.8, 0.8)), grid)
    for _ in range(25):
        f = random_smooth(grid, rng)
        for hp in (2.0, 4.0):
            rep = field_check(young_sup_check, f, phi, FOURIER2, hp)
            assert rep.margin >= -1e-6


# ---------------------------------------------------------------------------
# hausdorff-young

def test_hausdorff_young_component_collapse_for_real_signal():
    grid = default_grid(16)
    f = gaussian(grid, 1.0)  # real scalar signal
    rep = hausdorff_young_check(f, FOURIER2, 2.0)
    F = qlct_forward_fast(f, FOURIER2)
    direct_lhs = float(np.sum(F.modulus()**2.0) * F.grid.cell_area)**(1 / 2.0)
    assert rep.lhs == pytest.approx(direct_lhs, rel=1e-12)


def test_hausdorff_young_family_and_scaling():
    grid = default_grid(16)
    f = gaussian_chirp(grid)
    ratios = []
    for pp in (2.0, 3.0, 4.0):
        rep = hausdorff_young_check(f, FOURIER2, pp)
        assert np.isfinite(rep.margin)
        ratios.append(rep.ratio)
    scaled = hausdorff_young_check(f.scaled(4.0), FOURIER2, 2.0)
    assert abs(scaled.ratio / ratios[0] - 1.0) <= 1e-10
    with pytest.raises(ValueError, match="pp"):
        hausdorff_young_check(f, FOURIER2, 1.5)


def test_hausdorff_young_notes_exactly_the_failed_printed_bounds():
    # the printed constant fails on the Gaussian at every p' up to 4 and
    # holds on a random quaternion signal at p' = 8
    grid = default_grid(16)
    failed = hausdorff_young_check(gaussian(grid, 1.0), FOURIER2, 2.0)
    held = hausdorff_young_check(random_quaternion_signal(grid, np.random.default_rng(1)),
                                 FOURIER2, 8.0)
    assert failed.ratio > 1.0 and "printed bound fails" in failed.notes
    assert held.ratio < 1.0 and held.notes == ""
    assert "notes" not in held.to_dict()


# ---------------------------------------------------------------------------
# concentration

def _unit_gaussian_field(n=16):
    """(f, table, stats): the unit Gaussian against itself, its |G|^2
    table and a pass keeping every cell, a full-capture request."""
    grid = Grid2D.centered(n, n, 8.0 / n, 8.0 / n)
    f = normalized(gaussian(grid, 1.0))
    return f, *oracles.abs_sq_table(f, f, FOURIER2)


def _table_stats(table, cv, capture, indices=()):
    """Stats of a pass over a made-up |G|^2 table: its energy, an exact
    windowed estimate and the cells the pass keeps for (capture, indices),
    picked by the pass's own `gabor._kept_cells`."""
    energy = float(np.sum(table)) * cv
    floor = gabor.cell_floor(energy, capture, table.size, cv)
    index, value = gabor._kept_cells(table, 0, floor, np.asarray(indices, np.int64))
    return {"cell_volume": cv, "table_shape": table.shape,
            "energy": energy, "windowed_energy": energy, "cell_capture": capture,
            "cell_index": index, "cell_value": value}


def test_abs_sq_table_is_the_dense_modulus_indexed_y_first():
    # a non-square grid under the generic params, so a swapped axis fails
    grid = Grid2D.centered(8, 6, 0.6, 0.5)
    f = random_quaternion_signal(grid, np.random.default_rng(54))
    phi = _quaternion_window(grid)
    p = PARAM_SETS["generic"]
    table, stats = oracles.abs_sq_table(f, phi, p)
    dense = modulus_sq(gabor_analyze(f, phi, p, 1))
    assert table.shape == dense.shape == stats["table_shape"] == (8, 6, 8, 6)
    assert gabor.table_geometry(grid, p) == (stats["table_shape"], stats["cell_volume"])
    np.testing.assert_allclose(table, dense, rtol=1e-13, atol=1e-15 * dense.max())
    # a pass with no cells request hands out none
    assert gabor_field_stats(f, phi, p)["cell_index"] is None


def test_kept_cells_are_the_tables_cells_in_flat_order():
    """A cell request keeps, with the table's bits and in flat order, the
    cells at or above its capture's floor and those at its indices."""
    grid = Grid2D.centered(8, 6, 0.6, 0.5)
    f = random_quaternion_signal(grid, np.random.default_rng(60))
    p = PARAM_SETS["generic"]
    wanted = [5, 2303, 77, 0, 1200]
    table, _ = oracles.abs_sq_table(f, _quaternion_window(grid), p)
    stats = gabor_field_stats(f, _quaternion_window(grid), p, cells=(0.3, wanted))
    flat = table.ravel()
    floor = gabor.cell_floor(stats["windowed_energy"], 0.3, flat.size, stats["cell_volume"])
    keep = flat >= floor
    keep[wanted] = True
    assert 0 < np.count_nonzero(flat >= floor) < flat.size // 2
    np.testing.assert_array_equal(stats["cell_index"], np.flatnonzero(keep))
    np.testing.assert_array_equal(stats["cell_value"], flat[keep])
    assert stats["cell_capture"] == 0.3
    assert stats["energy"] == pytest.approx(stats["windowed_energy"], rel=1e-12)
    with pytest.raises(ValueError, match="cell indices must lie in"):
        gabor_field_stats(f, f, p, cells=(None, [flat.size]))


def test_random_mask_draws_the_cells_of_the_dense_order():
    """A seed draws cells by flat index over the table's (y1, y2, omega1,
    omega2), the order the dense field is stored in, before any pass."""
    grid = Grid2D.centered(8, 6, 0.6, 0.5)
    shape, cv = gabor.table_geometry(grid, FOURIER2)
    mask = random_mask(math.prod(shape), cv, 400.0, np.random.default_rng(55))
    dense = np.zeros(8 * 6 * 8 * 6, dtype=bool)
    dense[np.random.default_rng(55).choice(dense.size, size=round(400.0 / cv),
                                           replace=False)] = True
    assert 100 < np.count_nonzero(dense) < dense.size // 2
    np.testing.assert_array_equal(mask, np.flatnonzero(dense))
    f = normalized(gaussian(grid, 1.0))
    stats = gabor_field_stats(f, f, FOURIER2, cells=(None, mask))
    assert mask_measure(stats, mask) == np.count_nonzero(dense) * cv
    table, _ = oracles.abs_sq_table(f, f, FOURIER2)
    np.testing.assert_array_equal(stats["cell_value"], table.ravel()[mask])


def test_random_mask_keeps_numpys_floyd_draws_and_draws_more_in_its_own_size():
    """Up to n // 50 cells of a table over 10 000, numpy draws by Floyd's
    algorithm and the mask is that draw; a larger one holds no array of
    every cell, yet is as many distinct cells, drawn or left out."""
    n = 32**4
    floyd = random_mask(n, 1.0, n // 50, np.random.default_rng(61))
    np.testing.assert_array_equal(
        floyd, np.sort(np.random.default_rng(61).choice(n, size=n // 50, replace=False)))
    for count in (n // 50 + 1, 21_181, n // 2, n // 2 + 1, n - 3, n):
        mask = random_mask(n, 1.0, count, np.random.default_rng(62))
        assert len(mask) == count and mask[0] >= 0 and mask[-1] < n
        assert np.all(np.diff(mask) > 0)
    # a 21,181-cell 32^2 mask (measure 817): numpy's permutation peaked at 9.16 MiB
    shape, cv = gabor.table_geometry(default_grid(32), FOURIER2)
    tracemalloc.start()
    try:
        mask = random_mask(math.prod(shape), cv, 21_181 * cv, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mask) == 21_181
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_random_mask_beyond_floyd_is_uniform_over_the_cells():
    """Each cell of a 20 000-cell table is drawn about count/n of the
    time, in the drawn and in the left-out (complement) regime."""
    n, trials = 20_000, 40
    rng = np.random.default_rng(63)
    for count in (2_000, 15_000):
        hits = np.zeros(n)
        for _ in range(trials):
            hits[random_mask(n, 1.0, count, rng)] += 1
        expected = trials * count / n
        # a binomial count per cell, pooled over 1 000-cell bands
        bands = hits.reshape(20, -1).sum(axis=1)
        assert np.all(np.abs(bands - 1000 * expected) < 6 * math.sqrt(1000 * expected))


def test_greedy_mask_takes_the_argsort_count_of_largest_cells():
    f, table, stats = _unit_gaussian_field()
    cv = stats["cell_volume"]
    flat = table.ravel()
    order = np.argsort(flat)[::-1]
    csum = np.cumsum(flat[order]) * cv
    for capture in (0.5, 0.9, 0.999):
        k = int(np.searchsorted(csum, capture - 1e-12)) + 1
        mask = greedy_minimal_mask(stats, capture)
        assert len(mask) == k and np.all(np.diff(mask) > 0)
        chosen = np.zeros(flat.size, bool)
        chosen[mask] = True
        assert flat[chosen].min() >= flat[~chosen].max()
    with pytest.raises(ValueError, match="cannot capture"):
        greedy_minimal_mask(stats, 1.5)


def _random_tables(seed, count):
    """(table, cv, capture) of random tables of cell volume cv with a
    random dynamic range, a fifth of them flat, each asked a capture below
    its energy."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        shape = tuple(rng.integers(1, 7, size=4))
        table = rng.random(shape)**rng.uniform(1.0, 40.0) if k % 5 else np.full(shape, 0.25)
        cv = rng.uniform(0.01, 2.0)
        capture = rng.uniform(0.0, 1.0) * np.sum(table) * cv
        yield table, cv, capture


def test_greedy_mask_takes_the_sorting_oracles_count_and_measure():
    """The same cells, hence the same k and measure, as the whole-table
    sort, on random tables of any dynamic range."""
    for table, cv, capture in _random_tables(57, 300):
        stats = _table_stats(table, cv, capture)
        mask, ref = greedy_minimal_mask(stats, capture), oracles.greedy_minimal_mask(table, cv, capture)
        np.testing.assert_array_equal(mask, np.flatnonzero(ref))
        assert mask_measure(stats, mask) == np.count_nonzero(ref) * cv


def test_greedy_mask_takes_ties_at_the_boundary_in_flat_order():
    table = np.zeros((3, 2, 4, 5))
    table.reshape(-1)[[7, 30, 41, 55, 98, 119]] = 1.0
    table.reshape(-1)[77] = 2.0
    stats = _table_stats(table, 0.5, 2.0)
    # the 2.0 cell and two of the tied 1.0 cells capture 2.0
    mask = greedy_minimal_mask(stats, 2.0)
    np.testing.assert_array_equal(np.flatnonzero(oracles.greedy_minimal_mask(table, 0.5, 2.0)),
                                  [7, 30, 77])
    np.testing.assert_array_equal(mask, [7, 30, 77])


def test_greedy_mask_refuses_what_the_oracle_refuses():
    rng = np.random.default_rng(58)
    zero = np.zeros((4, 3, 4, 3))
    for table, cv, capture in ((zero, 0.3, 0.5), (rng.random((5, 4, 3, 2)), 0.7, 1e3)):
        with pytest.raises(ValueError, match="cannot capture") as got:
            greedy_minimal_mask(_table_stats(table, cv, capture), capture)
        with pytest.raises(ValueError) as want:
            oracles.greedy_minimal_mask(table, cv, capture)
        assert str(got.value) == str(want.value)
    # a capture of nothing is the largest cell, the first in flat order on a zero table
    np.testing.assert_array_equal(greedy_minimal_mask(_table_stats(zero, 0.3, 0.0), 0.0), [0])


def test_greedy_mask_refuses_a_pass_that_cannot_promise_the_largest_cells():
    """A pass whose floor is above this capture's, or whose energy falls
    short of the estimate its floor was set from, raises ValueError."""
    f = _unit_gaussian8()
    stats = gabor_field_stats(f, f, FOURIER2, cells=(0.5, ()))
    greedy_minimal_mask(stats, 0.5)
    greedy_minimal_mask(stats, 0.25)
    with pytest.raises(ValueError, match="kept no cells down to the floor of a capture of 0.9"):
        greedy_minimal_mask(stats, 0.9)
    with pytest.raises(ValueError, match="kept no cells down to the floor"):
        greedy_minimal_mask(gabor_field_stats(f, f, FOURIER2, cells=(None, [1, 2])), 0.5)
    short = dict(stats, energy=stats["windowed_energy"] * (1.0 - 2e-6))
    with pytest.raises(ValueError, match="below its windowed estimate"):
        greedy_minimal_mask(short, 0.5)


def test_greedy_mask_holds_at_most_one_copy_of_a_flat_table():
    """Every cell of a flat table is at the floor, so the pass keeps them
    all, and the mask costs one copy of their values and the mask."""
    stats = _table_stats(np.full((32, 32, 32, 32), 2.0**-20), 1.0, 0.5)
    n = stats["cell_value"].size
    assert n == 32**4
    tracemalloc.start()
    try:
        mask = greedy_minimal_mask(stats, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(mask, np.arange(n // 2))
    assert peak <= 1.25 * stats["cell_value"].nbytes, f"peak {peak / 2**20:.2f} MiB"


def _ties_field():
    """A single-cell signal against a constant window on 8^2: every
    translation that meets it windows the same samples, so its |G|^2
    rows repeat bit for bit, each flat at 1/64, and every value is tied."""
    grid = default_grid(8)
    cell = np.zeros((8, 8, 4))
    cell[3, 4, 0] = 1.0
    return QSignal2D(grid, cell), QSignal2D(grid, np.ones((8, 8, 4)) * [1.0, 0, 0, 0])


def _oracle_fields():
    """(name, f, phi, p) of the fields the cell masks are checked on."""
    grid16 = default_grid(16)
    verify = cli._unit_gaussian(default_grid(32))
    return [("verify-gaussian", verify, verify, FOURIER2),
            ("random-quaternion-16", random_quaternion_signal(grid16, np.random.default_rng(64)),
             _quaternion_window(grid16), PARAM_SETS["generic"]),
            ("ties", *_ties_field(), FOURIER2)]


@pytest.mark.parametrize("name, f, phi, p", _oracle_fields(), ids=lambda v: v
                         if isinstance(v, str) else "")
def test_cell_masks_are_the_table_oracles_bit_for_bit(name, f, phi, p):
    """On real passes, the random and greedy masks read from the kept
    cells are the table oracles' cells, with the same k, measure, captured
    energy and a complement energy within rounding of the table's."""
    shape, cv = gabor.table_geometry(f.grid, p)
    masks = {m: random_mask(math.prod(shape), cv, m, np.random.default_rng(65))
             for m in (0.05, 0.25, 0.5)}
    energy = gabor_field_stats(f, phi, p)["energy"]
    captures = (0.0, 0.5 * energy, 0.9 * energy)
    union = np.unique(np.concatenate(list(masks.values())))
    stats = gabor_field_stats(f, phi, p, cells=(max(captures), union))
    table, _ = oracles.abs_sq_table(f, phi, p)
    if name == "verify-gaussian":  # a concentrated field keeps few cells
        assert len(stats["cell_index"]) < table.size // 20
    for m, mask in masks.items():
        ref = oracles.random_mask(table, cv, m, np.random.default_rng(65))
        np.testing.assert_array_equal(mask, np.flatnonzero(ref))
        if mask_measure(stats, mask) < 1.0:
            comp = concentration_check(stats, mask).params["complement_energy"]
            assert comp == pytest.approx(float(np.sum(table[~ref]) * cv), rel=1e-12)
    for capture in captures:
        mask = greedy_minimal_mask(stats, capture)
        ref = oracles.greedy_minimal_mask(table, cv, capture)
        np.testing.assert_array_equal(mask, np.flatnonzero(ref))
        assert mask_measure(stats, mask) == np.count_nonzero(ref) * cv
        captured = epsilon_concentration_check(stats, mask, 1.0).params["captured"]
        assert captured == float(np.sum(table[ref]) * cv)
    if name == "ties":
        value = table.ravel()[greedy_minimal_mask(stats, 0.5 * energy)[-1]]
        assert np.count_nonzero(table == value) > 1
    # capture 0 is the largest cell
    assert greedy_minimal_mask(stats, 0.0)[0] == np.argmax(table)
    over = 1.5 * energy
    with pytest.raises(ValueError, match="cannot capture") as got:
        greedy_minimal_mask(gabor_field_stats(f, phi, p, cells=(over, ())), over)
    with pytest.raises(ValueError) as want:
        oracles.greedy_minimal_mask(table, cv, over)
    assert str(got.value) == str(want.value)


def test_cell_masks_are_the_table_oracles_on_a_flat_table():
    """A flat table, every cell tied, takes its cells in flat order."""
    table = np.full((6, 5, 6, 5), 0.125)
    for capture in (0.0, 0.3, 7.0):
        stats = _table_stats(table, 0.2, capture)
        mask = greedy_minimal_mask(stats, capture)
        np.testing.assert_array_equal(
            mask, np.flatnonzero(oracles.greedy_minimal_mask(table, 0.2, capture)))
        np.testing.assert_array_equal(mask, np.arange(len(mask)))


def test_complement_energy_is_the_gathered_complements():
    f, table, stats = _unit_gaussian_field()
    cv = stats["cell_volume"]
    rng = np.random.default_rng(59)
    masks = [random_mask(table.size, cv, m, rng) for m in (0.25, 0.5, 0.9)]
    masks.append(np.sort(np.argsort(table.ravel())[-int(0.9 / cv):]))
    for mask in masks:
        comp = concentration_check(stats, mask).params["complement_energy"]
        rest = np.ones(table.size, bool)
        rest[mask] = False
        assert comp == pytest.approx(float(np.sum(table.ravel()[rest]) * cv), rel=1e-12)


def test_mask_readers_need_the_cells():
    f = _unit_gaussian8()
    stats = gabor_field_stats(f, f, FOURIER2, s_values=(1.0,))
    mask = np.arange(8)
    for read in (lambda: greedy_minimal_mask(stats, 0.5),
                 lambda: mask_measure(stats, mask),
                 lambda: concentration_check(stats, mask),
                 lambda: epsilon_concentration_check(stats, mask, 0.5)):
        with pytest.raises(ValueError, match=re.escape("cells=(capture, indices)")):
            read()
    kept = gabor_field_stats(f, f, FOURIER2, cells=(None, [3, 9]))
    mask_measure(kept, [3, 9])
    for mask in ([3, 4], [2], [9, 4096]):
        with pytest.raises(ValueError, match="the pass kept no cell"):
            mask_measure(kept, mask)


def test_concentration_single_tiny_cell_margin_near_zero():
    # as the measure shrinks the bound degenerates to Plancherel, so the
    # margin is O(cell volume)
    f, _, stats = _unit_gaussian_field()
    mask = np.array([0])
    rep = concentration_check(stats, mask)
    assert abs(rep.margin) <= mask_measure(stats, mask) == stats["cell_volume"]


def test_concentration_random_masks():
    rng = np.random.default_rng(53)
    f, _, stats = _unit_gaussian_field()
    for m in (0.25, 0.5, 0.9):
        mask = random_mask(math.prod(stats["table_shape"]), stats["cell_volume"], m, rng)
        assert 0 < mask_measure(stats, mask) < 1
        rep = concentration_check(stats, mask)
        assert rep.margin >= -1e-6


def test_concentration_peak_mask_still_holds():
    # a mask sitting right on the energy peak with measure near 0.9
    f, table, stats = _unit_gaussian_field(32)
    cv = stats["cell_volume"]
    k = int(0.9 / cv)
    mask = np.sort(np.argsort(table.ravel())[::-1][:k])
    assert 0.5 <= mask_measure(stats, mask) < 1.0
    rep = concentration_check(stats, mask)
    assert rep.margin >= -1e-6


def test_concentration_rejects_measure_out_of_range():
    f, table, stats = _unit_gaussian_field(8)
    full = np.arange(table.size)
    with pytest.raises(ValueError, match="measure"):
        concentration_check(stats, full)


def test_epsilon_concentration_greedy_masks():
    f, _, stats = _unit_gaussian_field()
    measures = {}
    for eps in (0.5, 0.1):
        mask = greedy_minimal_mask(stats, 1.0 - eps)
        rep = epsilon_concentration_check(stats, mask, eps)
        assert rep.margin >= 0
        assert rep.rhs == mask_measure(stats, mask)
        measures[eps] = rep.rhs
    assert measures[0.1] >= measures[0.5]


def test_epsilon_concentration_trivial_and_hypothesis():
    f, _, stats = _unit_gaussian_field(8)
    tiny = np.array([0])
    rep = epsilon_concentration_check(stats, tiny, 1.0)
    assert rep.lhs == 0.0 and rep.margin >= 0
    with pytest.raises(ValueError, match="hypothesis"):
        epsilon_concentration_check(stats, tiny, 0.1)


def test_moment_concentration_single_cell_closed_form():
    value = np.array([0.0, 0.0, 0.6, 0.0])
    G = single_cell_field((1, 1), (2, 6), value)
    s = 1.0
    mj = moment(G, "joint", s)
    w1 = G.omega_grid.coords1()[1]
    w2 = G.omega_grid.coords2()[1]
    y1 = G.y_grid.coords1()[2]
    y2 = G.y_grid.coords2()[6]
    r2 = w1**2 + w2**2 + y1**2 + y2**2
    # with ||f|| ||phi|| = 1 the empirical constant is 1/(r^s |v| sqrt(cellvol))
    emp = 1.0 / math.sqrt(mj)
    assert emp == pytest.approx(1.0 / (r2**(s / 2) * 0.6 * math.sqrt(cell_volume(G))),
                                rel=1e-12)


def test_moment_concentration_check_stability():
    consts = []
    for n in (16, 32):
        grid = default_grid(n)
        f = normalized(gaussian(grid, 1.0))
        rep = field_check(moment_concentration_check, f, f, FOURIER2, 1.0)
        assert rep.empirical_constant > 0
        consts.append(rep.empirical_constant)
    assert abs(consts[0] / consts[1] - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# report plumbing

def test_report_margin_ratio_consistency():
    reports = [
        lower_bound("a", 3.0, 2.0),
        upper_bound("b", 2.0, 3.0),
        equality("c", 1.5, 1.5000001),
        equality("zero", 0.0, 0.0),
    ]
    for rep in reports:
        assert abs(abs(rep.margin) - abs(rep.lhs - rep.rhs)) <= 1e-12
        if rep.rhs != 0:
            assert rep.ratio * rep.rhs == pytest.approx(rep.lhs, abs=1e-12)
        else:
            assert rep.ratio == 1.0


def test_report_serialization_roundtrip():
    import json
    reports = [lower_bound("a", 3.0, 2.0, empirical_constant=1.5,
                           params={"s": 1.0, "arr": np.float64(2.0)},
                           grid={"n1": 4}, seed=7)]
    text = encoded(reports_to_json, reports)
    parsed = json.loads(text)
    assert parsed[0]["name"] == "a"
    assert parsed[0]["params"]["arr"] == 2.0
    assert parsed[0]["seed"] == 7
    csv_text = encoded(reports_to_csv, reports)
    assert csv_text.splitlines()[0].startswith("name,lhs,rhs")
    assert len(csv_text.splitlines()) == 2
    # deterministic
    assert encoded(reports_to_json, reports) == text
    assert encoded(reports_to_csv, reports) == csv_text


def test_mask_measure_is_the_count_times_the_table_cell_volume():
    f, _, stats = _unit_gaussian_field(8)
    mask = np.ravel_multi_index(([0, 1], [0, 2], [0, 3], [0, 4]), stats["table_shape"])
    assert mask_measure(stats, mask) == 2 * stats["cell_volume"]


@pytest.mark.parametrize("shape", [(8, 8), (8, 8, 8), (8, 8, 8, 4), (4, 8, 8, 8),
                                   (8, 8, 8, 8, 1)])
@pytest.mark.parametrize("check", [
    lambda stats, mask: concentration_check(stats, mask),
    lambda stats, mask: epsilon_concentration_check(stats, mask, 1.0),
], ids=["concentration", "eps-concentration"])
def test_concentration_checks_refuse_a_mask_not_shaped_like_the_table(check, shape):
    """A mask is a 1-D array of flat indices; an array shaped like a table,
    or like anything else, is refused."""
    f, _, stats = _unit_gaussian_field(8)
    assert stats["table_shape"] == (8, 8, 8, 8)
    mask = np.zeros(shape, dtype=bool)
    mask.flat[0] = True
    with pytest.raises(ValueError, match="strictly increasing 1-D array of flat"):
        check(stats, mask)


@pytest.mark.parametrize("mask", [np.array([0.0, 3.0]), np.array([True, False]),
                                  np.array([3, 1]), np.array([1, 1]), np.array([[1, 2]])],
                         ids=["float", "boolean", "unsorted", "repeated", "2-d"])
def test_mask_measure_refuses_a_mask_that_is_not_sorted_flat_indices(mask):
    f, _, stats = _unit_gaussian_field(8)
    with pytest.raises(ValueError, match="strictly increasing 1-D array of flat"):
        mask_measure(stats, mask)


@pytest.mark.parametrize("check", [
    lambda f, phi: field_check(heisenberg_check, f, phi, FOURIER2, 1.0),
    lambda f, phi: field_check(log_check, f, phi, FOURIER2),
    lambda f, phi: lemma_log_identity_check(f, phi, FOURIER2),
    lambda f, phi: field_check(lieb_check, f, phi, FOURIER2, 1.5),
    lambda f, phi: field_check(young_sup_check, f, phi, FOURIER2, 2.0),
    lambda f, phi: field_check(moment_concentration_check, f, phi, FOURIER2, 1.0),
    lambda f, phi: field_check(gabor_plancherel_check, f, phi, FOURIER2),
], ids=["heisenberg", "log", "lemma-log", "lieb", "young",
        "moment-concentration", "gabor-plancherel"])
def test_gabor_checks_reject_a_window_on_another_spacing(check):
    f = gaussian(Grid2D.centered(16, 16, 0.5, 0.5), 1.0)
    phi = gaussian(Grid2D.centered(16, 16, 0.25, 0.25), 1.0)
    with pytest.raises(GridMismatchError):
        check(f, phi)
