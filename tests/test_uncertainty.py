import math

import numpy as np
import pytest
import scipy.special

from qlct.families import (PARAM_SETS, default_grid, dilated_gaussian,
                           gaussian, gaussian_chirp, impulse, normalized,
                           random_quaternion_signal, random_smooth)
from qlct.gabor import (GaborCoefficients, gabor_analyze, gabor_plancherel_check,
                        translation_grid)
from qlct.qlct2d import _fast_plan, _two_sided_fast, forward_grid, qlct_forward_fast
from qlct.quat import from_complex_pair, qabs_sq, qconj, qmul, to_complex_pair
from qlct.report import (equality, lower_bound, reports_to_csv,
                         reports_to_json, upper_bound)
from qlct.signal import (Grid2D, GridMismatchError, QSignal2D, WindowSpec,
                         make_window, translate)
from qlct import uncertainty
from qlct.uncertainty import (D_LOG, RegionMask, amgm_dilation_identity,
                              concentration_check, epsilon_concentration_check,
                              field_memo, gabor_field_stats,
                              greedy_minimal_mask, hausdorff_young_check,
                              heisenberg_check, lemma_log_identity_check,
                              lieb_check, log_check, memo_field_stats,
                              memo_gabor_analyze, moment,
                              moment_concentration_check, random_mask,
                              young_sup_check)

FOURIER2 = PARAM_SETS["fourier"]


def single_cell_field(omega_index, y_index, value, n=8, dx=0.5):
    grid = Grid2D.centered(n, n, dx, dx)
    og = Grid2D.centered(n, n, 2 * np.pi / (n * dx), 2 * np.pi / (n * dx))
    yg = Grid2D(n, n, dx, dx, -(n // 2) * dx, -(n // 2) * dx)
    coeffs = np.zeros((n, n, n, n, 4))
    coeffs[omega_index + y_index] = value
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
    cellvol = G.cell_volume
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
    energy = float(np.sum(G.coeffs * G.coeffs) * G.cell_volume)
    assert stats["energy"] == pytest.approx(energy, rel=1e-12)
    assert stats["moment_omega"][1.0] == pytest.approx(moment(G, "omega", 1.0),
                                                       rel=1e-12)
    assert stats["moment_y"][1.0] == pytest.approx(moment(G, "y", 1.0), rel=1e-12)
    assert stats["moment_joint"][1.0] == pytest.approx(moment(G, "joint", 1.0),
                                                       rel=1e-12)
    assert stats["max_abs"] == pytest.approx(np.sqrt(G.modulus_sq().max()),
                                             rel=1e-14)
    mod = np.sqrt(G.modulus_sq())
    assert stats["power_sums"][1.5] == pytest.approx(
        float(np.sum(mod**1.5)) * G.cell_volume, rel=1e-12)


def test_streamed_stats_keep_the_qabs_sq_summation_order():
    """Energy and moments bit-equal to a reference that windows with qmul,
    splits the product into its halves, transforms them and reads
    |G|^2 = 2(|P|^2 + |M|^2) with qabs_sq, so a real window's stats keep
    the order the seed-0 verify report was pinned with."""
    grid = default_grid(32)
    f = random_quaternion_signal(grid, np.random.default_rng(70))
    phi = normalized(gaussian(grid, 1.0))
    s_values = (0.5, 1.0)
    stats = gabor_field_stats(f, phi, FOURIER2, s_values=s_values)

    og = forward_grid(grid, FOURIER2)
    yg = translation_grid(grid)
    w1, w2 = og.meshgrid()
    omega_r2 = w1**2 + w2**2
    y1, y2 = yg.coords1(), yg.coords2()
    energy = 0.0
    mo = dict.fromkeys(s_values, 0.0)
    my = dict.fromkeys(s_values, 0.0)
    mj = dict.fromkeys(s_values, 0.0)
    for i1 in range(yg.n1):
        shifted = np.stack([translate(phi, (y1[i1], y2[i2])).samples
                            for i2 in range(yg.n2)])
        ga, gb = to_complex_pair(qmul(f.samples[None], qconj(shifted)))
        igb = 1j * gb
        P, M = _two_sided_fast(_fast_plan(FOURIER2, *grid.axes), ga + igb, ga - igb)
        mod2 = 2 * qabs_sq(from_complex_pair(P, M))
        energy += float(mod2.sum())
        y_r2 = (y1[i1]**2 + y2**2)[:, None, None]
        for s in s_values:
            mo[s] += float((omega_r2[None]**s * mod2).sum())
            my[s] += float((y_r2**s * mod2).sum())
            mj[s] += float(((omega_r2[None] + y_r2)**s * mod2).sum())
    cellvol = og.cell_area * yg.cell_area
    assert stats["energy"] == energy * cellvol
    for s in s_values:
        assert stats["moment_omega"][s] == mo[s] * cellvol
        assert stats["moment_y"][s] == my[s] * cellvol
        assert stats["moment_joint"][s] == mj[s] * cellvol


# ---------------------------------------------------------------------------
# run-scoped field memo

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
    with field_memo():
        for k, (sig, win, p, kw) in enumerate(requests, start=1):
            memo_field_stats(sig, win, p, s_values=(1.0,), **kw)
            assert len(passes) == k
        for sig, win, p, kw in requests:
            memo_field_stats(sig, win, p, s_values=(1.0,), **kw)
    assert len(passes) == len(requests)


def test_memo_serves_each_request_bit_equal_to_a_fresh_pass(passes):
    """Each distinct request of one field is its own pass, a repeat is
    served from its entry, and no entry is replaced."""
    grid = default_grid(8)
    f = random_smooth(grid, np.random.default_rng(80))
    phi = normalized(gaussian(grid, 1.0))
    requests = [{"s_values": (1.0,)}, {"pprimes": (1.5,), "log_omega": True},
                {"s_values": (1.0,), "pprimes": (1.5,)}, {"log_omega": True}, {}]
    with field_memo():
        first = [memo_field_stats(f, phi, FOURIER2, **kw) for kw in requests]
        assert passes == requests
        served = [memo_field_stats(f, phi, FOURIER2, **kw) for kw in requests]
        assert passes == requests
    assert all(got is entry for got, entry in zip(served, first))
    for got, kw in zip(served, requests):
        want = gabor_field_stats(f, phi, FOURIER2, **kw)
        assert sorted(got) == sorted(want)
        for key in ("energy", "max_abs", "log_omega_sum", "cell_volume"):
            assert got[key] == want[key], (kw, key)
        for key in ("moment_omega", "moment_y", "moment_joint", "power_sums"):
            assert got[key] == want[key], (kw, key)


def test_checks_outside_a_memo_scope_each_make_one_pass(passes):
    grid = default_grid(8)
    f = normalized(gaussian(grid, 1.0))
    calls = [lambda: heisenberg_check(f, f, FOURIER2, 1.0),
             lambda: moment_concentration_check(f, f, FOURIER2, 1.0),
             lambda: log_check(f, f, FOURIER2),
             lambda: lieb_check(f, f, FOURIER2, 1.5),
             lambda: young_sup_check(f, f, FOURIER2, 2.0)]
    for call in calls + calls:
        call()
    assert len(passes) == 2 * len(calls)
    with field_memo():
        for call in calls + calls:
            call()
    # one pass per distinct request: s = 1 (shared by the first two checks),
    # ln|omega|, p' = 1.5 and young's empty request
    assert len(passes) == 2 * len(calls) + 4


def test_memo_gabor_analyze_builds_each_field_once_per_scope():
    grid = default_grid(8)
    f = normalized(gaussian(grid, 1.0))
    assert memo_gabor_analyze(f, f, FOURIER2) is not memo_gabor_analyze(f, f, FOURIER2)
    with field_memo():
        G = memo_gabor_analyze(f, f, FOURIER2)
        assert memo_gabor_analyze(f, f, FOURIER2) is G
        assert not G.coeffs.flags.writeable
        assert memo_gabor_analyze(f, f, FOURIER2, method="direct") is not G
        with pytest.raises(TypeError):
            memo_gabor_analyze(f, f, FOURIER2, 2)
        assert np.array_equal(G.coeffs, gabor_analyze(f, f, FOURIER2, 1).coeffs)
    assert memo_gabor_analyze(f, f, FOURIER2) is not G


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
    rep = heisenberg_check(f, f, FOURIER2, 1.0)
    assert rep.empirical_constant > 0
    assert rep.params["amgm_rel_err"] <= 1e-10
    assert rep.lhs == pytest.approx(
        math.sqrt(rep.params["moment_omega"] * rep.params["moment_y"]),
        rel=1e-12)
    zero = QSignal2D(grid, np.zeros((16, 16, 4)))
    with pytest.raises(ValueError, match="zero"):
        heisenberg_check(zero, f, FOURIER2, 1.0)


def test_heisenberg_dilation_invariance():
    grid = default_grid(32)
    consts = []
    for t in (0.5, 1.0, 2.0):
        f = normalized(dilated_gaussian(grid, t))
        rep = heisenberg_check(f, f, FOURIER2, 1.0)
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
        rep = log_check(f, phi, FOURIER2)
        assert rep.margin >= -1e-3
        assert rep.params["ln_b"] == 0.0


def test_log_check_rejects_degenerate_axis():
    grid = default_grid(16)
    f = gaussian(grid, 1.0)
    from qlct.lct1d import LCTParams
    from qlct.qlct2d import QLCTParams
    p = QLCTParams(LCTParams(1.0, 0.0, 0.5, 1.0), PARAM_SETS["fourier"].A2)
    with pytest.raises(ValueError, match="b != 0"):
        log_check(f, f, p)


def test_log_check_rejects_grid_with_origin_sample():
    # an odd grid with x0 = -(n//2) dx puts a sample exactly at the origin
    g = Grid2D(9, 9, 0.5, 0.5, -2.0, -2.0)
    vals = np.zeros((9, 9, 4))
    vals[..., 0] = 1.0
    f = QSignal2D(g, vals)
    with pytest.raises(ValueError, match="origin"):
        log_check(f, f, FOURIER2)


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
    rep = lieb_check(f, phi, FOURIER2, 2.0)
    # the p' = 2 power integral IS the Gabor energy, exactly
    plan = gabor_plancherel_check(f, phi, FOURIER2)
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
    base = lieb_check(f, phi, FOURIER2, 1.5)
    scaled = lieb_check(f.scaled(2.0), phi, FOURIER2, 1.5)
    assert scaled.lhs == pytest.approx(2.0**1.5 * base.lhs, rel=1e-12)
    assert abs(scaled.empirical_constant / base.empirical_constant - 1.0) <= 1e-10
    both = lieb_check(f.scaled(2.0), phi.scaled(0.3), FOURIER2, 1.5)
    assert abs(both.empirical_constant / base.empirical_constant - 1.0) <= 1e-10


def test_lieb_rejects_bad_exponent():
    grid = default_grid(8)
    f = gaussian(grid, 1.0)
    with pytest.raises(ValueError, match="p_prime"):
        lieb_check(f, f, FOURIER2, 2.5)
    with pytest.raises(ValueError, match="p_prime"):
        lieb_check(f, f, FOURIER2, 1.0)


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
        young_sup_check(f, f, FOURIER2, holder_p)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
def test_heisenberg_rejects_a_moment_order_outside_its_domain(s):
    f = _unit_gaussian8()
    with pytest.raises(ValueError, match="positive and finite"):
        heisenberg_check(f, f, FOURIER2, s)


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
def test_moment_concentration_rejects_a_moment_order_outside_its_domain(s):
    f = _unit_gaussian8()
    with pytest.raises(ValueError, match="positive and finite"):
        moment_concentration_check(f, f, FOURIER2, s)


def _disjoint_impulses8():
    """Unit impulses at opposite corners of an 8^2 grid: no translate of
    the window meets the signal, so the zero-padded Gabor field is 0."""
    grid = default_grid(8)
    return impulse(grid, (0, 0)), impulse(grid, (7, 7))


@pytest.mark.parametrize("method", ["fast", "direct"])
def test_heisenberg_rejects_a_vanishing_field(method):
    f, phi = _disjoint_impulses8()
    with pytest.raises(ValueError, match="zero Gabor field"):
        heisenberg_check(f, phi, FOURIER2, 1.0, method)


@pytest.mark.parametrize("method", ["fast", "direct"])
def test_moment_concentration_rejects_a_vanishing_field(method):
    f, phi = _disjoint_impulses8()
    with pytest.raises(ValueError, match="zero Gabor field"):
        moment_concentration_check(f, phi, FOURIER2, 1.0, method)


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
    rep = young_sup_check(f, phi, FOURIER2, 2.0)
    assert rep.margin >= -1e-6


def test_young_scaling_invariance():
    grid = default_grid(16)
    f = gaussian(grid, 1.0)
    phi = make_window(WindowSpec("gaussian", (1.0, 1.0)), grid)
    base = young_sup_check(f, phi, FOURIER2, 2.0)
    scaled = young_sup_check(f.scaled(3.0), phi, FOURIER2, 2.0)
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
            rep = young_sup_check(f, phi, FOURIER2, hp)
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


# ---------------------------------------------------------------------------
# concentration

def _unit_gaussian_field(n=16):
    grid = Grid2D.centered(n, n, 8.0 / n, 8.0 / n)
    f = normalized(gaussian(grid, 1.0))
    return f, gabor_analyze(f, f, FOURIER2, 1)


def test_concentration_single_tiny_cell_margin_near_zero():
    # as the measure shrinks the bound degenerates to Plancherel, so the
    # margin is O(cell volume)
    f, G = _unit_gaussian_field()
    mask = np.zeros(G.coeffs.shape[:4], dtype=bool)
    mask[0, 0, 0, 0] = True
    rm = RegionMask(mask, G.cell_volume)
    rep = concentration_check(G, rm, 1.0, 1.0)
    assert abs(rep.margin) <= rm.measure


def test_concentration_random_masks():
    rng = np.random.default_rng(53)
    f, G = _unit_gaussian_field()
    for m in (0.25, 0.5, 0.9):
        mask = random_mask(G, m, rng)
        assert 0 < mask.measure < 1
        rep = concentration_check(G, mask, 1.0, 1.0)
        assert rep.margin >= -1e-6


def test_concentration_peak_mask_still_holds():
    # a mask sitting right on the energy peak with measure near 0.9
    f, G = _unit_gaussian_field(32)
    cv = G.cell_volume
    k = int(0.9 / cv)
    order = np.argsort(G.modulus_sq().ravel())[::-1][:k]
    flat = np.zeros(G.coeffs.size // 4, dtype=bool)
    flat[order] = True
    mask = RegionMask(flat.reshape(G.coeffs.shape[:4]), cv)
    assert 0.5 <= mask.measure < 1.0
    rep = concentration_check(G, mask, 1.0, 1.0)
    assert rep.margin >= -1e-6


def test_concentration_rejects_measure_out_of_range():
    f, G = _unit_gaussian_field(8)
    full = RegionMask(np.ones(G.coeffs.shape[:4], dtype=bool), G.cell_volume)
    with pytest.raises(ValueError, match="measure"):
        concentration_check(G, full, 1.0, 1.0)


def test_epsilon_concentration_greedy_masks():
    f, G = _unit_gaussian_field()
    measures = {}
    for eps in (0.5, 0.1):
        mask = greedy_minimal_mask(G, 1.0 - eps)
        rep = epsilon_concentration_check(G, mask, eps)
        assert rep.margin >= 0
        measures[eps] = mask.measure
    assert measures[0.1] >= measures[0.5]


def test_epsilon_concentration_trivial_and_hypothesis():
    f, G = _unit_gaussian_field(8)
    tiny = np.zeros(G.coeffs.shape[:4], dtype=bool)
    tiny[0, 0, 0, 0] = True
    rep = epsilon_concentration_check(G, RegionMask(tiny, G.cell_volume), 1.0)
    assert rep.lhs == 0.0 and rep.margin >= 0
    with pytest.raises(ValueError, match="hypothesis"):
        epsilon_concentration_check(G, RegionMask(tiny, G.cell_volume), 0.1)


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
    assert emp == pytest.approx(1.0 / (r2**(s / 2) * 0.6 * math.sqrt(G.cell_volume)),
                                rel=1e-12)


def test_moment_concentration_check_stability():
    consts = []
    for n in (16, 32):
        grid = default_grid(n)
        f = normalized(gaussian(grid, 1.0))
        rep = moment_concentration_check(f, f, FOURIER2, 1.0)
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
    text = reports_to_json(reports)
    parsed = json.loads(text)
    assert parsed[0]["name"] == "a"
    assert parsed[0]["params"]["arr"] == 2.0
    assert parsed[0]["seed"] == 7
    csv_text = reports_to_csv(reports)
    assert csv_text.splitlines()[0].startswith("name,lhs,rhs")
    assert len(csv_text.splitlines()) == 2
    # deterministic
    assert reports_to_json(reports) == text
    assert reports_to_csv(reports) == csv_text


def test_region_mask_measure():
    mask = np.zeros((2, 2, 2, 2), dtype=bool)
    mask[0, 0, 0, 0] = True
    mask[1, 1, 1, 1] = True
    rm = RegionMask(mask, 0.25)
    assert rm.measure == 0.5
    with pytest.raises(ValueError, match="4D"):
        RegionMask(np.zeros((2, 2)), 1.0)


@pytest.mark.parametrize("check", [
    lambda f, phi: heisenberg_check(f, phi, FOURIER2, 1.0),
    lambda f, phi: log_check(f, phi, FOURIER2),
    lambda f, phi: lemma_log_identity_check(f, phi, FOURIER2),
    lambda f, phi: lieb_check(f, phi, FOURIER2, 1.5),
    lambda f, phi: young_sup_check(f, phi, FOURIER2, 2.0),
    lambda f, phi: moment_concentration_check(f, phi, FOURIER2, 1.0),
    lambda f, phi: gabor_plancherel_check(f, phi, FOURIER2),
], ids=["heisenberg", "log", "lemma-log", "lieb", "young",
        "moment-concentration", "gabor-plancherel"])
def test_gabor_checks_reject_a_window_on_another_spacing(check):
    f = gaussian(Grid2D.centered(16, 16, 0.5, 0.5), 1.0)
    phi = gaussian(Grid2D.centered(16, 16, 0.25, 0.25), 1.0)
    with pytest.raises(GridMismatchError):
        check(f, phi)
