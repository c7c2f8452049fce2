"""Numerical checks of the uncertainty-principle inequalities.

Each check evaluates both sides of one inequality by quadrature and
returns an `InequalityReport`. Bounds with explicit constants (Young,
concentration, the epsilon-concentration measure bound) are expected to
hold up to rounding; existential-constant statements (Heisenberg, Lieb,
moment concentration) only record the empirical constant that would make
equality. The checks gate nothing: `cli.Collector` stamps each report
with its gate, and `qlct verify` reports that constant's stability.

Every Gabor field check takes `stats`, a streamed pass of
`gabor.gabor_field_stats`, and its own argument only. The pass carries
the f, phi, params and method it swept, so a check reads its inputs from
it alone and makes no pass of its own; a sum the pass was not asked for
raises ValueError. No check copies the pass's Plancherel residual:
`qlct verify` gates it once per pass. The concentration checks read only
the |G|^2 cells a pass was asked to keep (its `cells` request), never
the whole table or a dense quaternion field. Their masks are sorted
arrays of flat (y1, y2, omega1, omega2) table indices, measured by
`mask_measure` as the cell count times the table's cell volume.
`random_mask` draws its cells before the pass, from the table's geometry
alone; `greedy_minimal_mask` sorts only the cells at or above the floor
the pass set from its windowed energy estimate, which hold the largest;
and `concentration_check` takes the complement's energy as the pass's
energy less the mask's cells.

`sweep_fields` makes those passes for a list of requests: one pass per
distinct field over the union of the requests made of it, each request
reading the bits a lone pass would give it. The dense twin of a pass's
weighted moments, which sums them over a whole `gabor.gabor_analyze`
field, is a test oracle in `tests/oracles.py`.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import gabor, report
from .gabor import _log_radius, gabor_field_stats
# bench/tracing.py wraps this name here, but the passes reach the generator
# through `gabor_field_stats`, which calls gabor's own (also wrapped) binding
from .gabor import iter_gabor_blocks  # noqa: F401
from .qlct2d import QLCTParams, qlct_forward
# bench/tracing.py wraps this name here; the checks call qlct_forward
from .qlct2d import qlct_forward_fast  # noqa: F401
from .quat import qabs_sq
from .signal import GridMismatchError, QSignal2D

EULER_GAMMA = 0.5772156649015329
PSI_HALF = -EULER_GAMMA - 2.0 * math.log(2.0)
#: Constant in the logarithmic inequality: digamma(1/2) - ln(pi).
D_LOG = PSI_HALF - math.log(math.pi)


def _requested(stats: dict, key: str, ask: str, order=None):
    """stats[key], or its entry at `order`; ValueError when the pass that
    made `stats` was not asked for it with `ask`."""
    value = stats[key] if order is None else stats[key].get(order)
    if value is None:
        at = "" if order is None else f" at {order!r}"
        raise ValueError(f"these field stats carry no {key}{at}; request it with {ask}")
    return value


def _mask_values(stats: dict, mask) -> np.ndarray:
    """The |G|^2 values of the cells of mask, a strictly increasing 1-D
    array of flat (y1, y2, omega1, omega2) table indices, read from the
    cells the pass of `stats` kept; ValueError for any other mask, or for
    a cell the pass did not keep."""
    index = _requested(stats, "cell_index", "cells=(capture, indices)")
    mask = np.asarray(mask)
    if (mask.ndim != 1 or mask.size and mask.dtype.kind not in "iu"
            or np.any(mask[1:] <= mask[:-1])):
        raise ValueError(f"a mask is a strictly increasing 1-D array of flat |G|^2 table "
                         f"indices, got {mask.dtype} {mask.shape}")
    at = np.searchsorted(index, mask)
    kept = at < len(index)
    kept[kept] = index[at[kept]] == mask[kept]
    if not kept.all():
        raise ValueError(f"the pass kept no cell {mask[~kept][0]} of this mask; "
                         "request it with cells=(capture, indices)")
    return stats["cell_value"][at]


def mask_measure(stats: dict, mask) -> float:
    """Lebesgue measure of a mask over the |G|^2 table of `stats`: its
    cell count times the table's cell volume."""
    return float(len(_mask_values(stats, mask))) * stats["cell_volume"]


def random_mask(n_cells: int, cell_volume: float, target_measure: float,
                rng: np.random.Generator) -> np.ndarray:
    """Sorted flat indices of uniformly random cells of a |G|^2 table of
    n_cells cells of cell_volume, totalling approximately target_measure;
    `gabor.table_geometry` gives both before the pass, which can then
    keep these cells.

    A draw that numpy's `Generator.choice` makes by Floyd's algorithm (at
    most n_cells // 50 cells, or any of a table of at most 10 000) is that
    call, so a seed keeps its cells. Above that, `choice` permutes an
    index array of every cell; this draws batches of uniform cells and
    keeps the new ones until it has its count, or draws the complement
    when that is smaller, so it holds a few arrays of the mask's own size."""
    count = max(1, min(n_cells, round(target_measure / cell_volume)))
    if n_cells <= 10_000 or count <= n_cells // 50:
        return np.sort(rng.choice(n_cells, size=count, replace=False))
    small = min(count, n_cells - count)
    drawn = np.empty(0, np.int64)
    while len(drawn) < small:
        drawn = np.union1d(drawn, rng.integers(0, n_cells, small - len(drawn)))
    if small == count:
        return drawn
    # the i-th cell not drawn is i plus the count of drawn cells d_j with d_j - j <= i
    cells = np.arange(count)
    return cells + np.searchsorted(drawn - np.arange(len(drawn)), cells, side="right")


def greedy_minimal_mask(stats: dict, capture: float) -> np.ndarray:
    """Smallest-measure mask capturing at least `capture` of absolute
    Gabor energy: the sorted flat indices of the k largest |G|^2 cells of
    `stats`, with k read off the running energy of the cells in
    descending order, and ties at the k-th value taken in flat order.

    The pass must have kept the cells at or above `gabor.cell_floor` of
    this capture, and its energy must be at least the windowed estimate
    that floor was set from, less 1e-6 of it: then the cells it kept at
    or above the floor carry the capture with room for rounding, so they
    hold the k largest, and only they are copied and sorted. Their running
    energy, taken 2^16 cells at a time, is the whole table's prefix bit
    for bit."""
    index = _requested(stats, "cell_index", "cells=(capture, indices)")
    value, cv, estimate = stats["cell_value"], stats["cell_volume"], stats["windowed_energy"]
    n_cells = math.prod(stats["table_shape"])
    floor = gabor.cell_floor(estimate, capture, n_cells, cv)
    asked = stats["cell_capture"]
    if asked is None or gabor.cell_floor(estimate, asked, n_cells, cv) > floor:
        raise ValueError(f"the pass kept no cells down to the floor of a capture of "
                         f"{capture!r}; request it with cells=(capture, indices)")
    if not stats["energy"] >= estimate * (1.0 - 1e-6):
        raise ValueError(f"field energy {stats['energy']!r} is below its windowed estimate "
                         f"{estimate!r} less 1e-6 of it, so the kept cells may miss the largest")
    target = capture - 1e-12
    keep = value[value >= floor]
    keep.sort()
    descending, running, k = keep[::-1], 0.0, None
    for start in range(0, len(descending), 2**16):
        # a sequential cumsum resumed from the last sum
        run = np.cumsum(np.concatenate(([running], descending[start:start + 2**16])))[1:]
        running = run[-1]
        run *= cv
        if run[-1] >= target:
            k = start + int(np.searchsorted(run, target)) + 1
            break
    if k is None:  # the floor kept every cell, so running is the table's energy
        raise ValueError(f"field energy {running * cv!r} cannot capture {capture!r}")
    v = descending[k - 1]
    del keep, descending, run
    chosen = value > v
    need = k - int(np.count_nonzero(chosen))
    for start in range(0, len(value), 2**16):
        tied = np.flatnonzero(value[start:start + 2**16] == v)[:need]
        chosen[start + tied] = True
        need -= len(tied)
        if not need:
            break
    return index[chosen]


def _field_key(f: QSignal2D, phi: QSignal2D, p: QLCTParams, request: dict):
    """(field, sums) halves of a request: digests of both sample arrays,
    both grids (equal samples on another spacing are another field), the
    params, method and stride; then the sums asked for, as passed."""
    sums = dict(request)
    field = (hashlib.sha256(f.samples).hexdigest(), hashlib.sha256(phi.samples).hexdigest(),
             repr(f.grid.to_dict()), repr(phi.grid.to_dict()), repr(p.to_dict()),
             sums.pop("method", "fast"), sums.pop("y_stride", 1))
    return field, sums


def _union(requests: list[dict]) -> dict:
    """One request asking every sum that any of `requests` asks; of their
    cell requests, the largest capture (the lowest floor) and every index."""
    cells = [r["cells"] for r in requests if r.get("cells") is not None]
    captures = [capture for capture, _ in cells if capture is not None]
    return {"s_values": tuple(sorted({s for r in requests for s in r.get("s_values", ())})),
            "pprimes": tuple(sorted({pp for r in requests for pp in r.get("pprimes", ())})),
            "log_omega": any(r.get("log_omega", False) for r in requests),
            "cells": (max(captures, default=None), np.unique(np.concatenate(
                [np.asarray(indices, np.int64) for _, indices in cells]))) if cells else None}


def sweep_fields(fields: list) -> list[dict]:
    """The stats of each (f, phi, p, request) of `fields`, in order, from
    one pass per distinct field (`_field_key`) over the union of the
    requests made of it. Entries of one field share that pass's read-only
    stats; every statistic is its own per-translation table, so each
    request reads the bits a lone pass asking it alone would give."""
    keys = [_field_key(*entry) for entry in fields]
    first: dict = {}  # field -> (its first entry, the sums of all its entries)
    for entry, (field, sums) in zip(fields, keys):
        first.setdefault(field, (entry, []))[1].append(sums)
    passes = {field: _read_only(gabor_field_stats(f, phi, p, **{**request, **_union(sums)}))
              for field, ((f, phi, p, request), sums) in first.items()}
    return [passes[field] for field, _ in keys]


def _read_only(stats: dict) -> dict:
    for value in stats.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return stats


def _abs_b_product(p: QLCTParams) -> float:
    return abs(p.A1.b * p.A2.b)


def _norm_product(stats: dict) -> float:
    """||f|| ||phi|| of the pass's signal and window, refusing a zero one."""
    if stats["f"].l2_norm_sq() == 0.0:
        raise ValueError("zero signal")
    if stats["phi"].l2_norm_sq() == 0.0:
        raise ValueError("zero window")
    return stats["f"].l2_norm() * stats["phi"].l2_norm()


def _require_field_energy(stats: dict):
    if stats["energy"] == 0.0:
        raise ValueError("zero Gabor field: no translate of the window meets the signal")


def _pass_record(stats: dict, **params) -> dict:
    """A pass report's params and grid: its own params, then the pass's method and matrices."""
    return {"params": {**params, "method": stats["method"], **stats["params"].to_dict()},
            "grid": stats["f"].grid.to_dict()}


# ---------------------------------------------------------------------------
# checks

def amgm_dilation_identity(A: float, B: float, s: float) -> tuple[float, float, float]:
    """Value of (t^{2s} A + t^{-2s} B)/2 at the optimal dilation
    t* = (B/A)^{1/(4s)}, its closed-form minimum sqrt(A*B), and the
    relative gap between them (pure algebra, no quadrature)."""
    tstar = (B / A)**(1.0 / (4.0 * s))
    at_tstar = 0.5 * (tstar**(2 * s) * A + tstar**(-2 * s) * B)
    target = math.sqrt(A * B)
    rel = abs(at_tstar - target) / max(abs(target), 1e-300)
    return at_tstar, target, rel


def heisenberg_check(stats: dict, s: float) -> report.InequalityReport:
    """Spread product sqrt(M_omega * M_y) against ||f|| ||phi||.

    The bound constant is existential; the report records the empirical
    constant lhs/rhs and the optimal-dilation identity residual."""
    rhs = _norm_product(stats)
    _require_field_energy(stats)
    A = _requested(stats, "moment_omega", "s_values", s)
    B = stats["moment_y"][s]
    lhs = math.sqrt(A) * math.sqrt(B)
    at_tstar, target, rel = amgm_dilation_identity(A, B, s)
    record = _pass_record(stats, s=s, moment_omega=A, moment_y=B,
                          amgm_at_tstar=at_tstar, amgm_sqrt_ab=target, amgm_rel_err=rel)
    return report.lower_bound("heisenberg", lhs, rhs, empirical_constant=lhs / rhs,
                              **record)


def log_check(stats: dict) -> report.InequalityReport:
    """Logarithmic inequality for the windowed transform.

    lhs = ||phi||^2 Int ln|x| |f|^2 + Int ln|omega| |G|^2,
    rhs = ||phi||^2 (D + ln|b|) ||f||^2 with D = digamma(1/2) - ln(pi)
    and ln|b| averaged over the two axis matrices.
    """
    _norm_product(stats)  # refuses a zero signal or window
    f, phi, p = stats["f"], stats["phi"], stats["params"]
    if p.A1.b == 0 or p.A2.b == 0:
        raise ValueError("log_check requires b != 0 on both axes")
    omega_term = _requested(stats, "log_omega_sum", "log_omega=True")
    log_x = _log_radius(f.grid)
    phi_sq = phi.l2_norm_sq()
    f_sq = f.l2_norm_sq()
    x_term = float(np.sum(log_x * qabs_sq(f.samples)) * f.grid.cell_area)
    lhs = phi_sq * x_term + omega_term
    ln_b = 0.5 * (math.log(abs(p.A1.b)) + math.log(abs(p.A2.b)))
    rhs = phi_sq * (D_LOG + ln_b) * f_sq
    record = _pass_record(stats, D=D_LOG, ln_b=ln_b, x_term=x_term,
                          omega_term=omega_term)
    return report.lower_bound("log", lhs, rhs, **record)


def lemma_log_identity_check(f: QSignal2D, phi: QSignal2D,
                             p: QLCTParams) -> report.InequalityReport:
    """Windowed ln|x| energy against ||phi||^2 times the plain one.

    Exact in the discrete sum whenever every translate of the window's
    support stays on the translation sweep; edge truncation otherwise.
    """
    grid = f.grid
    if not grid.approx_eq(phi.grid):
        raise GridMismatchError("signal and window must share a grid")
    log_x = _log_radius(grid)
    f_mod2 = qabs_sq(f.samples)
    # W(x) = sum_y |phi(x - y)|^2 dy over the zero-padded translation sweep
    w = gabor._translates(qabs_sq(phi.samples)[None])[0].sum(axis=(0, 1))
    lhs = float(np.sum(log_x * f_mod2 * (w * grid.cell_area)) * grid.cell_area)
    rhs = phi.l2_norm_sq() * float(np.sum(log_x * f_mod2) * grid.cell_area)
    rel_gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return report.equality("lemma-log", lhs, rhs,
                           params={"rel_gap": rel_gap, **p.to_dict()},
                           grid=grid.to_dict())


def lieb_check(stats: dict, p_prime: float) -> report.InequalityReport:
    """p'-th power integral of |G| against the printed Lieb bound.

    The empirical constant strips the printed (2/p')^{1/p'} / (2 pi)^{p'}
    factors so its stability can be asserted without trusting them. At
    p' = 2 the printed bound contradicts the Plancherel identity; the
    report carries a note instead of failing.
    """
    norms = _norm_product(stats)
    if not 1.0 < p_prime <= 2.0:
        raise ValueError(f"p_prime must lie in (1, 2], got {p_prime}")
    lhs = _requested(stats, "power_sums", "pprimes", p_prime)
    babs = _abs_b_product(stats["params"])
    scale = babs**(-p_prime / 2 + 1) * norms**p_prime
    rhs = (2.0 / p_prime)**(1.0 / p_prime) / (2 * math.pi)**p_prime * scale
    notes = ""
    if p_prime == 2.0:
        notes = ("printed constant is inconsistent at p' = 2: Plancherel forces "
                 "lhs = ||f||^2 ||phi||^2 while the printed rhs carries 1/(2 pi)^2")
    record = _pass_record(stats, p_prime=p_prime, abs_b1b2=babs)
    return report.upper_bound("lieb", lhs, rhs, empirical_constant=lhs / scale,
                              notes=notes, **record)


def young_sup_check(stats: dict, holder_p: float) -> report.InequalityReport:
    """sup |G| against |b1 b2|^{-1/2} / (2 pi) ||f||_q ||phi||_p."""
    if not 1.0 <= holder_p < math.inf:
        raise ValueError(f"holder_p must be finite and >= 1, got {holder_p}")
    if holder_p == 1.0:
        holder_q = math.inf
        f_norm = float(stats["f"].modulus().max())
    else:
        holder_q = holder_p / (holder_p - 1.0)
        f_norm = stats["f"].lp_norm(holder_q)
    phi_norm = stats["phi"].lp_norm(holder_p)
    lhs = stats["max_abs"]
    rhs = _abs_b_product(stats["params"])**-0.5 / (2 * math.pi) * f_norm * phi_norm
    record = _pass_record(stats, holder_p=holder_p, holder_q=holder_q)
    return report.upper_bound("young", lhs, rhs, **record)


def hausdorff_young_check(f: QSignal2D, p: QLCTParams, pp: float,
                          method: str = "fast") -> report.InequalityReport:
    """Componentwise (q, p')-norm of the transform against the L^p norm.

    The transform-side norm sums the moduli of the four real-component
    transforms before raising to the p'-th power. The printed constant is
    too small for this unitary normalization; a report whose bound fails
    carries a note that says so."""
    if not 2.0 <= pp < math.inf:
        raise ValueError(f"pp must be finite and >= 2, got {pp}")
    hp = pp / (pp - 1.0)
    comp_abs = None
    for c in range(4):
        comp = np.zeros_like(f.samples)
        comp[..., 0] = f.samples[..., c]
        Fc = qlct_forward(QSignal2D(f.grid, comp), p, method)
        mod = Fc.modulus()
        comp_abs = mod if comp_abs is None else comp_abs + mod
        omega_grid = Fc.grid
    lhs = float(np.sum(comp_abs**pp) * omega_grid.cell_area)**(1.0 / pp)
    rhs = (_abs_b_product(p)**(-0.5 + 1.0 / pp) / (2 * math.pi)) * f.lp_norm(hp)
    notes = ("printed bound fails: its 1/(2 pi) does not fit the unitary kernel "
             "normalization, so this margin is reported, never asserted") if lhs > rhs else ""
    return report.upper_bound("hausdorff-young", lhs, rhs,
                              params={"p": hp, "p_prime": pp,
                                      "method": method, **p.to_dict()},
                              grid=f.grid.to_dict(), notes=notes)


def concentration_check(stats: dict, mask) -> report.InequalityReport:
    """||f|| ||phi|| against the complement energy blown up by
    1/sqrt(1 - m(Sigma)), for 0 < m(Sigma) < 1, on the cells of `stats`."""
    m = mask_measure(stats, mask)
    if not 0.0 < m < 1.0:
        raise ValueError(f"mask measure must lie in (0, 1), got {m!r}")
    # the pass's energy less the mask's cells: it holds under 1/cell_volume of them
    comp = stats["energy"] - float(np.sum(_mask_values(stats, mask)) * stats["cell_volume"])
    rhs = math.sqrt(comp) / math.sqrt(1.0 - m)
    lhs = stats["f"].l2_norm() * stats["phi"].l2_norm()
    return report.upper_bound("concentration", lhs, rhs,
                              params={"measure": m, "complement_energy": comp,
                                      **stats["params"].to_dict()})


def epsilon_concentration_check(stats: dict, mask,
                                epsilon: float) -> report.InequalityReport:
    """Measure lower bound 2 pi sqrt|b1 b2| (1 - eps) <= m(Sigma) for a
    region capturing at least 1 - eps of the energy of unit-norm data, on
    the cells of `stats`."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    m = mask_measure(stats, mask)
    captured = float(np.sum(_mask_values(stats, mask)) * stats["cell_volume"])
    if captured + 1e-9 < 1.0 - epsilon:
        raise ValueError(f"mask captures {captured!r} < 1 - eps = {1 - epsilon!r}; "
                         "hypothesis unmet (normalize f and phi first)")
    babs = _abs_b_product(stats["params"])
    lhs = 2 * math.pi * math.sqrt(babs) * (1.0 - epsilon)
    return report.upper_bound("eps-concentration", lhs, m,
                              params={"epsilon": epsilon, "captured": captured,
                                      "abs_b1b2": babs, **stats["params"].to_dict()})


def moment_concentration_check(stats: dict, s: float) -> report.InequalityReport:
    """||f|| ||phi|| against the joint-radius moment; the constant is
    existential, so only the empirical constant is recorded."""
    lhs = _norm_product(stats)
    _require_field_energy(stats)
    joint = _requested(stats, "moment_joint", "s_values", s)
    rhs = math.sqrt(joint)
    record = _pass_record(stats, s=s, moment_joint=joint)
    return report.upper_bound("moment-concentration", lhs, rhs,
                              empirical_constant=lhs / rhs, **record)
