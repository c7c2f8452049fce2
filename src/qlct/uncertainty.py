"""Numerical checks of the uncertainty-principle inequalities.

Each check evaluates both sides of one inequality by quadrature and
returns an `InequalityReport`. Bounds with explicit constants (Young,
concentration, the epsilon-concentration measure bound) are expected to
hold up to rounding; existential-constant statements (Heisenberg, Lieb,
moment concentration) only record the empirical constant that would make
equality, so callers assert positivity and stability, never a fixed value.

Moment and p-norm accumulations over the Gabor field stream |G|^2 in
the cache-sized blocks of `gabor.iter_abs_sq_blocks`, so grids larger
than the dense-storage budget are fine. Each block is reduced per
translation while it is in cache, into (ny1, ny2) tables whose sums are
the totals, so no sum depends on the block size. The energy table also
gives a per-translation Plancherel witness, which `heisenberg_check` and
`moment_concentration_check` report. Inside
`field_memo` each distinct field is swept once per distinct request:
checks asking the same sums share one pass, and `memo_gabor_analyze`
builds each dense field once.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import gabor, report
from .gabor import GaborCoefficients, forward_grid, iter_abs_sq_blocks, translation_grid
# bench/tracing.py wraps this name here, but the passes reach the generator
# through `iter_abs_sq_blocks`, which calls gabor's own (also wrapped) binding
from .gabor import iter_gabor_blocks  # noqa: F401
from .qlct2d import QLCTParams, _check_method, qlct_forward_direct, qlct_forward_fast
from .quat import qabs_sq
from .signal import GridMismatchError, QSignal2D

EULER_GAMMA = 0.5772156649015329
PSI_HALF = -EULER_GAMMA - 2.0 * math.log(2.0)
#: Constant in the logarithmic inequality: digamma(1/2) - ln(pi).
D_LOG = PSI_HALF - math.log(math.pi)


@dataclass
class RegionMask:
    """Boolean region over the (omega, y) cells with its Lebesgue measure."""

    mask: np.ndarray
    cell_volume: float

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.ndim != 4:
            raise ValueError(f"mask must be 4D, got {self.mask.ndim}D")

    @property
    def measure(self) -> float:
        return float(np.count_nonzero(self.mask)) * self.cell_volume


def random_mask(G: GaborCoefficients, target_measure: float,
                rng: np.random.Generator) -> RegionMask:
    """Uniformly random cells totalling approximately target_measure."""
    cv = G.cell_volume
    shape = G.coeffs.shape[:4]
    total = int(np.prod(shape))
    count = max(1, min(total, round(target_measure / cv)))
    flat = rng.choice(total, size=count, replace=False)
    mask = np.zeros(total, dtype=bool)
    mask[flat] = True
    return RegionMask(mask.reshape(shape), cv)


def greedy_minimal_mask(G: GaborCoefficients, capture: float) -> RegionMask:
    """Smallest-measure mask capturing at least `capture` of absolute Gabor
    energy, built by taking cells in descending |G|^2 order."""
    cv = G.cell_volume
    mod2 = G.modulus_sq().ravel()
    order = np.argsort(mod2)[::-1]
    csum = np.cumsum(mod2[order]) * cv
    k = int(np.searchsorted(csum, capture - 1e-12)) + 1
    if k > len(order):
        raise ValueError(f"field energy {csum[-1]!r} cannot capture {capture!r}")
    mask = np.zeros(mod2.shape, dtype=bool)
    mask[order[:k]] = True
    return RegionMask(mask.reshape(G.coeffs.shape[:4]), cv)


# ---------------------------------------------------------------------------
# weighted energies of the Gabor field

def moment(G: GaborCoefficients, which: str, s: float) -> float:
    """Quadrature of the weighted energy |.|^{2s} |G|^2 over (omega, y).

    which selects the |omega|, |y|, or joint |(omega, y)| radius, with
    |(omega, y)|^2 = |omega|^2 + |y|^2.
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"moment order s must be positive and finite, got {s}")
    mod2 = G.modulus_sq()
    w1, w2 = G.omega_grid.meshgrid()
    y1, y2 = G.y_grid.meshgrid()
    omega_r2 = (w1**2 + w2**2)[:, :, None, None]
    y_r2 = (y1**2 + y2**2)[None, None, :, :]
    if which == "omega":
        weight = omega_r2**s
    elif which == "y":
        weight = y_r2**s
    elif which == "joint":
        weight = (omega_r2 + y_r2)**s
    else:
        raise ValueError(f"which must be omega, y, or joint, got {which!r}")
    return float(np.sum(weight * mod2) * G.cell_volume)


def gabor_field_stats(f: QSignal2D, phi: QSignal2D, p: QLCTParams, *,
                      s_values: tuple[float, ...] = (),
                      pprimes: tuple[float, ...] = (),
                      log_omega: bool = False,
                      method: str = "fast", y_stride: int = 1) -> dict:
    """One streamed pass over the Gabor field collecting the weighted sums
    every check needs: total energy, sup |G|, |omega|/|y|/joint moments,
    p'-th power sums, and the ln|omega| weighted energy.

    Each block of |G|^2 is reduced while it is in cache: one sum, max and
    `np.vecdot` per translation and omega-weight into (ny1, ny2) tables,
    whose sums are the totals; `energy_by_y` is the energy table,
    sum_omega |G(omega, y)|^2 domega on `y_grid`.

    Every call is a fresh pass; the checks reach it through
    `memo_field_stats`."""
    if not all(0.0 < s < math.inf for s in s_values):
        raise ValueError(f"moment orders s must be positive and finite, got {s_values}")
    if not all(0.0 < pp < math.inf for pp in pprimes):
        raise ValueError(f"powers p' must be positive and finite, got {pprimes}")
    omega_grid = forward_grid(f.grid, p)
    y_grid = translation_grid(f.grid, y_stride)
    cellvol = omega_grid.cell_area * y_grid.cell_area
    w1, w2 = omega_grid.meshgrid()
    omega_r2 = (w1**2 + w2**2).ravel()
    log_w = _log_radius(omega_grid).ravel() if log_omega else None
    y_r2 = y_grid.coords1()[:, None]**2 + y_grid.coords2()**2
    omega_weights = {s: omega_r2**s for s in s_values}
    # one entry per translation: sums over omega, each in its own order
    shape = y_grid.shape
    energy, peak, t_log = np.empty(shape), np.empty(shape), np.empty(shape)
    t_omega = {s: np.empty(shape) for s in s_values}
    t_joint = {s: np.empty(shape) for s in s_values}
    t_power = {pp: np.empty(shape) for pp in pprimes}
    for iy1, sl, mod2 in iter_abs_sq_blocks(f, phi, p, y_stride, method):
        at = (iy1, sl)
        mod2.sum(axis=1, out=energy[at])
        mod2.max(axis=1, out=peak[at])
        for s in s_values:
            np.vecdot(mod2, omega_weights[s], out=t_omega[s][at])
            np.vecdot(mod2, (omega_r2 + y_r2[at][:, None])**s, out=t_joint[s][at])
        for pp in pprimes:
            (mod2**(pp / 2)).sum(axis=1, out=t_power[pp][at])
        if log_omega:
            np.vecdot(mod2, log_w, out=t_log[at])

    def total(t):
        return float(t.sum()) * cellvol

    return {
        "energy": total(energy),
        "energy_by_y": energy * omega_grid.cell_area,
        "max_abs": math.sqrt(float(peak.max())),
        "moment_omega": {s: total(t_omega[s]) for s in s_values},
        "moment_y": {s: total(y_r2**s * energy) for s in s_values},
        "moment_joint": {s: total(t_joint[s]) for s in s_values},
        "power_sums": {pp: total(t_power[pp]) for pp in pprimes},
        "log_omega_sum": total(t_log) if log_omega else 0.0,
        "omega_grid": omega_grid, "y_grid": y_grid, "cell_volume": cellvol,
    }


#: Entries of the enclosing `field_memo` scope; None outside any scope.
_FIELD_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "qlct_field_memo", default=None)


@contextlib.contextmanager
def field_memo():
    """Scope in which `memo_field_stats` sweeps each distinct Gabor field
    once per distinct request and `memo_gabor_analyze` builds it once.

    Entries live in a context variable, so they are dropped when the scope
    exits and never shared with calls outside it (`qlct verify` opens one
    scope per run)."""
    token = _FIELD_MEMO.set({})
    try:
        yield
    finally:
        _FIELD_MEMO.reset(token)


def _memo(kind: str, build, f: QSignal2D, phi: QSignal2D, p: QLCTParams, **request):
    """`build(f, phi, p, **request)`, served from the enclosing `field_memo`
    scope, keyed by the kind, the field (digests of both sample arrays, both
    grids, since equal samples on another spacing are another field, and the
    params) and the request exactly as passed. A miss builds once and no
    entry is ever replaced; outside a scope every call builds."""
    memo = _FIELD_MEMO.get()
    if memo is None:
        return build(f, phi, p, **request)
    key = (kind, hashlib.sha256(f.samples).hexdigest(),
           hashlib.sha256(phi.samples).hexdigest(),
           repr(f.grid.to_dict()), repr(phi.grid.to_dict()),
           repr(p.to_dict()), tuple(request.items()))
    if key not in memo:
        memo[key] = build(f, phi, p, **request)
    return memo[key]


def memo_field_stats(f: QSignal2D, phi: QSignal2D, p: QLCTParams, **request) -> dict:
    """`gabor_field_stats(f, phi, p, **request)`, one pass per distinct
    field and request inside a `field_memo` scope."""
    return _memo("stats", gabor_field_stats, f, phi, p, **request)


def memo_gabor_analyze(f: QSignal2D, phi: QSignal2D, p: QLCTParams, *,
                       method: str = "fast") -> GaborCoefficients:
    """Stride-1 `gabor.gabor_analyze` with read-only coefficients, built
    once per distinct field and method inside a `field_memo` scope."""
    G = _memo("dense", gabor.gabor_analyze, f, phi, p, method=method)
    G.coeffs.flags.writeable = False
    return G


def _abs_b_product(p: QLCTParams) -> float:
    return abs(p.A1.b * p.A2.b)


def _require_nonzero(f: QSignal2D, phi: QSignal2D | None = None):
    if f.l2_norm_sq() == 0.0:
        raise ValueError("zero signal")
    if phi is not None and phi.l2_norm_sq() == 0.0:
        raise ValueError("zero window")


def _require_field_energy(stats: dict):
    if stats["energy"] == 0.0:
        raise ValueError("zero Gabor field: no translate of the window meets the signal")


def _windowed_energy(f: QSignal2D, phi: QSignal2D) -> np.ndarray:
    """sum_x |f(x)|^2 |phi(x - y)|^2 dx for every stride-1 translation y,
    one y1 row of the translation sweep at a time."""
    f_mod2 = qabs_sq(f.samples)
    sweep = gabor._translates(qabs_sq(phi.samples)[None])[0]
    out = np.empty(sweep.shape[:2])
    for iy1, row in enumerate(sweep):
        out[iy1] = np.einsum("kxy,xy->k", row, f_mod2)
    return out * f.grid.cell_area


def _plancherel_by_y_residual(f: QSignal2D, phi: QSignal2D, stats: dict) -> float:
    """Plancherel for each translation alone: max over y of
    |sum_omega |G(omega, y)|^2 domega - sum_x |f(x)|^2 |phi(x - y)|^2 dx|,
    over the largest right side."""
    rhs = _windowed_energy(f, phi)
    return float(np.max(np.abs(stats["energy_by_y"] - rhs)) / np.max(rhs))


def _log_radius(grid) -> np.ndarray:
    x1, x2 = grid.meshgrid()
    r2 = x1**2 + x2**2
    if np.min(r2) == 0.0:
        raise ValueError("grid has a sample at the origin; "
                         "log weights need the centered half-cell offset")
    return 0.5 * np.log(r2)


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


def heisenberg_check(f: QSignal2D, phi: QSignal2D, p: QLCTParams, s: float,
                     method: str = "fast") -> report.InequalityReport:
    """Spread product sqrt(M_omega * M_y) against ||f|| ||phi||.

    The bound constant is existential; the report records the empirical
    constant lhs/rhs and the optimal-dilation identity residual."""
    _require_nonzero(f, phi)
    stats = memo_field_stats(f, phi, p, s_values=(s,), method=method)
    _require_field_energy(stats)
    A = stats["moment_omega"][s]
    B = stats["moment_y"][s]
    lhs = math.sqrt(A) * math.sqrt(B)
    rhs = f.l2_norm() * phi.l2_norm()
    at_tstar, target, rel = amgm_dilation_identity(A, B, s)
    rep = report.lower_bound("heisenberg", lhs, rhs,
                             empirical_constant=lhs / rhs,
                             params={"s": s, "moment_omega": A, "moment_y": B,
                                     "amgm_at_tstar": at_tstar,
                                     "amgm_sqrt_ab": target,
                                     "amgm_rel_err": rel,
                                     "plancherel_by_y_residual":
                                         _plancherel_by_y_residual(f, phi, stats),
                                     "method": method, **p.to_dict()},
                             grid=f.grid.to_dict())
    return rep


def log_check(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
              method: str = "fast") -> report.InequalityReport:
    """Logarithmic inequality for the windowed transform.

    lhs = ||phi||^2 Int ln|x| |f|^2 + Int ln|omega| |G|^2,
    rhs = ||phi||^2 (D + ln|b|) ||f||^2 with D = digamma(1/2) - ln(pi)
    and ln|b| averaged over the two axis matrices.
    """
    _require_nonzero(f, phi)
    if p.A1.b == 0 or p.A2.b == 0:
        raise ValueError("log_check requires b != 0 on both axes")
    log_x = _log_radius(f.grid)
    stats = memo_field_stats(f, phi, p, log_omega=True, method=method)
    phi_sq = phi.l2_norm_sq()
    f_sq = f.l2_norm_sq()
    x_term = float(np.sum(log_x * qabs_sq(f.samples)) * f.grid.cell_area)
    lhs = phi_sq * x_term + stats["log_omega_sum"]
    ln_b = 0.5 * (math.log(abs(p.A1.b)) + math.log(abs(p.A2.b)))
    rhs = phi_sq * (D_LOG + ln_b) * f_sq
    return report.lower_bound("log", lhs, rhs,
                              params={"D": D_LOG, "ln_b": ln_b,
                                      "x_term": x_term,
                                      "omega_term": stats["log_omega_sum"],
                                      "method": method, **p.to_dict()},
                              grid=f.grid.to_dict())


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


def lieb_check(f: QSignal2D, phi: QSignal2D, p: QLCTParams, p_prime: float,
               method: str = "fast") -> report.InequalityReport:
    """p'-th power integral of |G| against the printed Lieb bound.

    The empirical constant strips the printed (2/p')^{1/p'} / (2 pi)^{p'}
    factors so its stability can be asserted without trusting them. At
    p' = 2 the printed bound contradicts the Plancherel identity; the
    report carries a note instead of failing.
    """
    _require_nonzero(f, phi)
    if not 1.0 < p_prime <= 2.0:
        raise ValueError(f"p_prime must lie in (1, 2], got {p_prime}")
    stats = memo_field_stats(f, phi, p, pprimes=(p_prime,), method=method)
    lhs = stats["power_sums"][p_prime]
    babs = _abs_b_product(p)
    norms = (f.l2_norm() * phi.l2_norm())**p_prime
    scale = babs**(-p_prime / 2 + 1) * norms
    rhs = (2.0 / p_prime)**(1.0 / p_prime) / (2 * math.pi)**p_prime * scale
    notes = ""
    if p_prime == 2.0:
        notes = ("printed constant is inconsistent at p' = 2: Plancherel forces "
                 "lhs = ||f||^2 ||phi||^2 while the printed rhs carries 1/(2 pi)^2")
    return report.upper_bound("lieb", lhs, rhs,
                              empirical_constant=lhs / scale,
                              params={"p_prime": p_prime, "abs_b1b2": babs,
                                      "method": method, **p.to_dict()},
                              grid=f.grid.to_dict(), notes=notes)


def young_sup_check(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                    holder_p: float, method: str = "fast") -> report.InequalityReport:
    """sup |G| against |b1 b2|^{-1/2} / (2 pi) ||f||_q ||phi||_p."""
    if not 1.0 <= holder_p < math.inf:
        raise ValueError(f"holder_p must be finite and >= 1, got {holder_p}")
    if holder_p == 1.0:
        holder_q = math.inf
        f_norm = float(f.modulus().max())
    else:
        holder_q = holder_p / (holder_p - 1.0)
        f_norm = f.lp_norm(holder_q)
    phi_norm = phi.lp_norm(holder_p)
    stats = memo_field_stats(f, phi, p, method=method)
    lhs = stats["max_abs"]
    rhs = _abs_b_product(p)**-0.5 / (2 * math.pi) * f_norm * phi_norm
    return report.upper_bound("young", lhs, rhs,
                              params={"holder_p": holder_p, "holder_q": holder_q,
                                      "method": method, **p.to_dict()},
                              grid=f.grid.to_dict())


def hausdorff_young_check(f: QSignal2D, p: QLCTParams, pp: float,
                          method: str = "fast") -> report.InequalityReport:
    """Componentwise (q, p')-norm of the transform against the L^p norm.

    The transform-side norm sums the moduli of the four real-component
    transforms before raising to the p'-th power."""
    if not 2.0 <= pp < math.inf:
        raise ValueError(f"pp must be finite and >= 2, got {pp}")
    hp = pp / (pp - 1.0)
    fwd = qlct_forward_fast if _check_method(method) == "fast" else qlct_forward_direct
    comp_abs = None
    for c in range(4):
        comp = np.zeros_like(f.samples)
        comp[..., 0] = f.samples[..., c]
        Fc = fwd(QSignal2D(f.grid, comp), p)
        mod = Fc.modulus()
        comp_abs = mod if comp_abs is None else comp_abs + mod
        omega_grid = Fc.grid
    lhs = float(np.sum(comp_abs**pp) * omega_grid.cell_area)**(1.0 / pp)
    rhs = (_abs_b_product(p)**(-0.5 + 1.0 / pp) / (2 * math.pi)) * f.lp_norm(hp)
    return report.upper_bound("hausdorff-young", lhs, rhs,
                              params={"p": hp, "p_prime": pp,
                                      "method": method, **p.to_dict()},
                              grid=f.grid.to_dict())


def concentration_check(G: GaborCoefficients, mask: RegionMask,
                        f_norm: float, phi_norm: float) -> report.InequalityReport:
    """||f|| ||phi|| against the complement energy blown up by
    1/sqrt(1 - m(Sigma)), for 0 < m(Sigma) < 1."""
    m = mask.measure
    if not 0.0 < m < 1.0:
        raise ValueError(f"mask measure must lie in (0, 1), got {m!r}")
    if mask.mask.shape != G.coeffs.shape[:4]:
        raise ValueError("mask shape does not match the coefficient field")
    comp = float(np.sum(G.modulus_sq()[~mask.mask]) * G.cell_volume)
    lhs = f_norm * phi_norm
    rhs = math.sqrt(comp) / math.sqrt(1.0 - m)
    return report.upper_bound("concentration", lhs, rhs,
                              params={"measure": m,
                                      "complement_energy": comp,
                                      **G.params.to_dict()})


def epsilon_concentration_check(G: GaborCoefficients, mask: RegionMask,
                                epsilon: float) -> report.InequalityReport:
    """Measure lower bound 2 pi sqrt|b1 b2| (1 - eps) <= m(Sigma) for a
    region capturing at least 1 - eps of the energy of unit-norm data."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if mask.mask.shape != G.coeffs.shape[:4]:
        raise ValueError("mask shape does not match the coefficient field")
    captured = float(np.sum(G.modulus_sq()[mask.mask]) * G.cell_volume)
    if captured + 1e-9 < 1.0 - epsilon:
        raise ValueError(f"mask captures {captured!r} < 1 - eps = {1 - epsilon!r}; "
                         "hypothesis unmet (normalize f and phi first)")
    babs = _abs_b_product(G.params)
    lhs = 2 * math.pi * math.sqrt(babs) * (1.0 - epsilon)
    rhs = mask.measure
    return report.upper_bound("eps-concentration", lhs, rhs,
                              params={"epsilon": epsilon, "captured": captured,
                                      "abs_b1b2": babs, **G.params.to_dict()})


def moment_concentration_check(f: QSignal2D, phi: QSignal2D, p: QLCTParams,
                               s: float, method: str = "fast") -> report.InequalityReport:
    """||f|| ||phi|| against the joint-radius moment; the constant is
    existential, so only the empirical constant is recorded."""
    _require_nonzero(f, phi)
    stats = memo_field_stats(f, phi, p, s_values=(s,), method=method)
    _require_field_energy(stats)
    joint = stats["moment_joint"][s]
    lhs = f.l2_norm() * phi.l2_norm()
    rhs = math.sqrt(joint)
    return report.upper_bound("moment-concentration", lhs, rhs,
                              empirical_constant=lhs / rhs,
                              params={"s": s, "moment_joint": joint,
                                      "plancherel_by_y_residual":
                                          _plancherel_by_y_residual(f, phi, stats),
                                      "method": method, **p.to_dict()},
                              grid=f.grid.to_dict())
