"""Closed-form bound calculators.

Everything in this module is deterministic arithmetic on the assumption
constants; nothing here simulates. The free coupling horizon s is
minimized over a log-spaced grid followed by golden-section refinement, so
reported values sit at or slightly above the true infimum. That direction
is safe: any admissible s gives a valid upper bound, so the report is
always a correct right-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .coefficients import AssumptionConstants
from .coupling import _check_theta
from .segment_paths import SegmentPath, sup_distance

# switch to the series branch of K4/(1 - e^{-K4 s}) below this |K4 s|
_SERIES_CUT = 1e-6

# points of the log grid in s (bound_H_T, bound_Phi_p) and of the uniform
# grid in eps (bound_Phi_p) that the minimizers search before refining
S_GRID = 200
EPS_GRID = 200


@dataclass(frozen=True)
class GapPair:
    """Initial-condition gaps entering every bound.

    point_gap is the endpoint distance |xi(0) - eta(0)|, seg_gap the sup
    distance over the whole history window; the first never exceeds the
    second.
    """

    point_gap: float
    seg_gap: float

    def __post_init__(self):
        if not (np.isfinite(self.point_gap) and np.isfinite(self.seg_gap)):
            raise ValueError("gaps must be finite")
        if self.point_gap < 0 or self.seg_gap < 0:
            raise ValueError("gaps must be nonnegative")
        if self.point_gap > self.seg_gap:
            raise ValueError("point_gap cannot exceed seg_gap")

    @classmethod
    def from_segments(cls, xi: SegmentPath, eta: SegmentPath) -> "GapPair":
        pg = float(np.linalg.norm(xi.endpoint() - eta.endpoint()))
        return cls(point_gap=pg, seg_gap=sup_distance(xi, eta))


@dataclass(frozen=True)
class BoundReport:
    """Result of a grid-plus-refinement minimization.

    terms holds the per-term breakdown at the reported argmin (the entries
    sum to value). at_boundary flags an argmin sitting on a grid edge,
    which for the open end means the infimum is approached, not attained.
    """

    value: float
    s_star: float
    eps_star: Optional[float] = None
    terms: Dict[str, float] = field(default_factory=dict)
    at_boundary: bool = False
    meta: Dict[str, float] = field(default_factory=dict)


def _require_finite_positive(**values: float) -> None:
    """Raise ValueError naming the first of values that is not finite and
    positive; NaN fails too."""
    for name, v in values.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be finite and positive")


def _k4_ratio(k4: float, s: float) -> float:
    """K4 / (1 - e^{-K4 s}), positive for every K4, with a series branch
    near K4 s = 0 (three terms; relative error < 1e-13 at the cut)."""
    if not s > 0:
        raise ValueError("s must be positive")
    u = k4 * s
    if abs(u) < _SERIES_CUT:
        return (1.0 + 0.5 * u + u * u / 12.0) / s
    try:
        return k4 / (-math.expm1(-u))
    except OverflowError:
        # u far below 0: the same ratio as K4 e^u / (e^u - 1), which tends to 0
        return k4 * math.exp(u) / math.expm1(u)


def _growth(k: AssumptionConstants, s: float, seg_gap: float) -> float:
    """e^{K2^2 (K1^2 s + 8) s}, the growth over s of a history term
    K1^2 sg^2 c, c > 0; +inf past the float range, or 0 there when the term
    is 0 (K1 = 0 or sg = 0), so that the term stays 0 and not NaN."""
    try:
        return math.exp(k.k2 ** 2 * (k.k1 ** 2 * s + 8.0) * s)
    except OverflowError:
        return math.inf if k.k1 and seg_gap else 0.0


def _golden_min(f: Callable[[float], float], a: float, b: float,
                iters: int = 90) -> Tuple[float, float]:
    # plain golden-section search; f gets evaluated ~iters+2 times
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _grid_refine(f: Callable[[float], float], grid: np.ndarray) -> Tuple[float, float, bool]:
    """Minimize f over the grid, then golden-section inside the bracket
    around the discrete argmin. Returns (s_star, value, at_boundary)."""
    vals = np.array([f(s) for s in grid])
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    s_star, v_star = float(grid[i]), float(vals[i])
    if hi > lo:
        s_ref, v_ref = _golden_min(f, float(lo), float(hi))
        if v_ref < v_star:
            s_star, v_star = s_ref, v_ref
    return s_star, v_star, i in (0, len(grid) - 1)


def _log_grid(upper: float, size: int) -> np.ndarray:
    if upper <= 0:
        raise ValueError("grid upper end must be positive")
    if size < 2:
        raise ValueError("grid size must be >= 2")
    return np.geomspace(upper * 1e-6, upper, size)


def _h_terms(consts: AssumptionConstants, gaps: GapPair, r0: float,
             s: float) -> Tuple[float, float]:
    k = consts
    gap = 2.0 * k.k3 ** 2 * _k4_ratio(k.k4, s) * gaps.point_gap ** 2
    grow = _growth(k, s, gaps.seg_gap)
    seg = (k.k1 ** 2 * (r0 / 2.0 + s * (1.0 + k.k2 ** 2 * k.k3 ** 2)) * grow
           * gaps.seg_gap ** 2)
    return gap, seg


def bound_H_T_at(consts: AssumptionConstants, gaps: GapPair, r0: float,
                 s: float) -> float:
    """Log-Harnack additive constant evaluated at one fixed coupling horizon
    s rather than minimized; any s > 0 gives a valid (possibly loose) bound
    provided s <= T - r0 for the intended T."""
    _require_finite_positive(s=s, r0=r0)
    return sum(_h_terms(consts, gaps, r0, s))


def _check_horizon(T: float, r0: float) -> None:
    if not T > r0:
        raise ValueError("the horizon must exceed the delay window: T > r0 is required")
    _require_finite_positive(r0=r0, T=T)


def bound_H_T(consts: AssumptionConstants, gaps: GapPair, T: float,
              r0: float) -> BoundReport:
    """Additive constant of the log-Harnack inequality at horizon T > r0.

    Minimizes, over the free coupling horizon s in (0, T - r0], the sum of
    a gap term 2 K3^2 K4 pg^2 / (1 - e^{-K4 s}) and a history term
    K1^2 (r0/2 + s (1 + K2^2 K3^2)) e^{K2^2 (K1^2 s + 8) s} sg^2.
    """
    _check_horizon(T, r0)

    s_star, value, edge = _grid_refine(
        lambda s: sum(_h_terms(consts, gaps, r0, s)),
        _log_grid(T - r0, S_GRID))
    gap_t, seg_t = _h_terms(consts, gaps, r0, s_star)
    return BoundReport(
        value=value, s_star=s_star,
        terms={"gap_term": gap_t, "segment_term": seg_t},
        at_boundary=edge, meta={"s_grid_size": S_GRID, "s_max": T - r0})


def bound_entropy_prop21(consts: AssumptionConstants, theta: float, t: float,
                         gaps: GapPair, t0: Optional[float] = None) -> float:
    """Closed-form bound on the relative entropy E[R_t log R_t] of the
    coupled measure up to time t <= t0, for a coupling with deadline t0
    (defaults to t) and schedule parameter theta."""
    _check_theta(theta)
    if t0 is None:
        t0 = t
    _require_finite_positive(t=t, t0=t0)
    if t > t0:
        raise ValueError("the bound applies for t <= t0")
    k = consts
    gap = (2.0 * k.k3 ** 2 * _k4_ratio(k.k4, t0) * gaps.point_gap ** 2
           / (theta * (2.0 - theta)))
    grow = _growth(k, t, gaps.seg_gap)
    seg = (t * k.k1 ** 2 * (1.0 + k.k2 ** 2 * k.k3 ** 2) * grow / theta ** 2
           * gaps.seg_gap ** 2)
    return gap + seg


def bound_entropy_with_tail(consts: AssumptionConstants, t0: float, r0: float,
                            gaps: GapPair, theta: float = 1.0) -> float:
    """Entropy bound over the full horizon: the deadline part plus the cost
    of the history mismatch persisting on [t0, t0 + r0)."""
    _require_finite_positive(r0=r0)
    k = consts
    tail = (k.k1 ** 2 * r0 / 2.0
            * _growth(k, t0, gaps.seg_gap)
            * gaps.seg_gap ** 2)
    return bound_entropy_prop21(consts, theta, t0, gaps, t0=t0) + tail


def _lambda_p(p: float) -> float:
    """Exponent weight 1 / (2 (sqrt(p) - 1)^2), defined for p > 1."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    return 1.0 / (2.0 * (math.sqrt(p) - 1.0) ** 2)


def _check_power_exponent(p: float, consts: AssumptionConstants) -> None:
    """Raise ValueError unless p exceeds (1 + K2 K3)^2, the least exponent
    the power-Harnack inequality admits."""
    thr = (1.0 + consts.k2 * consts.k3) ** 2
    if not p > thr:
        raise ValueError(f"p must exceed (1 + K2 K3)^2 = {thr:.6g}, got p={p:.6g}")


def _theta_set_contains(eps: float, p: float, consts: AssumptionConstants) -> bool:
    """Whether eps is an admissible tuning parameter for exponent p:
    (1-eps)^4 / (2 (1+eps)^3 K2^2 K3^2) >= lambda_p. With K2 = 0 the left
    side is infinite and every eps in (0,1) qualifies."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    _check_power_exponent(p, consts)
    if consts.k2 == 0.0:
        return True
    lhs = (1.0 - eps) ** 4 / (2.0 * (1.0 + eps) ** 3 * (consts.k2 * consts.k3) ** 2)
    return lhs >= _lambda_p(p)


def _w_eps(eps: float, lam: float, consts: AssumptionConstants, r0: float) -> float:
    """Largest of the three growth rates entering the exponential-moment
    machinery; scales the admissible horizon s_eps."""
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")
    if not lam > 0:
        raise ValueError("lam must be positive")
    if not r0 > 0:
        raise ValueError("r0 must be positive")
    k1, k2, k3 = consts.k1, consts.k2, consts.k3
    e2 = eps * eps
    t1 = 8.0 * (1.0 + eps) * r0 * k1 ** 3 * k2 * lam \
        * (4.0 * (1.0 + eps) * r0 * k1 * k2 * lam + eps) / e2
    t2 = 2.0 * (1.0 + eps) ** 2 * lam / e2
    t3 = (1.0 + eps) ** 3 * k1 ** 2 * k2 ** 2 * k3 ** 2 * lam \
        / (8.0 * e2 * (1.0 - eps) ** 3)
    return max(t1, t2, t3)


def _s_eps(eps: float, lam: float, consts: AssumptionConstants, r0: float) -> float:
    """Upper end of the admissible s-range, (sqrt(K1^2 + 2W) - K1)/(4 W K2).
    Unbounded when K2 = 0 (returns inf): no horizon constraint then."""
    if consts.k2 == 0.0:
        # touch the validators so the degenerate branch rejects bad input too
        _w_eps(eps, lam, consts, r0)
        return math.inf
    w = _w_eps(eps, lam, consts, r0)
    return (math.sqrt(consts.k1 ** 2 + 2.0 * w) - consts.k1) / (4.0 * w * consts.k2)


def bound_Phi_p(p: float, T: float, consts: AssumptionConstants, gaps: GapPair,
                r0: float) -> BoundReport:
    """Additive exponent of the power-Harnack inequality at horizon T.

    Two-level minimization: eps runs over a uniform grid on (0,1) filtered
    for admissibility, s over a log grid on (0, min(s_eps, T - r0)], with
    golden-section refinement in s at the winning eps. The reported terms
    are scaled by the (sqrt(p)-1)/sqrt(p) prefactor so they sum to value.
    """
    _check_horizon(T, r0)
    _check_power_exponent(p, consts)
    lam = _lambda_p(p)
    k = consts
    pref = (math.sqrt(p) - 1.0) / math.sqrt(p)
    pg2, sg2 = gaps.point_gap ** 2, gaps.seg_gap ** 2

    def terms_at(eps, w, s):
        t_eps = eps / (2.0 * (1.0 + eps))
        if k.k2 == 0.0:
            t_quad = 0.0
        else:
            denom = 1.0 - 4.0 * k.k1 * k.k2 * s
            t_quad = 16.0 * k.k2 ** 2 * s * s * w / denom
        t_gap = (lam * (1.0 + eps) ** 2 * k.k3 ** 2 * _k4_ratio(k.k4, s) * pg2
                 / (2.0 * eps * (1.0 - eps) ** 2 * (1.0 + 2.0 * eps)))
        t_seg = (k.k1 ** 2 * r0 * lam + 2.0 * s * w) * sg2
        return t_eps, t_quad, t_gap, t_seg

    def inner(eps):
        # best value over s at this eps; inf when eps is inadmissible so
        # the eps refinement below cannot wander out of the constraint set
        if not (0.0 < eps < 1.0) or not _theta_set_contains(eps, p, consts):
            return math.inf, math.nan, math.nan
        w = _w_eps(eps, lam, consts, r0)
        s_hi = min(_s_eps(eps, lam, consts, r0), T - r0)

        def f(s):
            return pref * sum(terms_at(eps, w, s))

        s_star, v, _ = _grid_refine(f, _log_grid(s_hi, S_GRID))
        return v, s_star, w

    eps_candidates = [(i + 1.0) / (EPS_GRID + 1.0) for i in range(EPS_GRID)]
    eps_candidates = [e for e in eps_candidates if _theta_set_contains(e, p, consts)]
    if not eps_candidates:
        raise ValueError("no admissible eps found on the grid; "
                         "the admissible set should be nonempty for this p")

    inner_vals = [inner(e) for e in eps_candidates]
    j = int(np.argmin([iv[0] for iv in inner_vals]))
    eps_edge = j in (0, len(eps_candidates) - 1)
    v, s_b, w_b = inner_vals[j]
    eps_b = eps_candidates[j]

    # refine eps inside the bracket around the discrete argmin
    lo = eps_candidates[max(j - 1, 0)]
    hi = eps_candidates[min(j + 1, len(eps_candidates) - 1)]
    if j == len(eps_candidates) - 1:
        # the admissible set is cut off from above and its edge is a closed
        # boundary the uniform grid misses; locate it by bisection so the
        # refinement can reach an edge minimum (the objective often slides
        # all the way down to it)
        a, b_out = eps_candidates[-1], 1.0
        for _ in range(80):
            mid = 0.5 * (a + b_out)
            if mid < 1.0 and _theta_set_contains(mid, p, consts):
                a = mid
            else:
                b_out = mid
        hi = a
    if hi > lo:
        eps_ref, v_ref = _golden_min(lambda e: inner(e)[0], lo, hi)
        if v_ref < v:
            v, s_b, w_b = inner(eps_ref)
            eps_b = eps_ref
    t_eps, t_quad, t_gap, t_seg = terms_at(eps_b, w_b, s_b)
    return BoundReport(
        value=v, s_star=s_b, eps_star=eps_b,
        terms={"eps_term": pref * t_eps, "quadratic_term": pref * t_quad,
               "gap_term": pref * t_gap, "segment_term": pref * t_seg},
        at_boundary=eps_edge,
        meta={"eps_grid": EPS_GRID, "s_grid": S_GRID, "lambda_p": lam,
              "w_eps": w_b, "prefactor": pref})


def bound_seg_gap_moment(consts: AssumptionConstants, gaps: GapPair,
                         lam: float, s: float) -> float:
    """Explicit bound on the exponential moment of the segment gap,

        E_Q exp(lam int_0^s |X_t - Y_t|_inf^2 dt)
            <= exp(16 K2^2 s^2 lam / (1 - 4 K1 K2 s) + 2 s lam sg^2),

    where |.|_inf is the sup distance over the history window and sg the
    initial segment gap. Needs 1 - 4 K1 K2 s > 0 and lam at most
    (1 - 4 K1 K2 s)/(8 K2^2 s^2); with K2 = 0 the quadratic term vanishes
    and lam is uncapped.
    """
    k = consts
    if not 0 < s < math.inf:
        raise ValueError("the segment-gap moment needs finite s > 0")
    if not 0 < lam < math.inf:
        raise ValueError("lam must be finite and positive")
    if k.k2 > 0.0:
        denom = 1.0 - 4.0 * k.k1 * k.k2 * s
        if denom <= 0:
            raise ValueError("need 1 - 4 K1 K2 s > 0")
        cap = denom / (8.0 * k.k2 ** 2 * s * s)
        # hair of tolerance so a caller evaluating exactly at the cap,
        # computed in its own rounding order, is not rejected
        if lam > cap * (1.0 + 1e-9):
            raise ValueError(f"lam exceeds the admissible cap {cap:.6g}")
        quad = 16.0 * k.k2 ** 2 * s * s * lam / denom
    else:
        quad = 0.0
    try:
        return math.exp(quad + 2.0 * s * lam * gaps.seg_gap ** 2)
    except OverflowError:  # past the float range: the vacuous bound
        return math.inf
