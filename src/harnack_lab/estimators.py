"""Monte Carlo estimators and inequality verdicts.

Estimates are assembled from fixed 8192-path chunks whose partial sums
(through math.fsum) and squared deviations are reduced in chunk order, so a
given (seed, n, grid) always produces the same bits regardless of worker
count. Inequality checks are one-sided statistical tests: a claim "holds"
when the estimated margin is not significantly negative, and is only called
"violated" at a stronger significance (6 standard errors by default) to keep
discretization bias from raising false alarms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ._parallel import map_chunks, ordered_sum
from .bounds import GapPair, bound_H_T, bound_H_T_at, bound_Phi_p, _power_threshold
from .coefficients import CoefficientSet
from .coupling import GammaSchedule, _coupled_batch
from .integrator import NoiseStream, _simulate_batch
from .segment_paths import GridSpec, SegmentPath

MAX_EXPONENT = 700.0  # exp() overflows just above this

# an unmerged-path fraction above this forces an inconclusive verdict
FAILURE_TOLERANCE = 1e-3

# sides that differ by at most this many machine epsilons of the larger
# magnitude tie at margin 0 whatever their SEs, so that rounding (a zero-SE
# estimate one ulp above its bound) cannot flip a verdict
TIE_ULPS = 8


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error and run provenance.

    diagnostics holds the range (min, max) and, for coupled estimates, the
    failed paths: unmerged (finite but apart at t0), nonfinite (NaN or inf
    state or weight) and failures, their sum.
    """

    mean: float
    std_error: float
    n: int
    seed: int
    diagnostics: Dict[str, float] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return int(self.diagnostics.get("failures", 0))


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one inequality check.

    margin_se is (rhs - lhs) in combined-standard-error units; positive
    means the inequality held with room. verdict follows the one-sided
    rule: holds when margin_se >= -k_tol, violated when <= -k_viol,
    inconclusive between, and forced inconclusive when too many coupled
    paths failed to merge.
    """

    claim: str
    lhs: MCEstimate
    rhs: MCEstimate
    bound: float
    margin_se: float
    verdict: str
    k_tol: float = 3.0
    k_viol: float = 6.0
    meta: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class TestFunction:
    """Bounded functional of a terminal segment, with declared range.

    fn maps a batch of segments (B, m+1, d) to values (B,); the declared
    lower/upper range is asserted on every evaluation, since the
    inequalities under test require f bounded and (for the log form) >= 1.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float
    params: Dict[str, float] = field(default_factory=dict)

    def __call__(self, segments: np.ndarray) -> np.ndarray:
        v = np.asarray(self.fn(segments), dtype=float)
        if v.shape != (segments.shape[0],):
            raise ValueError("test function must return one value per path")
        if not np.all(np.isfinite(v)):
            raise FloatingPointError(f"test function {self.name} returned non-finite values")
        tol = 1e-12 * max(1.0, abs(self.upper))
        if v.min() < self.lower - tol or v.max() > self.upper + tol:
            raise ValueError(
                f"test function {self.name} left its declared range "
                f"[{self.lower}, {self.upper}]: saw [{v.min()}, {v.max()}]")
        return v


def test_function(name: str, cap: float = 100.0) -> TestFunction:
    """Catalog of test functions: "quad_cap" is 1 + min(|endpoint|^2, cap),
    "exp_cap" is exp(min(sup norm, cap)). Both bounded, both >= 1."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    if name == "quad_cap":
        def fn(segs):
            end_sq = (segs[:, -1, :] ** 2).sum(axis=1)
            return 1.0 + np.minimum(end_sq, cap)
        return TestFunction(name="quad_cap", fn=fn, lower=1.0, upper=1.0 + cap,
                            params={"cap": cap})
    if name == "exp_cap":
        if cap > MAX_EXPONENT:
            raise ValueError("cap too large: exp would overflow")
        def fn(segs):
            sup = np.sqrt((segs ** 2).sum(axis=2)).max(axis=1)
            return np.exp(np.minimum(sup, cap))
        return TestFunction(name="exp_cap", fn=fn, lower=1.0, upper=math.exp(cap),
                            params={"cap": cap})
    raise ValueError(f"unknown test function {name!r}; catalog: quad_cap, exp_cap")


def _log_of(f: TestFunction) -> TestFunction:
    if f.lower < 1.0:
        raise ValueError("log form needs f >= 1")
    return TestFunction(name=f"log({f.name})",
                        fn=lambda segs: np.log(f(segs)),
                        lower=math.log(f.lower), upper=math.log(f.upper),
                        params=dict(f.params))


def _power_of(f: TestFunction, p: float) -> TestFunction:
    up = f.upper ** p
    if not math.isfinite(up):
        raise ValueError(f"f^p overflows for {f.name} with p={p}; lower the cap")
    return TestFunction(name=f"{f.name}^{p:g}",
                        fn=lambda segs: f(segs) ** p,
                        lower=f.lower ** p, upper=up, params=dict(f.params))


@dataclass(frozen=True)
class StationarySample:
    """Segments drawn from the long-run law of a delay-free system."""

    segments: tuple
    endpoint_mean: np.ndarray
    endpoint_var: np.ndarray
    lag_r0_autocov: np.ndarray
    n: int
    seed: int
    burn_in: float

    def __post_init__(self):
        self.endpoint_mean.setflags(write=False)
        self.endpoint_var.setflags(write=False)
        self.lag_r0_autocov.setflags(write=False)


_MOMENT_KEYS = ("n", "sum", "m2", "min", "max")

# coupled paths that failed: finite but apart at t0, or with a NaN or inf
# final state or log-weight
_FAILURE_KEYS = ("unmerged", "nonfinite")


def _chunk_moments(v: np.ndarray) -> dict:
    """Count, sum, sum of squared deviations from the chunk mean (M2) and
    range of one chunk's values."""
    total = float(v.sum())
    dev = v - total / v.size
    return {"n": v.size, "sum": total, "m2": float((dev * dev).sum()),
            "min": float(v.min()), "max": float(v.max())}


def _reduce_moments(parts, n: int, seed: int) -> MCEstimate:
    # Chan, Golub & LeVeque: merge chunk means and M2s in chunk order, so the
    # variance never takes the cancelling difference sum(v^2) - n mean^2
    count, run_mean, m2 = 0, 0.0, 0.0
    for p in parts:
        delta = p["sum"] / p["n"] - run_mean
        n_ab = count + p["n"]
        run_mean += delta * p["n"] / n_ab
        m2 += p["m2"] + delta * delta * count * p["n"] / n_ab
        count = n_ab
    mean = ordered_sum([p["sum"] for p in parts]) / n
    var = m2 / (n - 1) if n > 1 else 0.0
    diag = {"min": min(p["min"] for p in parts), "max": max(p["max"] for p in parts)}
    # failure counts add up across chunks; any other extra key is a worst case
    for key in parts[0]:
        if key in _FAILURE_KEYS:
            diag[key] = sum(p[key] for p in parts)
        elif key not in _MOMENT_KEYS:
            diag[key] = max(p[key] for p in parts)
    diag["failures"] = sum(diag.get(key, 0) for key in _FAILURE_KEYS)
    return MCEstimate(mean=float(mean), std_error=math.sqrt(var / n), n=n,
                      seed=seed, diagnostics=diag)


def _seg_gap_integral(full_x: np.ndarray, full_y: np.ndarray, m: int,
                      h: float, k_upper: int) -> np.ndarray:
    """int_0^{k_upper h} ||X_t - Y_t||_inf^2 dt per path, from coupled
    histories (m + n_T + 1, B, d); the sup runs over the delay window
    [t - r0, t], i.e. the m + 1 grid rows ending at t."""
    gaps = np.empty((k_upper + m, full_x.shape[1]))
    for row in range(k_upper + m):
        gaps[row] = np.linalg.norm(full_x[row] - full_y[row], axis=1)
    out = np.zeros(full_x.shape[1])
    for k in range(k_upper):
        win = gaps[k: k + m + 1].max(axis=0)
        out += win * win * h
    return out


def estimate_PT_f(coeffs: CoefficientSet, xi: SegmentPath, f: TestFunction,
                  grid: GridSpec, n: int, seed: int,
                  threads: Optional[int] = None) -> MCEstimate:
    """Mean of f over the terminal segments of n independent paths from xi."""
    if n < 2:
        raise ValueError("need n >= 2 paths")
    grid.check_segments(coeffs.dim, xi)
    stream = NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim)

    def chunk(a, b):
        noise = stream.batch(a, b - a, grid.n_T)
        full = _simulate_batch(coeffs, xi.values, grid, noise)
        seg = np.moveaxis(full[grid.n_T:], 0, 1)
        return _chunk_moments(f(seg))

    return _reduce_moments(map_chunks(chunk, n, threads), n, seed)


def _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads,
                      delta_merge, measure, k_upper, value_of) -> MCEstimate:
    grid.check_segments(coeffs.dim, xi, eta)
    if not sched.t0 <= grid.T - grid.r0:
        raise ValueError("the coupling deadline must satisfy t0 <= T - r0")
    stream = NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim)

    def chunk(a, b):
        noise = stream.batch(a, b - a, grid.n_T)
        res = _coupled_batch(coeffs, xi.values, eta.values, grid, sched, noise,
                             measure, delta_merge, k_upper=k_upper)
        v, extra = value_of(res, a)
        # a path that went NaN or inf never merges; count it apart
        finite = (np.isfinite(res["log_weight"])
                  & np.isfinite(res["full_x"][-1]).all(axis=1)
                  & np.isfinite(res["full_y"][-1]).all(axis=1))
        out = _chunk_moments(v)
        out["unmerged"] = int((finite & ~res["merged"]).sum())
        out["nonfinite"] = int((~finite).sum())
        out.update(extra)
        return out

    return _reduce_moments(map_chunks(chunk, n, threads), n, seed)


def estimate_entropy_Q(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                       sched: GammaSchedule, grid: GridSpec, n: int, seed: int,
                       t_upper: Optional[float] = None,
                       delta_merge: float = 1e-8,
                       threads: Optional[int] = None) -> MCEstimate:
    """Relative entropy estimate: half the mean of int |phi|^2 along coupled
    paths run under the measure where the forced copy solves the original
    equation. Failed paths are included and counted in diagnostics."""
    k_upper = grid.index_of(t_upper, "t_upper") if t_upper is not None else None

    def value_of(res, a):
        return 0.5 * res["phi_sq_upper"], {}

    return _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads,
                             delta_merge, "Q", k_upper, value_of)


_INTEGRANDS = ("phi_sq", "gap_over_gamma_sq", "seg_gap_sq")


def estimate_exp_functional(coeffs: CoefficientSet, xi: SegmentPath,
                            eta: SegmentPath, sched: GammaSchedule,
                            grid: GridSpec, lam: float, n: int, seed: int,
                            integrand: str = "phi_sq",
                            t_upper: Optional[float] = None,
                            delta_merge: float = 1e-8,
                            threads: Optional[int] = None) -> MCEstimate:
    """Mean of exp(lam * I) under the coupled measure, where I is one of
    three path integrals up to t_upper (default the full horizon):
      phi_sq             int |phi|^2
      gap_over_gamma_sq  int |X-Y|^2 / gamma^2   (needs t_upper <= t0)
      seg_gap_sq         int of the squared running segment gap
    Raises on exponent overflow, reporting lam and the offending path.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if integrand not in _INTEGRANDS:
        raise ValueError(f"integrand must be one of {_INTEGRANDS}")
    k_upper = grid.index_of(t_upper, "t_upper") if t_upper is not None else grid.n_T
    if integrand == "gap_over_gamma_sq":
        upper_t = t_upper if t_upper is not None else grid.T
        if upper_t > sched.t0:
            raise ValueError("gap_over_gamma_sq lives on [0, t0]; set t_upper <= t0")

    def value_of(res, a):
        if integrand == "seg_gap_sq":
            integral = _seg_gap_integral(res["full_x"], res["full_y"], grid.m,
                                         grid.h, k_upper)
        else:
            integral = res["phi_sq_upper" if integrand == "phi_sq" else "gap_gamma_sq"]
        expo = lam * integral
        worst = int(np.argmax(expo))
        if expo[worst] > MAX_EXPONENT:
            raise OverflowError(
                f"exponent overflow in exp-functional estimate: lam={lam}, "
                f"path {a + worst}, exponent {expo[worst]:.4g}")
        return np.exp(expo), {"max_exponent": float(expo[worst])}

    return _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads,
                             delta_merge, "Q", k_upper, value_of)


def estimate_martingale_mean(coeffs: CoefficientSet, xi: SegmentPath,
                             eta: SegmentPath, sched: GammaSchedule,
                             grid: GridSpec, n: int, seed: int,
                             delta_merge: float = 1e-8,
                             threads: Optional[int] = None) -> MCEstimate:
    """Mean of the exponential weight R_T along coupled paths run under the
    unforced law. Exactly 1 in expectation, step by step, so the estimate
    lands in 1 +- a few standard errors when the scheme is healthy."""

    def value_of(res, a):
        logw = res["log_weight"]
        worst = int(np.argmax(logw))
        if logw[worst] > MAX_EXPONENT:
            raise OverflowError(
                f"weight overflow: path {a + worst}, log-weight {logw[worst]:.4g}")
        return np.exp(logw), {"max_log_weight": float(logw[worst])}

    return _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads,
                             delta_merge, "P", None, value_of)


def merged_fraction(est: MCEstimate) -> float:
    return 1.0 - est.failures / est.n


def _verdict(margin_se: float, k_tol: float, k_viol: float,
             failure_fraction: float) -> str:
    if math.isnan(margin_se) or failure_fraction > FAILURE_TOLERANCE:
        return "inconclusive"
    if margin_se >= -k_tol:
        return "holds"
    if margin_se <= -k_viol:
        return "violated"
    return "inconclusive"


def _margin(lhs_mean, lhs_se, rhs_mean, rhs_se) -> float:
    diff = rhs_mean - lhs_mean
    tie = TIE_ULPS * sys.float_info.epsilon * max(abs(lhs_mean), abs(rhs_mean))
    if math.isfinite(diff) and abs(diff) <= tie:
        return 0.0
    se = math.hypot(lhs_se, rhs_se)
    if se == 0.0:
        return math.inf if diff > 0 else -math.inf
    return diff / se


def make_verdict(claim: str, lhs: MCEstimate, rhs: MCEstimate, bound: float,
                 k_tol: float = 3.0, k_viol: float = 6.0,
                 failure_fraction: float = 0.0, two_sided: bool = False,
                 meta: Optional[dict] = None) -> VerdictReport:
    """Assemble a VerdictReport from two estimates.

    One-sided claims assert lhs <= rhs. two_sided turns the margin into
    -|deviation|/se for equality claims (the weight-mean check), so any
    large deviation in either direction counts against the claim.
    """
    margin = _margin(lhs.mean, lhs.std_error, rhs.mean, rhs.std_error)
    if two_sided:
        margin = -abs(margin) if margin != 0.0 else 0.0
    verdict = _verdict(margin, k_tol, k_viol, failure_fraction)
    return VerdictReport(claim=claim, lhs=lhs, rhs=rhs, bound=bound,
                         margin_se=margin, verdict=verdict, k_tol=k_tol,
                         k_viol=k_viol, meta=dict(meta or {}))


def check_log_harnack(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                      f: TestFunction, T: float, grid: GridSpec, n: int,
                      seed: int, s_choice: Optional[float] = None,
                      k_tol: float = 3.0, k_viol: float = 6.0,
                      s_grid_size: int = 200,
                      threads: Optional[int] = None) -> VerdictReport:
    """One-sided test of  E log f(X_T^eta) <= log E f(X_T^xi) + H  with the
    closed-form additive constant H. The two expectations use independent
    seeds; the log on the right propagates its error by the delta method.
    s_choice pins the free coupling horizon inside H instead of minimizing.
    """
    if not T > grid.r0:
        raise ValueError("the inequality needs a horizon longer than the delay: T > r0")
    if abs(T - grid.T) > 1e-12 * max(T, 1.0):
        raise ValueError("T must equal the grid horizon")
    if f.lower < 1.0:
        raise ValueError("log-Harnack checks need f >= 1")
    grid.check_segments(coeffs.dim, xi, eta)

    gaps = GapPair.from_segments(xi, eta)
    if s_choice is not None:
        if not (0.0 < s_choice <= T - grid.r0):
            raise ValueError("s_choice must lie in (0, T - r0]")
        h_val = bound_H_T_at(coeffs.constants, gaps, grid.r0, s_choice)
        s_star = s_choice
    else:
        rep = bound_H_T(coeffs.constants, gaps, T, grid.r0, s_grid_size)
        h_val, s_star = rep.value, rep.s_star

    lhs = estimate_PT_f(coeffs, eta, _log_of(f), grid, n, seed, threads)
    raw = estimate_PT_f(coeffs, xi, f, grid, n, seed + 1, threads)
    rhs = MCEstimate(mean=math.log(raw.mean) + h_val,
                     std_error=raw.std_error / raw.mean, n=raw.n, seed=raw.seed,
                     diagnostics={"raw_mean": raw.mean, "bound": h_val,
                                  **raw.diagnostics})
    return make_verdict("log_harnack", lhs, rhs, h_val, k_tol, k_viol,
                        meta={"s_star": s_star, "point_gap": gaps.point_gap,
                              "seg_gap": gaps.seg_gap})


def check_power_harnack(coeffs: CoefficientSet, xi: SegmentPath,
                        eta: SegmentPath, f: TestFunction, p: float, T: float,
                        grid: GridSpec, n: int, seed: int,
                        k_tol: float = 3.0, k_viol: float = 6.0,
                        eps_grid: int = 200, s_grid: int = 200,
                        threads: Optional[int] = None) -> VerdictReport:
    """One-sided test of  E f(X_T^eta) <= (E f^p(X_T^xi))^{1/p} exp(Phi_p),
    compared in log space because Phi_p is large on realistic constants.
    """
    thr = _power_threshold(coeffs.constants)
    if not p > thr:
        raise ValueError(f"p must exceed (1 + K2 K3)^2 = {thr:.6g}, got p={p:.6g}")
    if not T > grid.r0:
        raise ValueError("the inequality needs a horizon longer than the delay: T > r0")
    if abs(T - grid.T) > 1e-12 * max(T, 1.0):
        raise ValueError("T must equal the grid horizon")
    if f.lower < 0.0:
        raise ValueError("power-Harnack checks need f >= 0")
    grid.check_segments(coeffs.dim, xi, eta)

    gaps = GapPair.from_segments(xi, eta)
    rep = bound_Phi_p(p, T, coeffs.constants, gaps, grid.r0, eps_grid, s_grid)

    raw_l = estimate_PT_f(coeffs, eta, f, grid, n, seed, threads)
    raw_r = estimate_PT_f(coeffs, xi, _power_of(f, p), grid, n, seed + 1, threads)
    # compare log E f(eta) against (1/p) log E f^p(xi) + Phi_p
    lhs = MCEstimate(mean=math.log(raw_l.mean),
                     std_error=raw_l.std_error / raw_l.mean,
                     n=raw_l.n, seed=raw_l.seed,
                     diagnostics={"raw_mean": raw_l.mean, **raw_l.diagnostics})
    rhs = MCEstimate(mean=math.log(raw_r.mean) / p + rep.value,
                     std_error=raw_r.std_error / (p * raw_r.mean),
                     n=raw_r.n, seed=raw_r.seed,
                     diagnostics={"raw_mean": raw_r.mean, "bound": rep.value,
                                  **raw_r.diagnostics})
    return make_verdict("power_harnack", lhs, rhs, rep.value, k_tol, k_viol,
                        meta={"p": p, "s_star": rep.s_star,
                              "eps_star": rep.eps_star, "log_scale": 1.0})


def sample_stationary_segments(coeffs: CoefficientSet, grid: GridSpec, n: int,
                               burn_in: float = 10.0,
                               seed: int = 0) -> StationarySample:
    """Draw n history segments from the long-run law of a delay-free system.

    Runs min(n, 256) independent paths from the origin, discards a burn-in,
    then tiles each path into consecutive length-r0 windows until n segments
    are collected. Consecutive windows touch at one grid point, so samples
    from one path are correlated at lag r0; the estimators downstream only
    need ergodic averages.
    """
    if not coeffs.delay_free:
        raise ValueError("stationary sampling needs a delay-free system")
    if n < 2:
        raise ValueError("need n >= 2 segments")
    if burn_in < 0:
        raise ValueError("burn_in must be nonnegative")
    n_paths = min(n, 256)
    windows = -(-n // n_paths)  # ceil
    h = grid.h
    n_burn = int(round(burn_in / h))
    total_T = (n_burn + windows * grid.m) * h
    run_grid = GridSpec(r0=grid.r0, T=total_T, m=grid.m)

    stream = NoiseStream(seed=seed, h=h, dim=coeffs.dim)
    noise = stream.batch(0, n_paths, run_grid.n_T)
    zero_hist = np.zeros((grid.m + 1, coeffs.dim))
    full = _simulate_batch(coeffs, zero_hist, run_grid, noise)

    segs = []
    for j in range(n_paths):
        for w in range(windows):
            start = grid.m + n_burn + w * grid.m
            segs.append(SegmentPath(grid.r0, full[start: start + grid.m + 1, j, :].copy()))
            if len(segs) == n:
                break
        if len(segs) == n:
            break

    ends = np.stack([s.values[-1] for s in segs])
    starts = np.stack([s.values[0] for s in segs])
    mean = ends.mean(axis=0)
    var = ends.var(axis=0, ddof=1)
    cov = ((starts - starts.mean(axis=0)) * (ends - mean)).sum(axis=0) / (n - 1)
    return StationarySample(segments=tuple(segs), endpoint_mean=mean,
                            endpoint_var=var, lag_r0_autocov=cov,
                            n=n, seed=seed, burn_in=n_burn * h)
