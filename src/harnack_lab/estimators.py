"""Monte Carlo estimators and inequality verdicts.

Estimates are assembled from fixed 8192-path chunks (4096 pairs in the
Harnack checks) whose partial sums (through math.fsum) and squared
deviations are reduced in chunk order, so a given (seed, n, grid) always
produces the same bits regardless of worker count. Inequality checks are one-sided statistical tests: a claim "holds"
when the estimated margin is not significantly negative, and is only called
"violated" at a stronger significance (6 standard errors by default) to keep
discretization bias from raising false alarms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from ._parallel import PAIR_CHUNK, map_chunks, ordered_sum
from .bounds import GapPair, bound_H_T, bound_H_T_at, bound_Phi_p, _power_threshold
from .coefficients import CoefficientSet
from .coupling import GammaSchedule, _coupled_batch, _Integrals
from .integrator import NoiseBlocks, NoiseStream, _simulate_batch
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

    diagnostics, each merged across chunks as follows: min and max, the
    range of the values (nan if any is NaN); for coupled estimates the
    failed paths, summed: unmerged (finite but apart at t0) and nonfinite
    (NaN or inf state or weight); max_exponent (exp functional) or
    max_log_weight (weight mean), the largest non-NaN one (nan if none);
    failures, unmerged + nonfinite. raw_mean, bound and ess are set on the
    merged estimate. No diagnostic depends on the chunk split.
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

    margin_se is (rhs - lhs) in units of its standard error: the two
    sides' SEs combined as independent, or, for the Harnack checks, whose
    sides share their paths, with their covariance; positive means the
    inequality held with room. verdict follows the one-sided
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


TEST_FUNCTIONS = ("quad_cap", "exp_cap")


def test_function(name: str, cap: float = 100.0) -> TestFunction:
    """Catalog of test functions: "quad_cap" is 1 + min(|endpoint|^2, cap),
    "exp_cap" is exp(min(sup norm, cap)). Both bounded, both >= 1."""
    if not cap > 0:
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
    raise ValueError(f"unknown test function {name!r}; catalog: {', '.join(TEST_FUNCTIONS)}")


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
    """Moments of n segments drawn from the long-run law of a delay-free
    system: the mean and variance of their endpoints, and the covariance of
    each segment's start with its end (the lag-r0 autocovariance)."""

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


@dataclass(frozen=True)
class _Chunk:
    """One chunk's count, sum, squared deviations from its mean (m2) and
    range; a coupled chunk adds its failed paths and its worst case, a
    paired chunk the moments of its second value y on the same paths and
    the co-moment cxy, the sum of (x - mean x)(y - mean y)."""

    n: int
    sum: float
    m2: float
    min: float
    max: float
    unmerged: Optional[int] = None
    nonfinite: Optional[int] = None
    worst: float = math.nan
    y: Optional["_Chunk"] = None
    cxy: float = math.nan

    @classmethod
    def of(cls, v: np.ndarray, **coupled) -> "_Chunk":
        total = float(v.sum())
        dev = v - total / v.size
        return cls(v.size, total, float((dev * dev).sum()), float(v.min()),
                   float(v.max()), **coupled)

    @classmethod
    def paired(cls, x: np.ndarray, y: np.ndarray) -> "_Chunk":
        cx, cy = cls.of(x), cls.of(y)
        cxy = float(((x - cx.sum / x.size) * (y - cy.sum / y.size)).sum())
        return replace(cx, y=cy, cxy=cxy)


def _fold(parts) -> float:
    """The co-moment of all the chunks from their (n, sum x, sum y, c)
    triples, c the chunk's sum of (x - mean x)(y - mean y), merged in chunk
    order as C = C_a + C_b + dx dy n_a n_b / n, dx and dy the differences of
    the two parts' means (Chan, Golub & LeVeque; Pebay, SAND2008-6212). It
    never takes the cancelling difference sum(x y) - n mean_x mean_y. With
    x = y it merges M2, the squared deviations."""
    count, mean_x, mean_y, c = 0, 0.0, 0.0, 0.0
    for n, sum_x, sum_y, c_part in parts:
        dx = sum_x / n - mean_x
        dy = sum_y / n - mean_y
        n_ab = count + n
        mean_x += dx * n / n_ab
        mean_y += dy * n / n_ab
        c += c_part + dx * dy * count * n / n_ab
        count = n_ab
    return c


def _reduce(parts: List[_Chunk], seed: int, worst: Optional[str] = None) -> MCEstimate:
    """One estimate from the chunks, in chunk order; worst names the
    diagnostic of the chunks' worst case, if the estimate reports one."""
    count = sum(p.n for p in parts)
    m2 = _fold([(p.n, p.sum, p.sum, p.m2) for p in parts])
    var = m2 / (count - 1) if count > 1 else 0.0
    # the range of all the values, NaN if any is NaN, as np.min and np.max
    diag = {"min": float(np.min([p.min for p in parts])),
            "max": float(np.max([p.max for p in parts]))}
    if parts[0].unmerged is not None:
        diag["unmerged"] = sum(p.unmerged for p in parts)
        diag["nonfinite"] = sum(p.nonfinite for p in parts)
    if worst is not None:
        # skipping NaN, as _checked_exp does within a chunk
        diag[worst] = float(np.fmax.reduce([p.worst for p in parts]))
    diag["failures"] = diag.get("unmerged", 0) + diag.get("nonfinite", 0)
    return MCEstimate(mean=ordered_sum([p.sum for p in parts]) / count,
                      std_error=math.sqrt(var / count), n=count, seed=seed, diagnostics=diag)


def _reduce_paired(parts: List[_Chunk], seed: int):
    """The estimates of x and y from paired chunks, and the covariance of
    their means, C / (n (n - 1)) with C the merged co-moment."""
    x = _reduce(parts, seed)
    y = _reduce([p.y for p in parts], seed)
    c = _fold([(p.n, p.sum, p.y.sum, p.cxy) for p in parts])
    return x, y, c / (x.n * (x.n - 1))


class _SegGapIntegral:
    """Observer of a coupled run: seg_gap_sq, per path, is
    int_0^{k_upper h} ||X_t - Y_t||_inf^2 dt, the sup over the delay window
    [t - r0, t], i.e. the m + 1 grid rows ending at t.

    The window maxima come online from the van Herk / Gil-Werman scheme:
    over blocks of w = m + 1 rows, the window starting at row k has max
    max(suffix max of k's block from k, prefix max of the next block up to
    k + m). When a block completes, a backward pass reads it from the ring
    into suf, one (w, B) array of suffix maxima; a running prefix-max row
    then adds the squared window maxima in step order, each suf entry used
    once before the next block overwrites it. Bit-identical to rescanning
    each window of a full history.
    """

    def __init__(self, m: int, h: float, k_upper: int, b: int):
        self.m, self.h, self.k_upper = m, h, k_upper
        self.seg_gap_sq = np.zeros(b)
        self.suf = np.empty((m + 1, b))
        self.run = None

    def __call__(self, i, pair):
        m, w = self.m, self.m + 1
        if i >= self.k_upper + m:
            return
        rx, ry = pair.rings

        def gap(row):  # np.linalg.norm(diff, axis=1), temporaries reused
            diff = rx.row(row) - ry.row(row)
            diff *= diff
            sq = np.add.reduce(diff, axis=1)
            return np.sqrt(sq, out=sq)

        if i % w == m:
            # backward over the block just completed; run is the max from
            # the current row to the block's end
            run = gap(i)
            self.suf[m] = run
            for j in range(m - 1, -1, -1):
                np.maximum(run, gap(i - m + j), out=run)
                self.suf[j] = run
        # forward; run is the max from the block start to the current row
        if i % w == 0:
            self.run = gap(i)
        else:
            np.maximum(self.run, gap(i), out=self.run)
        if i >= m:
            # window start i - m: its max, squared and scaled by h in its
            # suffix slot, which is not read again
            slot = self.suf[(i - m) % w]
            win = np.maximum(slot, self.run, out=slot)
            win *= win
            win *= self.h
            self.seg_gap_sq += win


def estimate_PT_f(coeffs: CoefficientSet, xi: SegmentPath, f: TestFunction,
                  grid: GridSpec, n: int, seed: int,
                  threads: Optional[int] = None) -> MCEstimate:
    """Mean of f over the terminal segments of n independent paths from xi."""
    if n < 2:
        raise ValueError("need n >= 2 paths")
    grid.check_segments(coeffs.dim, xi)
    stream = NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim)

    def chunk(a, b):
        noise = NoiseBlocks(stream, a, b - a, grid.n_T)
        (ring,) = _simulate_batch(coeffs, (xi.values,), grid, noise)
        return _Chunk.of(f(ring.segment(grid.m + grid.n_T)))

    return _reduce(map_chunks(chunk, n, threads), seed)


def _paired_PT_f(coeffs, eta, f_eta, xi, f_xi, grid, n, seed, threads):
    """f_eta(X^eta) and f_xi(X^xi) at T over n paired paths: the copies of
    path j from eta and from xi are driven by the same noise, that of path j
    of seed. Returns both estimates and the covariance of their means. A
    chunk steps PAIR_CHUNK paths from each history, so that a batch stays
    CHUNK columns wide."""
    if n < 2:
        raise ValueError("need n >= 2 paths")
    stream = NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim)
    last = grid.m + grid.n_T

    def chunk(a, b):
        noise = NoiseBlocks(stream, a, b - a, grid.n_T)
        r_eta, r_xi = _simulate_batch(coeffs, (eta.values, xi.values), grid, noise)
        return _Chunk.paired(f_eta(r_eta.segment(last)), f_xi(r_xi.segment(last)))

    return _reduce_paired(map_chunks(chunk, n, threads, PAIR_CHUNK), seed)


def _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads, delta_merge,
                      measure, value_of, observer=None, worst=None) -> MCEstimate:
    """Coupled chunks reduced to one estimate. observer(B), if given, builds
    each chunk's observer; value_of(pair, observer, first path) gives the
    per-path values and worst case of a finished chunk; worst names it.

    A chunk with an observer stops after max(observer.k_upper, n0) steps
    (t0 = n0 h), the last row its values or the merge check read, and
    draws only that prefix of each path's noise, bit-identical to the full
    draw; without one the values come from the final state, and chunks run
    to T. nonfinite counts the paths NaN or inf where the chunk stops.
    """
    if n < 2:
        raise ValueError("need n >= 2 paths")
    grid.check_segments(coeffs.dim, xi, eta)
    n0 = grid.deadline_index(sched.t0)
    stream = NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim)

    def chunk(a, b):
        ob = observer(b - a) if observer is not None else None
        k_stop = grid.n_T if ob is None else max(ob.k_upper, n0)
        pair = _coupled_batch(coeffs, xi.values, eta.values, grid, sched,
                              NoiseBlocks(stream, a, b - a, k_stop), measure, delta_merge,
                              () if ob is None else (ob,))
        v, top = value_of(pair, ob, a)
        # a path that went NaN or inf never merges; count it apart
        rx, ry = pair.rings
        last = grid.m + k_stop
        finite = (np.isfinite(pair.logw)
                  & np.isfinite(rx.row(last)).all(axis=1)
                  & np.isfinite(ry.row(last)).all(axis=1))
        return _Chunk.of(v, unmerged=int((finite & ~pair.merged).sum()),
                         nonfinite=int((~finite).sum()), worst=top)

    return _reduce(map_chunks(chunk, n, threads), seed, worst)


def estimate_entropy_Q(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                       sched: GammaSchedule, grid: GridSpec, n: int, seed: int,
                       t_upper: Optional[float] = None,
                       delta_merge: float = 1e-8,
                       threads: Optional[int] = None) -> MCEstimate:
    """Relative entropy estimate: half the mean of int |phi|^2 over
    [0, t_upper] (default the full horizon) along coupled paths run under
    the measure where the forced copy solves the original equation. Failed
    paths are included and counted in diagnostics; with t_upper, chunks
    stop at max(t_upper, t0), and nonfinite counts only the paths that
    failed on that span."""
    k_upper = grid.index_of(t_upper, "t_upper") if t_upper is not None else grid.n_T

    def value_of(pair, sums, a):
        return 0.5 * sums.phi_sq, math.nan

    return _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads,
                             delta_merge, "Q", value_of,
                             lambda b: _Integrals(grid.m, k_upper, b))


_INTEGRANDS = ("phi_sq", "gap_over_gamma_sq", "seg_gap_sq")


def _checked_exp(expo: np.ndarray, a: int, prefix: str, label: str):
    """exp(expo) of a chunk whose first path is a, and its largest non-NaN
    exponent (nan if all are NaN), which must not exceed MAX_EXPONENT (+inf
    does): a NaN path cannot hide an overflow."""
    worst = int(np.argmax(np.where(np.isnan(expo), -np.inf, expo)))
    if expo[worst] > MAX_EXPONENT:
        raise OverflowError(f"{prefix}path {a + worst}, {label} {expo[worst]:.4g}")
    return np.exp(expo), float(expo[worst])


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
    Chunks stop at max(t_upper, t0), the last time the estimate or the
    merge check reads, so diagnostics["nonfinite"] counts only the paths
    that failed on that span. Raises on exponent overflow, reporting lam
    and the offending path.
    """
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be finite and nonnegative")
    if integrand not in _INTEGRANDS:
        raise ValueError(f"integrand must be one of {_INTEGRANDS}")
    k_upper = grid.index_of(t_upper, "t_upper") if t_upper is not None else grid.n_T
    # on grid indices, so that a t_upper that rounds onto t0 passes
    if integrand == "gap_over_gamma_sq" and k_upper > grid.deadline_index(sched.t0):
        raise ValueError("gap_over_gamma_sq lives on [0, t0]; set t_upper <= t0")

    if integrand == "seg_gap_sq":
        observer = lambda b: _SegGapIntegral(grid.m, grid.h, k_upper, b)
    else:
        observer = lambda b: _Integrals(grid.m, k_upper, b)

    def value_of(pair, ob, a):
        # each observer names its integrals after the integrands
        return _checked_exp(
            lam * getattr(ob, integrand), a,
            f"exponent overflow in exp-functional estimate: lam={lam}, ", "exponent")

    return _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads,
                             delta_merge, "Q", value_of, observer, "max_exponent")


def _effective_sample_size(est: MCEstimate) -> float:
    """(sum w)^2 / sum w^2 of the n values behind est, from its moments:
    sum w^2 = M2 + n mean^2, with M2 = SE^2 n (n - 1)."""
    n, mean = est.n, est.mean
    sum_sq = est.std_error * est.std_error * n * (n - 1) + n * mean * mean
    return (n * mean) * (n * mean) / sum_sq if sum_sq > 0 else math.nan


def estimate_martingale_mean(coeffs: CoefficientSet, xi: SegmentPath,
                             eta: SegmentPath, sched: GammaSchedule,
                             grid: GridSpec, n: int, seed: int,
                             delta_merge: float = 1e-8,
                             threads: Optional[int] = None) -> MCEstimate:
    """Mean of the exponential weight R_T along coupled paths run under the
    unforced law. Exactly 1 in expectation, step by step, so the estimate
    lands in 1 +- a few standard errors when the scheme is healthy.

    diagnostics["ess"] is the effective sample size of the weights; far
    below n, the weights are heavy-tailed and mean and SE are unreliable.
    """

    def value_of(pair, ob, a):
        return _checked_exp(pair.logw, a, "weight overflow: ", "log-weight")

    est = _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads,
                            delta_merge, "P", value_of, worst="max_log_weight")
    return replace(est, diagnostics=dict(est.diagnostics, ess=_effective_sample_size(est)))


def _verdict(margin_se: float, k_tol: float, k_viol: float,
             failure_fraction: float) -> str:
    if not 0 < k_tol <= k_viol < math.inf:
        raise ValueError("need finite 0 < k_tol <= k_viol")
    if math.isnan(margin_se) or failure_fraction > FAILURE_TOLERANCE:
        return "inconclusive"
    if margin_se >= -k_tol:
        return "holds"
    if margin_se <= -k_viol:
        return "violated"
    return "inconclusive"


def _margin(lhs_mean, rhs_mean, se) -> float:
    """rhs - lhs in units of se, the SE of that difference."""
    diff = rhs_mean - lhs_mean
    tie = TIE_ULPS * sys.float_info.epsilon * max(abs(lhs_mean), abs(rhs_mean))
    if math.isfinite(diff) and abs(diff) <= tie:
        return 0.0
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
    margin = _margin(lhs.mean, rhs.mean, math.hypot(lhs.std_error, rhs.std_error))
    if two_sided:
        margin = -abs(margin) if margin != 0.0 else 0.0
    verdict = _verdict(margin, k_tol, k_viol, failure_fraction)
    return VerdictReport(claim=claim, lhs=lhs, rhs=rhs, bound=bound,
                         margin_se=margin, verdict=verdict, k_tol=k_tol,
                         k_viol=k_viol, meta=dict(meta or {}))


def _paired_verdict(claim: str, lhs: MCEstimate, rhs: MCEstimate, cov: float,
                    bound: float, k_tol: float, k_viol: float, meta: dict) -> VerdictReport:
    """The one-sided verdict on lhs <= rhs for two sides estimated on the
    same paths, cov the covariance of the two estimates. The margin's SE is
    the delta-method SE of rhs - lhs, sqrt(se_l^2 + se_r^2 - 2 cov): the
    sides are correlated, so the independent-sides SE hypot(se_l, se_r)
    would misstate the spread of the margin. meta gains their correlation
    (nan when either SE is 0)."""
    se_l, se_r = lhs.std_error, rhs.std_error
    se = math.sqrt(max(se_l * se_l + se_r * se_r - 2.0 * cov, 0.0))
    margin = _margin(lhs.mean, rhs.mean, se)
    corr = cov / (se_l * se_r) if se_l * se_r > 0 else math.nan
    return VerdictReport(claim=claim, lhs=lhs, rhs=rhs, bound=bound, margin_se=margin,
                         verdict=_verdict(margin, k_tol, k_viol, 0.0), k_tol=k_tol,
                         k_viol=k_viol, meta=dict(meta, corr=corr))


def _log_of_mean(raw: MCEstimate, bound: Optional[float] = None,
                 p: float = 1.0) -> MCEstimate:
    """(1/p) log raw.mean, plus bound if given, with its SE by the delta
    method; diagnostics keep raw_mean and the bound."""
    extra = {} if bound is None else {"bound": bound}
    return MCEstimate(mean=math.log(raw.mean) / p + (bound or 0.0),
                      std_error=raw.std_error / (p * raw.mean), n=raw.n, seed=raw.seed,
                      diagnostics={"raw_mean": raw.mean, **extra, **raw.diagnostics})


def _check_harnack_inputs(claim, f_min, coeffs, xi, eta, f, grid):
    """The input checks shared by both Harnack verdicts."""
    if not grid.T > grid.r0:
        raise ValueError("the inequality needs a horizon longer than the delay: T > r0")
    if f.lower < f_min:
        raise ValueError(f"{claim} checks need f >= {f_min:g}")
    grid.check_segments(coeffs.dim, xi, eta)


def check_log_harnack(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                      f: TestFunction, grid: GridSpec, n: int, seed: int,
                      s_choice: Optional[float] = None,
                      k_tol: float = 3.0, k_viol: float = 6.0,
                      threads: Optional[int] = None) -> VerdictReport:
    """One-sided test of  E log f(X^eta) <= log E f(X^xi) + H  at the grid's
    horizon, with the closed-form additive constant H. Both expectations
    come from the same n paths, each started once from eta and once from xi
    on common noise (the coupling of the paper's proof, which shares the
    Brownian motion); the log on the right and the margin's SE, paired
    covariance included, follow by the delta method. s_choice pins H's
    coupling horizon instead of minimizing.
    """
    _check_harnack_inputs("log-Harnack", 1.0, coeffs, xi, eta, f, grid)

    gaps = GapPair.from_segments(xi, eta)
    if s_choice is not None:
        # the grid's tolerance, so that s_choice = T - r0 passes however
        # T - r0 rounds
        if not (0.0 < s_choice <= grid.T - grid.r0 + 1e-12 * max(grid.T, 1.0)):
            raise ValueError("s_choice must lie in (0, T - r0]")
        h_val = bound_H_T_at(coeffs.constants, gaps, grid.r0, s_choice)
        s_star = s_choice
    else:
        rep = bound_H_T(coeffs.constants, gaps, grid.T, grid.r0)
        h_val, s_star = rep.value, rep.s_star

    lhs, raw, cov = _paired_PT_f(coeffs, eta, _log_of(f), xi, f, grid, n, seed, threads)
    rhs = _log_of_mean(raw, h_val)
    # by the delta method, Cov(mean log f(eta), log mean f(xi)) is
    # Cov(means) / mean f(xi)
    return _paired_verdict("log_harnack", lhs, rhs, cov / raw.mean, h_val, k_tol, k_viol,
                           {"s_star": s_star, "point_gap": gaps.point_gap,
                            "seg_gap": gaps.seg_gap})


def check_power_harnack(coeffs: CoefficientSet, xi: SegmentPath,
                        eta: SegmentPath, f: TestFunction, p: float,
                        grid: GridSpec, n: int, seed: int,
                        k_tol: float = 3.0, k_viol: float = 6.0,
                        threads: Optional[int] = None) -> VerdictReport:
    """One-sided test of  E f(X^eta) <= (E f^p(X^xi))^{1/p} exp(Phi_p) at the
    grid's horizon, in log space because Phi_p is large on realistic constants.
    Both sides come from the same paired paths, as in check_log_harnack.
    """
    thr = _power_threshold(coeffs.constants)
    if not p > thr:
        raise ValueError(f"p must exceed (1 + K2 K3)^2 = {thr:.6g}, got p={p:.6g}")
    _check_harnack_inputs("power-Harnack", 0.0, coeffs, xi, eta, f, grid)

    gaps = GapPair.from_segments(xi, eta)
    rep = bound_Phi_p(p, grid.T, coeffs.constants, gaps, grid.r0)

    raw_l, raw_r, cov = _paired_PT_f(coeffs, eta, f, xi, _power_of(f, p), grid, n, seed,
                                     threads)
    # compare log E f(eta) against (1/p) log E f^p(xi) + Phi_p; by the delta
    # method their covariance is Cov(means) / (p mean f(eta) mean f^p(xi))
    lhs, rhs = _log_of_mean(raw_l), _log_of_mean(raw_r, rep.value, p)
    return _paired_verdict("power_harnack", lhs, rhs, cov / (p * raw_l.mean * raw_r.mean),
                           rep.value, k_tol, k_viol,
                           {"p": p, "s_star": rep.s_star, "eps_star": rep.eps_star,
                            "log_scale": 1.0})


def sample_stationary_segments(coeffs: CoefficientSet, grid: GridSpec, n: int,
                               burn_in: float = 10.0,
                               seed: int = 0) -> StationarySample:
    """Moments of n history segments from the long-run law of a delay-free
    system.

    Runs min(n, 256) independent paths from the origin, discards a burn-in,
    then tiles each path into consecutive length-r0 windows, path by path,
    until n segments are counted. Consecutive windows touch at one grid
    point, so samples from one path are correlated at lag r0; the estimators
    downstream only need ergodic averages. The moments need only the
    windows' first and last rows, so the run streams: it keeps its ring,
    one noise block and the (n, d) window edges, not the paths.
    """
    if not coeffs.delay_free:
        raise ValueError("stationary sampling needs a delay-free system")
    if n < 2:
        raise ValueError("need n >= 2 segments")
    if not burn_in >= 0:
        raise ValueError("burn_in must be nonnegative")
    n_paths = min(n, 256)
    windows = -(-n // n_paths)  # ceil
    h, m = grid.h, grid.m
    n_burn = int(round(burn_in / h))
    total_T = (n_burn + windows * m) * h
    run_grid = GridSpec(r0=grid.r0, T=total_T, m=m)

    # path-major, like the windows: starts[j, k] is path j at the first row
    # of its window k, ends[j, k] at the last
    first = m + n_burn
    starts = np.empty((n_paths, windows, coeffs.dim))
    ends = np.empty_like(starts)

    def window_edges(i, euler):
        k, off = divmod(i - first, m)
        if i < first or off:
            return
        row = euler.rings[0].row(i)
        if k < windows:
            starts[:, k] = row
        if k > 0:
            ends[:, k - 1] = row

    noise = NoiseBlocks(NoiseStream(seed=seed, h=h, dim=coeffs.dim), 0, n_paths, run_grid.n_T)
    _simulate_batch(coeffs, (np.zeros((m + 1, coeffs.dim)),), run_grid, noise, (window_edges,))

    starts = starts.reshape(-1, coeffs.dim)[:n]
    ends = ends.reshape(-1, coeffs.dim)[:n]
    mean = ends.mean(axis=0)
    var = ends.var(axis=0, ddof=1)
    cov = ((starts - starts.mean(axis=0)) * (ends - mean)).sum(axis=0) / (n - 1)
    return StationarySample(endpoint_mean=mean, endpoint_var=var, lag_r0_autocov=cov,
                            n=n, seed=seed, burn_in=n_burn * h)
