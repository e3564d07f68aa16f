"""Monte Carlo estimators and inequality verdicts.

Paths run in the chunks of the plan _run_chunks states, and every estimate
is reduced from the joined per-path values, so a given (seed, n, grid)
always produces the same bits whatever the chunk width or worker count.
The Harnack checks read their paths at looks and may stop before n once
their verdict is decided (check_log_harnack states the rule).
Inequality checks are one-sided statistical tests: a claim "holds" when
the estimated margin is not significantly negative, and is only called
"violated" at a stronger significance (6 standard errors by default) to
keep discretization bias from raising false alarms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from ._parallel import CHUNK, map_chunks
from .bounds import (GapPair, bound_H_T, bound_H_T_at, bound_Phi_p, _check_horizon,
                     _check_power_exponent)
from .coefficients import CoefficientSet
from .coupling import GammaSchedule, _coupled_batch
from .integrator import NoiseBlocks, NoiseStream, _simulate_batch
from .segment_paths import GridSpec, SegmentPath

MAX_EXPONENT = 700.0  # exp() overflows just above this

# an unmerged-path fraction above this forces an inconclusive verdict
FAILURE_TOLERANCE = 1e-3

# sides that differ by at most this many machine epsilons of the larger
# magnitude tie at margin 0 whatever their SEs, so that rounding (a zero-SE
# estimate one ulp above its bound) cannot flip a verdict
TIE_ULPS = 8

# paths read at the first look of a sequential Harnack check; each later
# early look reads twice as many
LOOK = 4096


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean with its standard error and run provenance, reduced
    from the per-path values of all n paths.

    diagnostics: min and max, the range of the values (nan if any is NaN);
    for coupled estimates the failed paths: unmerged (copies unequal at t0,
    which only a path that went NaN or inf by t0 produces, counted here
    when it is finite where its chunk stops) and nonfinite (NaN or inf
    state or weight there); max_exponent (exp functional) or
    max_log_weight (weight mean), the largest non-NaN one (nan if none);
    failures, unmerged + nonfinite; raw_mean, bound and ess where set. No
    diagnostic depends on the chunk split.
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
    if name not in TEST_FUNCTIONS:
        raise ValueError(f"unknown test function {name!r}; catalog: {', '.join(TEST_FUNCTIONS)}")
    if not cap > 0:
        raise ValueError("cap must be positive")
    if name == "quad_cap":
        def fn(segs):
            end_sq = (segs[:, -1, :] ** 2).sum(axis=1)
            return 1.0 + np.minimum(end_sq, cap)
        return TestFunction(name="quad_cap", fn=fn, lower=1.0, upper=1.0 + cap)
    if cap > MAX_EXPONENT:
        raise ValueError("cap too large: exp would overflow")
    def fn(segs):
        sup = np.sqrt((segs ** 2).sum(axis=2)).max(axis=1)
        return np.exp(np.minimum(sup, cap))
    return TestFunction(name="exp_cap", fn=fn, lower=1.0, upper=math.exp(cap))


def _log_of(f: TestFunction) -> TestFunction:
    if f.lower < 1.0:
        raise ValueError("log form needs f >= 1")
    return TestFunction(name=f"log({f.name})",
                        fn=lambda segs: np.log(f(segs)),
                        lower=math.log(f.lower), upper=math.log(f.upper))


def _power_of(f: TestFunction, p: float) -> TestFunction:
    try:
        up = f.upper ** p
    except OverflowError:  # a Python float raises where numpy gives inf
        up = math.inf
    if not math.isfinite(up):
        raise ValueError(f"f^p overflows for {f.name} with p={p:g}; lower the cap")
    return TestFunction(name=f"{f.name}^{p:g}",
                        fn=lambda segs: f(segs) ** p,
                        lower=f.lower ** p, upper=up)


@dataclass(frozen=True)
class StationarySample:
    """Moments of n segments drawn from the long-run law of a delay-free
    system: the mean and variance of their endpoints, and the covariance of
    each segment's start with its end (the lag-r0 autocovariance)."""

    endpoint_mean: np.ndarray
    endpoint_var: np.ndarray
    lag_r0_autocov: np.ndarray
    burn_in: float

    def __post_init__(self):
        self.endpoint_mean.setflags(write=False)
        self.endpoint_var.setflags(write=False)
        self.lag_r0_autocov.setflags(write=False)


def _fsum(x: np.ndarray) -> float:
    """The correctly rounded sum of x. Where math.fsum refuses, on finite
    partial sums that overflow or on inf + -inf, numpy's sum: inf or nan."""
    try:
        return math.fsum(x)
    except (OverflowError, ValueError):
        return float(np.sum(x))


def _reduce(v: np.ndarray, seed: int, diag: Optional[dict] = None) -> MCEstimate:
    """One estimate from the per-path values v, in path order: the mean
    fsum(v) / n and the two-pass variance fsum((v - mean)^2) / (n - 1).
    Its diagnostics are the range of v (nan if any value is NaN, as np.min
    and np.max), then diag, then failures, diag's unmerged + nonfinite.
    Deviations all below 2^-256 in magnitude, whose squares would
    underflow, are squared scaled by a power of two, which is exact, and
    the SE is scaled back; no other value changes a bit."""
    n = v.size
    mean = _fsum(v) / n
    dev = v - mean
    top = math.frexp(float(np.max(np.abs(dev))))[1]
    scale = -top if top <= -256 else 0
    if scale:
        dev = np.ldexp(dev, scale)
    var = _fsum(dev * dev) / (n - 1)
    diag = {"min": float(np.min(v)), "max": float(np.max(v)), **(diag or {})}
    diag["failures"] = diag.get("unmerged", 0) + diag.get("nonfinite", 0)
    return MCEstimate(mean=mean, std_error=math.ldexp(math.sqrt(var / n), -scale), n=n,
                      seed=seed, diagnostics=diag)


def _reduce_paired(x: np.ndarray, y: np.ndarray, seed: int):
    """The estimates of the per-path values x and y of the same paths, and
    the covariance of their means, the two-pass
    fsum((x - mean x)(y - mean y)) / (n (n - 1))."""
    ex, ey = _reduce(x, seed), _reduce(y, seed)
    n = x.size
    return ex, ey, _fsum((x - ex.mean) * (y - ey.mean)) / (n * (n - 1))


class _SegGapIntegral:
    """Observer of a coupled run: seg_gap_sq, per path, is
    int_0^{k_upper h} ||X_t - Y_t||_inf^2 dt, the sup over the delay window
    [t - r0, t], i.e. the m + 1 grid rows ending at t.

    The window maxima come online from a two-level van Herk / Gil-Werman
    scheme over blocks of K = ceil(sqrt(m + 1)) rows. The window of rows
    s..s + m starts in block a = s // K and ends in block c = (s + m) // K;
    its max is the max of the suffix max of block a from s, the max of the
    full blocks a + 1..c - 1 and the prefix max of block c up to s + m.
    When s enters a block, a backward pass reads the block's K rows from
    the rings, which then hold rows s..s + m (K <= m + 1), into suf, a
    (K, B) array of suffix maxima. A forward pass keeps each block's
    running prefix max in blocks, a ring of ceil((m + 1) / K) rows whose
    completed rows are block maxima; their max over a + 1..c - 1 is kept
    in mid until a or c moves. The squared window maxima are added in step
    order. Scratch: about 2 sqrt(m + 1) rows of B floats. max is exact, so
    the result is bit-identical to rescanning each window of a full history.
    """

    def __init__(self, m: int, h: float, k_upper: int, b: int):
        self.m, self.h, self.k_upper = m, h, k_upper
        self.seg_gap_sq = np.zeros(b)
        self.k = math.isqrt(m) + 1  # ceil(sqrt(m + 1))
        self.suf = np.empty((self.k, b))
        # blocks a + 1..c are at most this many, so none overwrites another
        self.blocks = np.empty((-(-(m + 1) // self.k), b))
        self.mid = np.empty(b)
        self.span = None

    def __call__(self, i, pair):
        m, k, blocks = self.m, self.k, self.blocks
        if i >= self.k_upper + m:
            return
        rx, ry = pair.rings

        def gap(row):  # np.linalg.norm(diff, axis=1), temporaries reused
            diff = rx.row(row) - ry.row(row)
            diff *= diff
            sq = np.add.reduce(diff, axis=1)
            return np.sqrt(sq, out=sq)

        # forward; pre is the max from the start of row i's block to row i
        c, r = divmod(i, k)
        pre = blocks[c % len(blocks)]
        if r == 0:
            pre[...] = gap(i)
        else:
            np.maximum(pre, gap(i), out=pre)
        if i < m:
            return
        a, q = divmod(i - m, k)
        if q == 0:
            # backward over block a, rows i - m..i - m + K - 1
            self.suf[k - 1] = gap(i - m + k - 1)
            for j in range(k - 2, -1, -1):
                np.maximum(self.suf[j + 1], gap(i - m + j), out=self.suf[j])
        # window start i - m: its max, squared and scaled by h in its
        # suffix slot, which is not read again
        slot = self.suf[q]
        win = np.maximum(slot, pre, out=slot)
        if c - a > 1:
            if self.span != (a, c):
                self.span = (a, c)
                np.copyto(self.mid, blocks[(a + 1) % len(blocks)])
                for j in range(a + 2, c):
                    np.maximum(self.mid, blocks[j % len(blocks)], out=self.mid)
            np.maximum(win, self.mid, out=win)
        win *= win
        win *= self.h
        self.seg_gap_sq += win


def _looks(n: int) -> List[int]:
    """The path counts at which a sequential run of n paths looks: LOOK,
    2 LOOK, 4 LOOK, ... short of n, then n. Spaced geometrically, the
    prefixes reduced at the early looks sum to less than n paths."""
    looks = []
    while LOOK << len(looks) < n:
        looks.append(LOOK << len(looks))
    return looks + [n]


def _run_chunks(coeffs, segments, grid, n, seed, threads, chunk,
                stop=None) -> List[np.ndarray]:
    """The chunk plan of every Monte Carlo estimate: paths 0..n-1 from the
    starting segments, in chunks of CHUNK // len(segments) paths, the last
    one shorter. A chunk is one batch, the paths stepped together, one copy
    per segment, so it steps at most CHUNK state columns and its rings hold
    at most 2(m + 1) CHUNK d floats. Path j is driven by the noise of path
    j of the one NoiseStream of seed, wherever its chunk runs, so each
    chunk is a pure function of its range: chunk(stream, a, b) steps paths
    a..b-1 and returns a tuple of per-path arrays. Those are joined in path
    order, whatever the worker count, and every estimate is reduced from
    the joined values, so no chunk width or worker count changes its bits.

    With stop, the run is sequential: its looks fall after the first
    _looks(n) paths short of n, whatever the chunk width, and at each look
    stop(prefix) is given the joined values of the paths before it. The
    chunks are read in chunk order, and the first look at which stop
    returns true closes the stream and returns that prefix: in-process no
    later chunk runs, and with workers only the chunks already started
    finish, unread. Past the last early look, or without stop, the values
    of all n paths are returned. stop reads nothing but the prefix, whose
    values no chunk width or worker count changes, so neither changes
    where the run stops."""
    if n < 2:
        raise ValueError("need n >= 2 paths")
    grid.check_segments(coeffs.dim, *segments)
    stream = NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim)
    run = lambda a, b: chunk(stream, a, b)
    looks = iter(_looks(n)[:-1] if stop is not None else ())
    look, used = next(looks, None), n

    def decided(parts) -> bool:
        nonlocal look, used
        read = sum(part[0].size for part in parts)
        while look is not None and look <= read:
            if stop([np.concatenate(column)[:look] for column in zip(*parts)]):
                used = look
                return True
            look = next(looks, None)
        return False

    parts = map_chunks(run, n, threads, CHUNK // len(segments), until=decided)
    return [np.concatenate(column)[:used] for column in zip(*parts)]


def _PT_f(coeffs, starts, grid, n, seed, threads, stop=None) -> List[np.ndarray]:
    """f(X^seg) at T, per path, for each start (seg, f) in starts, one
    start or two. The copies of path j from every start are driven by the
    same noise and stepped in one batch. With stop, the run is sequential
    (_run_chunks), and the values are those of the paths it read."""
    histories = tuple(seg.values for seg, _ in starts)
    last = grid.m + grid.n_T

    def chunk(stream, a, b):
        noise = NoiseBlocks(stream, a, b - a, grid.n_T)
        rings = _simulate_batch(coeffs, histories, grid, noise)
        return [f(ring.segment(last)) for (_, f), ring in zip(starts, rings)]

    return _run_chunks(coeffs, [seg for seg, _ in starts], grid, n, seed, threads, chunk, stop)


def estimate_PT_f(coeffs: CoefficientSet, xi: SegmentPath, f: TestFunction,
                  grid: GridSpec, n: int, seed: int,
                  threads: Optional[int] = None) -> MCEstimate:
    """Mean of f over the terminal segments of n independent paths from xi."""
    return _reduce(*_PT_f(coeffs, ((xi, f),), grid, n, seed, threads), seed)


def _upper_index(grid: GridSpec, t_upper: Optional[float]) -> int:
    """The grid step of t_upper; n_T, the full horizon, when it is None."""
    return grid.n_T if t_upper is None else grid.index_of(t_upper, "t_upper")


def _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads, measure,
                      k_upper, value_of, observer=None, overflow=None) -> MCEstimate:
    """One estimate of per-path values at time k_upper h from coupled
    chunks, each one batch of pairs. At grid row m + k_upper, value_of(pair,
    observer) reads a chunk's values from the pair's running integrals or
    from the chunk's observer, which observer(B), if given, builds. With
    overflow, a (diagnostic, prefix, label) triple, the values read are
    exponents: _checked_exp checks them over all n paths, the estimate is
    of their exp, and the diagnostic names the largest exponent.

    Every chunk stops after max(k_upper, n0) steps (t0 = n0 h), the last
    row its values or the merge check read, and draws only that prefix of
    each path's noise, bit-identical to the full draw. nonfinite counts
    the paths NaN or inf where the chunk stops.
    """
    k_stop = max(k_upper, grid.deadline_index(sched.t0))
    upper, last = grid.m + k_upper, grid.m + k_stop

    def chunk(stream, a, b):
        ob = observer(b - a) if observer is not None else None
        read = []

        def at_upper(i, pair):
            if i == upper:
                read.append(value_of(pair, ob))

        pair = _coupled_batch(coeffs, xi.values, eta.values, grid, sched,
                              NoiseBlocks(stream, a, b - a, k_stop), measure,
                              (at_upper,) if ob is None else (ob, at_upper))
        # a path that went NaN or inf never merges; count it apart
        rx, ry = pair.rings
        finite = (np.isfinite(pair.logw)
                  & np.isfinite(rx.row(last)).all(axis=1)
                  & np.isfinite(ry.row(last)).all(axis=1))
        return read[0], finite & ~pair.merged, ~finite

    v, unmerged, nonfinite = _run_chunks(coeffs, (xi, eta), grid, n, seed, threads, chunk)
    diag = {"unmerged": int(unmerged.sum()), "nonfinite": int(nonfinite.sum())}
    if overflow is not None:
        name, prefix, label = overflow
        v, diag[name] = _checked_exp(v, prefix, label)
    return _reduce(v, seed, diag)


def estimate_entropy_Q(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                       sched: GammaSchedule, grid: GridSpec, n: int, seed: int,
                       t_upper: Optional[float] = None,
                       threads: Optional[int] = None) -> MCEstimate:
    """Relative entropy estimate: half the mean of int |phi|^2 over
    [0, t_upper] (default the full horizon) along coupled paths run under
    the measure where the forced copy solves the original equation. Failed
    paths are included and counted in diagnostics; with t_upper, chunks
    stop at max(t_upper, t0), and nonfinite counts only the paths that
    failed on that span."""

    def value_of(pair, ob):
        return 0.5 * pair.int_phi_sq

    return _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads, "Q",
                             _upper_index(grid, t_upper), value_of)


_INTEGRANDS = ("gap_over_gamma_sq", "seg_gap_sq")


def _checked_exp(expo: np.ndarray, prefix: str, label: str):
    """exp(expo), the exponents of paths 0..n-1, and their largest non-NaN
    one (nan if all are NaN), which must not exceed MAX_EXPONENT (+inf
    does): a NaN path cannot hide an overflow."""
    worst = int(np.argmax(np.where(np.isnan(expo), -np.inf, expo)))
    if expo[worst] > MAX_EXPONENT:
        raise OverflowError(f"{prefix}path {worst}, {label} {expo[worst]:.4g}")
    return np.exp(expo), float(expo[worst])


def estimate_exp_functional(coeffs: CoefficientSet, xi: SegmentPath,
                            eta: SegmentPath, sched: GammaSchedule,
                            grid: GridSpec, lam: float, n: int, seed: int,
                            integrand: str,
                            t_upper: Optional[float] = None,
                            threads: Optional[int] = None) -> MCEstimate:
    """Mean of exp(lam * I) under the coupled measure, where I is one of
    two path integrals up to t_upper (default the full horizon):
      gap_over_gamma_sq  int |X-Y|^2 / gamma^2   (needs t_upper <= t0)
      seg_gap_sq         int of the squared running segment gap
    Chunks stop at max(t_upper, t0), the last time the estimate or the
    merge check reads, so diagnostics["nonfinite"] counts only the paths
    that failed on that span. Raises on exponent overflow, reporting lam
    and the path with the largest exponent.
    """
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be finite and nonnegative")
    if integrand not in _INTEGRANDS:
        raise ValueError(f"integrand must be one of {_INTEGRANDS}")
    k_upper = _upper_index(grid, t_upper)
    # on grid indices, so that a t_upper that rounds onto t0 passes
    if integrand == "gap_over_gamma_sq" and k_upper > grid.deadline_index(sched.t0):
        raise ValueError("gap_over_gamma_sq lives on [0, t0]; set t_upper <= t0")

    observer = None
    if integrand == "seg_gap_sq":
        observer = lambda b: _SegGapIntegral(grid.m, grid.h, k_upper, b)

    def value_of(pair, ob):
        return lam * (pair.int_gap_gamma_sq if ob is None else ob.seg_gap_sq)

    return _coupled_estimate(
        coeffs, xi, eta, sched, grid, n, seed, threads, "Q", k_upper, value_of, observer,
        ("max_exponent", f"exponent overflow in exp-functional estimate: lam={lam}, ",
         "exponent"))


def _effective_sample_size(est: MCEstimate) -> float:
    """(sum w)^2 / sum w^2 of the n values behind est, from its moments:
    sum w^2 = M2 + n mean^2, with M2 = SE^2 n (n - 1)."""
    n, mean = est.n, est.mean
    sum_sq = est.std_error * est.std_error * n * (n - 1) + n * mean * mean
    return (n * mean) * (n * mean) / sum_sq if sum_sq > 0 else math.nan


def estimate_martingale_mean(coeffs: CoefficientSet, xi: SegmentPath,
                             eta: SegmentPath, sched: GammaSchedule,
                             grid: GridSpec, n: int, seed: int,
                             threads: Optional[int] = None) -> MCEstimate:
    """Mean of the exponential weight R_T along coupled paths run under the
    unforced law. Exactly 1 in expectation, step by step, so the estimate
    lands in 1 +- a few standard errors when the scheme is healthy.

    diagnostics["ess"] is the effective sample size of the weights; far
    below n, the weights are heavy-tailed and mean and SE are unreliable.
    """

    est = _coupled_estimate(coeffs, xi, eta, sched, grid, n, seed, threads, "P",
                            grid.n_T, lambda pair, ob: pair.logw.copy(),
                            overflow=("max_log_weight", "weight overflow: ", "log-weight"))
    return replace(est, diagnostics=dict(est.diagnostics, ess=_effective_sample_size(est)))


def _check_levels(k_tol: float, k_viol: float) -> None:
    if not 0 < k_tol <= k_viol < math.inf:
        raise ValueError("need finite 0 < k_tol <= k_viol")


def _verdict(margin_se: float, k_tol: float, k_viol: float,
             failure_fraction: float) -> str:
    _check_levels(k_tol, k_viol)
    # NaN would pass "failure_fraction > FAILURE_TOLERANCE" below unseen
    if not 0 <= failure_fraction <= 1:
        raise ValueError("failure_fraction must lie in [0, 1]")
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


def make_verdict(claim: str, lhs: MCEstimate, bound: float,
                 k_tol: float = 3.0, k_viol: float = 6.0,
                 failure_fraction: float = 0.0, two_sided: bool = False,
                 meta: Optional[dict] = None) -> VerdictReport:
    """Assemble a VerdictReport of an estimate against a closed-form bound.

    One-sided claims assert lhs <= bound; the report's rhs is the bound as
    an estimate with standard error 0. two_sided turns the margin into
    -|deviation|/se for equality claims (the weight-mean check), so any
    large deviation in either direction counts against the claim.
    """
    rhs = MCEstimate(mean=bound, std_error=0.0, n=0, seed=lhs.seed)
    margin = _margin(lhs.mean, bound, lhs.std_error)
    if two_sided:
        margin = -abs(margin) if margin != 0.0 else 0.0
    verdict = _verdict(margin, k_tol, k_viol, failure_fraction)
    return VerdictReport(claim=claim, lhs=lhs, rhs=rhs, bound=bound,
                         margin_se=margin, verdict=verdict, meta=dict(meta or {}))


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
                         verdict=_verdict(margin, k_tol, k_viol, 0.0), meta=dict(meta, corr=corr))


def _log_of_mean(raw: MCEstimate, bound: Optional[float] = None,
                 p: float = 1.0) -> MCEstimate:
    """(1/p) log raw.mean, plus bound if given, with its SE by the delta
    method; diagnostics keep raw_mean and the bound."""
    extra = {} if bound is None else {"bound": bound}
    return MCEstimate(mean=math.log(raw.mean) / p + (bound or 0.0),
                      std_error=raw.std_error / (p * raw.mean), n=raw.n, seed=raw.seed,
                      diagnostics={"raw_mean": raw.mean, **extra, **raw.diagnostics})


def _check_harnack_inputs(claim, f_min, coeffs, xi, eta, f, grid, k_tol, k_viol):
    """The input checks shared by both Harnack verdicts, run before any path."""
    _check_horizon(grid.T, grid.r0)
    _check_levels(k_tol, k_viol)
    if f.lower < f_min:
        raise ValueError(f"{claim} checks need f >= {f_min:g}")
    grid.check_segments(coeffs.dim, xi, eta)


def _check_s_choice(s_choice: float, T: float, r0: float) -> None:
    # to the grid's tolerance, so that s_choice = T - r0 passes however T - r0 rounds
    if not 0.0 < s_choice <= T - r0 + 1e-12 * max(T, 1.0):
        raise ValueError("s_choice must lie in (0, T - r0]")


def _top_share(v: np.ndarray) -> float:
    """max v / sum v of nonnegative values: the share of their sum that the
    largest carries, 0 when all are 0."""
    total = float(v.sum())
    return float(v.max()) / total if total > 0 else 0.0


def _sequential_verdict(coeffs, starts, grid, n, seed, threads, k_viol, verdict_of,
                        meta) -> VerdictReport:
    """verdict_of(x, y, meta), the paired verdict on the per-path values x
    and y of the two starts, read at looks and stopped early by the rule
    check_log_harnack states. meta gains the look read (stop_look) of the
    len(_looks(n)) looks and the veto of the last early look a side
    vetoed. A vetoed look cannot stop, so its verdict is not reduced."""
    looks = _looks(n)
    meta = dict(meta)

    def decided(values):
        used = values[0].size
        for (_, f), v in zip(starts, values):
            share = _top_share(v)
            if share * math.sqrt(used) > 1.0:
                meta["veto"] = (f"look {looks.index(used) + 1}: one path carries "
                                f"{share:.3g} of the {f.name} sum, above 1/sqrt({used})")
                return False
        return abs(verdict_of(*values, meta).margin_se) >= k_viol * math.sqrt(n / used)

    values = _PT_f(coeffs, starts, grid, n, seed, threads, decided)
    return verdict_of(*values, dict(meta, stop_look=looks.index(values[0].size) + 1,
                                    looks=len(looks)))


def check_log_harnack(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                      f: TestFunction, grid: GridSpec, n: int, seed: int,
                      s_choice: Optional[float] = None,
                      k_tol: float = 3.0, k_viol: float = 6.0,
                      threads: Optional[int] = None) -> VerdictReport:
    """One-sided test of  E log f(X^eta) <= log E f(X^xi) + H  at the grid's
    horizon, with the closed-form additive constant H. Both expectations
    come from the same paths, each started once from eta and once from xi
    on common noise (the coupling of the paper's proof, which shares the
    Brownian motion); the log on the right and the margin's SE, paired
    covariance included, follow by the delta method. s_choice pins H's
    coupling horizon instead of minimizing.

    n is a cap. The verdict is read at the K looks of _looks(n), after the
    first n_k = LOOK 2^(k-1) paths for k < K and at n_K = n, and the run
    stops at the first early look whose margin z_k, in SEs of that prefix,
    reaches the O'Brien-Fleming-type boundary |z_k| >= k_viol sqrt(n / n_k):
    holds above it, violated below minus it. That is the boundary of Lan
    and DeMets' (1983) spending function alpha(t) = 2 - 2 Phi(k_viol /
    sqrt(t)) at information time t = n_k / n. Under a margin of mean 0,
    sqrt(n_k) z_k is a Brownian path in n_k, so by the reflection principle
    it crosses the boundary at some look up to time t with probability at
    most alpha(t), however the looks are spaced. The early looks therefore
    add at most 2 Phi(-k_viol) (2e-9 at k_viol = 6) to the chance of an
    early "violated" on a true claim, or of an early "holds" on a false
    one. At look K the fixed-n rule applies unchanged. The boundary's
    Gaussian z needs a finite variance, and a finite-variance sample of
    n_k values has max v / sum v = o(1/sqrt(n_k)): so no early look stops
    while either side's largest value carries more than 1/sqrt(n_k) of
    that side's sum (Chatterjee and Diaconis' (2018) diagnostic max v /
    sum v of a sum carried by a few paths). The stop reads only the
    prefix, so every worker count and chunk width gives the same bits.
    """
    _check_harnack_inputs("log-Harnack", 1.0, coeffs, xi, eta, f, grid, k_tol, k_viol)

    gaps = GapPair.from_segments(xi, eta)
    if s_choice is not None:
        _check_s_choice(s_choice, grid.T, grid.r0)
        h_val = bound_H_T_at(coeffs.constants, gaps, grid.r0, s_choice)
        s_star = s_choice
    else:
        rep = bound_H_T(coeffs.constants, gaps, grid.T, grid.r0)
        h_val, s_star = rep.value, rep.s_star

    def verdict_of(x, y, meta):
        lhs, raw, cov = _reduce_paired(x, y, seed)
        rhs = _log_of_mean(raw, h_val)
        # by the delta method, Cov(mean log f(eta), log mean f(xi)) is
        # Cov(means) / mean f(xi)
        return _paired_verdict("log_harnack", lhs, rhs, cov / raw.mean, h_val, k_tol,
                               k_viol, meta)

    return _sequential_verdict(coeffs, ((eta, _log_of(f)), (xi, f)), grid, n, seed, threads,
                               k_viol, verdict_of, {"s_star": s_star,
                                                    "point_gap": gaps.point_gap,
                                                    "seg_gap": gaps.seg_gap})


def check_power_harnack(coeffs: CoefficientSet, xi: SegmentPath,
                        eta: SegmentPath, f: TestFunction, p: float,
                        grid: GridSpec, n: int, seed: int,
                        k_tol: float = 3.0, k_viol: float = 6.0,
                        threads: Optional[int] = None) -> VerdictReport:
    """One-sided test of  E f(X^eta) <= (E f^p(X^xi))^{1/p} exp(Phi_p) at the
    grid's horizon, in log space because Phi_p is large on realistic
    constants. Both sides come from the same paired paths, read at looks
    and stopped early by the boundary and the veto of check_log_harnack;
    n is a cap.
    """
    _check_power_exponent(p, coeffs.constants)
    _check_harnack_inputs("power-Harnack", 0.0, coeffs, xi, eta, f, grid, k_tol, k_viol)

    gaps = GapPair.from_segments(xi, eta)
    rep = bound_Phi_p(p, grid.T, coeffs.constants, gaps, grid.r0)

    def verdict_of(x, y, meta):
        raw_l, raw_r, cov = _reduce_paired(x, y, seed)
        # compare log E f(eta) against (1/p) log E f^p(xi) + Phi_p; by the delta
        # method their covariance is Cov(means) / (p mean f(eta) mean f^p(xi))
        lhs, rhs = _log_of_mean(raw_l), _log_of_mean(raw_r, rep.value, p)
        return _paired_verdict("power_harnack", lhs, rhs,
                               cov / (p * raw_l.mean * raw_r.mean), rep.value, k_tol, k_viol,
                               meta)

    return _sequential_verdict(coeffs, ((eta, f), (xi, _power_of(f, p))), grid, n, seed,
                               threads, k_viol, verdict_of,
                               {"p": p, "s_star": rep.s_star, "eps_star": rep.eps_star,
                                "log_scale": 1.0})


def _check_burn_in(burn_in: float) -> None:
    if not 0 <= burn_in < math.inf:
        raise ValueError("burn_in must be finite and nonnegative")


def _check_delay_free(coeffs: CoefficientSet) -> None:
    if not coeffs.delay_free:
        raise ValueError("stationary sampling needs a delay-free system")


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
    which holds its noise block too, and the (n, d) window edges, not the
    paths.
    """
    _check_delay_free(coeffs)
    if n < 2:
        raise ValueError("need n >= 2 segments")
    _check_burn_in(burn_in)
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
                            burn_in=n_burn * h)
