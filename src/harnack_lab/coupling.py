"""Coupling by change of measure for the delay equation.

Two copies of the equation are driven by one Brownian motion. One copy gets
an extra drift proportional to the current gap, scaled by a schedule gamma
that shrinks to zero at a chosen deadline t0, which forces the copies
together by t0. The extra drift is paid for with an exponential weight
(Girsanov), so expectations under the unforced law can be recovered from
the forced simulation and vice versa.

One coupling is read under two measures, and simulate_coupled takes the
measure as an input. Each step moves the unforced copy u by one Euler
step of the original equation, and the forced copy f by one Euler step
with drift z(f) + b(u) + corr, whose gap is then contracted (below).
Under Q, u = Y and the forced copy X solves the original equation (the
direction used by the entropy and exponential-moment estimates);
corr = (sigma_X - sigma_Y) sigma_Y^-1 (b(Y) - b(X)). Under P, u = X;
corr = (sigma_Y - sigma_X) sigma_X^-1 (X - Y) / gamma before t0 and 0
after, and the weight has expectation one exactly, step by step, which
makes a sharp Monte Carlo sanity check possible. Apart from that the
measure sets only the sign of the |phi|^2 h / 2 term in log R, with
phi = sigma_Y^-1 (b(Y) - b(X)) - sigma_X^-1 (X - Y) / gamma under both
(the gap term before t0 only).

The gap dynamics contain the stiff term -(X - Y)/gamma. An explicit Euler
step would blow up as gamma -> 0, so each substep integrates that term
exactly: the post-Euler difference is multiplied by
exp(-int 1/gamma) over the substep. On the final substep before t0 that
factor is exactly zero, so the copies land on the same floating point
values, and from then on a merged pair's forced copy is set to the
unforced one. The merge check is therefore an equality, X == Y at t0,
with no tolerance: only a path that went NaN or inf on the way fails it
(zero times a non-finite difference is NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet
from .integrator import NoiseBlocks, NoiseStream, _euler_step, _Recorder, _Ring, _run
from .segment_paths import GridSpec, SegmentPath

# below this, 1 - exp(-k4 t0) is evaluated by its series to avoid cancellation
_K4_LIMIT = 1e-6


def _check_theta(theta):
    if not 0.0 < theta < 2.0:
        raise ValueError("theta must lie in (0, 2)")


def _check_measure(measure):
    if measure not in ("Q", "P"):
        raise ValueError("measure must be 'Q' or 'P'")


@dataclass(frozen=True)
class GammaSchedule:
    """Gap-forcing schedule gamma(t) on [0, t0), zero at the deadline.

    theta in (0, 2) tunes the split between forcing strength and weight
    cost; k4 is the one-sided dissipativity constant of the system. When
    |k4| t0 is tiny the schedule degenerates to the linear ramp
    (2 - theta)(t0 - t) and a series branch is used.
    """

    theta: float
    k4: float
    t0: float

    def __post_init__(self):
        _check_theta(self.theta)
        if not (np.isfinite(self.t0) and self.t0 > 0):
            raise ValueError("t0 must be positive")
        if not np.isfinite(self.k4):
            raise ValueError("k4 must be finite")

    @property
    def near_limit(self) -> bool:
        return abs(self.k4) * self.t0 < _K4_LIMIT


def gamma(t, sched: GammaSchedule):
    """Schedule value gamma(t) for t in [0, t0). Scalar or array t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t >= sched.t0):
        raise ValueError("gamma(t) is defined for 0 <= t < t0")
    c = 2.0 - sched.theta
    if sched.near_limit:
        out = c * (sched.t0 - t)
    else:
        # ((2-theta)/k4) (1 - e^{(t-t0) k4}), positive for either sign of k4;
        # inf where it exceeds the float range (k4 < 0, |k4| (t0 - t) large)
        with np.errstate(over="ignore"):
            out = (c / sched.k4) * (-np.expm1((t - sched.t0) * sched.k4))
    return float(out) if out.ndim == 0 else out


def inv_gamma_integral(t_a: float, t_b: float, sched: GammaSchedule) -> float:
    """Exact integral of 1/gamma over [t_a, t_b], requiring t_b < t0.

    The integral diverges as t_b -> t0; callers stepping onto the deadline
    must treat that substep separately (the contraction factor is zero).
    """
    if not (0.0 <= t_a <= t_b):
        raise ValueError("need 0 <= t_a <= t_b")
    if t_b >= sched.t0:
        raise ValueError("inv_gamma_integral requires t_b < t0 (it diverges at t0)")
    if t_a == t_b:
        return 0.0
    c = 2.0 - sched.theta
    if sched.near_limit:
        return math.log((sched.t0 - t_a) / (sched.t0 - t_b)) / c

    # antiderivative of 1/gamma in u = k4 (t - t0) < 0:
    #   F(u) = (u - log|expm1(u)|) / (2 - theta)
    def anti(t):
        u = sched.k4 * (t - sched.t0)
        try:
            return (u - math.log(abs(math.expm1(u)))) / c
        except OverflowError:
            # u far above 0 (k4 < 0): log expm1(u) = u + log1p(-e^{-u})
            return -math.log1p(-math.exp(-u)) / c

    return anti(t_b) - anti(t_a)


def contraction_factors(sched: GammaSchedule, h: float, n0: int) -> np.ndarray:
    """Per-substep factors exp(-int 1/gamma) for steps 0..n0-1, where step k
    covers [k h, (k+1) h] and n0 h == t0. The last factor is exactly 0."""
    if n0 < 1:
        raise ValueError("need at least one step before t0")
    out = np.empty(n0)
    for k in range(n0 - 1):
        out[k] = math.exp(-inv_gamma_integral(k * h, (k + 1) * h, sched))
    out[n0 - 1] = 0.0
    return out


@dataclass(frozen=True)
class CoupledTrajectory:
    """One simulated coupled pair, history included.

    x_values / y_values follow the Trajectory layout: row grid.m is time 0.
    phi_sq_cum[k] is the accumulated integral of |phi|^2 up to time k h, and
    log_weight_cum[k] the accumulated log-weight, both of length n_T + 1.
    merged records whether the copies were equal at t0; a False here means
    the path went NaN or inf by t0, not that an exception occurred.
    """

    grid: GridSpec
    sched: GammaSchedule
    x_values: np.ndarray
    y_values: np.ndarray
    phi_sq_cum: np.ndarray
    log_weight_cum: np.ndarray
    merged: bool

    def __post_init__(self):
        for arr in (self.x_values, self.y_values, self.phi_sq_cum, self.log_weight_cum):
            arr.setflags(write=False)


class _Coupled:
    """A batch of coupled pairs in flight: the X and Y rings, the merge
    flags, set at step n0 - 1 (t0 = n0 h), and three running integrals per
    path, each from zero over the steps taken so far: the log-weight logw,
    int_phi_sq, the integral of |phi|^2, and int_gap_gamma_sq, the integral
    of |X-Y|^2 / gamma^2, which stops growing at t0. Each state's
    diffusion is evaluated once per step, as a diagonal where the system
    declares one, and serves sigma, sigma^-1 and sigma_x - sigma_y.

    A step is one unforced and one forced Euler step (module docstring).
    At step n0 - 1 a path merges when its copies are equal, and the snap
    copies the unforced copy into the forced one, signed zeros included,
    as every later step does for the merged paths. When every path of the
    batch merged, one_copy is set, and each later step evaluates z, sigma
    and the Euler step of the unforced copy only and writes it to both
    rings; a batch with any unmerged path keeps stepping both copies.
    """

    def __init__(self, coeffs, grid, sched, measure, rings, n0):
        self.coeffs, self.grid, self.rings = coeffs, grid, rings
        self.measure, self.n0 = measure, n0
        self.alphas = contraction_factors(sched, grid.h, n0)
        self.gammas = gamma(np.arange(n0) * grid.h, sched)
        # sign of the 1/2 |phi|^2 h term in log R
        self.sign = 1.0 if measure == "Q" else -1.0
        b = rings[0].buf.shape[1]
        self.logw, self.merged = np.zeros(b), np.zeros(b, dtype=bool)
        self.int_phi_sq, self.int_gap_gamma_sq = np.zeros(b), np.zeros(b)
        self.one_copy = False

    def step(self, k, dw):
        coeffs, h, (rx, ry) = self.coeffs, self.grid.h, self.rings
        t = k * h
        i = self.grid.m + k
        bx = coeffs.b(t, rx.segment(i))
        by = coeffs.b(t, ry.segment(i))
        x, y = rx.row(i), ry.row(i)
        q = self.measure == "Q"
        # unforced copy u and forced copy f, and u's delay drift
        u, f, bu = (y, x, by) if q else (x, y, bx)
        su = coeffs.diffusion(t, u)
        un = _euler_step(u, coeffs.z(t, u) + bu, h, su, dw)
        # once every pair merged, u is the state of both copies
        sf = su if self.one_copy else coeffs.diffusion(t, f)
        sx, sy = (sf, su) if q else (su, sf)
        siginv_y_bdiff = sy.solve(by - bx)
        phi = siginv_y_bdiff
        pre = k < self.n0
        if pre:
            g = float(self.gammas[k])
            e = x - y
            siginv_x_e = sx.solve(e)
            phi = phi - siginv_x_e / g
            self.int_gap_gamma_sq += (e * e).sum(axis=1) / (g * g) * h
        phi_sq = (phi * phi).sum(axis=1) * h
        self.int_phi_sq += phi_sq
        self.logw += (phi * dw).sum(axis=1) + self.sign * 0.5 * phi_sq
        if self.one_copy:
            return un, un

        drift_f = coeffs.z(t, f) + bu
        if q:
            drift_f = drift_f + sf.apply_diff(su, siginv_y_bdiff)
        elif pre:
            drift_f = drift_f + sf.apply_diff(su, siginv_x_e) / g
        fn = _euler_step(f, drift_f, h, sf, dw)
        if pre:
            a = self.alphas[k]
            fn = un + a * (fn - un) if q else un - a * (un - fn)
        if k == self.n0 - 1:
            self.merged = (fn == un).all(axis=1)
            # a non-finite path is NaN here in one copy (0 * inf), which fails
            # the test, so one_copy implies finite states
            self.one_copy = bool(self.merged.all())
        if k >= self.n0 - 1:
            # the snap and every later step; no path is merged before
            np.copyto(fn, un, where=self.merged[:, None])
        return (fn, un) if q else (un, fn)


def _coupled_batch(coeffs: CoefficientSet, xi_values: np.ndarray,
                   eta_values: np.ndarray, grid: GridSpec, sched: GammaSchedule,
                   noise: NoiseBlocks, measure: str, observers=()) -> _Coupled:
    """Advance a batch of coupled pairs from the shared histories (m+1, d)
    by one step per noise row; returns the finished _Coupled, whose rings
    hold the last m + 1 rows of each copy. noise has the shape (k, B, d)
    with n0 <= k <= n_T (t0 = n0 h), so that the merge flags are set; k =
    n_T for the whole horizon. measure: "Q" (forced copy X solves the
    original equation under the simulated law) or "P" (unforced copy X
    drives, weight is a martingale). observers see every grid row, merge
    snap included (integrator._run); at row m + j the running integrals
    cover the first j steps. Memory is the two rings, O(m B d), unless an
    observer keeps more.
    """
    _check_measure(measure)
    n0 = grid.index_of(sched.t0, "t0")
    if n0 < 1 or n0 > grid.n_T:
        raise ValueError("t0 must lie in (0, T] on the grid")
    k, b, d = noise.shape
    if d != coeffs.dim or not n0 <= k <= grid.n_T:
        raise ValueError("noise must have shape (k, B, d) with n0 <= k <= n_T")
    pair = _Coupled(coeffs, grid, sched, measure,
                    (_Ring(xi_values, b), _Ring(eta_values, b)), n0)
    _run(pair, noise, observers)
    return pair


def simulate_coupled(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                     grid: GridSpec, t0: float, measure: str, theta: float = 1.0,
                     seed: int = 0, path_index: int = 0) -> CoupledTrajectory:
    """One coupled pair, path path_index of seed, with its whole history.
    X starts from xi, Y from eta, and the copies merge by the deadline t0.
    measure "Q": X is forced onto Y, which solves the original equation.
    measure "P": X solves the original equation and Y is forced onto it;
    the exponential weight has mean one exactly at every step."""
    grid.check_segments(coeffs.dim, xi, eta)
    sched = GammaSchedule(theta=theta, k4=coeffs.constants.k4, t0=t0)
    stream = NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim)
    noise = NoiseBlocks(stream, path_index, 1, grid.n_T)
    m = grid.m
    rec = _Recorder(m + grid.n_T + 1)
    phi_cum = np.zeros(grid.n_T + 1)
    logw_cum = np.zeros(grid.n_T + 1)

    def weights(i, pair):
        if i > m:
            phi_cum[i - m] = pair.int_phi_sq[0]
            logw_cum[i - m] = pair.logw[0]

    pair = _coupled_batch(coeffs, xi.values, eta.values, grid, sched, noise,
                          measure, (rec, weights))
    return CoupledTrajectory(
        grid=grid, sched=sched,
        x_values=rec.full[0][:, 0, :], y_values=rec.full[1][:, 0, :],
        phi_sq_cum=phi_cum, log_weight_cum=logw_cum,
        merged=bool(pair.merged[0]))
