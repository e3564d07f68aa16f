"""Coupling by change of measure for the delay equation.

Two copies of the equation are driven by one Brownian motion. One copy gets
an extra drift proportional to the current gap, scaled by a schedule gamma
that shrinks to zero at a chosen deadline t0, which forces the copies
together by t0. The extra drift is paid for with an exponential weight
(Girsanov), so expectations under the unforced law can be recovered from
the forced simulation and vice versa.

Both simulation directions are provided. simulate_coupled_Q runs the pair
under the measure in which the forced copy solves the original equation
(the direction used by the entropy and exponential-moment estimates);
simulate_coupled_P runs it under the law of the unforced copy, where the
weight has expectation one exactly, step by step, which makes a sharp
Monte Carlo sanity check possible.

The gap dynamics contain the stiff term -(X - Y)/gamma. An explicit Euler
step would blow up as gamma -> 0, so each substep integrates that term
exactly: the post-Euler difference is multiplied by
exp(-int 1/gamma) over the substep. On the final substep before t0 that
factor is exactly zero, so the copies land on the same floating point
values, and the merge check below is a guardrail against paths that went
non-finite on the way rather than a tolerance race.
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
        if not (0.0 < self.theta < 2.0):
            raise ValueError("theta must lie in (0, 2)")
        if not (np.isfinite(self.t0) and self.t0 > 0):
            raise ValueError("t0 must be positive")
        if not np.isfinite(self.k4):
            raise ValueError("k4 must be finite")

    @property
    def near_limit(self) -> bool:
        return abs(self.k4) * self.t0 < _K4_LIMIT

    @property
    def gamma0(self) -> float:
        return float(gamma(0.0, self))


def gamma(t, sched: GammaSchedule):
    """Schedule value gamma(t) for t in [0, t0). Scalar or array t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t >= sched.t0):
        raise ValueError("gamma(t) is defined for 0 <= t < t0")
    c = 2.0 - sched.theta
    if sched.near_limit:
        out = c * (sched.t0 - t)
    else:
        # ((2-theta)/k4) (1 - e^{(t-t0) k4}), positive for either sign of k4
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
        return (u - math.log(abs(math.expm1(u)))) / c

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
    merged records whether the copies were on top of each other at t0 to
    within delta_merge (relative to 1 + |X|); a False here means the
    discretization failed on this path, not that an exception occurred.
    """

    grid: GridSpec
    sched: GammaSchedule
    measure: str
    x_values: np.ndarray
    y_values: np.ndarray
    phi_sq_cum: np.ndarray
    log_weight_cum: np.ndarray
    merged: bool
    delta_merge: float
    seed: int = 0
    path_index: int = 0

    def __post_init__(self):
        for arr in (self.x_values, self.y_values, self.phi_sq_cum, self.log_weight_cum):
            arr.setflags(write=False)


class _Coupled:
    """A batch of coupled pairs in flight: the X and Y rings, the running
    log-weight logw and the merge flags, set at step n0 - 1 (t0 = n0 h).
    After each step, phi_sq holds its |phi|^2 h and gap_gamma its
    |X-Y|^2 / gamma^2 h (None from t0 on) for observers to add up. Each
    state's diffusion is evaluated once per step, as a diagonal where the
    system declares one, and serves sigma, sigma^-1 and sigma_x - sigma_y.
    """

    def __init__(self, coeffs, grid, sched, measure, delta_merge, rings, n0):
        self.coeffs, self.grid, self.rings = coeffs, grid, rings
        self.measure, self.delta_merge, self.n0 = measure, delta_merge, n0
        self.alphas = contraction_factors(sched, grid.h, n0)
        self.gammas = gamma(np.arange(n0) * grid.h, sched)
        # sign of the 1/2 |phi|^2 h term in log R
        self.sign = 1.0 if measure == "Q" else -1.0
        b = rings[0].buf.shape[1]
        self.logw, self.merged = np.zeros(b), np.zeros(b, dtype=bool)
        self.phi_sq = self.gap_gamma = None

    def step(self, k, dw):
        coeffs, h, (rx, ry) = self.coeffs, self.grid.h, self.rings
        t = k * h
        i = self.grid.m + k
        x, y = rx.row(i), ry.row(i)
        pre = k < self.n0
        merged = self.merged

        bx = coeffs.b(t, rx.segment(i))
        by = coeffs.b(t, ry.segment(i))
        zx = coeffs.z(t, x)
        zy = coeffs.z(t, y)
        sx = coeffs.diffusion(t, x)
        sy = coeffs.diffusion(t, y)
        siginv_y_bdiff = sy.solve(by - bx)

        phi = siginv_y_bdiff
        self.gap_gamma = None
        if pre:
            g = float(self.gammas[k])
            e = x - y
            siginv_x_e = sx.solve(e)
            phi = phi - siginv_x_e / g
            self.gap_gamma = (e * e).sum(axis=1) / (g * g) * h

        self.phi_sq = (phi * phi).sum(axis=1) * h
        self.logw += (phi * dw).sum(axis=1) + self.sign * 0.5 * self.phi_sq

        if self.measure == "Q":
            # unforced copy Y solves the original equation
            yn = _euler_step(y, zy + by, h, sy, dw)
            drift_x = zx + by + sx.apply_diff(sy, siginv_y_bdiff)
            xe = _euler_step(x, drift_x, h, sx, dw)
            if pre:
                xn = yn + self.alphas[k] * (xe - yn)
            else:
                xn = xe
                xn[merged] = yn[merged]
        else:
            # unforced copy X drives; Y carries the gap forcing
            xn = _euler_step(x, zx + bx, h, sx, dw)
            if pre:
                corr = sy.apply_diff(sx, siginv_x_e) / g
                ye = _euler_step(y, zy + bx + corr, h, sy, dw)
                yn = xn - self.alphas[k] * (xn - ye)
            else:
                yn = _euler_step(y, zy + bx, h, sy, dw)
                yn[merged] = xn[merged]

        if k == self.n0 - 1:
            gap = np.linalg.norm(xn - yn, axis=1)
            ref = 1.0 + np.linalg.norm(xn, axis=1)
            self.merged = merged = gap <= self.delta_merge * ref
            # the snap lands in both copies of the ring row
            if self.measure == "Q":
                xn[merged] = yn[merged]
            else:
                yn[merged] = xn[merged]
        return xn, yn


class _Integrals:
    """Observer of a coupled run: per path, int |phi|^2 (phi_sq) and
    int |X-Y|^2 / gamma^2 (gap_over_gamma_sq, which stops at t0) over the
    first k_upper steps."""

    def __init__(self, m: int, k_upper: int, b: int):
        self.k_upper = k_upper
        self.rows = range(m + 1, m + k_upper + 1)
        self.phi_sq = np.zeros(b)
        self.gap_over_gamma_sq = np.zeros(b)

    def __call__(self, i, pair):
        if i in self.rows:
            self.phi_sq += pair.phi_sq
            if pair.gap_gamma is not None:
                self.gap_over_gamma_sq += pair.gap_gamma


def _coupled_batch(coeffs: CoefficientSet, xi_values: np.ndarray,
                   eta_values: np.ndarray, grid: GridSpec, sched: GammaSchedule,
                   noise: NoiseBlocks, measure: str, delta_merge: float,
                   observers=()) -> _Coupled:
    """Advance a batch of coupled pairs from the shared histories (m+1, d)
    by one step per noise row; returns the finished _Coupled, whose rings
    hold the last m + 1 rows of each copy. noise has the shape (k, B, d),
    k = n_T for the whole horizon, and k >= n0 for the merge flags to be
    set (t0 = n0 h). measure: "Q" (forced
    copy X solves the original equation under the simulated law) or "P"
    (unforced copy X drives, weight is a martingale). observers see every
    grid row, merge snap included (integrator._run), so memory is O(m B d)
    unless an observer keeps more.
    """
    if measure not in ("Q", "P"):
        raise ValueError("measure must be 'Q' or 'P'")
    n0 = grid.index_of(sched.t0, "t0")
    if n0 < 1 or n0 > grid.n_T:
        raise ValueError("t0 must lie in (0, T] on the grid")
    b = noise.shape[1]
    pair = _Coupled(coeffs, grid, sched, measure, delta_merge,
                    (_Ring(xi_values, b), _Ring(eta_values, b)), n0)
    _run(pair, noise, observers)
    return pair


def _simulate_coupled(coeffs, xi, eta, grid, t0, theta, seed, path_index,
                      delta_merge, measure) -> CoupledTrajectory:
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
            phi_cum[i - m] = phi_cum[i - m - 1] + pair.phi_sq[0]
            logw_cum[i - m] = pair.logw[0]

    pair = _coupled_batch(coeffs, xi.values, eta.values, grid, sched, noise,
                          measure, delta_merge, (rec, weights))
    return CoupledTrajectory(
        grid=grid, sched=sched, measure=measure,
        x_values=rec.full[0][:, 0, :], y_values=rec.full[1][:, 0, :],
        phi_sq_cum=phi_cum, log_weight_cum=logw_cum,
        merged=bool(pair.merged[0]), delta_merge=delta_merge,
        seed=seed, path_index=path_index)


def simulate_coupled_Q(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                       grid: GridSpec, t0: float, theta: float = 1.0,
                       seed: int = 0, path_index: int = 0,
                       delta_merge: float = 1e-8) -> CoupledTrajectory:
    """Coupled pair under the measure where the forced copy X solves the
    original equation. Y starts from eta and is the reference solution; X
    starts from xi and is pulled onto Y by the deadline t0."""
    return _simulate_coupled(coeffs, xi, eta, grid, t0, theta, seed,
                             path_index, delta_merge, "Q")


def simulate_coupled_P(coeffs: CoefficientSet, xi: SegmentPath, eta: SegmentPath,
                       grid: GridSpec, t0: float, theta: float = 1.0,
                       seed: int = 0, path_index: int = 0,
                       delta_merge: float = 1e-8) -> CoupledTrajectory:
    """Coupled pair under the unforced law: X solves the original equation
    from xi, Y is forced onto X by t0, and the exponential weight has mean
    one exactly at every step."""
    return _simulate_coupled(coeffs, xi, eta, grid, t0, theta, seed,
                             path_index, delta_merge, "P")

