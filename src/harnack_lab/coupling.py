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
from typing import Optional

import numpy as np

from .coefficients import CoefficientSet
from .integrator import NoiseStream, _euler_step
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

    @property
    def dim(self) -> int:
        return self.x_values.shape[1]

    def point_gaps(self) -> np.ndarray:
        """Euclidean gap |X - Y| at every grid time from -r0 to T."""
        return np.linalg.norm(self.x_values - self.y_values, axis=1)

    def x_segment_at(self, t: float) -> SegmentPath:
        k = self.grid.index_of(t, "t")
        return SegmentPath(self.grid.r0, self.x_values[k: k + self.grid.m + 1].copy())

    def y_segment_at(self, t: float) -> SegmentPath:
        k = self.grid.index_of(t, "t")
        return SegmentPath(self.grid.r0, self.y_values[k: k + self.grid.m + 1].copy())


def _coupled_batch(coeffs: CoefficientSet, xi_values: np.ndarray,
                   eta_values: np.ndarray, grid: GridSpec, sched: GammaSchedule,
                   noise: np.ndarray, measure: str, delta_merge: float,
                   k_upper: Optional[int] = None, want_paths: bool = False) -> dict:
    """Advance a batch of coupled pairs; the workhorse behind the public ops.

    xi_values / eta_values: shared histories (m+1, d). noise: (n_T, B, d).
    measure: "Q" (forced copy X solves the original equation under the
    simulated law) or "P" (unforced copy X drives, weight is a martingale).
    k_upper caps the step index for the *_upper accumulators (defaults to
    n_T, i.e. the full horizon). Each state's diffusion is evaluated once
    per step through coeffs.diffusion, as a diagonal where the system
    declares one, and serves sigma, sigma^-1 and sigma_x - sigma_y.

    Returns a dict of per-path arrays:
      log_weight    accumulated log R over [0, T]
      phi_sq_upper  int |phi|^2, stopped at k_upper steps
      gap_gamma_sq  int |X-Y|^2 / gamma^2, stopped at min(k_upper, n0) steps
      merged        bool per path
      full_x/full_y histories (m + n_T + 1, B, d), row m is time 0
      phi_sq_cum/logw_cum  running integrals (n_T + 1, B), only when want_paths
    """
    if measure not in ("Q", "P"):
        raise ValueError("measure must be 'Q' or 'P'")
    m, n_t, h = grid.m, grid.n_T, grid.h
    d = coeffs.dim
    b = noise.shape[1]
    n0 = grid.index_of(sched.t0, "t0")
    if n0 < 1 or n0 > n_t:
        raise ValueError("t0 must lie in (0, T] on the grid")
    if k_upper is None:
        k_upper = n_t
    if not (0 <= k_upper <= n_t):
        raise ValueError("k_upper out of range")

    alphas = contraction_factors(sched, h, n0)
    sign = 1.0 if measure == "Q" else -1.0  # sign of the 1/2 |phi|^2 h term in log R

    full_x = np.empty((m + n_t + 1, b, d))
    full_y = np.empty((m + n_t + 1, b, d))
    full_x[: m + 1] = xi_values[:, None, :]
    full_y[: m + 1] = eta_values[:, None, :]

    logw = np.zeros(b)
    phi_sq_upper = np.zeros(b)
    gap_gamma_sq = np.zeros(b)
    if want_paths:
        phi_cum = np.zeros((n_t + 1, b))
        logw_cum = np.zeros((n_t + 1, b))
    merged = np.zeros(b, dtype=bool)

    for k in range(n_t):
        t = k * h
        x = full_x[m + k]
        y = full_y[m + k]
        seg_x = np.moveaxis(full_x[k: k + m + 1], 0, 1)
        seg_y = np.moveaxis(full_y[k: k + m + 1], 0, 1)
        dw = noise[k]
        pre = k < n0

        bx = coeffs.b_delay(t, seg_x)
        by = coeffs.b_delay(t, seg_y)
        zx = coeffs.z_drift(t, x)
        zy = coeffs.z_drift(t, y)
        sx = coeffs.diffusion(t, x)
        sy = coeffs.diffusion(t, y)
        siginv_y_bdiff = sy.solve(by - bx)

        phi = siginv_y_bdiff
        if pre:
            g = float(gamma(t, sched))
            e = x - y
            siginv_x_e = sx.solve(e)
            phi = phi - siginv_x_e / g
            gg = (e * e).sum(axis=1) / (g * g) * h
            if k < k_upper:
                gap_gamma_sq += gg

        phi_sq_step = (phi * phi).sum(axis=1) * h
        if k < k_upper:
            phi_sq_upper += phi_sq_step
        logw += (phi * dw).sum(axis=1) + sign * 0.5 * phi_sq_step

        if measure == "Q":
            # unforced copy Y solves the original equation
            yn = _euler_step(y, zy + by, h, sy, dw)
            drift_x = zx + by + sx.apply_diff(sy, siginv_y_bdiff)
            xe = _euler_step(x, drift_x, h, sx, dw)
            if pre:
                xn = yn + alphas[k] * (xe - yn)
            else:
                xn = xe
                xn[merged] = yn[merged]
        else:
            # unforced copy X drives; Y carries the gap forcing
            xn = _euler_step(x, zx + bx, h, sx, dw)
            if pre:
                corr = sy.apply_diff(sx, siginv_x_e) / g
                ye = _euler_step(y, zy + bx + corr, h, sy, dw)
                yn = xn - alphas[k] * (xn - ye)
            else:
                yn = _euler_step(y, zy + bx, h, sy, dw)
                yn[merged] = xn[merged]

        full_x[m + k + 1] = xn
        full_y[m + k + 1] = yn
        if want_paths:
            phi_cum[k + 1] = phi_cum[k] + phi_sq_step
            logw_cum[k + 1] = logw

        if k == n0 - 1:
            gap = np.linalg.norm(xn - yn, axis=1)
            ref = 1.0 + np.linalg.norm(xn, axis=1)
            merged = gap <= delta_merge * ref
            snap = merged
            if measure == "Q":
                full_x[m + k + 1][snap] = yn[snap]
            else:
                full_y[m + k + 1][snap] = xn[snap]

    out = {
        "log_weight": logw,
        "phi_sq_upper": phi_sq_upper,
        "gap_gamma_sq": gap_gamma_sq,
        "merged": merged,
        "full_x": full_x,
        "full_y": full_y,
    }
    if want_paths:
        out["phi_sq_cum"] = phi_cum
        out["logw_cum"] = logw_cum
    return out


def _simulate_coupled(coeffs, xi, eta, grid, t0, theta, seed, path_index,
                      delta_merge, measure) -> CoupledTrajectory:
    grid.check_segments(coeffs.dim, xi, eta)
    sched = GammaSchedule(theta=theta, k4=coeffs.constants.k4, t0=t0)
    stream = NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim)
    noise = stream.increments(path_index, grid.n_T)[:, None, :]
    res = _coupled_batch(coeffs, xi.values, eta.values, grid, sched, noise,
                         measure, delta_merge, want_paths=True)
    return CoupledTrajectory(
        grid=grid, sched=sched, measure=measure,
        x_values=res["full_x"][:, 0, :], y_values=res["full_y"][:, 0, :],
        phi_sq_cum=res["phi_sq_cum"][:, 0], log_weight_cum=res["logw_cum"][:, 0],
        merged=bool(res["merged"][0]), delta_merge=delta_merge,
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


def coupling_time(traj: CoupledTrajectory, delta: float) -> float:
    """First grid time t >= 0 with |X(t) - Y(t)| <= delta (1 + |X(t)|),
    nan if the gap never got that small. delta = 0 asks for exact meeting,
    which a merged pair attains precisely at the deadline t0."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    m = traj.grid.m
    gaps = traj.point_gaps()[m:]
    ref = 1.0 + np.linalg.norm(traj.x_values[m:], axis=1)
    hit = np.nonzero(gaps <= delta * ref)[0]
    if hit.size == 0:
        return math.nan
    return float(hit[0] * traj.grid.h)
