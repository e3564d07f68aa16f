"""Scalar reference implementations that the batched package code is
checked against: one path's noise from its own generator, and a batch's
stacked from them, one Euler step, the Girsanov integrand phi, the
segment-gap integral by brute-force window maxima, a wrapper that turns
single-point coefficient callables into batch callables, dense and
rescaled diffusions, the assumption audit on dense matrices, the stepping
kernels with their full path histories, an observer that copies the
coupled kernel's running integrals at one row, the stationary sampler that
tiles them, the two branches of K4 / (1 - e^{-K4 s}), the chunk reduction
over dicts merged by key name, accessors of a recorded path that the
package does not need, and a patch of the contraction factors that keeps
coupled copies apart at t0."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from harnack_lab.bounds import _lambda_p, _s_eps, _theta_set_contains, _w_eps
from harnack_lab.coefficients import (_AUDIT_M, _AUDIT_STATES, AuditReport, CoefficientSet,
                                      ConditionAudit)
from harnack_lab.coupling import gamma
from harnack_lab.integrator import NoiseStream
from harnack_lab.segment_paths import GridSpec, SegmentPath


def increments(stream, path_index, n_steps):
    """Increments dB of one path, shape (n_steps, dim), drawn from its own
    Philox(key=[seed, path_index]) and scaled by sqrt(h): what every path of
    a NoiseBlocks draw must equal."""
    key = np.array([stream.seed, path_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal((n_steps, stream.dim)) * np.sqrt(stream.h)


def increments_batch(stream, first_path, n_paths, n_steps):
    """The increments of paths first_path..first_path+n_paths-1 stacked
    time-major, shape (n_steps, n_paths, dim): the noise of one batch."""
    return np.stack([increments(stream, first_path + j, n_steps) for j in range(n_paths)],
                    axis=1)


def k4_ratio_direct(k4, s):
    """K4 / (1 - e^{-K4 s}) as written, undefined at K4 = 0."""
    return k4 / (-math.expm1(-k4 * s))


def k4_ratio_series(k4, s):
    """K4 / (1 - e^{-K4 s}) by its three-term series in u = K4 s."""
    u = k4 * s
    return (1.0 + 0.5 * u + u * u / 12.0) / s


def coefficient_set_from_pointwise(dim, sigma, z_drift, b_delay, constants, **kw):
    """Wrap single-point callables (x of shape (d,), segment of shape (m+1, d))."""
    def sig_b(t, x):
        return np.stack([np.asarray(sigma(t, xi), dtype=float) for xi in x])

    def z_b(t, x):
        return np.stack([np.atleast_1d(np.asarray(z_drift(t, xi), dtype=float)) for xi in x])

    def b_b(t, seg):
        return np.stack([np.atleast_1d(np.asarray(b_delay(t, s), dtype=float)) for s in seg])

    return CoefficientSet(dim, sig_b, z_b, b_b, constants, **kw)


def dense_sigma(sigma):
    """(t, x) -> (B, d, d) callable with the (B, d) entries of a diagonal
    sigma on its diagonal."""
    def mat(t, x):
        diag = sigma(t, x)
        out = np.zeros(diag.shape + diag.shape[-1:])
        idx = np.arange(diag.shape[-1])
        out[:, idx, idx] = diag
        return out
    return mat


def with_scaled_sigma(coeffs, scale):
    """Copy of coeffs with its diffusion multiplied by a constant factor;
    scale 0 turns the dynamics into the drift ODE. The declared constants
    are kept as they are (they describe the original system), so the copy
    is for integrator checks only."""
    scale = float(scale)
    sig = coeffs.sigma
    return dataclasses.replace(coeffs, sigma=lambda t, x: sig(t, x) * scale)


def _op_norm(mats):
    # largest singular value per stacked matrix
    if mats.shape[-1] == 1:
        return np.abs(mats[:, 0, 0])
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def audit_dense(coeffs, t_max, n, seed, slack=1e-6):
    """The assumption audit of a system with a diagonal sigma, on dense
    (B, d, d) matrices: sigma with the entries on its diagonal, sigma^-1
    with their reciprocals, sigma^-1 applied by einsum, operator norms by
    SVD and HS norms over the whole matrix. Same samples and the same
    reductions as audit_assumptions, which reads the diagonal
    elementwise and must match this bit for bit."""
    d, k = coeffs.dim, coeffs.constants
    sig = dense_sigma(coeffs.sigma)
    sig_inv = dense_sigma(lambda t, x: 1.0 / coeffs.sigma(t, x))
    maxima = {c: -np.inf for c in ("A1", "A2", "A3", "A4")}
    worst = {c: (np.nan, ()) for c in ("A1", "A2", "A3", "A4")}
    group, done, shard = 256, 0, 0
    while done < n:
        b = min(4096, n - done)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, shard], dtype=np.uint64)))
        ts = rng.uniform(0.0, t_max, size=(b + group - 1) // group)
        x = rng.uniform(*_AUDIT_STATES, size=(b, d))
        y = rng.uniform(*_AUDIT_STATES, size=(b, d))
        seg_xi = rng.uniform(*_AUDIT_STATES, size=(b, _AUDIT_M + 1, d))
        seg_eta = rng.uniform(*_AUDIT_STATES, size=(b, _AUDIT_M + 1, d))
        for g, t in enumerate(ts):
            t = float(t)
            sl = slice(g * group, min((g + 1) * group, b))
            gx, gy, gxi, geta = x[sl], y[sl], seg_xi[sl], seg_eta[sl]

            def update(cond, ratios, pts):
                i = int(np.argmax(ratios))
                if ratios[i] > maxima[cond]:
                    maxima[cond] = float(ratios[i])
                    worst[cond] = (t, tuple(map(float, np.atleast_1d(pts[i]))))

            end = geta[:, -1, :]
            bdiff = coeffs.b_delay(t, gxi) - coeffs.b_delay(t, geta)
            normed = np.einsum("bij,bj->bi", sig_inv(t, end), bdiff)
            segdist = np.sqrt(((gxi - geta) ** 2).sum(axis=2)).max(axis=1)
            ok = segdist > 0
            if ok.any():
                update("A1", np.linalg.norm(normed[ok], axis=1) / segdist[ok], end[ok])
            sx, sy = sig(t, gx), sig(t, gy)
            dxy = np.linalg.norm(gx - gy, axis=1)
            ok = dxy > 0
            if ok.any():
                update("A2", _op_norm(sx[ok] - sy[ok]) / np.minimum(1.0, dxy[ok]), gx[ok])
            update("A3", _op_norm(sig_inv(t, gx)), gx)
            if ok.any():
                hs2 = ((sx[ok] - sy[ok]) ** 2).sum(axis=(1, 2))
                zdiff = coeffs.z_drift(t, gx[ok]) - coeffs.z_drift(t, gy[ok])
                inner = ((gx[ok] - gy[ok]) * zdiff).sum(axis=1)
                update("A4", (hs2 + 2.0 * inner) / dxy[ok] ** 2, gx[ok])
        done += b
        shard += 1
    conditions = {}
    for cond, dec in {"A1": k.k1, "A2": k.k2, "A3": k.k3, "A4": k.k4}.items():
        emp, passed = maxima[cond], True
        if emp == -np.inf:
            emp = 0.0
        else:
            passed = bool(np.isfinite(emp) and emp <= dec + slack * max(1.0, abs(dec)))
        conditions[cond] = ConditionAudit(cond, float(emp), float(dec), passed, *worst[cond])
    return AuditReport(conditions=conditions)


def step_euler(t, x, seg, dw, h, coeffs):
    """One explicit Euler step: x + (Z(t,x) + b(t,seg)) h + sigma(t,x) dW,
    with sigma as a dense matrix.

    x and dw are flat (d,) vectors; seg is the path segment ending at time t
    (its endpoint is conventionally x, but that is not enforced).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    dw = np.asarray(dw, dtype=float).reshape(-1)
    if x.shape[0] != coeffs.dim or dw.shape[0] != coeffs.dim:
        raise ValueError(f"x and dw must have length {coeffs.dim}")
    xb = x[None, :]
    segb = seg.values[None, :, :]
    drift = coeffs.z_drift(t, xb) + coeffs.b_delay(t, segb)
    sig = np.asarray(coeffs.sigma(t, xb))[0]
    if sig.ndim == 1:
        sig = np.diag(sig)
    out = x + drift[0] * h + sig @ dw
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(f"non-finite state after Euler step at t={t:.6g}")
    return out


def coupling_drift_phi(t, x, y, seg_x, seg_y, sched, coeffs):
    """Girsanov integrand phi at time t given both states and segments.

    phi = sigma(t,y)^{-1} (b(t, seg_y) - b(t, seg_x))
          - 1_{t < t0} / gamma(t) * sigma(t,x)^{-1} (x - y)
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    bdiff = coeffs.b_delay(t, seg_y.values[None]) - coeffs.b_delay(t, seg_x.values[None])
    out = coeffs.diffusion(t, y[None]).solve(bdiff)[0]
    if t < sched.t0:
        g = gamma(t, sched)
        out = out - coeffs.diffusion(t, x[None]).solve((x - y)[None])[0] / g
    return out


def seg_gap_integral_window_max(full_x, full_y, m, h, k_upper):
    """int_0^{k_upper h} ||X_t - Y_t||_inf^2 dt per path, rescanning the m + 1
    gap rows of every window; the same gap rows and the same order of
    accumulation as the package, so equal results are expected bit for bit."""
    gaps = np.empty((k_upper + m, full_x.shape[1]))
    for row in range(k_upper + m):
        gaps[row] = np.linalg.norm(full_x[row] - full_y[row], axis=1)
    out = np.zeros(full_x.shape[1])
    for k in range(k_upper):
        win = gaps[k: k + m + 1].max(axis=0)
        out += win * win * h
    return out


# ---------------------------------------------------- full-history kernels
# The stepping kernels as they were before they streamed: every grid row of
# both copies is kept in (m + n_T + 1, B, d) arrays and the noise is one
# (n_T, B, d) array. Same arithmetic in the same order, so the streamed
# kernels must match them bit for bit.

def simulate_batch_full(coeffs, xi_values, grid, noise):
    """Full history (m + n_T + 1, B, d) of a batch of uncoupled paths."""
    m, n_t, h = grid.m, grid.n_T, grid.h
    b = noise.shape[1]
    full = np.empty((m + n_t + 1, b, coeffs.dim))
    full[: m + 1] = xi_values[:, None, :]
    for k in range(n_t):
        t = k * h
        x = full[m + k]
        drift = coeffs.z_drift(t, x)
        if not coeffs.delay_free:
            drift = drift + coeffs.b_delay(t, np.moveaxis(full[k: k + m + 1], 0, 1))
        full[m + k + 1] = x + drift * h + coeffs.diffusion(t, x).apply(noise[k])
    return full


def keep_apart_at_t0(monkeypatch, last=0.5):
    """Make the last contraction factor `last` instead of 0, so that a
    finite pair that starts apart is still apart at t0 and reports
    unmerged. Forked workers inherit the patch, and the kernel and
    coupled_batch_full look the factors up at call time."""
    from harnack_lab import coupling

    exact = coupling.contraction_factors

    def factors(sched, h, n0):
        out = exact(sched, h, n0)
        out[-1] = last
        return out

    monkeypatch.setattr(coupling, "contraction_factors", factors)


def coupled_batch_full(coeffs, xi_values, eta_values, grid, sched, noise,
                       measure, k_upper):
    """Per-path outputs of a batch of coupled pairs: log_weight, phi_sq
    and gap_gamma_sq over the first k_upper steps, merged (no gap left at
    t0), and the full histories full_x / full_y."""
    from harnack_lab.coupling import contraction_factors

    m, n_t, h = grid.m, grid.n_T, grid.h
    b = noise.shape[1]
    n0 = grid.index_of(sched.t0)
    alphas = contraction_factors(sched, h, n0)
    sign = 1.0 if measure == "Q" else -1.0
    full_x = np.empty((m + n_t + 1, b, coeffs.dim))
    full_y = np.empty((m + n_t + 1, b, coeffs.dim))
    full_x[: m + 1] = xi_values[:, None, :]
    full_y[: m + 1] = eta_values[:, None, :]
    logw, phi_sq, gap_gamma_sq = np.zeros(b), np.zeros(b), np.zeros(b)
    merged = np.zeros(b, dtype=bool)
    for k in range(n_t):
        t = k * h
        x, y = full_x[m + k], full_y[m + k]
        bx = coeffs.b_delay(t, np.moveaxis(full_x[k: k + m + 1], 0, 1))
        by = coeffs.b_delay(t, np.moveaxis(full_y[k: k + m + 1], 0, 1))
        zx, zy = coeffs.z_drift(t, x), coeffs.z_drift(t, y)
        sx, sy = coeffs.diffusion(t, x), coeffs.diffusion(t, y)
        dw = noise[k]
        pre = k < n0
        phi = siginv_y_bdiff = sy.solve(by - bx)
        if pre:
            g = float(gamma(t, sched))
            e = x - y
            siginv_x_e = sx.solve(e)
            phi = phi - siginv_x_e / g
            if k < k_upper:
                gap_gamma_sq += (e * e).sum(axis=1) / (g * g) * h
        step = (phi * phi).sum(axis=1) * h
        if k < k_upper:
            phi_sq += step
        logw += (phi * dw).sum(axis=1) + sign * 0.5 * step
        if measure == "Q":
            yn = y + (zy + by) * h + sy.apply(dw)
            xe = x + (zx + by + sx.apply_diff(sy, siginv_y_bdiff)) * h + sx.apply(dw)
            xn = yn + alphas[k] * (xe - yn) if pre else xe
            if not pre:
                xn[merged] = yn[merged]
        else:
            xn = x + (zx + bx) * h + sx.apply(dw)
            if pre:
                corr = sy.apply_diff(sx, siginv_x_e) / g
                ye = y + (zy + bx + corr) * h + sy.apply(dw)
                yn = xn - alphas[k] * (xn - ye)
            else:
                yn = y + (zy + bx) * h + sy.apply(dw)
                yn[merged] = xn[merged]
        full_x[m + k + 1] = xn
        full_y[m + k + 1] = yn
        if k == n0 - 1:
            merged = np.linalg.norm(xn - yn, axis=1) == 0
            if measure == "Q":
                full_x[m + k + 1][merged] = yn[merged]
            else:
                full_y[m + k + 1][merged] = xn[merged]
    return {"log_weight": logw, "phi_sq": phi_sq, "gap_gamma_sq": gap_gamma_sq,
            "merged": merged, "full_x": full_x, "full_y": full_y}


class SumsAt:
    """Observer of a coupled run: copies of the kernel's running integrals
    at grid row m + k_upper, over the first k_upper steps, named as in
    coupled_batch_full: phi_sq and gap_gamma_sq."""

    def __init__(self, m, k_upper):
        self.row = m + k_upper

    def __call__(self, i, pair):
        if i == self.row:
            self.phi_sq = pair.int_phi_sq.copy()
            self.gap_gamma_sq = pair.int_gap_gamma_sq.copy()


@dataclass(frozen=True)
class TiledSample:
    """The windows of a stationary run as segments, and their moments."""

    segments: tuple
    endpoint_mean: np.ndarray
    endpoint_var: np.ndarray
    lag_r0_autocov: np.ndarray


def stationary_segments_tiled(coeffs, grid, n, burn_in=10.0, seed=0):
    """The stationary sampler as it was before it streamed: min(n, 256)
    whole paths from the origin, tiled path by path into n length-r0
    SegmentPath windows after the burn-in, with the same moment arithmetic,
    so the package must match it bit for bit."""
    n_paths = min(n, 256)
    windows = -(-n // n_paths)
    n_burn = int(round(burn_in / grid.h))
    run_grid = GridSpec(r0=grid.r0, T=(n_burn + windows * grid.m) * grid.h, m=grid.m)
    noise = increments_batch(NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim), 0, n_paths,
                             run_grid.n_T)
    full = simulate_batch_full(coeffs, np.zeros((grid.m + 1, coeffs.dim)), run_grid, noise)
    segs = []
    for j in range(n_paths):
        for w in range(windows):
            if len(segs) < n:
                start = grid.m + n_burn + w * grid.m
                segs.append(SegmentPath(grid.r0, full[start: start + grid.m + 1, j, :].copy()))
    ends = np.stack([s.values[-1] for s in segs])
    starts = np.stack([s.values[0] for s in segs])
    mean = ends.mean(axis=0)
    var = ends.var(axis=0, ddof=1)
    cov = ((starts - starts.mean(axis=0)) * (ends - mean)).sum(axis=0) / (n - 1)
    return TiledSample(segments=tuple(segs), endpoint_mean=mean, endpoint_var=var,
                       lag_r0_autocov=cov)


def point_gaps(traj):
    """Euclidean gap |X - Y| of a CoupledTrajectory at every grid time from -r0 to T."""
    return np.linalg.norm(traj.x_values - traj.y_values, axis=1)


def segment_at(values, grid, t):
    """SegmentPath over [t - r0, t] of a path's values (m + n_T + 1, d)."""
    k = grid.index_of(t, "t")
    return SegmentPath(grid.r0, values[k: k + grid.m + 1].copy())


def value_at(traj, t):
    """State of a Trajectory at grid time t."""
    return traj.values[traj.grid.m + traj.grid.index_of(t, "t")]


def points(traj):
    """States of a Trajectory on [0, T] only, shape (n_T + 1, dim)."""
    return traj.values[traj.grid.m:]


def times(traj):
    """All grid times of a Trajectory from -r0 to T."""
    return (np.arange(traj.values.shape[0]) - traj.grid.m) * traj.grid.h


def coupling_time(traj, delta):
    """First grid time t >= 0 with |X(t) - Y(t)| <= delta (1 + |X(t)|),
    nan if the gap never got that small."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    m = traj.grid.m
    ref = 1.0 + np.linalg.norm(traj.x_values[m:], axis=1)
    hit = np.nonzero(point_gaps(traj)[m:] <= delta * ref)[0]
    return float(hit[0] * traj.grid.h) if hit.size else math.nan


# ------------------------------------------- segment helpers the package dropped

def segment_from_function(f, r0, m):
    """Sample f at the m+1 grid times covering [-r0, 0]."""
    if m < 1 or int(m) != m:
        raise ValueError("m must be a positive integer")
    ts = np.linspace(-float(r0), 0.0, int(m) + 1)
    a = np.stack([np.atleast_1d(np.asarray(f(t), dtype=float)) for t in ts])
    if not np.isfinite(a).all():
        raise ValueError("initial-data function produced a non-finite sample")
    return SegmentPath(r0, a)


def shift_append(history, new_point):
    """Roll the window one grid step: drop the oldest value, append new_point."""
    p = np.atleast_1d(np.asarray(new_point, dtype=float))
    if p.shape != (history.dim,):
        raise ValueError(f"new point has dimension {p.shape}, segment has d={history.dim}")
    if not np.isfinite(p).all():
        raise ValueError("new point must be finite")
    return SegmentPath(history.r0, np.concatenate([history.values[1:], p[None, :]]))


def to_rows(seg):
    """(time offset, coordinates) rows of a segment."""
    return [(float(t), *map(float, v)) for t, v in zip(np.linspace(-seg.r0, 0.0, seg.m + 1), seg.values)]


def merged_fraction(est):
    """Share of an estimate's paths that did not fail."""
    return 1.0 - est.failures / est.n


@dataclass(frozen=True)
class HarnackParameters:
    """One admissible (p, eps) candidate for the power-Harnack bound, with
    the derived quantities attached."""

    p: float
    eps: float
    lambda_p: float
    w_eps: float
    s_eps: float

    @classmethod
    def build(cls, p, eps, consts, r0):
        lam = _lambda_p(p)
        if not _theta_set_contains(eps, p, consts):
            raise ValueError(f"eps={eps} is not admissible for p={p}")
        return cls(p=p, eps=eps, lambda_p=lam, w_eps=_w_eps(eps, lam, consts, r0),
                   s_eps=_s_eps(eps, lam, consts, r0))
