"""Scalar reference implementations that the batched package code is
checked against: one Euler step, the Girsanov integrand phi, the
segment-gap integral by brute-force window maxima, and a wrapper that
turns single-point coefficient callables into batch callables."""

import numpy as np

from harnack_lab.coefficients import CoefficientSet
from harnack_lab.coupling import gamma


def coefficient_set_from_pointwise(dim, sigma, z_drift, b_delay, constants, **kw):
    """Wrap single-point callables (x of shape (d,), segment of shape (m+1, d))."""
    def sig_b(t, x):
        return np.stack([np.asarray(sigma(t, xi), dtype=float) for xi in x])

    def z_b(t, x):
        return np.stack([np.atleast_1d(np.asarray(z_drift(t, xi), dtype=float)) for xi in x])

    def b_b(t, seg):
        return np.stack([np.atleast_1d(np.asarray(b_delay(t, s), dtype=float)) for s in seg])

    return CoefficientSet(dim, sig_b, z_b, b_b, constants, **kw)


def step_euler(t, x, seg, dw, h, coeffs):
    """One explicit Euler step: x + (Z(t,x) + b(t,seg)) h + sigma(t,x) dW.

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
    sig = coeffs.sigma(t, xb)
    out = x + drift[0] * h + sig[0] @ dw
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
    out = coeffs.apply_sigma_inv(t, y[None], bdiff)[0]
    if t < sched.t0:
        g = gamma(t, sched)
        out = out - coeffs.apply_sigma_inv(t, x[None], (x - y)[None])[0] / g
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
