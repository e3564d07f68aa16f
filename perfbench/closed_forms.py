"""Closed forms the benchmark's correctness checks rest on.

Derived from the model equations and the paper's formulas, written with
the standard library only so that both the benchmark's parent process and
the numpy oracle process (oracle_values.py) can use them. Nothing here
calls the harnack_lab package.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple


def constants(name: str, prm: Dict[str, float]) -> Dict[str, float]:
    """Assumption constants k1..k4 of a catalog system, derived from its
    coefficients (their meaning is in the package README)."""
    if name == "linear_additive":
        return {"k1": abs(prm["c"]) / prm["s0"], "k2": 0.0,
                "k3": 1.0 / prm["s0"], "k4": 2.0 * prm["a"]}
    if name == "sine_multiplicative":
        # |s0 (2 + sin x) - s0 (2 + sin y)| <= 2 s0 min(1, |x - y|)
        return {"k1": abs(prm["c"]) / prm["s0"], "k2": 2.0 * prm["s0"],
                "k3": 1.0 / prm["s0"], "k4": prm["s0"] ** 2 + 2.0 * prm["a"]}
    if name == "ou_nodelay":
        return {"k1": 0.0, "k2": 0.0, "k3": 1.0 / prm["s0"], "k4": -2.0 * prm["a"]}
    raise ValueError(f"no constants for {name}")


def schedule_gamma(t: float, theta: float, k4: float, t0: float) -> float:
    """gamma(t) = ((2 - theta)/k4) (1 - exp(k4 (t - t0)))."""
    return (2.0 - theta) / k4 * -math.expm1(k4 * (t - t0))


def inv_gamma_step(ta: float, tb: float, theta: float, k4: float, t0: float) -> float:
    """int_ta^tb dt / gamma(t) for tb < t0.

    With q(t) = exp(k4 (t - t0)), 1/(1 - q) = 1 + q/(1 - q), whose
    antiderivative is t - log|1 - q| / k4."""
    la = math.log(abs(math.expm1(k4 * (ta - t0))))
    lb = math.log(abs(math.expm1(k4 * (tb - t0))))
    return (k4 * (tb - ta) - (lb - la)) / (2.0 - theta)


def linear_coupled_gap(a: float, c: float, s0: float, gap0: float, m: int,
                       n_t: int, h: float, theta: float, t0: float
                       ) -> Tuple[List[float], List[Optional[float]], List[float]]:
    """Deterministic coupled pair of linear_additive (the same under Q and P).

    The common noise cancels in X - Y, so the gap obeys
    e_{k+1} = alpha_k (1 + a h) e_k before the deadline, alpha_k being
    exp(-int 1/gamma) over the step and exactly 0 on the last one, and
    stays 0 afterwards. The Girsanov integrand is
    phi_k = (-c e_{k-m} - 1{k < n0} e_k / gamma_k) / s0.
    Returns the gap at times 0..T, gamma (None from t0 on) and phi per step.
    """
    k4 = 2.0 * a
    n0 = round(t0 / h)
    gap = [gap0] * (m + 1)          # history rows -r0..0, then times h..T
    gammas: List[Optional[float]] = []
    phis = []
    for k in range(n_t):
        t = k * h
        e = gap[m + k]
        phi = -c * gap[k]
        if k < n0:
            g = schedule_gamma(t, theta, k4, t0)
            gammas.append(g)
            phi -= e / g
            alpha = 0.0 if k == n0 - 1 else math.exp(
                -inv_gamma_step(t, t + h, theta, k4, t0))
            gap.append(alpha * (1.0 + a * h) * e)
        else:
            gammas.append(None)
            gap.append(0.0)
        phis.append(phi / s0)
    gammas.append(None)
    return gap[m:], gammas, phis


def ar1_moments(a: float, s0: float, h: float, m: int) -> Tuple[float, float]:
    """Stationary variance and lag-m autocovariance of the discrete OU
    recursion X_{k+1} = (1 - a h) X_k + s0 dW_k."""
    rho = 1.0 - a * h
    var = s0 * s0 * h / (1.0 - rho * rho)
    return var, var * rho ** m


def h_curve(k: Dict[str, float], pg: float, sg: float, r0: float, s: float) -> float:
    """Log-Harnack additive constant at coupling horizon s."""
    gap = 2.0 * k["k3"] ** 2 * k["k4"] / -math.expm1(-k["k4"] * s) * pg ** 2
    grow = math.exp(k["k2"] ** 2 * (k["k1"] ** 2 * s + 8.0) * s)
    seg = k["k1"] ** 2 * (r0 / 2.0 + s * (1.0 + k["k2"] ** 2 * k["k3"] ** 2)) * grow * sg ** 2
    return gap + seg


def h_dense_min(k: Dict[str, float], pg: float, sg: float, r0: float,
                s_hi: float, points: int = 20001) -> float:
    """Minimum of h_curve over a dense log grid on [1e-6 s_hi, s_hi]."""
    return min(h_curve(k, pg, sg, r0, s_hi * 10.0 ** (-6.0 + 6.0 * i / (points - 1)))
               for i in range(points))


def entropy_bounds(k: Dict[str, float], pg: float, sg: float, r0: float,
                   t0: float, theta: float) -> Tuple[float, float]:
    """Entropy bound up to the deadline t0, and with the history tail on
    [t0, t0 + r0) added."""
    grow = math.exp(k["k2"] ** 2 * (k["k1"] ** 2 * t0 + 8.0) * t0)
    gap = (2.0 * k["k3"] ** 2 * k["k4"] / -math.expm1(-k["k4"] * t0) * pg ** 2
           / (theta * (2.0 - theta)))
    seg = t0 * k["k1"] ** 2 * (1.0 + k["k2"] ** 2 * k["k3"] ** 2) * grow / theta ** 2 * sg ** 2
    tail = k["k1"] ** 2 * r0 / 2.0 * grow * sg ** 2
    return gap + seg, gap + seg + tail


def seg_gap_lam_cap(k: Dict[str, float], s: float) -> float:
    """Largest lam the segment-gap moment lemma admits up to time s."""
    return (1.0 - 4.0 * k["k1"] * k["k2"] * s) / (8.0 * k["k2"] ** 2 * s * s)


def seg_gap_lemma_rhs(k: Dict[str, float], sg: float, lam: float, s: float) -> float:
    """Explicit bound on E exp(lam int_0^s ||X_t - Y_t||^2 dt)."""
    denom = 1.0 - 4.0 * k["k1"] * k["k2"] * s
    quad = 16.0 * k["k2"] ** 2 * s * s * lam / denom
    return math.exp(quad + 2.0 * s * lam * sg ** 2)
