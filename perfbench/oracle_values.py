"""Reference values the benchmark checks the program's outputs against.

Everything here is derived from the model equations and numpy alone; the
harnack_lab package is never imported. Run as a script, it prints one JSON
object with every expected value a workload needs:

    python3 perfbench/oracle_values.py --workload NAME --seed N

It runs in its own process so that the benchmark's parent process stays
free of numpy: a child's peak RSS as reported by wait4 includes the peak
RSS of the parent it was spawned from.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

import closed_forms as cf
import workloads as wl


def euler_linear_endpoint(a, c, s0, x0, m, n_t, h):
    """Exact mean and variance of X(T) under the discrete Euler scheme
    X_{k+1} = X_k + (a X_k + c X_{k-m}) h + s0 dW_k from the constant
    history x0. X(T) is Gaussian, linear in the increments dW_k."""
    mean = np.full(m + n_t + 1, float(x0))
    load = np.zeros((m + n_t + 1, n_t))   # loading of X_k on dW_j / sqrt(h)
    for k in range(n_t):
        i = m + k
        mean[i + 1] = mean[i] + (a * mean[i] + c * mean[i - m]) * h
        load[i + 1] = load[i] + (a * load[i] + c * load[i - m]) * h
        load[i + 1, k] += s0
    return float(mean[-1]), float(h * (load[-1] ** 2).sum())


def gauss_expectations(mean, var, cap, order=120):
    """E f(X) and E log f(X) for X ~ N(mean, var), f = 1 + min(X^2, cap),
    by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    x = mean + math.sqrt(2.0 * var) * nodes
    f = 1.0 + np.minimum(x * x, cap)
    w = weights / math.sqrt(math.pi)
    return float((w * f).sum()), float((w * np.log(f)).sum())


def philox_increments(seed, n_t, h):
    """Brownian increments of path 0: Philox(key=[seed, 0]), the keying the
    package README documents, scaled by sqrt(h)."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    return gen.standard_normal((n_t, 1))[:, 0] * math.sqrt(h)


def restep_sine(a, c, s0, x0, m, n_t, h, dw):
    """Euler path of sine_multiplicative from the constant history x0."""
    x = np.full(m + n_t + 1, float(x0))
    for k in range(n_t):
        i = m + k
        x[i + 1] = x[i] + (a * x[i] + c * x[i - m]) * h + s0 * (2.0 + math.sin(x[i])) * dw[k]
    return x[m:].tolist()


def expected(workload, seed):
    """Expected values for every step of one workload, keyed by step tag."""
    out = {}
    for step in wl.steps(workload, seed):
        p = step.problem
        sysname, prm = step.system
        h = p["r0"] / p["m"]
        n_t = round(p["t"] / h)
        gap0 = abs(p["xi"] - p["eta"])     # constant histories: point gap = segment gap
        k = cf.constants(sysname, prm)
        e = {"constants": k, "gap0": gap0}
        if step.tag == "log_harnack":
            mu_x, v_x = euler_linear_endpoint(prm["a"], prm["c"], prm["s0"], p["xi"], p["m"], n_t, h)
            mu_y, v_y = euler_linear_endpoint(prm["a"], prm["c"], prm["s0"], p["eta"], p["m"], n_t, h)
            e["E_f_xi"] = gauss_expectations(mu_x, v_x, wl.CAP)[0]
            e["E_log_f_eta"] = gauss_expectations(mu_y, v_y, wl.CAP)[1]
        if step.command in ("log-harnack", "bounds"):
            e["H_T_dense_min"] = cf.h_dense_min(k, gap0, gap0, p["r0"], p["t"] - p["r0"])
        if sysname == "linear_additive" and p["t0"] is not None:
            gap, gammas, phis = cf.linear_coupled_gap(
                prm["a"], prm["c"], prm["s0"], gap0, p["m"], n_t, h, wl.THETA, p["t0"])
            e["half_int_phi_sq"] = 0.5 * sum(v * v * h for v in phis)
            k_up = min(round((step.t_upper or p["t"]) / h), round(p["t0"] / h))
            e["int_gap_over_gamma_sq"] = sum((gap[j] / gammas[j]) ** 2 * h for j in range(k_up))
            if step.n == 1:
                dw = philox_increments(seed, n_t, h)
                logw = np.concatenate([[0.0], np.cumsum(np.array(phis) * dw + 0.5 * np.square(phis) * h)])
                e.update(gap=gap, gamma=gammas, phi_sq=[v * v for v in phis], log_weight=logw.tolist())
        if step.command in ("entropy", "bounds") and p["t0"] is not None:
            e["entropy_deadline_bound"], e["entropy_bound"] = cf.entropy_bounds(
                k, gap0, gap0, p["r0"], p["t0"], wl.THETA)
        if step.integrand == "seg_gap_sq":
            e["lemma_rhs"] = cf.seg_gap_lemma_rhs(k, gap0, step.lam, step.t_upper)
        if step.command == "stationary":
            e["var"], e["lag_r0_autocov"] = cf.ar1_moments(prm["a"], prm["s0"], h, p["m"])
        if step.command == "simulate":
            e["path"] = restep_sine(prm["a"], prm["c"], prm["s0"], p["xi"], p["m"], n_t, h,
                                    philox_increments(seed, n_t, h))
        out[step.tag] = e
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    record = {"numpy": np.__version__, "python": sys.version.split()[0],
              "expected": expected(args.workload, args.seed)}
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
