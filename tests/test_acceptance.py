"""Acceptance checks, one per criterion, each printing a single
pass/fail line (run with -s or -rA to see them). These run at full
sample sizes; expect a couple of minutes on one core."""

import math
import time

import numpy as np
import pytest

from harnack_lab.bounds import (GapPair, _k4_ratio, bound_H_T, bound_entropy_prop21,
                                bound_entropy_with_tail, lemma_rhs)
from harnack_lab.coefficients import builtin_system
from harnack_lab.coupling import (GammaSchedule, inv_gamma_integral,
                                  simulate_coupled_Q)
from harnack_lab.estimators import (check_log_harnack, check_power_harnack,
                                    estimate_entropy_Q,
                                    estimate_exp_functional,
                                    estimate_martingale_mean)
from harnack_lab.estimators import test_function as catalog_fn
from harnack_lab.cli import run_command
from harnack_lab.segment_paths import GridSpec, constant_segment
from oracles import k4_ratio_direct, k4_ratio_series

N_FULL = 100_000
M_FULL = 400

LINEAR = builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0})
SINE = builtin_system("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1})
GRID = GridSpec(1.0, 2.0, M_FULL)
XI = constant_segment(1.0, 1.0, M_FULL)
ETA = constant_segment(0.0, 1.0, M_FULL)
GAPS = GapPair.from_segments(XI, ETA)


def sched(co, theta=1.0, t0=1.0):
    return GammaSchedule(theta=theta, k4=co.constants.k4, t0=t0)


def report(num, name, ok, detail):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} - {name} "
          f"({detail})", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_girsanov_martingale():
    t_start = time.perf_counter()
    est = estimate_martingale_mean(LINEAR, XI, ETA, sched(LINEAR), GRID,
                                   n=N_FULL, seed=0)
    elapsed = time.perf_counter() - t_start
    z = (est.mean - 1.0) / est.std_error
    ok = abs(est.mean - 1.0) <= 4 * est.std_error and elapsed < 60.0
    report(1, "girsanov martingale mean", ok,
           f"mean={est.mean:.5f} se={est.std_error:.2g} z={z:+.2f} "
           f"n={N_FULL} runtime={elapsed:.1f}s")


def test_criterion_02_coupling_success():
    coarse = estimate_entropy_Q(LINEAR, XI, ETA, sched(LINEAR), GRID,
                                n=N_FULL, seed=0, delta_merge=1e-8)
    fine_grid = GridSpec(1.0, 2.0, 2 * M_FULL)
    fine = estimate_entropy_Q(LINEAR,
                              constant_segment(1.0, 1.0, 2 * M_FULL),
                              constant_segment(0.0, 1.0, 2 * M_FULL),
                              sched(LINEAR), fine_grid,
                              n=N_FULL, seed=0, delta_merge=1e-8)
    frac_coarse = coarse.failures / N_FULL
    frac_fine = fine.failures / N_FULL
    ok = frac_coarse <= 1e-3 and frac_fine <= frac_coarse
    report(2, "coupling merges by the deadline", ok,
           f"unmerged h=1/400: {frac_coarse:.2e}, h=1/800: {frac_fine:.2e}")


def test_criterion_03_entropy_bound():
    full = estimate_entropy_Q(LINEAR, XI, ETA, sched(LINEAR), GRID,
                              n=N_FULL, seed=0)
    rhs_full = bound_entropy_with_tail(LINEAR.constants, 1.0, 1.0, GAPS)
    part = estimate_entropy_Q(LINEAR, XI, ETA, sched(LINEAR), GRID,
                              n=N_FULL, seed=0, t_upper=0.5)
    rhs_part = bound_entropy_prop21(LINEAR.constants, 1.0, 0.5, GAPS, t0=1.0)
    ok = (full.mean + 3 * full.std_error <= rhs_full
          and part.mean + 3 * part.std_error <= rhs_part)
    report(3, "relative entropy below closed form", ok,
           f"full {full.mean:.4f}+3se <= {rhs_full:.4f}; "
           f"to t=0.5: {part.mean:.4f}+3se <= {rhs_part:.4f}")


def test_criterion_04_log_harnack():
    f = catalog_fn("quad_cap", 100.0)
    rep = check_log_harnack(LINEAR, XI, ETA, f, GRID, n=N_FULL, seed=0)
    jensen = check_log_harnack(LINEAR, XI, XI, f, GRID, n=N_FULL, seed=0)
    ok = (rep.verdict == "holds" and jensen.verdict == "holds"
          and jensen.bound == 0.0)
    report(4, "log-Harnack inequality", ok,
           f"verdict={rep.verdict} margin={rep.margin_se:.0f} se; "
           f"jensen verdict={jensen.verdict} with additive constant "
           f"{jensen.bound}")


def test_criterion_05_delay_window_is_required(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[problem]\nt = 1.0\nm = 50\n[output]\nverbosity = 0\n")
    rc = run_command(["log-harnack", "--config", str(cfg)])
    ok = rc == 1
    report(5, "t <= r0 is refused", ok, f"exit status {rc}")


def test_criterion_06_power_harnack():
    f = catalog_fn("quad_cap", 100.0)
    rep = check_power_harnack(SINE, XI, ETA, f, 16.0, GRID,
                              n=N_FULL, seed=0)
    try:
        check_power_harnack(SINE, XI, ETA, f, 9.0, GRID, n=4, seed=0)
        rejected = False
    except ValueError:
        rejected = True
    ok = rep.verdict == "holds" and rejected
    report(6, "power-Harnack at p=16, rejection at p=9", ok,
           f"verdict={rep.verdict} margin={rep.margin_se:.0f} se; "
           f"p=9 rejected={rejected}")


def test_criterion_07_exponential_moment_lemma():
    k = SINE.constants
    s = 0.5
    cap = (1.0 - 4.0 * k.k1 * k.k2 * s) / (8.0 * k.k2 ** 2 * s ** 2)
    details = []
    ok = True
    for lam in (cap / 2.0, cap):
        est = estimate_exp_functional(SINE, XI, ETA, sched(SINE), GRID,
                                      lam=lam, n=N_FULL, seed=0,
                                      integrand="seg_gap_sq", t_upper=s)
        rhs = lemma_rhs("seg_gap_integral", k, GAPS, lam=lam, s=s).value
        ok = ok and est.mean + 3 * est.std_error <= rhs
        details.append(f"lam={lam:.3g}: {est.mean:.3f}+3se <= {rhs:.3f}")
    report(7, "exponential segment-gap moments", ok, "; ".join(details))


def test_criterion_08_gap_matches_closed_form():
    co = builtin_system("linear_additive", {"a": -1.0, "c": 0.0, "s0": 1.0})

    def max_err(m):
        grid = GridSpec(1.0, 2.0, m)
        xi = constant_segment(1.0, 1.0, m)
        eta = constant_segment(0.0, 1.0, m)
        sc = sched(co)
        traj = simulate_coupled_Q(co, xi, eta, grid, 1.0, theta=1.0, seed=0)
        worst = 0.0
        for j in range(grid.n_T + 1):
            t = j * grid.h
            gap = abs(float(traj.x_values[m + j, 0] - traj.y_values[m + j, 0]))
            if t < 1.0:
                exact = math.exp(-t - inv_gamma_integral(0.0, t, sc))
            else:
                exact = 0.0
            worst = max(worst, abs(gap - exact))
        return worst

    e_coarse, e_fine = max_err(200), max_err(400)
    ratio = e_coarse / e_fine
    ok = 1.6 <= ratio <= 2.4
    report(8, "deterministic gap oracle, first order in h", ok,
           f"err(1/200)={e_coarse:.3e} err(1/400)={e_fine:.3e} "
           f"ratio={ratio:.3f}")


def test_criterion_09_bound_calculators():
    from harnack_lab.bounds import AssumptionConstants
    k = AssumptionConstants(k1=1.0, k2=0.0, k3=1.0, k4=1.0)
    gaps = GapPair(1.0, 1.0)
    rep = bound_H_T(k, gaps, 2.0, 1.0)

    s = np.linspace(1e-6, 1.0, 1_000_001)
    dense = 2.0 * k.k3 ** 2 * (k.k4 / -np.expm1(-k.k4 * s)) \
        + k.k1 ** 2 * (0.5 + s * (1.0 + k.k2 ** 2 * k.k3 ** 2)) \
        * np.exp(k.k2 ** 2 * (k.k1 ** 2 * s + 8.0) * s)
    dense_min = float(dense.min())

    # the package value against the direct formula and the series
    direct = k4_ratio_direct(1e-4, 1.0)
    series = k4_ratio_series(1e-4, 1.0)
    package = _k4_ratio(1e-4, 1.0)
    rel = max(abs(package - direct), abs(package - series)) / direct

    zero = bound_H_T(k, GapPair(0.0, 0.0), 2.0, 1.0).value
    ok = (abs(rep.value - dense_min) <= 1e-3
          and abs(rep.value - 4.6639) <= 1e-3
          and rel <= 1e-4
          and zero == 0.0)
    report(9, "closed-form bound calculators", ok,
           f"H_T={rep.value:.5f} vs dense-grid {dense_min:.5f}; "
           f"k4 branch rel diff {rel:.1e}; H_T(xi,xi)={zero}")


def test_criterion_10_stationary_sampler():
    from harnack_lab.estimators import sample_stationary_segments
    ou = builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0})
    grid = GridSpec(1.0, 2.0, 100)
    s = sample_stationary_segments(ou, grid, n=10_000, burn_in=10.0, seed=0)
    var = float(s.endpoint_var[0])
    acov = float(s.lag_r0_autocov[0])
    want_acov = 0.5 * math.exp(-1.0)
    ok = (abs(var - 0.5) <= 0.05 * 0.5
          and abs(acov - want_acov) <= 0.10 * want_acov)
    report(10, "stationary second moments", ok,
           f"var={var:.4f} (target 0.5 +-5%), lag-r0 autocov={acov:.4f} "
           f"(target {want_acov:.4f} +-10%)")


def test_criterion_11_thread_count_reproducibility(tmp_path):
    base = ["[problem]", "t = 2.0", "m = 400", "t0 = 1.0",
            "xi = const:1.0", "eta = zero", "[mc]", "n = 100000",
            "seed = 0", "[output]", "verbosity = 0"]
    sine_sys = ["[system]", "name = sine_multiplicative", "a = -1.0",
                "c = 0.2", "s0 = 0.1"]
    runs = {
        "couple_p": base + ["[coupling]", "measure = P"],
        "couple_q": base,
        "entropy": base,
        "log_harnack": base,
        "power_harnack": base + sine_sys + ["[coupling]", "p = 16.0"],
        "bounds": base + sine_sys + ["[coupling]", "p = 16.0"],
        "stationary": ["[problem]", "t = 2.0", "m = 100",
                       "[system]", "name = ou_nodelay", "a = 1.0",
                       "s0 = 1.0", "[mc]", "n = 10000",
                       "[output]", "verbosity = 0"],
    }
    commands = {"couple_p": "couple", "couple_q": "couple",
                "log_harnack": "log-harnack", "power_harnack": "power-harnack"}
    mismatches = []
    for tag, lines in runs.items():
        command = commands.get(tag, tag)
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text("\n".join(lines) + "\n")
        blobs = []
        for threads in (1, 8):
            out = tmp_path / f"{tag}_t{threads}"
            rc = run_command([command, "--config", str(cfg),
                              "--out", str(out), "--threads", str(threads)])
            assert rc == 0, f"{tag} with {threads} threads exited {rc}"
            csv_path = out / (command.replace("-", "_") + ".csv")
            blobs.append(csv_path.read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(tag)
    ok = not mismatches
    report(11, "bit-identical output across thread counts", ok,
           f"{len(runs)} commands compared"
           + (f"; mismatches: {mismatches}" if mismatches else ""))
