"""Correctness checks of one step's CSV against the expected values.

Each check returns a list of problems (empty when the output is right).
Expected values come from oracle_values.py (exact discrete-scheme
moments, the deterministic linear gap, re-stepped paths) or, where no
closed form exists, the check asserts a property the method must have:
the P-weight mean of linear_additive is within 5 standard errors of 1, the
verdicts the paper proves come out "holds", and estimates stay at or below
the lemma's bound.
Standard library only: this runs in the benchmark's parent process.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List

import closed_forms as cf
from workloads import Step

Z_MAX = 5.0          # standard errors allowed between an estimate and its exact value
ROUNDING = 1e-9      # relative tolerance for values that are exact up to rounding
K_TOL, K_VIOL = 3.0, 6.0   # the CLI's default verdict thresholds


def _rows(text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _f(row: Dict[str, str], key: str) -> float:
    return float(row[key])


def _close(got: float, want: float, rel: float = ROUNDING, abs_tol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= max(rel * abs(want), abs_tol)


def expected_exit(step: Step, text: str) -> int:
    """Exit status the CLI documents for the verdicts in this CSV."""
    rows = _rows(text)
    if step.command == "audit":
        return 0 if all(r["passed"] == "true" for r in rows) else 2
    verdicts = [r.get("verdict") for r in rows]
    if "violated" in verdicts:
        return 2
    if "inconclusive" in verdicts:
        return 3
    return 0


def _verdict_row(rows, claim, step, probs) -> Dict[str, str]:
    hits = [r for r in rows if r["claim"] == claim]
    if len(hits) != 1:
        probs.append(f"expected one {claim} row, found {len(hits)}")
        return {}
    r = hits[0]
    if int(r["n"]) != step.n or int(r["seed"]) != step.seed:
        probs.append(f"{claim}: n/seed {r['n']}/{r['seed']} != {step.n}/{step.seed}")
    if r.get("failures") not in (None, "", "0"):
        probs.append(f"{claim}: {r['failures']} failed paths")
    return r


def _holds(r, claim, probs):
    if r and r["verdict"] != "holds":
        probs.append(f"{claim}: verdict {r['verdict']} (margin {r['margin_se']} se), expected holds")


def _near(name, got, want, se, probs):
    if not abs(got - want) <= Z_MAX * se:
        probs.append(f"{name}: {got!r} is {abs(got - want) / se if se else math.inf:.1f} se "
                     f"from the exact {want!r}")


def check(step: Step, text: str, exp: dict) -> List[str]:
    probs: List[str] = []
    rows = _rows(text)
    p = step.problem
    h = p["r0"] / p["m"]
    n_t = round(p["t"] / h)
    k = exp["constants"]

    if step.tag == "log_harnack":
        r = _verdict_row(rows, "log_harnack", step, probs)
        if r:
            _holds(r, "log_harnack", probs)
            _near("E log f(X_T^eta)", _f(r, "lhs"), exp["E_log_f_eta"], _f(r, "lhs_se"), probs)
            raw = math.exp(_f(r, "rhs") - _f(r, "bound"))
            _near("E f(X_T^xi)", raw, exp["E_f_xi"], _f(r, "rhs_se") * raw, probs)
            _check_h_min("log_harnack bound", _f(r, "bound"), exp, probs)

    elif step.tag == "power_harnack":
        r = _verdict_row(rows, "power_harnack", step, probs)
        _holds(r, "power_harnack", probs)
        if r and not 0.0 <= _f(r, "lhs") <= _f(r, "rhs"):
            probs.append("power_harnack: need 0 <= log E f(eta) <= rhs")

    elif step.command == "couple" and step.n > 1:
        r = _verdict_row(rows, "girsanov_weight_mean", step, probs)
        if r:
            if step.system[0] == "linear_additive":
                _near("P-weight mean", _f(r, "lhs"), 1.0, _f(r, "lhs_se"), probs)
            elif not (_f(r, "lhs") > 0.0 and _f(r, "lhs_se") > 0.0):
                # sine: log R has variance near 11, so at n = 32768 the mean
                # can sit 5 se below 1 on some seeds; only its sign is checked
                probs.append(f"P-weight mean {r['lhs']} (se {r['lhs_se']}) not positive")
            margin = _f(r, "margin_se")
            want = "holds" if margin >= -K_TOL else (
                "violated" if margin <= -K_VIOL else "inconclusive")
            if r["verdict"] != want:
                probs.append(f"weight mean verdict {r['verdict']} at margin {margin}")
        u = _verdict_row(rows, "coupling_unmerged_fraction", step, probs)
        _holds(u, "coupling_unmerged_fraction", probs)
        if u and _f(u, "lhs") != 0.0:
            probs.append(f"unmerged fraction {u['lhs']}, expected 0")

    elif step.command == "entropy":
        r = _verdict_row(rows, "entropy_vs_bound", step, probs)
        if r:
            _holds(r, "entropy_vs_bound", probs)
            if not _close(_f(r, "bound"), exp["entropy_bound"]):
                probs.append(f"entropy bound {r['bound']} != closed form {exp['entropy_bound']!r}")
            if "half_int_phi_sq" in exp:
                # linear_additive: every path carries the same exact value
                if not _close(_f(r, "lhs"), exp["half_int_phi_sq"]):
                    probs.append(f"entropy {r['lhs']} != exact {exp['half_int_phi_sq']!r}")
                if not _f(r, "lhs_se") <= ROUNDING * exp["half_int_phi_sq"]:
                    probs.append(f"entropy se {r['lhs_se']} above rounding level")
            elif not _f(r, "lhs") + 3.0 * _f(r, "lhs_se") <= _f(r, "bound"):
                probs.append("entropy + 3 se exceeds its bound")

    elif step.command == "lib":
        if len(rows) != 1:
            return [f"expected one result row, found {len(rows)}"]
        r = rows[0]
        if int(r["n"]) != step.n or int(r["seed"]) != step.seed or r["failures"] != "0":
            probs.append(f"n/seed/failures {r['n']}/{r['seed']}/{r['failures']}")
        mean, se = _f(r, "mean"), _f(r, "std_error")
        if step.integrand == "seg_gap_sq":
            if not (1.0 <= mean and mean + 3.0 * se <= exp["lemma_rhs"]):
                probs.append(f"segment-gap moment {mean}+3se not within [1, {exp['lemma_rhs']!r}]")
        else:
            want = math.exp(step.lam * exp["int_gap_over_gamma_sq"])
            if not _close(mean, want) or not se <= ROUNDING * want:
                probs.append(f"gap/gamma moment {mean} (se {se}) != exact {want!r}")

    elif step.command == "simulate":
        if len(rows) != n_t + 1:
            return [f"{len(rows)} rows, expected {n_t + 1}"]
        for i, r in enumerate(rows):
            x = exp["path"][i]
            if (int(r["step"]) != i or not _close(_f(r, "t"), i * h, abs_tol=1e-12)
                    or not _close(_f(r, "x0"), x, abs_tol=ROUNDING * (1.0 + abs(x)))
                    or int(r["seed"]) != step.seed):
                return [f"simulate row {i} differs from the re-stepped path: {r} vs x={x!r}"]

    elif step.command == "couple":
        if len(rows) != n_t + 1:
            return [f"{len(rows)} rows, expected {n_t + 1}"]
        for i, r in enumerate(rows):
            g = exp["gamma"][i]
            ok = (_close(_f(r, "gap"), exp["gap"][i], abs_tol=ROUNDING)
                  and (r["gamma"] == "" if g is None else _close(_f(r, "gamma"), g))
                  and (r["phi_sq"] == "" if i == n_t else
                       _close(_f(r, "phi_sq"), exp["phi_sq"][i], abs_tol=ROUNDING))
                  and _close(_f(r, "log_weight"), exp["log_weight"][i], abs_tol=ROUNDING))
            if not ok:
                return [f"couple row {i} differs from the exact gap: {r}"]

    elif step.command == "stationary":
        r = rows[0]
        if int(r["n"]) != step.n or int(r["seed"]) != step.seed:
            probs.append(f"n/seed {r['n']}/{r['seed']}")
        # tolerances sit at least five standard errors out at n = 50000
        if abs(_f(r, "endpoint_mean")) > 0.05:
            probs.append(f"stationary mean {r['endpoint_mean']} not near 0")
        if not _close(_f(r, "endpoint_var"), exp["var"], rel=0.05):
            probs.append(f"stationary variance {r['endpoint_var']} vs {exp['var']!r}")
        if not _close(_f(r, "lag_r0_autocov"), exp["lag_r0_autocov"], rel=0.10):
            probs.append(f"lag-r0 autocovariance {r['lag_r0_autocov']} vs {exp['lag_r0_autocov']!r}")

    elif step.command == "bounds":
        by = {r["claim"]: r for r in rows}
        ht = by.get("log_harnack_H_T")
        if ht is None:
            return ["no log_harnack_H_T row"]
        v = _f(ht, "value")
        gap0 = exp["gap0"]
        at_s = cf.h_curve(k, gap0, gap0, p["r0"], _f(ht, "s_star"))
        if not (_close(v, at_s) and _close(v, _f(ht, "gap_term") + _f(ht, "segment_term"))):
            probs.append(f"H_T {v} is not the formula at its s_star ({at_s!r})")
        _check_h_min("H_T", v, exp, probs)
        for claim, key in (("entropy_deadline_bound", "entropy_deadline_bound"),
                           ("entropy_full_bound", "entropy_bound")):
            if claim not in by or not _close(_f(by[claim], "value"), exp[key]):
                probs.append(f"{claim} differs from the closed form {exp[key]!r}")
        pp = by.get("power_harnack_Phi_p")
        if pp is None:
            probs.append("no power_harnack_Phi_p row")
        else:
            terms = sum(_f(pp, t) for t in ("gap_term", "segment_term", "eps_term", "quadratic_term"))
            if not (_f(pp, "value") > 0 and _close(_f(pp, "value"), terms)
                    and 0.0 < _f(pp, "eps_star") < 1.0
                    and 0.0 < _f(pp, "s_star") <= p["t"] - p["r0"]):
                probs.append(f"Phi_p row inconsistent: {pp}")

    elif step.command == "audit":
        declared = {"A1": k["k1"], "A2": k["k2"], "A3": k["k3"], "A4": k["k4"]}
        if sorted(r["condition"] for r in rows) != sorted(declared):
            return [f"audit conditions {[r['condition'] for r in rows]}"]
        for r in rows:
            dec = declared[r["condition"]]
            if (r["passed"] != "true" or not _close(_f(r, "declared"), dec, rel=1e-12)
                    or _f(r, "empirical_max") > dec + 1e-6 * max(1.0, abs(dec))):
                probs.append(f"audit {r['condition']}: {r}")
    return probs


def _check_h_min(name, value, exp, probs):
    """The minimizer's value must match the minimum of the formula over a
    dense grid: not above it, and at most a hair below it."""
    lo = exp["H_T_dense_min"]
    if not lo * (1.0 - 1e-5) <= value <= lo * (1.0 + ROUNDING):
        probs.append(f"{name} {value!r} is not the minimum {lo!r} of the formula")
