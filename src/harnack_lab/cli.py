"""Config-driven command line front end.

Experiments are described by a small INI-style file (bracketed sections,
key = value lines, # comments). Every command reads one config, runs the
corresponding pipeline, writes a CSV into the output directory and prints a
short report. Exit codes separate claim outcomes from operational errors:
0 for holds / pure computation, 2 for violated, 3 for inconclusive, 1 for
any error. Reruns of the same config are byte-identical, whatever
--threads says; the seed, path count, step and version ride along in every
CSV row.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ._parallel import WorkerDied
from ._version import __version__
from .bounds import (GapPair, bound_H_T, bound_Phi_p, bound_entropy_prop21,
                     bound_entropy_with_tail)
from .coefficients import (AssumptionConstants, AuditBox, CoefficientSet,
                           audit_assumptions, builtin_system, param_problems)
from .coupling import (GammaSchedule, gamma, simulate_coupled_P,
                       simulate_coupled_Q)
from .estimators import (FAILURE_TOLERANCE, TEST_FUNCTIONS, MCEstimate,
                         VerdictReport, estimate_entropy_Q, estimate_martingale_mean,
                         check_log_harnack, check_power_harnack, make_verdict,
                         sample_stationary_segments, test_function)
from .integrator import simulate_path
from .segment_paths import GridSpec, SegmentPath, constant_segment, grid_index

VERSION_TAG = f"harnack-lab-v{__version__}"

VERDICT_HEADER = ["claim", "lhs", "lhs_se", "rhs", "rhs_se", "bound",
                  "margin_se", "verdict", "n", "seed", "h", "failures",
                  "version"]


class ConfigError(ValueError):
    """Carries every violation found in a config, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid config:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully specified. Defaults give the scalar linear
    system on [0,2] with a unit delay window at step h = 1/400."""

    d: int = 1
    r0: float = 1.0
    T: float = 2.0
    m: int = 400
    t0: Optional[float] = None
    xi: str = "const:1.0"
    eta: str = "const:0.0"
    system_name: str = "linear_additive"
    system_params: Dict[str, float] = field(
        default_factory=lambda: {"a": -1.0, "c": 0.5, "s0": 1.0})
    theta: float = 1.0
    p: Optional[float] = None
    s_choice: Optional[float] = None
    delta_merge: float = 1e-8
    measure: str = "Q"
    n: int = 10000
    seed: int = 0
    k_tol: float = 3.0
    k_viol: float = 6.0
    burn_in: float = 10.0
    f_name: str = "quad_cap"
    cap: float = 100.0
    out_dir: str = "out"
    verbosity: int = 1

    @property
    def h(self) -> float:
        return self.r0 / self.m


# (section, key, ExperimentConfig field, parser), one row per fixed key in
# file order. [system] is free-form: besides its name it holds the catalog's
# parameters, which parse as floats and render sorted after the name.
_KEYS = (
    ("problem", "d", "d", int),
    ("problem", "r0", "r0", float),
    ("problem", "t", "T", float),
    ("problem", "m", "m", int),
    ("problem", "t0", "t0", float),
    ("problem", "xi", "xi", str),
    ("problem", "eta", "eta", str),
    ("system", "name", "system_name", str),
    ("coupling", "theta", "theta", float),
    ("coupling", "p", "p", float),
    ("coupling", "s_choice", "s_choice", float),
    ("coupling", "delta_merge", "delta_merge", float),
    ("coupling", "measure", "measure", str),
    ("mc", "n", "n", int),
    ("mc", "seed", "seed", int),
    ("mc", "k_tol", "k_tol", float),
    ("mc", "k_viol", "k_viol", float),
    ("mc", "burn_in", "burn_in", float),
    ("functions", "f", "f_name", str),
    ("functions", "cap", "cap", float),
    ("output", "dir", "out_dir", str),
    ("output", "verbosity", "verbosity", int),
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config, collecting all violations before
    raising. Unknown sections and keys are errors, not warnings."""
    violations: List[str] = []
    # no section header holds a newline, so [DEFAULT] is a section like any other
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None,
                                   default_section="\n")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"unparseable config: {exc}"]) from exc

    known: Dict[str, set] = {}
    for sec, key, _, _ in _KEYS:
        known.setdefault(sec, set()).add(key)
    for sec in cp.sections():
        if sec not in known:
            violations.append(f"unknown section [{sec}]")
        elif sec != "system":
            violations += [f"unknown key '{key}' in [{sec}]"
                           for key in cp[sec] if key not in known[sec]]

    def get(sec, key, conv, default):
        if sec not in cp or key not in cp[sec]:
            return default
        raw = cp[sec][key].strip()
        try:
            return conv(raw)
        except (TypeError, ValueError):
            violations.append(f"[{sec}] {key}: cannot parse {raw!r}")
            return default

    dft = ExperimentConfig()
    values = {}
    for sec, key, fld, conv in _KEYS:
        values[fld] = get(sec, key, conv, getattr(dft, fld))
        if sec == "system":
            # a placeholder for a value that does not parse, reported once
            params = {k: get(sec, k, float, 0.0)
                      for k in (cp[sec] if sec in cp else ()) if k != key}
            if not params and values[fld] == dft.system_name:
                params = dft.system_params
            values["system_params"] = params
    cfg = ExperimentConfig(**values)
    violations += _config_problems(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def _config_problems(cfg: ExperimentConfig) -> List[str]:
    """Every semantic violation of a config, collected rather than stopping
    at the first. parse_config runs it on the file, validate_for_command
    again once command-line overrides are applied."""
    # NaN passes every "x <= 0" rule below, and inf breaks the grid
    # arithmetic, so every float is checked to be finite first
    nonfinite = {fld for _, _, fld, conv in _KEYS if conv is float
                 and getattr(cfg, fld) is not None and not math.isfinite(getattr(cfg, fld))}
    violations = [f"[{sec}] {key} must be finite" for sec, key, fld, _ in _KEYS
                  if fld in nonfinite]
    violations += [f"[system] {k} must be finite"
                   for k, v in cfg.system_params.items() if not math.isfinite(v)]
    if cfg.d < 1:
        violations.append("[problem] d must be >= 1")
    if cfg.r0 <= 0:
        violations.append("[problem] r0 must be positive")
    if cfg.m < 1:
        violations.append("[problem] m must be >= 1")
    if cfg.T <= 0:
        violations.append("[problem] t must be positive")
    if cfg.r0 > 0 and cfg.m >= 1 and cfg.T > 0 and not nonfinite & {"r0", "T"}:
        h, t0 = cfg.h, cfg.t0
        try:
            grid = GridSpec(cfg.r0, cfg.T, cfg.m)
        except ValueError:
            grid = None
            violations.append(
                f"[problem] t={cfg.T!r} is not a positive multiple of h=r0/m={h!r}")
        if t0 is not None and "t0" not in nonfinite:
            if t0 <= 0:
                violations.append("[problem] t0 must be positive")
            elif grid_index(t0, h) is None:
                violations.append(f"[problem] t0={t0!r} is not on the grid (h={h!r})")
            elif grid is not None:
                try:
                    grid.deadline_index(t0)
                except ValueError:
                    violations.append("[problem] coupling runs need t0 <= t - r0")
    for label, spec in (("xi", cfg.xi), ("eta", cfg.eta)):
        if spec == "zero" or spec.startswith("file:"):
            continue
        if spec.startswith("const:"):
            try:
                value = float(spec[6:])
            except ValueError:
                pass
            else:
                if not math.isfinite(value):
                    violations.append(f"[problem] {label} must be finite")
                continue
        violations.append(
            f"[problem] {label}={spec!r}: expected 'zero', 'const:<value>' or 'file:<path>'")

    violations += [f"[system] {problem}"
                   for problem in param_problems(cfg.system_name, cfg.system_params)]

    if not (0.0 < cfg.theta < 2.0):
        violations.append("[coupling] theta must lie in (0, 2)")
    if cfg.p is not None and cfg.p <= 1.0:
        violations.append("[coupling] p must exceed 1")
    if cfg.s_choice is not None and cfg.s_choice <= 0.0:
        violations.append("[coupling] s_choice must be positive")
    if cfg.measure not in ("Q", "P"):
        violations.append("[coupling] measure must be Q or P")
    if cfg.n < 1:
        violations.append("[mc] n must be >= 1")
    if not (0 <= cfg.seed < 2 ** 63):
        violations.append("[mc] seed must lie in [0, 2**63)")
    if cfg.k_tol <= 0 or cfg.k_viol < cfg.k_tol:
        violations.append("[mc] need 0 < k_tol <= k_viol")
    if cfg.burn_in < 0:
        violations.append("[mc] burn_in must be nonnegative")
    if cfg.f_name not in TEST_FUNCTIONS:
        violations.append(f"[functions] f must be one of {TEST_FUNCTIONS}")
    if cfg.cap <= 0:
        violations.append("[functions] cap must be positive")
    if cfg.verbosity not in (0, 1, 2):
        violations.append("[output] verbosity must be 0, 1 or 2")
    return violations


def render_config(cfg: ExperimentConfig) -> str:
    """Serialize a config so that parse_config round-trips it exactly: the
    _KEYS rows in order, floats by repr, a None left out."""
    lines: List[str] = []
    section = None
    for sec, key, fld, conv in _KEYS:
        if sec != section:
            lines += ["", f"[{sec}]"]
            section = sec
        value = getattr(cfg, fld)
        if value is not None:
            lines.append(f"{key} = {value!r}" if conv is float else f"{key} = {value}")
        if sec == "system":
            lines += [f"{k} = {cfg.system_params[k]!r}" for k in sorted(cfg.system_params)]
    return "\n".join(lines[1:] + [""])


def config_grid(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(r0=cfg.r0, T=cfg.T, m=cfg.m)


def config_coeffs(cfg: ExperimentConfig) -> CoefficientSet:
    return builtin_system(cfg.system_name, dict(cfg.system_params), dim=cfg.d)


def config_constants(cfg: ExperimentConfig) -> AssumptionConstants:
    if cfg.system_name == "constants":
        p = cfg.system_params
        return AssumptionConstants(k1=p["k1"], k2=p["k2"], k3=p["k3"], k4=p["k4"])
    return config_coeffs(cfg).constants


def config_segment(cfg: ExperimentConfig, spec: str) -> SegmentPath:
    if spec == "zero":
        return constant_segment(np.zeros(cfg.d), cfg.r0, cfg.m)
    if spec.startswith("const:"):
        return constant_segment(np.full(cfg.d, float(spec[6:])), cfg.r0, cfg.m)
    if spec.startswith("file:"):
        arr = np.loadtxt(spec[5:])
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape != (cfg.m + 1, cfg.d):
            raise ValueError(f"segment file must hold {cfg.m + 1} rows x {cfg.d} cols")
        return SegmentPath(cfg.r0, arr)
    raise ValueError(f"bad segment spec {spec!r}")


def _problem(cfg: ExperimentConfig):
    """The coefficient set, grid and initial segments xi, eta of a config."""
    return (config_coeffs(cfg), config_grid(cfg), config_segment(cfg, cfg.xi),
            config_segment(cfg, cfg.eta))


def validate_for_command(cfg: ExperimentConfig, command: str) -> None:
    """Raise ConfigError unless cfg is valid, as parse_config checks it,
    and complete for command."""
    problems = _config_problems(cfg)
    if command in ("couple", "entropy") and cfg.t0 is None:
        problems.append(f"{command} needs [problem] t0")
    if command in ("log-harnack", "power-harnack", "bounds") and cfg.T <= cfg.r0:
        problems.append(
            "the inequality only makes sense past the delay window: need t > r0")
    if command == "power-harnack" and cfg.p is None:
        problems.append("power-harnack needs [coupling] p")
    # one path gives no standard error; only the couple dump takes n = 1
    if command in ("entropy", "log-harnack", "power-harnack", "stationary") and cfg.n < 2:
        problems.append(f"{command} needs [mc] n >= 2")
    # the grid's tolerance, so that s_choice = t - r0 passes however t - r0
    # rounds
    if command == "log-harnack" and cfg.s_choice is not None \
            and cfg.s_choice > cfg.T - cfg.r0 + 1e-12 * max(cfg.T, 1.0):
        problems.append("s_choice must be <= t - r0")
    if problems:
        raise ConfigError(problems)


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: str, header: List[str], rows: List[list]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _verdict_row(rep: VerdictReport, n: int, seed: int, h: float) -> list:
    failures = rep.lhs.failures + rep.rhs.failures
    return [rep.claim, rep.lhs.mean, rep.lhs.std_error, rep.rhs.mean,
            rep.rhs.std_error, rep.bound, rep.margin_se, rep.verdict,
            n, seed, h, failures, VERSION_TAG]


def _say(cfg: ExperimentConfig, msg: str) -> None:
    if cfg.verbosity >= 1:
        print(msg)


def _finish(cfg, command: str, reports: List[VerdictReport], rows=None) -> int:
    """Print the verdicts, write the command's CSV (one verdict row per
    report unless rows are given) and return the exit code."""
    for r in reports:
        _say(cfg, f"{r.claim}: lhs={r.lhs.mean:.6g} (se {r.lhs.std_error:.2g})  "
                  f"rhs={r.rhs.mean:.6g} (se {r.rhs.std_error:.2g})  "
                  f"margin={r.margin_se:.3g} se  verdict={r.verdict}")
        if cfg.verbosity >= 2 and r.meta:
            _say(cfg, f"  meta: {r.meta}")
    if rows is None:
        rows = [_verdict_row(r, cfg.n, cfg.seed, cfg.h) for r in reports]
    _write_csv(_out_path(cfg, command), VERDICT_HEADER, rows)
    verdicts = [r.verdict for r in reports]
    if "violated" in verdicts:
        return 2
    return 3 if "inconclusive" in verdicts else 0


def _out_path(cfg: ExperimentConfig, command: str) -> str:
    return os.path.join(cfg.out_dir, command.replace("-", "_") + ".csv")


def _cmd_audit(cfg: ExperimentConfig, threads) -> int:
    coeffs = config_coeffs(cfg)
    box = AuditBox(t_min=0.0, t_max=cfg.T, r0=cfg.r0)
    report = audit_assumptions(coeffs, box=box, n=cfg.n, seed=cfg.seed)
    rows = []
    for cond, c in sorted(report.conditions.items()):
        rows.append([cond, c.empirical_max, c.declared, c.passed, c.worst_t,
                     ";".join(_fmt(x) for x in np.atleast_1d(c.worst_point)),
                     cfg.n, cfg.seed, cfg.h, VERSION_TAG])
        _say(cfg, f"{cond}: empirical {c.empirical_max:.6g} vs declared "
                  f"{c.declared:.6g} -> {'pass' if c.passed else 'FAIL'}")
    _write_csv(_out_path(cfg, "audit"),
               ["condition", "empirical_max", "declared", "passed", "worst_t",
                "worst_point", "n", "seed", "h", "version"], rows)
    return 0 if report.all_passed else 2


def _cmd_simulate(cfg: ExperimentConfig, threads) -> int:
    coeffs = config_coeffs(cfg)
    grid = config_grid(cfg)
    xi = config_segment(cfg, cfg.xi)
    traj = simulate_path(coeffs, xi, grid, cfg.seed)
    rows = []
    for k in range(grid.n_T + 1):
        x = traj.values[grid.m + k]
        rows.append([k, k * grid.h, *x, cfg.seed, 1, cfg.h, VERSION_TAG])
    _write_csv(_out_path(cfg, "simulate"),
               ["step", "t", *[f"x{i}" for i in range(cfg.d)],
                "seed", "n", "h", "version"], rows)
    _say(cfg, f"simulated one path to t={grid.T:g}; endpoint {traj.endpoint()}")
    return 0


def _couple_dump(cfg, traj) -> None:
    d, grid, sched = cfg.d, traj.grid, traj.sched
    rows = []
    for k in range(grid.n_T + 1):
        t = k * grid.h
        x = traj.x_values[grid.m + k]
        y = traj.y_values[grid.m + k]
        gap = float(np.linalg.norm(x - y))
        g = gamma(t, sched) if t < sched.t0 else ""
        if k < grid.n_T:
            phi_sq = (traj.phi_sq_cum[k + 1] - traj.phi_sq_cum[k]) / grid.h
        else:
            phi_sq = ""
        rows.append([k, t, *x, *y, gap, g, phi_sq, traj.log_weight_cum[k],
                     cfg.seed, 1, cfg.h, VERSION_TAG])
    _write_csv(_out_path(cfg, "couple"),
               ["step", "t", *[f"x{i}" for i in range(d)],
                *[f"y{i}" for i in range(d)], "gap", "gamma", "phi_sq",
                "log_weight", "seed", "n", "h", "version"], rows)


def _cmd_couple(cfg: ExperimentConfig, threads) -> int:
    coeffs, grid, xi, eta = _problem(cfg)
    if cfg.n == 1:
        run = simulate_coupled_P if cfg.measure == "P" else simulate_coupled_Q
        traj = run(coeffs, xi, eta, grid, cfg.t0, theta=cfg.theta,
                   seed=cfg.seed, delta_merge=cfg.delta_merge)
        _couple_dump(cfg, traj)
        _say(cfg, f"coupled pair dumped; merged={traj.merged}, "
                  f"log R_T={traj.log_weight_cum[-1]:.6g}")
        return 0

    sched = GammaSchedule(theta=cfg.theta, k4=coeffs.constants.k4, t0=cfg.t0)
    if cfg.measure == "P":
        est = estimate_martingale_mean(coeffs, xi, eta, sched, grid, cfg.n,
                                       cfg.seed, cfg.delta_merge, threads)
    else:
        est = estimate_entropy_Q(coeffs, xi, eta, sched, grid, cfg.n, cfg.seed,
                                 delta_merge=cfg.delta_merge, threads=threads)
    # unmerged plus non-finite paths
    failure_fraction = est.failures / cfg.n
    reports = []
    if cfg.measure == "P":
        reports.append(make_verdict(
            "girsanov_weight_mean", est,
            MCEstimate(mean=1.0, std_error=0.0, n=0, seed=cfg.seed),
            bound=1.0, k_tol=cfg.k_tol, k_viol=cfg.k_viol,
            failure_fraction=failure_fraction, two_sided=True,
            meta={"ess": est.diagnostics["ess"]}))
    se = math.sqrt(max(failure_fraction * (1.0 - failure_fraction), 0.0) / cfg.n)
    lhs = MCEstimate(mean=failure_fraction, std_error=se, n=cfg.n, seed=cfg.seed,
                     diagnostics={"failures": est.failures})
    rhs = MCEstimate(mean=FAILURE_TOLERANCE, std_error=0.0, n=0, seed=cfg.seed)
    reports.append(make_verdict("coupling_unmerged_fraction", lhs, rhs,
                                bound=FAILURE_TOLERANCE, k_tol=cfg.k_tol,
                                k_viol=cfg.k_viol))

    rows = [_verdict_row(r, cfg.n, cfg.seed, cfg.h) for r in reports]
    if cfg.measure == "Q":
        rows.append(["entropy_half_phi_sq", est.mean, est.std_error, "", "",
                     "", "", "info", cfg.n, cfg.seed, cfg.h, est.failures,
                     VERSION_TAG])
        _say(cfg, f"half mean int |phi|^2 = {est.mean:.6g} (se {est.std_error:.2g})")
    return _finish(cfg, "couple", reports, rows)


def _cmd_entropy(cfg: ExperimentConfig, threads) -> int:
    coeffs, grid, xi, eta = _problem(cfg)
    sched = GammaSchedule(theta=cfg.theta, k4=coeffs.constants.k4, t0=cfg.t0)
    est = estimate_entropy_Q(coeffs, xi, eta, sched, grid, cfg.n, cfg.seed,
                             delta_merge=cfg.delta_merge, threads=threads)
    gaps = GapPair.from_segments(xi, eta)
    bound = bound_entropy_with_tail(coeffs.constants, cfg.t0, cfg.r0, gaps,
                                    theta=cfg.theta)
    rep = make_verdict(
        "entropy_vs_bound", est,
        MCEstimate(mean=bound, std_error=0.0, n=0, seed=cfg.seed),
        bound=bound, k_tol=cfg.k_tol, k_viol=cfg.k_viol,
        failure_fraction=est.failures / cfg.n)
    return _finish(cfg, "entropy", [rep])


def _cmd_bounds(cfg: ExperimentConfig, threads) -> int:
    consts = config_constants(cfg)
    xi = config_segment(cfg, cfg.xi)
    eta = config_segment(cfg, cfg.eta)
    gaps = GapPair.from_segments(xi, eta)
    header = ["claim", "value", "s_star", "eps_star", "gap_term",
              "segment_term", "eps_term", "quadratic_term", "at_boundary",
              "n", "seed", "h", "version"]
    rows = []

    rep = bound_H_T(consts, gaps, cfg.T, cfg.r0)
    rows.append(["log_harnack_H_T", rep.value, rep.s_star, "",
                 rep.terms["gap_term"], rep.terms["segment_term"], "", "",
                 rep.at_boundary, cfg.n, cfg.seed, cfg.h, VERSION_TAG])
    _say(cfg, f"log-Harnack additive constant: {rep.value:.6g} "
              f"at s = {rep.s_star:.6g}"
              + (" (boundary)" if rep.at_boundary else ""))
    _say(cfg, f"  gap term {rep.terms['gap_term']:.6g}, "
              f"segment term {rep.terms['segment_term']:.6g}")

    if cfg.t0 is not None:
        v1 = bound_entropy_prop21(consts, cfg.theta, cfg.t0, gaps, t0=cfg.t0)
        v2 = bound_entropy_with_tail(consts, cfg.t0, cfg.r0, gaps, cfg.theta)
        rows.append(["entropy_deadline_bound", v1, "", "", "", "", "", "",
                     "", cfg.n, cfg.seed, cfg.h, VERSION_TAG])
        rows.append(["entropy_full_bound", v2, "", "", "", "", "", "",
                     "", cfg.n, cfg.seed, cfg.h, VERSION_TAG])
        _say(cfg, f"entropy bound to the deadline: {v1:.6g}; "
                  f"with history tail: {v2:.6g}")

    if cfg.p is not None:
        prep = bound_Phi_p(cfg.p, cfg.T, consts, gaps, cfg.r0)
        rows.append(["power_harnack_Phi_p", prep.value, prep.s_star,
                     prep.eps_star, prep.terms["gap_term"],
                     prep.terms["segment_term"], prep.terms["eps_term"],
                     prep.terms["quadratic_term"], prep.at_boundary,
                     cfg.n, cfg.seed, cfg.h, VERSION_TAG])
        _say(cfg, f"power-Harnack exponent at p={cfg.p:g}: {prep.value:.6g} "
                  f"at (eps, s) = ({prep.eps_star:.4g}, {prep.s_star:.4g})")

    _write_csv(_out_path(cfg, "bounds"), header, rows)
    return 0


def _cmd_log_harnack(cfg: ExperimentConfig, threads) -> int:
    coeffs, grid, xi, eta = _problem(cfg)
    f = test_function(cfg.f_name, cfg.cap)
    rep = check_log_harnack(coeffs, xi, eta, f, grid, cfg.n, cfg.seed,
                            s_choice=cfg.s_choice, k_tol=cfg.k_tol,
                            k_viol=cfg.k_viol, threads=threads)
    return _finish(cfg, "log-harnack", [rep])


def _cmd_power_harnack(cfg: ExperimentConfig, threads) -> int:
    coeffs, grid, xi, eta = _problem(cfg)
    f = test_function(cfg.f_name, cfg.cap)
    rep = check_power_harnack(coeffs, xi, eta, f, cfg.p, grid, cfg.n,
                              cfg.seed, k_tol=cfg.k_tol, k_viol=cfg.k_viol,
                              threads=threads)
    return _finish(cfg, "power-harnack", [rep])


def _cmd_stationary(cfg: ExperimentConfig, threads) -> int:
    coeffs = config_coeffs(cfg)
    grid = config_grid(cfg)
    sample = sample_stationary_segments(coeffs, grid, cfg.n, cfg.burn_in,
                                        cfg.seed)
    rows = []
    for i in range(cfg.d):
        rows.append([i, sample.endpoint_mean[i], sample.endpoint_var[i],
                     sample.lag_r0_autocov[i], cfg.n, cfg.seed, cfg.h,
                     VERSION_TAG])
    _write_csv(_out_path(cfg, "stationary"),
               ["component", "endpoint_mean", "endpoint_var",
                "lag_r0_autocov", "n", "seed", "h", "version"], rows)
    _say(cfg, f"stationary sample of {sample.n} segments: endpoint mean "
              f"{sample.endpoint_mean}, var {sample.endpoint_var}, "
              f"lag-r0 autocov {sample.lag_r0_autocov}")
    return 0


_DISPATCH = {
    "audit": _cmd_audit,
    "simulate": _cmd_simulate,
    "couple": _cmd_couple,
    "bounds": _cmd_bounds,
    "entropy": _cmd_entropy,
    "log-harnack": _cmd_log_harnack,
    "power-harnack": _cmd_power_harnack,
    "stationary": _cmd_stationary,
}
COMMANDS = tuple(_DISPATCH)


def run_command(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="harnack-lab",
        description="Coupling, entropy and Harnack-type bound checks for "
                    "delay SDEs with multiplicative noise.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, help="override [mc] seed")
    parser.add_argument("--paths", type=int, help="override [mc] n")
    parser.add_argument("--out", help="override [output] dir")
    parser.add_argument("--threads", type=int,
                        help="worker processes, capped at the CPU count (must "
                             "not change results); falls back to "
                             "HARNACK_LAB_THREADS, then 1")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        overrides = {fld: v for fld, v in (("seed", args.seed), ("n", args.paths),
                                            ("out_dir", args.out)) if v is not None}
        cfg = dataclasses.replace(cfg, **overrides)
        validate_for_command(cfg, args.command)
        return _DISPATCH[args.command](cfg, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, FloatingPointError, OSError,
            WorkerDied) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
