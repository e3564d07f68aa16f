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
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ._parallel import WorkerDied, resolve_threads
from ._version import __version__
from .bounds import (GapPair, _check_horizon, _check_power_exponent, _lambda_p, bound_H_T,
                     bound_Phi_p, bound_entropy_prop21, bound_entropy_with_tail)
from .coefficients import (AssumptionConstants, CoefficientSet, _catalog_row,
                           audit_assumptions, builtin_system, system_constants)
from .coupling import GammaSchedule, _check_measure, _check_theta, gamma, simulate_coupled
from .estimators import (FAILURE_TOLERANCE, MCEstimate, VerdictReport, _check_burn_in,
                         _check_delay_free, _check_levels, _check_power_cap, _check_s_choice,
                         check_log_harnack, check_power_harnack, estimate_entropy_Q,
                         estimate_martingale_mean, make_verdict, sample_stationary_segments,
                         test_function)
from .integrator import _check_dim, _check_seed, simulate_path
from .segment_paths import GridSpec, SegmentPath, _deadline_index, constant_segment

VERSION_TAG = f"harnack-lab-v{__version__}"

VERDICT_HEADER = ["claim", "lhs", "lhs_se", "rhs", "rhs_se", "bound",
                  "margin_se", "verdict", "n", "seed", "h", "failures", "n_used",
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
        # a float that does not parse or is not finite (inf passes the range
        # checks of p and s_choice) is reported here once, and None stands in
        # for it; an int that does not parse stands at its default
        if sec not in cp or key not in cp[sec]:
            return default
        raw = cp[sec][key].strip()
        try:
            value = conv(raw)
        except (TypeError, ValueError):
            violations.append(f"[{sec}] {key}: cannot parse {raw!r}")
            return None if conv is float else default
        if conv is float and not math.isfinite(value):
            violations.append(f"[{sec}] {key} must be finite")
            return None
        return value

    dft = ExperimentConfig()
    values = {}
    for sec, key, fld, conv in _KEYS:
        values[fld] = get(sec, key, conv, getattr(dft, fld))
        if sec == "system":
            params = {k: get(sec, k, float, None)
                      for k in (cp[sec] if sec in cp else ()) if k != key}
            if not params and values[fld] == dft.system_name:
                params = dft.system_params
            values["system_params"] = params
    cfg = ExperimentConfig(**values)
    violations += _config_problems(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def _config_problems(cfg: ExperimentConfig, command=None) -> List[str]:
    """Every violation of a config parse_config has read, not just the
    first, and, given a command, of what that command needs. A value rule
    is the library's own check, its ValueError reported under the key's
    section; the CLI states only that n >= 1, the verbosity levels and the
    needs of each command."""
    violations: List[str] = []

    def check(sec, fn, *args):
        # fn(*args), or None once its ValueError or OverflowError is reported; a None key skips it
        if None not in args:
            try:
                return fn(*args)
            except (ValueError, OverflowError) as exc:
                violations.append(f"[{sec}] {exc}")

    check("problem", _check_dim, cfg.d)
    # r0 and m first, as the grid of one delay window, whose steps check t0 while t is wrong
    window = check("problem", GridSpec, cfg.r0, cfg.r0, cfg.m)
    if window:
        grid = check("problem", GridSpec, cfg.r0, cfg.T, cfg.m)
        check("problem", _deadline_index, cfg.t0, window.h, cfg.m, grid.n_T if grid else math.inf)
    # the spec's own rules on one point and step: a run's segment holds (m + 1) x d values
    for spec in dict.fromkeys((cfg.xi, cfg.eta)):
        if not spec.startswith("file:"):
            check("problem", config_segment, dataclasses.replace(cfg, d=1, r0=1.0, m=1), spec)
    if None in cfg.system_params.values():
        check("system", _catalog_row, cfg.system_name, cfg.system_params)
    else:
        built = check("system", config_constants if command in (None, "bounds") else config_coeffs,
                      cfg)
        if command == "stationary":
            check("system", _check_delay_free, built)
    check("coupling", _check_theta, cfg.theta)
    check("coupling", _lambda_p, cfg.p)
    # s_choice lies in the horizon where log-harnack reads it, elsewhere only above 0
    span = (cfg.T, cfg.r0) if command == "log-harnack" else (math.inf, 0.0)
    check("coupling", _check_s_choice, cfg.s_choice, *span)
    check("coupling", _check_measure, cfg.measure)
    if cfg.n < 1:
        violations.append("[mc] n must be >= 1")
    check("mc", _check_seed, cfg.seed)
    check("mc", _check_levels, cfg.k_tol, cfg.k_viol)
    check("mc", _check_burn_in, cfg.burn_in)
    # a cap already reported stands at its default, so that f is still checked
    f = check("functions", test_function, cfg.f_name,
              ExperimentConfig.cap if cfg.cap is None else cfg.cap)
    if command == "power-harnack":
        check("functions", _check_power_cap, f, cfg.p)
    if cfg.verbosity not in (0, 1, 2):
        violations.append("[output] verbosity must be 0, 1 or 2")
    if command in ("couple", "entropy") and cfg.t0 is None:
        violations.append(f"{command} needs [problem] t0")
    if command in ("log-harnack", "power-harnack", "bounds"):
        check("problem", _check_horizon, cfg.T, cfg.r0)
    if command == "power-harnack" and cfg.p is None:
        violations.append("power-harnack needs [coupling] p")
    # the threshold reads the system's constants: checked on an otherwise valid config
    if command in ("bounds", "power-harnack") and not violations:
        check("coupling", _check_power_exponent, cfg.p, config_constants(cfg))
    # one path gives no standard error; only the couple dump takes n = 1
    if command in ("entropy", "log-harnack", "power-harnack", "stationary") and cfg.n < 2:
        violations.append(f"{command} needs [mc] n >= 2")
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
    return system_constants(cfg.system_name, cfg.system_params, dim=cfg.d)


def config_segment(cfg: ExperimentConfig, spec: str) -> SegmentPath:
    """The initial segment a spec names: zero, const:<value> or file:<path>."""
    if spec == "zero" or spec.startswith("const:"):
        try:
            x = np.full(cfg.d, 0.0 if spec == "zero" else float(spec[6:]))
            return constant_segment(x, cfg.r0, cfg.m)
        except ValueError as exc:
            raise ValueError(f"segment spec {spec!r}: {exc}") from None
    if spec.startswith("file:"):
        arr = np.loadtxt(spec[5:])
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.shape != (cfg.m + 1, cfg.d):
            raise ValueError(f"segment file must hold {cfg.m + 1} rows x {cfg.d} cols")
        return SegmentPath(cfg.r0, arr)
    raise ValueError(f"segment spec {spec!r}: expected 'zero', 'const:<value>' or 'file:<path>'")


def _problem(cfg: ExperimentConfig):
    """The coefficient set, grid and initial segments xi, eta of a config."""
    return (config_coeffs(cfg), config_grid(cfg), config_segment(cfg, cfg.xi),
            config_segment(cfg, cfg.eta))


def validate_for_command(cfg: ExperimentConfig, command: str) -> None:
    """Raise ConfigError unless cfg, as parse_config returns it with any
    command-line overrides, is still valid and complete for command."""
    problems = _config_problems(cfg, command=command)
    if problems:
        raise ConfigError(problems)


def _fmt(v) -> str:
    if v is None:
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


@dataclass
class _Result:
    """What a command reports: its CSV header and rows keyed by column (a
    missing key is a blank cell), the lines it prints, each with the
    verbosity it needs, and the verdicts that set the exit code. The
    one-path dumps give their rows as a generator, so that a dump's rows
    are held only once, as the lists the CSV writer takes."""

    header: List[str]
    rows: Iterable[dict] = field(default_factory=list)
    lines: List[Tuple[int, str]] = field(default_factory=list)
    verdicts: List[str] = field(default_factory=list)


def _emit(cfg: ExperimentConfig, command: str, res: _Result) -> int:
    """Write the command's CSV, then print its lines; return the exit code:
    2 if a verdict is violated, else 3 if one is inconclusive, else 0. The
    n, seed, h and version columns are filled by name unless a row sets
    them."""
    provenance = {"n": cfg.n, "seed": cfg.seed, "h": cfg.h, "version": VERSION_TAG}
    rows = [[{**provenance, **row}.get(col) for col in res.header] for row in res.rows]
    _write_csv(os.path.join(cfg.out_dir, command.replace("-", "_") + ".csv"),
               res.header, rows)
    for level, line in res.lines:
        if cfg.verbosity >= level:
            print(line)
    if "violated" in res.verdicts:
        return 2
    return 3 if "inconclusive" in res.verdicts else 0


def _verdicts(reports: List[VerdictReport]) -> _Result:
    """One verdict-schema row and one printed line per report, which names
    the form of the right side where the check chose one (rhs_form), plus
    its meta at verbosity 2."""
    res = _Result(VERDICT_HEADER, verdicts=[r.verdict for r in reports])
    for r in reports:
        res.rows.append({"claim": r.claim, "lhs": r.lhs.mean, "lhs_se": r.lhs.std_error,
                         "rhs": r.rhs.mean, "rhs_se": r.rhs.std_error, "bound": r.bound,
                         "margin_se": r.margin_se, "verdict": r.verdict, "n_used": r.lhs.n,
                         "failures": r.lhs.failures + r.rhs.failures})
        form = f"  rhs_form={r.meta['rhs_form']}" if "rhs_form" in r.meta else ""
        res.lines.append((1, f"{r.claim}: lhs={r.lhs.mean:.6g} (se {r.lhs.std_error:.2g})  "
                             f"rhs={r.rhs.mean:.6g} (se {r.rhs.std_error:.2g})  "
                             f"margin={r.margin_se:.3g} se  verdict={r.verdict}{form}"))
        if r.meta:
            res.lines.append((2, f"  meta: {r.meta}"))
    return res


def _cmd_audit(cfg: ExperimentConfig, threads) -> _Result:
    report = audit_assumptions(config_coeffs(cfg), t_max=cfg.T, n=cfg.n, seed=cfg.seed)
    res = _Result(["condition", "empirical_max", "declared", "passed", "worst_t",
                   "worst_point", "n", "seed", "h", "version"])
    for cond, c in sorted(report.conditions.items()):
        point = ";".join(_fmt(x) for x in np.atleast_1d(c.worst_point))
        res.rows.append({"condition": cond, "empirical_max": c.empirical_max,
                         "declared": c.declared, "passed": c.passed, "worst_t": c.worst_t,
                         "worst_point": point})
        res.lines.append((1, f"{cond}: empirical {c.empirical_max:.6g} vs declared "
                             f"{c.declared:.6g} -> {'pass' if c.passed else 'FAIL'}"))
        res.verdicts.append("holds" if c.passed else "violated")
    return res


def _cmd_simulate(cfg: ExperimentConfig, threads) -> _Result:
    coeffs = config_coeffs(cfg)
    grid = config_grid(cfg)
    xi = config_segment(cfg, cfg.xi)
    traj = simulate_path(coeffs, xi, grid, cfg.seed)
    xs = [f"x{i}" for i in range(cfg.d)]
    rows = ({"step": k, "t": k * grid.h, **dict(zip(xs, traj.values[grid.m + k])), "n": 1}
            for k in range(grid.n_T + 1))
    return _Result(["step", "t", *xs, "seed", "n", "h", "version"], rows,
                   [(1, f"simulated one path to t={grid.T:g}; endpoint {traj.endpoint()}")])


def _couple_dump(cfg, traj) -> _Result:
    grid, sched = traj.grid, traj.sched
    n0 = grid.index_of(sched.t0)
    xs, ys = [f"x{i}" for i in range(cfg.d)], [f"y{i}" for i in range(cfg.d)]

    def rows():
        for k in range(grid.n_T + 1):
            t = k * grid.h
            x = traj.x_values[grid.m + k]
            y = traj.y_values[grid.m + k]
            row = {"step": k, "t": t, **dict(zip(xs, x)), **dict(zip(ys, y)),
                   "gap": float(np.linalg.norm(x - y)), "log_weight": traj.log_weight_cum[k]}
            # by grid index, as the kernel decides: k h may round below t0 at k = n0
            if k < n0:
                row["gamma"] = gamma(t, sched)
            if k < grid.n_T:
                row["phi_sq"] = (traj.phi_sq_cum[k + 1] - traj.phi_sq_cum[k]) / grid.h
            yield row

    return _Result(["step", "t", *xs, *ys, "gap", "gamma", "phi_sq", "log_weight",
                    "seed", "n", "h", "version"], rows(),
                   [(1, f"coupled pair dumped; merged={traj.merged}, "
                        f"log R_T={traj.log_weight_cum[-1]:.6g}")])


def _cmd_couple(cfg: ExperimentConfig, threads) -> _Result:
    coeffs, grid, xi, eta = _problem(cfg)
    if cfg.n == 1:
        return _couple_dump(cfg, simulate_coupled(coeffs, xi, eta, grid, cfg.t0, cfg.measure,
                                                  theta=cfg.theta, seed=cfg.seed))

    sched = GammaSchedule(theta=cfg.theta, k4=coeffs.constants.k4, t0=cfg.t0)
    if cfg.measure == "P":
        est = estimate_martingale_mean(coeffs, xi, eta, sched, grid, cfg.n,
                                       cfg.seed, threads)
    else:
        est = estimate_entropy_Q(coeffs, xi, eta, sched, grid, cfg.n, cfg.seed,
                                 threads=threads)
    # unmerged plus non-finite paths
    failure_fraction = est.failures / cfg.n
    reports = []
    if cfg.measure == "P":
        reports.append(make_verdict(
            "girsanov_weight_mean", est, bound=1.0, k_tol=cfg.k_tol, k_viol=cfg.k_viol,
            failure_fraction=failure_fraction, two_sided=True,
            meta={"ess": est.diagnostics["ess"]}))
    se = math.sqrt(max(failure_fraction * (1.0 - failure_fraction), 0.0) / cfg.n)
    lhs = MCEstimate(mean=failure_fraction, std_error=se, n=cfg.n, seed=cfg.seed,
                     diagnostics={"failures": est.failures})
    reports.append(make_verdict("coupling_unmerged_fraction", lhs,
                                bound=FAILURE_TOLERANCE, k_tol=cfg.k_tol,
                                k_viol=cfg.k_viol))
    res = _verdicts(reports)
    if cfg.measure == "Q":
        res.rows.append({"claim": "entropy_half_phi_sq", "lhs": est.mean,
                         "lhs_se": est.std_error, "verdict": "info", "n_used": est.n,
                         "failures": est.failures})
        res.lines.insert(0, (1, f"half mean int |phi|^2 = {est.mean:.6g} "
                                f"(se {est.std_error:.2g})"))
    return res


def _cmd_entropy(cfg: ExperimentConfig, threads) -> _Result:
    coeffs, grid, xi, eta = _problem(cfg)
    sched = GammaSchedule(theta=cfg.theta, k4=coeffs.constants.k4, t0=cfg.t0)
    est = estimate_entropy_Q(coeffs, xi, eta, sched, grid, cfg.n, cfg.seed,
                             threads=threads)
    gaps = GapPair.from_segments(xi, eta)
    bound = bound_entropy_with_tail(coeffs.constants, cfg.t0, cfg.r0, gaps,
                                    theta=cfg.theta)
    return _verdicts([make_verdict("entropy_vs_bound", est, bound=bound, k_tol=cfg.k_tol,
                                   k_viol=cfg.k_viol, failure_fraction=est.failures / cfg.n)])


def _cmd_bounds(cfg: ExperimentConfig, threads) -> _Result:
    consts = config_constants(cfg)
    xi = config_segment(cfg, cfg.xi)
    eta = config_segment(cfg, cfg.eta)
    gaps = GapPair.from_segments(xi, eta)
    res = _Result(["claim", "value", "s_star", "eps_star", "gap_term", "segment_term",
                   "eps_term", "quadratic_term", "at_boundary", "n", "seed", "h", "version"])

    rep = bound_H_T(consts, gaps, cfg.T, cfg.r0)
    res.rows.append({"claim": "log_harnack_H_T", "value": rep.value, "s_star": rep.s_star,
                     **rep.terms, "at_boundary": rep.at_boundary})
    res.lines.append((1, f"log-Harnack additive constant: {rep.value:.6g} "
                         f"at s = {rep.s_star:.6g}"
                         + (" (boundary)" if rep.at_boundary else "")))
    res.lines.append((1, f"  gap term {rep.terms['gap_term']:.6g}, "
                         f"segment term {rep.terms['segment_term']:.6g}"))

    if cfg.t0 is not None:
        v1 = bound_entropy_prop21(consts, cfg.theta, cfg.t0, gaps, t0=cfg.t0)
        v2 = bound_entropy_with_tail(consts, cfg.t0, cfg.r0, gaps, cfg.theta)
        res.rows.append({"claim": "entropy_deadline_bound", "value": v1})
        res.rows.append({"claim": "entropy_full_bound", "value": v2})
        res.lines.append((1, f"entropy bound to the deadline: {v1:.6g}; "
                             f"with history tail: {v2:.6g}"))

    if cfg.p is not None:
        prep = bound_Phi_p(cfg.p, cfg.T, consts, gaps, cfg.r0)
        res.rows.append({"claim": "power_harnack_Phi_p", "value": prep.value,
                         "s_star": prep.s_star, "eps_star": prep.eps_star, **prep.terms,
                         "at_boundary": prep.at_boundary})
        res.lines.append((1, f"power-Harnack exponent at p={cfg.p:g}: {prep.value:.6g} "
                             f"at (eps, s) = ({prep.eps_star:.4g}, {prep.s_star:.4g})"))
    return res


def _cmd_log_harnack(cfg: ExperimentConfig, threads) -> _Result:
    coeffs, grid, xi, eta = _problem(cfg)
    f = test_function(cfg.f_name, cfg.cap)
    return _verdicts([check_log_harnack(coeffs, xi, eta, f, grid, cfg.n, cfg.seed,
                                        s_choice=cfg.s_choice, k_tol=cfg.k_tol,
                                        k_viol=cfg.k_viol, threads=threads)])


def _cmd_power_harnack(cfg: ExperimentConfig, threads) -> _Result:
    coeffs, grid, xi, eta = _problem(cfg)
    f = test_function(cfg.f_name, cfg.cap)
    return _verdicts([check_power_harnack(coeffs, xi, eta, f, cfg.p, grid, cfg.n,
                                          cfg.seed, k_tol=cfg.k_tol, k_viol=cfg.k_viol,
                                          threads=threads)])


def _cmd_stationary(cfg: ExperimentConfig, threads) -> _Result:
    sample = sample_stationary_segments(config_coeffs(cfg), config_grid(cfg), cfg.n,
                                        cfg.burn_in, cfg.seed)
    res = _Result(["component", "endpoint_mean", "endpoint_var", "lag_r0_autocov",
                   "n", "seed", "h", "version"])
    for i in range(cfg.d):
        res.rows.append({"component": i, "endpoint_mean": sample.endpoint_mean[i],
                         "endpoint_var": sample.endpoint_var[i],
                         "lag_r0_autocov": sample.lag_r0_autocov[i]})
    res.lines.append((1, f"stationary sample of {cfg.n} segments: endpoint mean "
                         f"{sample.endpoint_mean}, var {sample.endpoint_var}, "
                         f"lag-r0 autocov {sample.lag_r0_autocov}"))
    return res


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
                        help="worker processes, capped at the CPUs the process "
                             "may run on (must not change results); default 1")
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
        threads = resolve_threads(args.threads)
        return _emit(cfg, args.command, _DISPATCH[args.command](cfg, threads))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, FloatingPointError, MemoryError, OSError,
            WorkerDied) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
