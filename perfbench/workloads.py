"""The four benchmark workloads: which commands run, on which configs.

Every step is made from the workload seed alone, so the same seed gives
the same inputs. The seed becomes the Monte Carlo seed of every step; the
problem data (acceptance grid m = 400, T = 2, t0 = 1, xi = const:1.0,
eta = zero) are fixed. Imported by the stdlib-only parent (run.py) and by
the numpy oracle process, so it uses the standard library only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import closed_forms as cf

NAMES = ("harnack-uncoupled", "coupled-weights", "segment-gap-moments",
         "trajectory-dumps")

CHUNK = 8192
# two chunks per thread at the largest thread count measured (2)
N_PATHS = 4 * CHUNK

LINEAR = ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0})
SINE = ("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1})
OU = ("ou_nodelay", {"a": 1.0, "s0": 1.0})

ACCEPTANCE = {"r0": 1.0, "t": 2.0, "m": 400, "t0": 1.0, "xi": 1.0, "eta": 0.0}
LONG = dict(ACCEPTANCE, t=20.0)            # single-trajectory dumps
STATIONARY = {"r0": 1.0, "t": 2.0, "m": 100, "t0": None, "xi": 1.0, "eta": 0.0}
THETA = 1.0          # coupling schedule shape
CAP = 100.0          # quad_cap test function: f = 1 + min(|x|^2, CAP)
BURN_IN = 10.0       # stationary sampler burn-in


@dataclass(frozen=True)
class Step:
    """One operation of a workload: a CLI command or a library call, run in
    its own process at each thread count."""

    tag: str
    command: str                      # CLI command, or "lib"
    system: Tuple[str, Dict[str, float]]
    problem: Dict[str, Optional[float]]
    n: int
    seed: int
    measure: str = "Q"
    p: Optional[float] = None
    integrand: Optional[str] = None   # library calls only
    lam: Optional[float] = None
    t_upper: Optional[float] = None

    @property
    def csv_name(self) -> str:
        if self.command == "lib":
            return "exp_functional.csv"
        return self.command.replace("-", "_") + ".csv"


def steps(workload: str, seed: int) -> List[Step]:
    if workload == "harnack-uncoupled":
        return [
            Step("log_harnack", "log-harnack", LINEAR, ACCEPTANCE, N_PATHS, seed),
            Step("power_harnack", "power-harnack", SINE, ACCEPTANCE, N_PATHS, seed, p=16.0),
        ]
    if workload == "coupled-weights":
        return [
            Step("couple_p_linear", "couple", LINEAR, ACCEPTANCE, N_PATHS, seed, measure="P"),
            Step("couple_p_sine", "couple", SINE, ACCEPTANCE, N_PATHS, seed, measure="P"),
            Step("entropy_linear", "entropy", LINEAR, ACCEPTANCE, N_PATHS, seed),
            Step("entropy_sine", "entropy", SINE, ACCEPTANCE, N_PATHS, seed),
        ]
    if workload == "segment-gap-moments":
        s = 0.5
        lam = cf.seg_gap_lam_cap(cf.constants(*SINE), s) / 2.0
        return [
            Step("seg_gap_sine", "lib", SINE, ACCEPTANCE, N_PATHS, seed,
                 integrand="seg_gap_sq", lam=lam, t_upper=s),
            Step("gap_gamma_linear", "lib", LINEAR, ACCEPTANCE, N_PATHS, seed,
                 integrand="gap_over_gamma_sq", lam=0.5, t_upper=1.0),
        ]
    if workload == "trajectory-dumps":
        return [
            Step("simulate", "simulate", SINE, LONG, 1, seed),
            Step("couple_dump", "couple", LINEAR, LONG, 1, seed),
            Step("stationary", "stationary", OU, STATIONARY, 50000, seed),
            Step("bounds", "bounds", SINE, ACCEPTANCE, N_PATHS, seed, p=16.0),
            Step("audit", "audit", SINE, ACCEPTANCE, 20000, seed),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {NAMES}")


def config_text(step: Step) -> str:
    """The INI config a CLI step runs with."""
    p = step.problem
    name, prm = step.system
    lines = ["[problem]", f"r0 = {p['r0']!r}", f"t = {p['t']!r}", f"m = {p['m']}"]
    if p["t0"] is not None:
        lines.append(f"t0 = {p['t0']!r}")
    lines += [f"xi = const:{p['xi']!r}", f"eta = const:{p['eta']!r}",
              "", "[system]", f"name = {name}"]
    lines += [f"{k} = {v!r}" for k, v in sorted(prm.items())]
    lines += ["", "[coupling]", f"theta = {THETA!r}", f"measure = {step.measure}"]
    if step.p is not None:
        lines.append(f"p = {step.p!r}")
    lines += ["", "[mc]", f"n = {step.n}", f"seed = {step.seed}",
              f"burn_in = {BURN_IN!r}",
              "", "[functions]", "f = quad_cap", f"cap = {CAP!r}",
              "", "[output]", "verbosity = 0", ""]
    return "\n".join(lines)


def lib_args(step: Step) -> List[str]:
    """Arguments of perfbench/lib_call.py for a library step."""
    name, prm = step.system
    p = step.problem
    return ["--system", name, "--params", ",".join(f"{k}={v!r}" for k, v in sorted(prm.items())),
            "--t", repr(p["t"]), "--m", str(p["m"]), "--t0", repr(p["t0"]),
            "--xi", repr(p["xi"]), "--eta", repr(p["eta"]),
            "--integrand", step.integrand, "--lam", repr(step.lam),
            "--t-upper", repr(step.t_upper), "--n", str(step.n), "--seed", str(step.seed)]
