"""One library call to estimate_exp_functional, with its result as a CSV.

The segment-gap-moments workload has no CLI command, so it runs this
script, once per call, the way the CLI runs its commands:

    PYTHONPATH=src python3 perfbench/lib_call.py --system sine_multiplicative \
        --params a=-1.0,c=0.2,s0=0.1 --t 2.0 --m 400 --t0 1.0 --xi 1.0 \
        --eta 0.0 --integrand seg_gap_sq --lam 1.25 --t-upper 0.5 \
        --n 32768 --seed 0 --threads 1 --out DIR

Floats are written with repr, so two runs agree byte for byte exactly
when their results agree bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys


def parse_args(argv):
    ap = argparse.ArgumentParser(description="one estimate_exp_functional call")
    ap.add_argument("--system", required=True)
    ap.add_argument("--params", required=True, help="k=v,k=v")
    for name in ("--t", "--t0", "--xi", "--eta", "--lam", "--t-upper"):
        ap.add_argument(name, type=float, required=True)
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--integrand", required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


def run(argv) -> int:
    args = parse_args(argv)
    # looked up through the modules at call time, so a tracer installed
    # before this runs sees every call
    from harnack_lab import coefficients, coupling, estimators, segment_paths

    params = {k: float(v) for k, v in (kv.split("=") for kv in args.params.split(","))}
    coeffs = coefficients.builtin_system(args.system, params)
    grid = segment_paths.GridSpec(r0=1.0, T=args.t, m=args.m)
    xi = segment_paths.constant_segment(args.xi, 1.0, args.m)
    eta = segment_paths.constant_segment(args.eta, 1.0, args.m)
    sched = coupling.GammaSchedule(theta=1.0, k4=coeffs.constants.k4, t0=args.t0)
    est = estimators.estimate_exp_functional(
        coeffs, xi, eta, sched, grid, lam=args.lam, n=args.n, seed=args.seed,
        integrand=args.integrand, t_upper=args.t_upper, threads=args.threads)

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "exp_functional.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["integrand", "lam", "t_upper", "mean", "std_error", "n",
                    "seed", "failures", "max_exponent"])
        w.writerow([args.integrand, repr(args.lam), repr(args.t_upper),
                    repr(est.mean), repr(est.std_error), est.n, est.seed,
                    est.failures, repr(est.diagnostics["max_exponent"])])
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
