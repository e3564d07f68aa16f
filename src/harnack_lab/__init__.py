"""Simulation and verification toolkit for delay SDEs with multiplicative noise.

Builds a binding coupling between two solutions started from different
initial segments and reweights it by a Girsanov density; the resulting
closed-form entropy and Harnack-type bounds are then checked by Monte
Carlo against the simulated pair.
"""

from ._version import __version__

from .segment_paths import (
    SegmentPath,
    GridSpec,
    constant_segment,
)
from .coefficients import (
    AssumptionConstants,
    CoefficientSet,
    AuditReport,
    builtin_system,
    audit_assumptions,
)
from .integrator import Trajectory, NoiseStream, simulate_path
from .coupling import (
    GammaSchedule,
    CoupledTrajectory,
    gamma,
    simulate_coupled,
)
from .bounds import (
    GapPair,
    BoundReport,
    bound_H_T,
    bound_H_T_at,
    bound_entropy_prop21,
    bound_entropy_with_tail,
    bound_Phi_p,
    bound_seg_gap_moment,
)
from .estimators import (
    MCEstimate,
    VerdictReport,
    TestFunction,
    StationarySample,
    test_function,
    estimate_PT_f,
    estimate_entropy_Q,
    estimate_exp_functional,
    estimate_martingale_mean,
    make_verdict,
    check_log_harnack,
    check_power_harnack,
    sample_stationary_segments,
)

__all__ = [
    "__version__",
    "SegmentPath", "GridSpec", "constant_segment",
    "AssumptionConstants", "CoefficientSet", "AuditReport",
    "builtin_system", "audit_assumptions",
    "Trajectory", "NoiseStream", "simulate_path",
    "GammaSchedule", "CoupledTrajectory", "gamma", "simulate_coupled",
    "GapPair", "BoundReport",
    "bound_H_T", "bound_H_T_at", "bound_entropy_prop21", "bound_entropy_with_tail",
    "bound_Phi_p", "bound_seg_gap_moment",
    "MCEstimate", "VerdictReport", "TestFunction", "StationarySample",
    "test_function", "estimate_PT_f", "estimate_entropy_Q", "estimate_exp_functional",
    "estimate_martingale_mean", "make_verdict",
    "check_log_harnack", "check_power_harnack", "sample_stationary_segments",
    "ExperimentConfig", "parse_config", "render_config", "run_command",
]


def __getattr__(name):
    # the CLI loads on first use, so that python -m harnack_lab.cli runs it once
    if name not in ("ExperimentConfig", "parse_config", "render_config", "run_command"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import cli
    return getattr(cli, name)
