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
    sup_distance,
)
from .coefficients import (
    AssumptionConstants,
    CoefficientSet,
    AuditBox,
    AuditReport,
    builtin_system,
    audit_assumptions,
)
from .integrator import Trajectory, NoiseStream, simulate_path
from .coupling import (
    GammaSchedule,
    CoupledTrajectory,
    gamma,
    inv_gamma_integral,
    simulate_coupled_Q,
    simulate_coupled_P,
)
from .bounds import (
    GapPair,
    BoundReport,
    LemmaBound,
    bound_H_T,
    bound_H_T_at,
    bound_entropy_prop21,
    bound_entropy_with_tail,
    bound_Phi_p,
    lemma_rhs,
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
from .cli import ExperimentConfig, parse_config, render_config, run_command

__all__ = [
    "__version__",
    "SegmentPath", "GridSpec", "constant_segment", "sup_distance",
    "AssumptionConstants", "CoefficientSet", "AuditBox", "AuditReport",
    "builtin_system", "audit_assumptions",
    "Trajectory", "NoiseStream", "simulate_path",
    "GammaSchedule", "CoupledTrajectory", "gamma", "inv_gamma_integral",
    "simulate_coupled_Q", "simulate_coupled_P",
    "GapPair", "BoundReport", "LemmaBound",
    "bound_H_T", "bound_H_T_at", "bound_entropy_prop21", "bound_entropy_with_tail",
    "bound_Phi_p", "lemma_rhs",
    "MCEstimate", "VerdictReport", "TestFunction", "StationarySample",
    "test_function", "estimate_PT_f", "estimate_entropy_Q", "estimate_exp_functional",
    "estimate_martingale_mean", "make_verdict",
    "check_log_harnack", "check_power_harnack", "sample_stationary_segments",
    "ExperimentConfig", "parse_config", "render_config", "run_command",
]
