"""The package's public names and the parameter names of each public
callable, pinned: adding or removing a name or an option is a deliberate
edit of these tables. Only what the README, the CLI or the estimators use
belongs here; helpers that only tests need live in tests/oracles.py."""

import inspect

import harnack_lab

PUBLIC = [
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

# parameter names of each public callable, in order
SIGNATURES = {
    "SegmentPath": "r0 values",
    "GridSpec": "r0 T m",
    "constant_segment": "x r0 m",
    "AssumptionConstants": "k1 k2 k3 k4",
    "CoefficientSet": "dim sigma z_drift b_delay constants delay_free",
    "AuditReport": "conditions",
    "builtin_system": "name params dim",
    "audit_assumptions": "coeffs t_max n seed",
    "Trajectory": "grid values",
    "NoiseStream": "seed h dim",
    "simulate_path": "coeffs xi grid seed path_index",
    "GammaSchedule": "theta k4 t0",
    "CoupledTrajectory": ("grid sched x_values y_values phi_sq_cum "
                          "log_weight_cum merged"),
    "gamma": "t sched",
    "simulate_coupled": "coeffs xi eta grid t0 measure theta seed path_index",
    "GapPair": "point_gap seg_gap",
    "BoundReport": "value s_star eps_star terms at_boundary",
    "bound_H_T": "consts gaps T r0",
    "bound_H_T_at": "consts gaps r0 s",
    "bound_entropy_prop21": "consts theta t gaps t0",
    "bound_entropy_with_tail": "consts t0 r0 gaps theta",
    "bound_Phi_p": "p T consts gaps r0",
    "bound_seg_gap_moment": "consts gaps lam s",
    "MCEstimate": "mean std_error n seed diagnostics",
    "VerdictReport": "claim lhs rhs bound margin_se verdict meta",
    "TestFunction": "name fn lower upper",
    "StationarySample": "endpoint_mean endpoint_var lag_r0_autocov burn_in",
    "test_function": "name cap",
    "estimate_PT_f": "coeffs xi f grid n seed threads",
    "estimate_entropy_Q": "coeffs xi eta sched grid n seed t_upper threads",
    "estimate_exp_functional": ("coeffs xi eta sched grid lam n seed integrand t_upper "
                                "threads"),
    "estimate_martingale_mean": "coeffs xi eta sched grid n seed threads",
    "make_verdict": "claim lhs bound k_tol k_viol failure_fraction two_sided meta",
    "check_log_harnack": "coeffs xi eta f grid n seed s_choice k_tol k_viol threads",
    "check_power_harnack": "coeffs xi eta f p grid n seed k_tol k_viol threads",
    "sample_stationary_segments": "coeffs grid n burn_in seed",
    "ExperimentConfig": ("d r0 T m t0 xi eta system_name system_params theta p "
                         "s_choice measure n seed k_tol k_viol burn_in "
                         "f_name cap out_dir verbosity"),
    "parse_config": "text",
    "render_config": "cfg",
    "run_command": "argv",
}


def test_public_api_is_pinned():
    assert len(set(harnack_lab.__all__)) == len(harnack_lab.__all__)
    assert sorted(harnack_lab.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(harnack_lab, name), name


def test_public_signatures_are_pinned():
    callables = [name for name in PUBLIC if callable(getattr(harnack_lab, name))]
    assert sorted(callables) == sorted(SIGNATURES)
    for name in callables:
        params = list(inspect.signature(getattr(harnack_lab, name)).parameters)
        assert params == SIGNATURES[name].split(), name


def test_public_parameter_count():
    # the figure the ROADMAP quotes: every option of a public callable is
    # an input a caller must know about
    total = sum(len(inspect.signature(getattr(harnack_lab, name)).parameters)
                for name in PUBLIC if callable(getattr(harnack_lab, name)))
    assert total == 208
