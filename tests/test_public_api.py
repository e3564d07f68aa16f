"""The package's public names and the parameter names of each public
callable, pinned: adding or removing a name or an option is a deliberate
edit of these tables. Only what the README, the CLI or the estimators use
belongs here; helpers that only tests need live in tests/oracles.py."""

import inspect

import harnack_lab

PUBLIC = [
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

# parameter names of each public callable, in order
SIGNATURES = {
    "SegmentPath": "r0 values",
    "GridSpec": "r0 T m",
    "constant_segment": "x r0 m",
    "sup_distance": "a b",
    "AssumptionConstants": "k1 k2 k3 k4",
    "CoefficientSet": "dim sigma z_drift b_delay constants delay_free name params",
    "AuditBox": "t_min t_max x_min x_max r0 m",
    "AuditReport": "conditions n seed slack note",
    "builtin_system": "name params dim",
    "audit_assumptions": "coeffs box n seed",
    "Trajectory": "grid values path_index seed",
    "NoiseStream": "seed h dim",
    "simulate_path": "coeffs xi grid seed path_index",
    "GammaSchedule": "theta k4 t0",
    "CoupledTrajectory": ("grid sched measure x_values y_values phi_sq_cum "
                          "log_weight_cum merged delta_merge seed path_index"),
    "gamma": "t sched",
    "inv_gamma_integral": "t_a t_b sched",
    "simulate_coupled_Q": "coeffs xi eta grid t0 theta seed path_index delta_merge",
    "simulate_coupled_P": "coeffs xi eta grid t0 theta seed path_index delta_merge",
    "GapPair": "point_gap seg_gap",
    "BoundReport": "value s_star eps_star terms at_boundary meta",
    "LemmaBound": "kind log_prefactor inner_coeff inner_power s",
    "bound_H_T": "consts gaps T r0 s_grid_size",
    "bound_H_T_at": "consts gaps r0 s",
    "bound_entropy_prop21": "consts theta t gaps t0",
    "bound_entropy_with_tail": "consts t0 r0 gaps theta",
    "bound_Phi_p": "p T consts gaps r0 eps_grid s_grid",
    "lemma_rhs": "kind consts gaps lam eps s sched",
    "MCEstimate": "mean std_error n seed diagnostics",
    "VerdictReport": "claim lhs rhs bound margin_se verdict k_tol k_viol meta",
    "TestFunction": "name fn lower upper params",
    "StationarySample": "endpoint_mean endpoint_var lag_r0_autocov n seed burn_in",
    "test_function": "name cap",
    "estimate_PT_f": "coeffs xi f grid n seed threads",
    "estimate_entropy_Q": "coeffs xi eta sched grid n seed t_upper delta_merge threads",
    "estimate_exp_functional": ("coeffs xi eta sched grid lam n seed integrand t_upper "
                                "delta_merge threads"),
    "estimate_martingale_mean": "coeffs xi eta sched grid n seed delta_merge threads",
    "make_verdict": "claim lhs rhs bound k_tol k_viol failure_fraction two_sided meta",
    "check_log_harnack": "coeffs xi eta f grid n seed s_choice k_tol k_viol threads",
    "check_power_harnack": "coeffs xi eta f p grid n seed k_tol k_viol threads",
    "sample_stationary_segments": "coeffs grid n burn_in seed",
    "ExperimentConfig": ("d r0 T m t0 xi eta system_name system_params theta p "
                         "s_choice delta_merge measure n seed k_tol k_viol burn_in "
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
