"""The package's public names, pinned: adding or removing one is a
deliberate edit of this list. Only what the README, the CLI or the
estimators use belongs here; helpers that only tests need live in
tests/oracles.py."""

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


def test_public_api_is_pinned():
    assert len(set(harnack_lab.__all__)) == len(harnack_lab.__all__)
    assert sorted(harnack_lab.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert hasattr(harnack_lab, name), name
