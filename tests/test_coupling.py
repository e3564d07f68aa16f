import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from harnack_lab.coefficients import _DenseDiffusion, _DiagDiffusion, builtin_system
from harnack_lab.coupling import (GammaSchedule, _coupled_batch, contraction_factors, gamma,
                                  inv_gamma_integral, simulate_coupled)
from harnack_lab.integrator import (NoiseBlocks, NoiseStream, _Recorder, _simulate_batch,
                                    simulate_path)
from harnack_lab.segment_paths import GridSpec, constant_segment
from oracles import (SumsAt, coupling_drift_phi, coupling_time, dense_sigma,
                     keep_apart_at_t0, point_gaps, segment_at, with_scaled_sigma)


def linear(a=-1.0, c=0.5, s0=1.0):
    return builtin_system("linear_additive", {"a": a, "c": c, "s0": s0})


def sine(a=-1.0, c=0.2, s0=0.1):
    return builtin_system("sine_multiplicative", {"a": a, "c": c, "s0": s0})


def std_setup(m=400, T=2.0):
    grid = GridSpec(1.0, T, m)
    xi = constant_segment(1.0, 1.0, m)
    eta = constant_segment(0.0, 1.0, m)
    return grid, xi, eta


def test_schedule_validation():
    GammaSchedule(theta=1.0, k4=-2.0, t0=1.0)
    with pytest.raises(ValueError):
        GammaSchedule(theta=0.0, k4=0.0, t0=1.0)
    with pytest.raises(ValueError):
        GammaSchedule(theta=2.0, k4=0.0, t0=1.0)
    with pytest.raises(ValueError):
        GammaSchedule(theta=1.0, k4=0.0, t0=0.0)
    with pytest.raises(ValueError):
        GammaSchedule(theta=1.0, k4=math.nan, t0=1.0)


def test_gamma_closed_form_and_domain():
    s = GammaSchedule(theta=1.0, k4=-2.0, t0=1.0)
    t = 0.25
    want = (1.0 / -2.0) * (1.0 - math.exp((t - 1.0) * -2.0))
    assert gamma(t, s) == pytest.approx(want)
    assert gamma(0.999999, s) < 1e-5
    with pytest.raises(ValueError):
        gamma(-0.01, s)
    with pytest.raises(ValueError):
        gamma(1.0, s)
    arr = gamma(np.array([0.0, 0.5]), s)
    assert arr.shape == (2,)
    assert (arr > 0).all()


def test_gamma_limit_branch_is_linear_ramp():
    s = GammaSchedule(theta=0.7, k4=0.0, t0=2.0)
    assert s.near_limit
    assert gamma(0.5, s) == pytest.approx((2.0 - 0.7) * 1.5)
    # tiny k4 agrees with the ramp to high accuracy
    s2 = GammaSchedule(theta=0.7, k4=1e-9, t0=2.0)
    assert gamma(0.5, s2) == pytest.approx(gamma(0.5, s), rel=1e-8)


def test_gamma_tiny_k4_reference_point():
    s = GammaSchedule(theta=1.0, k4=1e-12, t0=1.0)
    assert s.near_limit
    assert gamma(0.5, s) == pytest.approx(0.5, rel=1e-12)
    s4 = GammaSchedule(theta=1.0, k4=1e-4, t0=1.0)
    assert not s4.near_limit
    assert gamma(0.5, s4) == pytest.approx(0.5, rel=1e-4)


@given(st.floats(0.05, 1.95), st.floats(-5.0, 5.0), st.floats(0.01, 0.95))
@settings(max_examples=200, deadline=None)
def test_gamma_differential_identity(theta, k4, frac):
    """Central difference check of 2 + gamma' - k4 gamma = theta."""
    t0 = 1.3
    s = GammaSchedule(theta=theta, k4=k4, t0=t0)
    t = frac * t0
    eps = 1e-6
    if t - eps < 0 or t + eps >= t0:
        return
    dg = (gamma(t + eps, s) - gamma(t - eps, s)) / (2 * eps)
    assert 2.0 + dg - k4 * gamma(t, s) == pytest.approx(theta, abs=1e-6)


@pytest.mark.parametrize("theta,k4", [(1.0, -2.0), (0.5, 3.0), (1.5, -0.3),
                                      (1.0, 0.0), (0.9, 1e-9)])
def test_inv_gamma_integral_vs_quadrature(theta, k4):
    s = GammaSchedule(theta=theta, k4=k4, t0=1.0)
    for ta, tb in [(0.0, 0.5), (0.1, 0.9), (0.5, 0.99), (0.3, 0.3)]:
        oracle, err = quad(lambda u: 1.0 / gamma(u, s), ta, tb, limit=200)
        got = inv_gamma_integral(ta, tb, s)
        assert got == pytest.approx(oracle, rel=1e-8, abs=max(1e-10, 2 * err))


def test_inv_gamma_integral_errors():
    s = GammaSchedule(theta=1.0, k4=-2.0, t0=1.0)
    with pytest.raises(ValueError):
        inv_gamma_integral(0.5, 0.4, s)
    with pytest.raises(ValueError):
        inv_gamma_integral(-0.1, 0.5, s)
    with pytest.raises(ValueError):
        inv_gamma_integral(0.0, 1.0, s)  # diverges at the deadline


def test_long_deadline_on_a_contracting_system():
    # K4 = -2 and t0 = 360: gamma and e^{K4 (t - t0)} - 1 exceed the float
    # range far before t0, where gamma is inf and the forcing vanishes
    sched = GammaSchedule(theta=1.0, k4=-2.0, t0=360.0)
    assert gamma(0.0, sched) == math.inf
    assert 0.0 <= inv_gamma_integral(0.0, 1.0, sched) < 1e-300
    grid = GridSpec(1.0, 402.0, 10)
    xi, eta = constant_segment(1.0, 1.0, 10), constant_segment(0.0, 1.0, 10)
    for measure in ("Q", "P"):
        traj = simulate_coupled(linear(), xi, eta, grid, 360.0, measure)
        assert traj.merged
        assert np.isfinite(traj.log_weight_cum).all()


def test_contraction_factors_structure():
    s = GammaSchedule(theta=1.0, k4=-2.0, t0=1.0)
    h = 0.125
    alphas = contraction_factors(s, h, 8)
    assert alphas.shape == (8,)
    assert alphas[-1] == 0.0
    assert ((alphas[:-1] > 0) & (alphas[:-1] < 1)).all()
    for k in range(7):
        want = math.exp(-inv_gamma_integral(k * h, (k + 1) * h, s))
        assert alphas[k] == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        contraction_factors(s, h, 0)


def test_q_reference_copy_is_the_autonomous_path():
    # under Q the reference copy Y is driven by the plain Euler recursion
    # from eta with the same noise, so it reproduces simulate_path bitwise
    co = linear()
    grid, xi, eta = std_setup(m=100)
    traj = simulate_coupled(co, xi, eta, grid, 1.0, "Q", seed=21, path_index=5)
    ref = simulate_path(co, eta, grid, seed=21, path_index=5)
    np.testing.assert_array_equal(traj.y_values, ref.values)


def test_p_forced_copy_is_the_autonomous_path():
    co = sine()
    grid, xi, eta = std_setup(m=100)
    traj = simulate_coupled(co, xi, eta, grid, 1.0, "P", seed=8, path_index=2)
    ref = simulate_path(co, xi, grid, seed=8, path_index=2)
    np.testing.assert_array_equal(traj.x_values, ref.values)


def test_q_marginal_statistics():
    # mean/variance of Y(T) under Q match fresh simulations from eta
    co = linear()
    grid, xi, eta = std_setup(m=25)
    n = 1500
    ys = np.empty(n)
    xs = np.empty(n)
    for j in range(n):
        t = simulate_coupled(co, xi, eta, grid, 1.0, "Q", seed=33, path_index=j)
        ys[j] = t.y_values[-1, 0]
    for j in range(n):
        xs[j] = simulate_path(co, eta, grid, seed=77, path_index=j).endpoint()[0]
    se_mean = math.hypot(ys.std() / math.sqrt(n), xs.std() / math.sqrt(n))
    assert abs(ys.mean() - xs.mean()) < 4 * se_mean
    # variances agree loosely (4 SE of the variance estimate)
    se_var = math.sqrt(2.0 / n) * max(ys.var(), xs.var())
    assert abs(ys.var() - xs.var()) < 4 * math.sqrt(2) * se_var


@pytest.mark.parametrize("measure", ["Q", "P"],
                         ids=["simulate_coupled_Q", "simulate_coupled_P"])
@pytest.mark.parametrize("theta", [0.5, 1.0, 1.5])
def test_pairs_merge_bitwise_at_deadline(measure, theta):
    co = linear()
    grid, xi, eta = std_setup(m=80)
    traj = simulate_coupled(co, xi, eta, grid, 1.0, measure, theta=theta, seed=13)
    assert traj.merged
    k0 = grid.m + grid.index_of(1.0)
    assert np.array_equal(traj.x_values[k0:], traj.y_values[k0:])
    # strictly positive gap right up to the deadline
    assert (point_gaps(traj)[grid.m:k0] > 0).all()


def test_multiplicative_pairs_merge_too():
    co = sine()
    grid, xi, eta = std_setup(m=80)
    for measure in ("Q", "P"):
        traj = simulate_coupled(co, xi, eta, grid, 1.0, measure, seed=3)
        assert traj.merged
        k0 = grid.m + grid.index_of(1.0)
        assert np.array_equal(traj.x_values[k0:], traj.y_values[k0:])


def test_coupling_time_reads_the_deadline():
    co = linear()
    grid, xi, eta = std_setup(m=80)
    traj = simulate_coupled(co, xi, eta, grid, 1.0, "Q", seed=13)
    assert coupling_time(traj, 0.0) == pytest.approx(1.0)
    # a loose tolerance is hit earlier
    assert coupling_time(traj, 0.5) < 1.0
    with pytest.raises(ValueError):
        coupling_time(traj, -1e-3)


def test_identical_starts_stay_identical():
    co = sine()
    grid, xi, _ = std_setup(m=60)
    for measure in ("Q", "P"):
        traj = simulate_coupled(co, xi, xi, grid, 1.0, measure, seed=5)
        assert np.array_equal(traj.x_values, traj.y_values)
        np.testing.assert_array_equal(traj.phi_sq_cum, 0.0)
        np.testing.assert_array_equal(traj.log_weight_cum, 0.0)
        assert coupling_time(traj, 0.0) == 0.0


def test_phi_vanishes_once_segments_merge():
    # phi = 0 from t0 + r0 on: both states and delayed states coincide
    co = linear()
    grid, xi, eta = std_setup(m=60, T=3.0)
    traj = simulate_coupled(co, xi, eta, grid, 1.0, "Q", seed=2)
    k_seg = grid.index_of(2.0)  # t0 + r0
    tail = traj.phi_sq_cum[k_seg:]
    np.testing.assert_allclose(np.diff(tail), 0.0, atol=1e-30)
    # but phi is active between t0 and t0 + r0 (delay gap persists)
    k0 = grid.index_of(1.0)
    assert traj.phi_sq_cum[k_seg] > traj.phi_sq_cum[k0]


def test_cumulatives_shapes_and_monotonicity():
    co = linear()
    grid, xi, eta = std_setup(m=50)
    traj = simulate_coupled(co, xi, eta, grid, 1.0, "Q", seed=1)
    assert traj.phi_sq_cum.shape == (grid.n_T + 1,)
    assert traj.log_weight_cum.shape == (grid.n_T + 1,)
    assert traj.phi_sq_cum[0] == 0.0
    assert traj.log_weight_cum[0] == 0.0
    assert (np.diff(traj.phi_sq_cum) >= 0).all()


def test_coupling_drift_phi_pointwise():
    co = linear()
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    seg_x = constant_segment(1.0, 1.0, 10)
    seg_y = constant_segment(0.0, 1.0, 10)
    x = np.array([1.0])
    y = np.array([0.0])
    got = coupling_drift_phi(0.0, x, y, seg_x, seg_y, sched, co)
    # b diff: 0.5*(0-1) = -0.5; gap term: (1-0)/gamma(0)
    want = -0.5 - 1.0 / gamma(0.0, sched)
    assert got[0] == pytest.approx(want)
    # past the deadline only the delay part remains
    got2 = coupling_drift_phi(1.5, x, y, seg_x, seg_y, sched, co)
    assert got2[0] == pytest.approx(-0.5)


@pytest.mark.parametrize("measure", ["Q", "P"],
                         ids=["simulate_coupled_Q", "simulate_coupled_P"])
def test_phi_sq_steps_match_scalar_oracle_along_the_path(measure):
    co = sine()
    grid, xi, eta = std_setup(m=40)
    traj = simulate_coupled(co, xi, eta, grid, 1.0, measure, seed=4)
    want = []
    for k in range(grid.n_T):
        t = k * grid.h
        phi = coupling_drift_phi(t, traj.x_values[grid.m + k], traj.y_values[grid.m + k],
                                 segment_at(traj.x_values, grid, t),
                                 segment_at(traj.y_values, grid, t),
                                 traj.sched, co)
        want.append((phi * phi).sum() * grid.h)
    # differencing the running integral costs a few ulps of its final value
    tol = 4 * np.finfo(float).eps * traj.phi_sq_cum[-1]
    np.testing.assert_allclose(np.diff(traj.phi_sq_cum), want, rtol=0, atol=tol)
    assert max(want) > 0


def test_gap_over_gamma_integral_finite_and_h_stable():
    from harnack_lab.estimators import estimate_exp_functional

    co = linear()
    vals = {}
    for m in (100, 200):
        grid = GridSpec(1.0, 2.0, m)
        xi = constant_segment(1.0, 1.0, m)
        eta = constant_segment(0.0, 1.0, m)
        sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
        est = estimate_exp_functional(co, xi, eta, sched, grid, lam=0.05,
                                      n=4, seed=0,
                                      integrand="gap_over_gamma_sq",
                                      t_upper=1.0)
        assert math.isfinite(est.mean)
        vals[m] = math.log(est.mean) / 0.05  # back out the integral
    assert vals[100] == pytest.approx(vals[200], rel=0.05)


def test_unmergeable_tolerance_counts_paths(monkeypatch):
    # a last contraction factor of 1e-12 instead of 0 leaves the copies a
    # hair apart at the deadline; the merge check is an equality, so no
    # gap is small enough and the pair reports unmerged
    keep_apart_at_t0(monkeypatch, last=1e-12)
    co = linear()
    grid, xi, eta = std_setup(m=50)
    traj = simulate_coupled(co, xi, eta, grid, 1.0, "Q", seed=4)
    assert not traj.merged
    # the states still meet to rounding at the deadline
    k0 = grid.m + grid.index_of(1.0)
    assert 0 < point_gaps(traj)[k0] <= 1e-12


def test_weight_mean_small_sample():
    co = linear()
    grid, xi, eta = std_setup(m=100)
    n = 400
    w = np.empty(n)
    for j in range(n):
        t = simulate_coupled(co, xi, eta, grid, 1.0, "P", seed=55, path_index=j)
        w[j] = math.exp(t.log_weight_cum[-1])
    se = w.std(ddof=1) / math.sqrt(n)
    assert abs(w.mean() - 1.0) < 4 * se


def test_coupled_input_validation():
    co = linear()
    grid, xi, eta = std_setup(m=40)
    bad_eta = constant_segment(0.0, 1.0, 39)
    with pytest.raises(ValueError):
        simulate_coupled(co, xi, bad_eta, grid, 1.0, "Q")
    with pytest.raises(ValueError):
        simulate_coupled(co, xi, eta, grid, 2.5, "Q")  # t0 beyond horizon
    with pytest.raises(ValueError):
        simulate_coupled(co, xi, eta, grid, 0.0, "Q")
    with pytest.raises(ValueError):
        simulate_coupled(co, xi, eta, grid, 1.0, "Q", theta=2.0)
    with pytest.raises(ValueError):
        simulate_coupled(co, xi, eta, grid, 1.0 + grid.h / 3, "Q")  # off grid
    with pytest.raises(ValueError, match="measure must be 'Q' or 'P'"):
        simulate_coupled(co, xi, eta, grid, 1.0, "R")


@pytest.mark.parametrize("bad", ["dim", "past-T", "before-t0"])
def test_coupled_batch_checks_its_noise_shape(bad):
    # dim-1 noise would broadcast over both coordinates of a 2-d pair, and
    # noise past T would step past the horizon; fewer than n0 steps would
    # leave the merge flags unset
    co = builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0}, dim=2)
    grid = GridSpec(1.0, 2.0, 10)
    xi, eta = np.ones((11, 2)), np.zeros((11, 2))
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    dim, k = {"dim": (1, grid.n_T), "past-T": (2, grid.n_T + 7),
              "before-t0": (2, grid.index_of(1.0) - 1)}[bad]
    noise = NoiseBlocks(NoiseStream(seed=0, h=grid.h, dim=dim), 0, 4, k)
    for measure in ("Q", "P"):
        with pytest.raises(ValueError, match=r"noise must have shape \(k, B, d\)"):
            _coupled_batch(co, xi, eta, grid, sched, noise, measure)


# ------------------------------------------------------- diagonal diffusion

def dense_twin(co):
    """The same system with its diagonal sigma as dense matrices."""
    return dataclasses.replace(co, sigma=dense_sigma(co.sigma))


def kernel_outputs(co, m=20, b=37):
    grid = GridSpec(1.0, 2.0, m)
    d = co.dim
    xi = np.linspace(1.0, -0.5, (m + 1) * d).reshape(m + 1, d)
    eta = np.zeros((m + 1, d))
    noise = NoiseBlocks(NoiseStream(seed=9, h=grid.h, dim=d), 0, b, grid.n_T)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    rec = _Recorder(grid.m + grid.n_T + 1)
    _simulate_batch(co, (xi,), grid, noise, (rec,))
    out = {"sim": rec.full[0]}
    for measure in ("Q", "P"):
        rec = _Recorder(grid.m + grid.n_T + 1)
        sums = SumsAt(grid.m, grid.n_T // 3)
        cum = {"phi_sq_cum": np.zeros((grid.n_T + 1, b)),
               "logw_cum": np.zeros((grid.n_T + 1, b))}

        def running(i, pair, m=grid.m):
            if i > m:
                cum["phi_sq_cum"][i - m] = pair.int_phi_sq
                cum["logw_cum"][i - m] = pair.logw

        pair = _coupled_batch(co, xi, eta, grid, sched, noise, measure,
                              (rec, sums, running))
        res = {"log_weight": pair.logw, "phi_sq_upper": sums.phi_sq,
               "gap_gamma_sq": sums.gap_gamma_sq, "merged": pair.merged,
               "full_x": rec.full[0], "full_y": rec.full[1], **cum}
        out.update({f"{measure}.{k}": v for k, v in res.items()})
    return out


DIAGONAL_SYSTEMS = [
    ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 0.7}, 1),
    ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 0.7}, 3),
    ("ou_nodelay", {"a": 1.0, "s0": 0.3}, 1),
    ("ou_nodelay", {"a": 1.0, "s0": 0.3}, 3),
    ("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1}, 1),
]


@pytest.mark.parametrize("name,params,dim", DIAGONAL_SYSTEMS)
@pytest.mark.parametrize("scale", [1.0, 2.0, 3.0])
def test_diagonal_diffusion_matches_dense_twin(name, params, dim, scale):
    co = builtin_system(name, params, dim=dim)
    dense = dense_twin(co)
    if scale != 1.0:
        co, dense = with_scaled_sigma(co, scale), with_scaled_sigma(dense, scale)
    x = np.zeros((2, dim))
    assert isinstance(co.diffusion(0.0, x), _DiagDiffusion)
    assert isinstance(dense.diffusion(0.0, x), _DenseDiffusion)
    got, want = kernel_outputs(co), kernel_outputs(dense)
    assert got.keys() == want.keys()
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def test_zero_diffusion_steps_without_inverse(monkeypatch):
    # scale 0 zeroes the diagonal; uncoupled stepping never inverts it, and
    # coupled stepping reports it singular like the dense twin does
    co = with_scaled_sigma(linear(), 0.0)
    dense = dense_twin(co)

    def no_inverse(self, vec):
        raise AssertionError("uncoupled stepping asked for sigma^-1")

    grid = GridSpec(1.0, 2.0, 20)
    xi = constant_segment(1.0, 1.0, 20)
    noise = NoiseBlocks(NoiseStream(seed=1, h=grid.h, dim=1), 0, 5, grid.n_T)

    def history(c):
        rec = _Recorder(grid.m + grid.n_T + 1)
        _simulate_batch(c, (xi.values,), grid, noise, (rec,))
        return rec.full[0]

    with monkeypatch.context() as mp:
        mp.setattr(_DiagDiffusion, "solve", no_inverse)
        got = history(co)
    assert np.array_equal(got, history(dense))
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    for c in (co, dense):
        with pytest.raises(ValueError, match="singular"):
            _coupled_batch(c, xi.values, np.zeros_like(xi.values), grid, sched,
                           noise, "Q")
