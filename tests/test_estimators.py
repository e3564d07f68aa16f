import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harnack_lab import _parallel, estimators
from harnack_lab.bounds import GapPair, bound_entropy_with_tail, bound_seg_gap_moment
from harnack_lab._parallel import CHUNK
from harnack_lab.coefficients import AssumptionConstants, CoefficientSet, builtin_system
from harnack_lab.coupling import GammaSchedule
from harnack_lab.estimators import (LOOK, MCEstimate, _checked_exp,
                                    _effective_sample_size, _log_of, _log_of_mean, _looks,
                                    _paired_verdict, _power_of, _PT_f,
                                    _reduce, _reduce_paired, _SegGapIntegral,
                                    check_log_harnack,
                                    check_power_harnack, estimate_PT_f,
                                    estimate_entropy_Q,
                                    estimate_exp_functional,
                                    estimate_martingale_mean, make_verdict,
                                    sample_stationary_segments)
from harnack_lab.estimators import TestFunction as ObsFn
from harnack_lab.estimators import test_function as catalog_fn
from harnack_lab.integrator import NoiseStream, _Ring, simulate_path
from harnack_lab.segment_paths import GridSpec, constant_segment
from oracles import (increments_batch, keep_apart_at_t0, merged_fraction,
                     seg_gap_integral_window_max, stationary_segments_tiled, with_scaled_sigma)


def linear(a=-1.0, c=0.5, s0=1.0):
    return builtin_system("linear_additive", {"a": a, "c": c, "s0": s0})


def sine(a=-1.0, c=0.2, s0=0.1):
    return builtin_system("sine_multiplicative", {"a": a, "c": c, "s0": s0})


def setup(m=100, T=2.0):
    grid = GridSpec(1.0, T, m)
    xi = constant_segment(1.0, 1.0, m)
    eta = constant_segment(0.0, 1.0, m)
    return grid, xi, eta


def sched_for(co, t0=1.0, theta=1.0):
    return GammaSchedule(theta=theta, k4=co.constants.k4, t0=t0)


ONE = ObsFn(name="one", fn=lambda segs: np.ones(segs.shape[0]),
                   lower=1.0, upper=1.0)


# -------------------------------------------------------------- functions

def test_function_catalog_quad_cap():
    f = catalog_fn("quad_cap", 100.0)
    segs = np.zeros((3, 5, 1))
    segs[0, -1, 0] = 2.0
    segs[1, -1, 0] = -30.0
    np.testing.assert_allclose(f(segs), [5.0, 101.0, 1.0])
    assert f.lower == 1.0 and f.upper == 101.0


def test_function_catalog_exp_cap():
    f = catalog_fn("exp_cap", 3.0)
    segs = np.zeros((2, 4, 1))
    segs[0, 1, 0] = 2.0
    segs[1, 2, 0] = -9.0
    np.testing.assert_allclose(f(segs), [math.exp(2.0), math.exp(3.0)])
    with pytest.raises(ValueError):
        catalog_fn("exp_cap", 1e4)
    with pytest.raises(ValueError):
        catalog_fn("quad_cap", 0.0)
    with pytest.raises(ValueError):
        catalog_fn("mystery")


def test_function_range_enforced():
    bad = ObsFn(name="escapes", fn=lambda segs: np.full(segs.shape[0], 7.0),
                       lower=1.0, upper=2.0)
    with pytest.raises(ValueError, match="range"):
        bad(np.zeros((2, 3, 1)))
    nonfinite = ObsFn(name="nan", lower=0.0, upper=1.0,
                             fn=lambda segs: np.full(segs.shape[0], np.nan))
    with pytest.raises(FloatingPointError):
        nonfinite(np.zeros((2, 3, 1)))


# -------------------------------------------------------------- P_T f

def test_pt_f_constant_function():
    co = linear()
    grid, xi, _ = setup(m=20, T=1.0)
    est = estimate_PT_f(co, xi, ONE, grid, n=64, seed=0)
    assert est.mean == 1.0
    assert est.std_error == 0.0
    assert est.n == 64


def test_pt_f_ou_second_moment():
    co = builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0})
    grid = GridSpec(1.0, 1.0, 200)
    xi = constant_segment(1.0, 1.0, 200)
    f = ObsFn(name="endpoint_sq",
                     fn=lambda segs: np.minimum((segs[:, -1, :] ** 2).sum(axis=1), 1e6),
                     lower=0.0, upper=1e6)
    est = estimate_PT_f(co, xi, f, grid, n=100000, seed=7)
    want = math.exp(-2.0) + (1.0 - math.exp(-2.0)) / 2.0
    assert abs(est.mean - want) < 4 * est.std_error + 3e-3  # small h bias allowance
    assert est.std_error < 0.01


def test_pt_f_deterministic_ode():
    co = with_scaled_sigma(linear(a=-1.0, c=0.0), 0.0)
    grid = GridSpec(1.0, 1.0, 1000)
    xi = constant_segment(1.0, 1.0, 1000)
    f = ObsFn(name="endpoint", fn=lambda segs: segs[:, -1, 0],
                     lower=-10.0, upper=10.0)
    est = estimate_PT_f(co, xi, f, grid, n=2, seed=0)
    assert est.mean == pytest.approx(math.exp(-1.0), abs=1e-3)
    assert est.std_error == 0.0


def test_pt_f_se_scales_with_sqrt_n():
    co = linear()
    grid, xi, _ = setup(m=50, T=1.0)
    f = catalog_fn("quad_cap", 100.0)
    a = estimate_PT_f(co, xi, f, grid, n=2000, seed=3)
    b = estimate_PT_f(co, xi, f, grid, n=8000, seed=3)
    assert a.std_error / b.std_error == pytest.approx(2.0, rel=0.2)


@settings(max_examples=6, deadline=None)
@given(shift=st.floats(1e6, 1e9), seed=st.integers(0, 1000))
def test_pt_f_se_unchanged_by_a_large_shift_of_f(shift, seed):
    # three chunks, so the cross-chunk merge runs too
    co = linear()
    grid, xi, _ = setup(m=5, T=1.0)
    f = catalog_fn("quad_cap", 100.0)
    shifted = ObsFn(name="shifted", fn=lambda segs: f(segs) + shift,
                    lower=f.lower + shift, upper=f.upper + shift)
    a = estimate_PT_f(co, xi, f, grid, n=16500, seed=seed)
    b = estimate_PT_f(co, xi, shifted, grid, n=16500, seed=seed)
    # shifting rounds each value by up to shift * eps, against a spread of f near 1
    assert b.std_error == pytest.approx(a.std_error, rel=1e-5)


QUAD = catalog_fn("quad_cap", 100.0)

# every chunked entry point, called as (coeffs, xi, eta, grid, n), with the
# chunk width of its plan: CHUNK state columns, one copy per start
ENTRY_POINTS = {
    "estimate_PT_f": (CHUNK, lambda co, xi, eta, grid, n: estimate_PT_f(
        co, xi, QUAD, grid, n, seed=3)),
    "estimate_entropy_Q": (CHUNK // 2, lambda co, xi, eta, grid, n: estimate_entropy_Q(
        co, xi, eta, sched_for(co), grid, n, seed=3)),
    "estimate_exp_functional": (CHUNK // 2, lambda co, xi, eta, grid, n: estimate_exp_functional(
        co, xi, eta, sched_for(co), grid, 0.1, n, seed=3, integrand="seg_gap_sq")),
    "estimate_martingale_mean": (CHUNK // 2, lambda co, xi, eta, grid, n: estimate_martingale_mean(
        co, xi, eta, sched_for(co), grid, n, seed=3)),
    "check_log_harnack": (CHUNK // 2, lambda co, xi, eta, grid, n: check_log_harnack(
        co, xi, eta, QUAD, grid, n, seed=3)),
    "check_power_harnack": (CHUNK // 2, lambda co, xi, eta, grid, n: check_power_harnack(
        co, xi, eta, QUAD, 2.0, grid, n, seed=3)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_share_one_chunk_plan(entry, monkeypatch):
    width, run = ENTRY_POINTS[entry]
    co = linear()
    grid, xi, eta = setup(m=5)
    with pytest.raises(ValueError, match=r"^need n >= 2 paths$"):
        run(co, xi, eta, grid, 1)
    # same m, another r0: the history would be read at the wrong times
    with pytest.raises(ValueError, match="time grid"):
        run(co, constant_segment(1.0, 0.5, 5), constant_segment(0.0, 0.5, 5), grid, 4)
    # same r0, another m: 19 steps per delay window on a grid of 20
    with pytest.raises(ValueError, match="time grid"):
        run(co, constant_segment(1.0, 1.0, 19), constant_segment(0.0, 1.0, 19),
            setup(m=20)[0], 4)

    # n spans two chunks of pairs
    n = CHUNK // 2 + 100
    plain = run(co, xi, eta, grid, n)
    real, calls = estimators.map_chunks, []

    def recorder(fn, n_total, threads=None, chunk=CHUNK, until=None):
        calls.append((n_total, chunk))
        return real(fn, n_total, threads, chunk, until)

    monkeypatch.setattr(estimators, "map_chunks", recorder)
    # repr, so that NaN diagnostics compare equal
    assert repr(run(co, xi, eta, grid, n)) == repr(plain)
    assert calls == [(n, width)]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_estimates_do_not_depend_on_the_chunk_plan(entry, monkeypatch):
    # every estimate is reduced from its per-path values, so neither the
    # chunk width nor the worker count reaches a bit of it: at CHUNK = 64,
    # n = 300 runs as 10 chunks of pairs, at 256 as 3, at 8192 as one
    _, run = ENTRY_POINTS[entry]
    co = linear()
    grid, xi, eta = setup(m=5)
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    real, seen = estimators.map_chunks, set()
    for chunk in (CHUNK, 256, 64):
        monkeypatch.setattr(estimators, "CHUNK", chunk)
        for threads in (1, 2):
            monkeypatch.setattr(estimators, "map_chunks",
                                lambda fn, n, _, width, until, k=threads:
                                real(fn, n, k, width, until))
            # repr, so that NaN diagnostics compare equal
            seen.add(repr(run(co, xi, eta, grid, 300)))
    assert len(seen) == 1


# -------------------------------------------------------------- reduction

def exact_moments(v):
    """The mean and the sum of squared deviations of v in exact rationals."""
    exact = [Fraction(float(x)) for x in v]
    mean = sum(exact) / len(exact)
    return mean, sum((x - mean) ** 2 for x in exact)


@st.composite
def path_values(draw):
    n = draw(st.integers(2, 40))
    v = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=n, max_size=n)))
    return v + draw(st.sampled_from([0.0, 1e8]))


@settings(max_examples=300, deadline=None)
@given(v=path_values())
@example(v=np.array([1.0, 2.0]))
# values that share a large offset: a one-pass sum(v^2) - n mean^2 would
# lose every digit of the variance
@example(v=np.array([1e8, 1e8 + 1.0, 1e8 + 3.0]))
@example(v=1e8 + np.array([0.0, 0.0, 1.0]))
# deviations whose squares underflow, and a mean that rounds to a value
@example(v=np.array([0.0, 6.16087302e-216]))
@example(v=np.array([0.0, 5e-324]))
def test_reduce_is_the_two_pass_estimate(v):
    # the mean to the rounding of the fsum and the division, and M2 to a
    # few rounding errors of itself plus the n delta^2 that a mean off by
    # delta adds
    est = _reduce(v, 7)
    n, ulp = v.size, float(np.spacing(np.abs(v).max()))
    mean, m2 = exact_moments(v)
    assert (est.n, est.seed) == (n, 7)
    assert abs(Fraction(est.mean) - mean) <= 2 * ulp
    got = Fraction(est.std_error) ** 2 * n * (n - 1)
    # the bound in exact rationals: as a float it would underflow to 0
    assert abs(got - m2) <= Fraction(8e-16) * m2 + 5 * n * Fraction(ulp) ** 2
    assert est.diagnostics == {"min": v.min(), "max": v.max(), "failures": 0}


@pytest.mark.parametrize("lead", [1.0, math.nan], ids=["finite-first", "nan-first"])
def test_reduce_range_propagates_nan_and_the_worst_case_skips_it(lead):
    # the range is NaN if any value is, as np.min and np.max; the worst case
    # skips NaN, also on a NaN first path
    nan = math.nan
    values, top = _checked_exp(np.array([lead, nan, 5.0, 2.0, nan, 3.0]), "", "exponent")
    blown = 2 + math.isnan(lead)
    est = _reduce(values, 0, {"unmerged": 0, "nonfinite": blown, "max_exponent": top})
    assert repr(est.diagnostics) == repr({"min": nan, "max": nan, "unmerged": 0,
                                          "nonfinite": blown, "max_exponent": 5.0,
                                          "failures": blown})


def test_reduce_sums_that_fsum_refuses_read_inf_or_nan():
    # squares whose finite sum overflows, and products of both signs that
    # overflow: the SE reads inf and the covariance nan, as numpy's sum gives
    with np.errstate(over="ignore", invalid="ignore"):
        assert _reduce(np.array([1.2e154, -1.2e154]), 0).std_error == math.inf
        _, _, cov = _reduce_paired(np.array([1e200, -1e200, 0.0]),
                                   np.array([1e200, 1e200, -2e200]), 0)
    assert math.isnan(cov)


@settings(max_examples=300, deadline=None)
@given(x=path_values(), slope=st.floats(-3.0, 3.0))
@example(x=1e8 + np.array([0.0, 0.0, 1.0]), slope=1.0)
def test_paired_reduce_matches_the_two_pass_covariance(x, slope):
    # each side is its own estimate, and the covariance of the means agrees
    # with the two-pass one; with y = x it is the squared SE
    y = slope * x + np.cos(x)
    ex, ey, cov = _reduce_paired(x, y, 3)
    assert (ex, ey) == (_reduce(x, 3), _reduce(y, 3))
    n = x.size
    ref = ((x - x.mean()) * (y - y.mean())).sum() / (n * (n - 1))
    assert abs(cov - ref) <= 1e-9 * ex.std_error * ey.std_error + 1e-12
    ex, _, var = _reduce_paired(x, x, 3)
    assert var == pytest.approx(ex.std_error ** 2, rel=1e-12, abs=1e-300)


# -------------------------------------------------------------- entropy

def test_entropy_zero_for_equal_starts():
    co = sine()
    grid, xi, _ = setup(m=40)
    est = estimate_entropy_Q(co, xi, xi, sched_for(co), grid, n=32, seed=0)
    assert est.mean == 0.0
    assert est.std_error == 0.0
    assert est.failures == 0


def test_entropy_below_closed_form_bound():
    co = linear()
    grid, xi, eta = setup(m=100)
    est = estimate_entropy_Q(co, xi, eta, sched_for(co), grid, n=1000, seed=5)
    bound = bound_entropy_with_tail(co.constants, 1.0, 1.0,
                                    GapPair.from_segments(xi, eta))
    assert est.mean + 3 * est.std_error <= bound


def test_entropy_se_halves_when_n_quadruples():
    co = sine()
    grid, xi, eta = setup(m=50)
    a = estimate_entropy_Q(co, xi, eta, sched_for(co), grid, n=1000, seed=9)
    b = estimate_entropy_Q(co, xi, eta, sched_for(co), grid, n=4000, seed=9)
    assert a.std_error > 0
    assert a.std_error / b.std_error == pytest.approx(2.0, rel=0.2)


def test_entropy_respects_t_upper():
    co = linear()
    grid, xi, eta = setup(m=100)
    full = estimate_entropy_Q(co, xi, eta, sched_for(co), grid, n=8, seed=1)
    part = estimate_entropy_Q(co, xi, eta, sched_for(co), grid, n=8, seed=1,
                              t_upper=0.5)
    assert 0 < part.mean < full.mean
    with pytest.raises(ValueError):
        estimate_entropy_Q(co, xi, eta, sched_for(co), grid, n=8, seed=1,
                           t_upper=0.123456)


# -------------------------------------------------------------- exp moments

def test_exp_functional_trivial_cases():
    co = sine()
    grid, xi, eta = setup(m=40)
    z = estimate_exp_functional(co, xi, eta, sched_for(co), grid, lam=0.0,
                                n=16, seed=0, integrand="seg_gap_sq")
    assert z.mean == 1.0 and z.std_error == 0.0
    same = estimate_exp_functional(co, xi, xi, sched_for(co), grid, lam=2.0,
                                   n=16, seed=0, integrand="seg_gap_sq")
    assert same.mean == 1.0 and same.std_error == 0.0


def test_exp_functional_seg_gap_vs_lemma_on_linear():
    # K2 = 0 collapses the quadratic term; the bound is exp(2 s lam |gap|^2)
    co = linear()
    grid, xi, eta = setup(m=100)
    lam = 0.125
    est = estimate_exp_functional(co, xi, eta, sched_for(co), grid, lam=lam,
                                  n=64, seed=2, integrand="seg_gap_sq",
                                  t_upper=1.0)
    rhs = bound_seg_gap_moment(co.constants, GapPair.from_segments(xi, eta),
                               lam=lam, s=1.0)
    assert est.mean + 3 * est.std_error <= rhs


class _Pair:
    """Rings fed row by row from full histories, as a coupled run feeds
    its observers."""

    def __init__(self, full_x, full_y, m):
        self.full = (full_x, full_y)
        self.rings = tuple(_Ring(full[: m + 1, 0], full.shape[1]) for full in self.full)

    def feed(self, observer):
        for i in range(len(self.full[0])):
            for ring, full in zip(self.rings, self.full):
                ring.put(i, full[i])
            observer(i, self)


@pytest.mark.parametrize("k_upper", range(13))
def test_seg_gap_integral_matches_brute_force_window_max(k_upper):
    # every k_upper of a 12-step horizon, so the last window start falls on
    # and off the block boundaries of the block length ceil(sqrt(m + 1))
    n_t, b, h = 12, 6, 0.25
    rng = np.random.default_rng(11)

    def check(m, n_t, k_upper, d, bad_rows):
        full_x = rng.normal(size=(m + n_t + 1, b, d))
        full_y = rng.normal(size=(m + n_t + 1, b, d))
        # non-finite gaps must propagate as the rescan propagates them
        full_x[bad_rows[0], 0, 0] = np.nan
        full_x[bad_rows[1], 1, d - 1] = np.inf
        seg_gap = _SegGapIntegral(m, h, k_upper, b)
        _Pair(full_x, full_y, m).feed(seg_gap)
        want = seg_gap_integral_window_max(full_x, full_y, m, h, k_upper)
        assert np.array_equal(seg_gap.seg_gap_sq, want, equal_nan=True), (m, n_t, d)

    for m in (1, 2, 3, 4, 7, 8):
        for d in (1, 3):
            check(m, n_t, k_upper, d, (m, m + 1))
    # blocks of 4, 5, 7 and 21 rows, the last never dividing w = 401, over
    # a horizon of three windows and more, so the max over the full blocks
    # between a window's ends is rebuilt many times; a NaN and an inf row
    # in the second window too
    for m in (15, 24, 48, 400):
        n_t = 3 * (m + 1) + 12
        check(m, n_t, n_t - 12 + k_upper, 3, (m, m + 1))
        check(m, n_t, n_t - 12 + k_upper, 1, (2 * m + 3, 2 * m + 5 + k_upper))


def test_seg_gap_integral_scratch_memory():
    # (K, B) suffix maxima and about (m + 1) / K block rows, K =
    # ceil(sqrt(m + 1)), plus a few rows of temporaries; a (m + 1, B)
    # suffix array, a (k_upper, B) one or a gap history exceeds this
    b, m, k_upper = 1024, 100, 150
    rng = np.random.default_rng(4)
    pair = _Pair(rng.normal(size=(m + k_upper + 1, b, 1)),
                 rng.normal(size=(m + k_upper + 1, b, 1)), m)
    tracemalloc.start()
    try:
        pair.feed(_SegGapIntegral(m, 0.01, k_upper, b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = math.isqrt(m) + 1  # ceil(sqrt(m + 1))
    assert peak <= (2 * k + 12) * b * 8


def test_exp_functional_gap_over_gamma_needs_pre_deadline_cap():
    co = linear()
    grid, xi, eta = setup(m=50)
    est = estimate_exp_functional(co, xi, eta, sched_for(co), grid, lam=0.01,
                                  n=8, seed=0, integrand="gap_over_gamma_sq",
                                  t_upper=1.0)
    assert math.isfinite(est.mean) and est.mean >= 1.0
    with pytest.raises(ValueError):
        estimate_exp_functional(co, xi, eta, sched_for(co), grid, lam=0.01,
                                n=8, seed=0, integrand="gap_over_gamma_sq",
                                t_upper=1.5)
    for bad in ("bogus", "phi_sq"):
        with pytest.raises(ValueError, match="gap_over_gamma_sq.*seg_gap_sq"):
            estimate_exp_functional(co, xi, eta, sched_for(co), grid, lam=1.0,
                                    n=8, seed=0, integrand=bad)


def test_exp_functional_gap_over_gamma_cap_on_grid_indices():
    # t0 = 0.3: 0.1 + 0.2 rounds to 0.30000000000000004, on t0's grid index
    co = linear()
    grid = GridSpec(1.0, 2.0, 10)
    xi, eta = constant_segment(1.0, 1.0, 10), constant_segment(0.0, 1.0, 10)
    sched = sched_for(co, t0=0.3)

    def run(t_upper):
        return estimate_exp_functional(co, xi, eta, sched, grid, lam=0.01, n=8, seed=0,
                                       integrand="gap_over_gamma_sq", t_upper=t_upper)

    assert 0.1 + 0.2 > 0.3
    assert run(0.1 + 0.2) == run(0.3)
    with pytest.raises(ValueError, match=r"\[0, t0\]"):
        run(0.4)


def test_exp_functional_overflow_reports_path():
    co = linear()
    grid, xi, eta = setup(m=50)
    with pytest.raises(OverflowError, match="path"):
        estimate_exp_functional(co, xi, eta, sched_for(co), grid, lam=1000.0,
                                n=8, seed=0, integrand="seg_gap_sq")


def test_nan_path_does_not_hide_exponent_overflow():
    # unit sigma and zero drift, until a state passes 1.5 and its drift turns
    # NaN; without the NaN the same run overflows at path 8 (exponent 1000:
    # the gap contracts as gamma does, so |X - Y| / gamma is 1 up to t0)
    co = CoefficientSet(
        dim=1, sigma=lambda t, x: np.ones(x.shape),
        z_drift=lambda t, x: np.where(x > 1.5, np.nan, 0.0),
        b_delay=lambda t, seg: np.zeros((seg.shape[0], 1)),
        constants=AssumptionConstants(k1=0.0, k2=0.0, k3=1.0, k4=0.0))
    grid = GridSpec(0.5, 2.0, 5)
    xi, eta = constant_segment(1.0, 0.5, 5), constant_segment(0.0, 0.5, 5)
    sched = GammaSchedule(theta=1.0, k4=0.0, t0=1.0)
    with pytest.raises(OverflowError, match="path 8, exponent 1000"):
        estimate_exp_functional(co, xi, eta, sched, grid, lam=1000.0, n=64, seed=0,
                                integrand="gap_over_gamma_sq", t_upper=1.0, threads=1)


def test_checked_exp_skips_nan_entries():
    nan, inf = math.nan, math.inf
    values, top = _checked_exp(np.array([nan, 3.0, nan, 5.0]), "", "exponent")
    assert top == 5.0
    assert np.isnan(values[0]) and values[3] == math.exp(5.0)
    with pytest.raises(OverflowError, match="path 2, exponent 800"):
        _checked_exp(np.array([1.0, nan, 800.0]), "", "exponent")
    with pytest.raises(OverflowError, match="weight overflow: path 1, log-weight inf"):
        _checked_exp(np.array([nan, inf]), "weight overflow: ", "log-weight")
    # nothing but NaN keeps the diagnostic nan
    values, top = _checked_exp(np.full(3, nan), "", "exponent")
    assert math.isnan(top) and np.isnan(values).all()


def test_exp_functional_negative_lam_rejected():
    co = linear()
    grid, xi, eta = setup(m=50)
    # so are nan, which gave mean nan with no failure counted, and inf
    for lam in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="lam"):
            estimate_exp_functional(co, xi, eta, sched_for(co), grid, lam=lam,
                                    n=8, seed=0, integrand="seg_gap_sq")


# -------------------------------------------------------------- martingale

@pytest.mark.parametrize("name,params", [
    ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0}),
    ("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1}),
    ("ou_nodelay", {"a": 1.0, "s0": 1.0}),
])
def test_weight_mean_is_one(name, params):
    co = builtin_system(name, params)
    grid, xi, eta = setup(m=100)
    est = estimate_martingale_mean(co, xi, eta, sched_for(co), grid,
                                   n=20000, seed=17)
    assert abs(est.mean - 1.0) <= 4 * est.std_error
    assert est.failures == 0
    assert merged_fraction(est) == 1.0
    assert "max_log_weight" in est.diagnostics


def test_weight_mean_ess_constant_weights():
    # xi == eta: the copies never part, phi is 0 and every weight is 1
    co = sine()
    grid, xi, _ = setup(m=20)
    est = estimate_martingale_mean(co, xi, xi, sched_for(co), grid, n=300, seed=2)
    assert est.std_error == 0.0
    assert est.diagnostics["ess"] == 300


def test_weight_mean_ess_dominant_weight():
    n = 1000
    w = np.ones(n)
    w[17] = 1e8
    est = _reduce(w, 0)
    want = w.sum() ** 2 / (w * w).sum()
    assert _effective_sample_size(est) == pytest.approx(want, rel=1e-9)
    assert 1.0 < _effective_sample_size(est) < 1.001
    flat = _reduce(np.full(n, 0.3), 0)
    assert _effective_sample_size(flat) == pytest.approx(n, rel=1e-12)


def blow_up_system():
    # zero drift while x <= 0, infinite drift once x > 0: a path blows up at
    # the step after its noise sum first turns positive
    return CoefficientSet(
        dim=1,
        sigma=lambda t, x: np.ones((x.shape[0], 1, 1)),
        z_drift=lambda t, x: np.where(x > 0, np.inf, 0.0),
        b_delay=lambda t, seg: np.zeros((seg.shape[0], 1)),
        constants=AssumptionConstants(k1=0.0, k2=0.0, k3=1.0, k4=0.0))


@pytest.mark.parametrize("contraction", ["exact", "apart"])
def test_failures_split_unmerged_and_nonfinite(monkeypatch, contraction):
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    co = blow_up_system()
    grid = GridSpec(1.0, 2.0, 4)
    below, zero = constant_segment(-1.0, 1.0, 4), constant_segment(0.0, 1.0, 4)
    n = CHUNK + 100
    # Y starts at 0 and walks with the noise; X starts below it, and shares
    # its noise and its zero drift, so it stays at or below Y. A pair blows
    # up exactly when Y does: when a noise sum before the last step is
    # positive
    walk = np.cumsum(increments_batch(NoiseStream(seed=5, h=grid.h, dim=1), 0, n,
                                      grid.n_T)[:, :, 0], axis=0)
    blown = int((walk[:-1] > 0).any(axis=0).sum())
    assert 0 < blown < n
    # a nonzero last contraction factor leaves every finite pair unmerged
    unmerged = 0
    if contraction == "apart":
        keep_apart_at_t0(monkeypatch)
        unmerged = n - blown
    with np.errstate(all="ignore"):
        ests = [estimate_entropy_Q(co, below, zero, sched_for(co), grid, n=n, seed=5,
                                   threads=threads)
                for threads in (1, 2)]
    for est in ests:
        assert est.diagnostics["nonfinite"] == blown
        assert est.diagnostics["unmerged"] == unmerged
        assert est.failures == blown + unmerged


def test_weight_mean_deterministic_across_threads():
    co = sine()
    grid, xi, eta = setup(m=50)
    a = estimate_martingale_mean(co, xi, eta, sched_for(co), grid, n=20000,
                                 seed=3, threads=1)
    b = estimate_martingale_mean(co, xi, eta, sched_for(co), grid, n=20000,
                                 seed=3, threads=8)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


# -------------------------------------------------------------- verdicts

def mk(mean, se, n=100, seed=0, failures=0):
    return MCEstimate(mean=mean, std_error=se, n=n, seed=seed,
                      diagnostics={"failures": failures})


def test_verdict_rule_bands():
    assert make_verdict("c", mk(1.0, 0.1), 1.2).verdict == "holds"
    assert make_verdict("c", mk(1.25, 0.1), 1.2).verdict == "holds"
    # between 3 and 6 SE of violation: inconclusive
    r = make_verdict("c", mk(1.6, 0.1), 1.2)
    assert r.verdict == "inconclusive"
    assert make_verdict("c", mk(2.0, 0.1), 1.2).verdict == "violated"


def test_verdict_custom_multipliers():
    r = make_verdict("c", mk(1.5, 0.1), 1.2, k_tol=4.0, k_viol=5.0)
    assert r.verdict == "holds"
    r2 = make_verdict("c", mk(1.8, 0.1), 1.2, k_tol=4.0, k_viol=5.0)
    assert r2.verdict == "violated"


def test_verdict_zero_se_degenerate():
    assert make_verdict("c", mk(1.0, 0.0), 2.0).margin_se == math.inf
    assert make_verdict("c", mk(2.0, 0.0), 1.0).margin_se == -math.inf
    assert make_verdict("c", mk(1.0, 0.0), 1.0).margin_se == 0.0
    assert make_verdict("c", mk(1.0, 0.0), 1.0).verdict == "holds"
    # one ulp above the bound is rounding, not a violation
    for x in (1.0, 0.5862266, -3.75e5):
        up = math.nextafter(x, math.inf)
        for se in (0.0, 1e-18):
            r = make_verdict("c", mk(up, se), x)
            assert r.margin_se == 0.0
            assert r.verdict == "holds"


def test_verdict_nan_margin_inconclusive():
    r = make_verdict("c", mk(math.nan, 0.1), 1.0)
    assert r.verdict == "inconclusive"


def test_verdict_failure_fraction_forces_inconclusive():
    r = make_verdict("c", mk(0.5, 0.1), 2.0,
                     failure_fraction=0.002)
    assert r.verdict == "inconclusive"
    ok = make_verdict("c", mk(0.5, 0.1), 2.0,
                      failure_fraction=0.0005)
    assert ok.verdict == "holds"


def test_verdict_two_sided_folds_margin():
    hi = make_verdict("c", mk(0.5, 0.1), 1.0, two_sided=True)
    assert hi.margin_se == pytest.approx(-5.0)
    assert hi.verdict == "inconclusive"
    lo = make_verdict("c", mk(1.5, 0.1), 1.0, two_sided=True)
    assert lo.margin_se == pytest.approx(-5.0)
    near = make_verdict("c", mk(1.01, 0.1), 1.0, two_sided=True)
    assert near.verdict == "holds"


@pytest.mark.parametrize("k_tol,k_viol", [
    (math.nan, 6.0), (3.0, math.nan), (math.inf, math.inf), (3.0, math.inf),
    (0.0, 6.0), (-1.0, 6.0), (4.0, 3.0)])
def test_make_verdict_needs_finite_ordered_thresholds(k_tol, k_viol):
    # with k_viol = nan, a margin of -70 SE read "inconclusive"
    with pytest.raises(ValueError, match="k_tol <= k_viol"):
        make_verdict("c", mk(8.0, 0.1), 1.0, k_tol=k_tol, k_viol=k_viol)


@pytest.mark.parametrize("fraction", [math.nan, -0.1, 1.5, math.inf])
def test_make_verdict_needs_failure_fraction_in_unit_interval(fraction):
    # with nan, "nan > FAILURE_TOLERANCE" was False and the verdict read holds
    with pytest.raises(ValueError, match="failure_fraction"):
        make_verdict("c", mk(1.0, 0.1), 1.2, failure_fraction=fraction)


def test_make_verdict_rhs_is_the_bound():
    r = make_verdict("c", mk(1.0, 0.1, seed=7), 1.2)
    assert r.rhs == MCEstimate(mean=1.2, std_error=0.0, n=0, seed=7)
    assert r.bound == 1.2
    assert r.margin_se == pytest.approx(2.0)


# -------------------------------------------------------------- checks

def test_log_harnack_jensen_control():
    # with xi = eta both sides read the same paths: the log of the mean of
    # f against the mean of log f, Jensen's gap, and H = 0
    co = linear()
    grid, xi, _ = setup(m=50)
    f = catalog_fn("quad_cap", 100.0)
    rep = check_log_harnack(co, xi, xi, f, grid, n=4000, seed=2)
    assert rep.verdict == "holds"
    assert rep.bound == 0.0
    assert rep.margin_se > 0
    assert rep.meta["corr"] > 0
    # n fits in one chunk of either width, so the sums are the same sums
    assert rep.lhs.mean == estimate_PT_f(co, xi, _log_of(f), grid, 4000, 2).mean
    assert rep.rhs.diagnostics["raw_mean"] == estimate_PT_f(co, xi, f, grid, 4000, 2).mean


@pytest.mark.parametrize("claim", ["log", "power"])
def test_harnack_sides_take_path_j_of_the_seed(claim):
    # the xi copy of path j is simulate_path(xi, seed, j), and the eta copy
    # the path estimate_PT_f draws from eta at the same seed
    co = linear() if claim == "log" else sine()
    grid, xi, eta = setup(m=20)
    f = catalog_fn("quad_cap", 100.0)
    n, seed = 6, 4
    ends = np.stack([simulate_path(co, xi, grid, seed, j).values[-(grid.m + 1):]
                     for j in range(n)])
    if claim == "log":
        rep = check_log_harnack(co, xi, eta, f, grid, n=n, seed=seed)
        f_xi, f_eta = f, _log_of(f)
    else:
        rep = check_power_harnack(co, xi, eta, f, 16.0, grid, n=n, seed=seed)
        f_xi, f_eta = _power_of(f, 16.0), f
    assert rep.rhs.diagnostics["raw_mean"] == f_xi(ends).sum() / n
    eta_side = estimate_PT_f(co, eta, f_eta, grid, n, seed)
    assert rep.lhs.diagnostics.get("raw_mean", rep.lhs.mean) == eta_side.mean


def test_paired_margin_se_is_calibrated():
    # Over S seeds, the margins d = rhs - lhs (margin_se times its SE)
    # scatter with the variance the paired SE claims: (S - 1) var(d) / se^2
    # is chi-square with S - 1 degrees of freedom, se^2 averaged over the
    # seeds. The two-sided 99.9 % band holds the paired SE and rejects
    # hypot(se_l, se_r), which ignores the correlation of the two sides.
    from scipy.stats import chi2

    co = linear()
    grid, xi, eta = setup(m=10)
    f = catalog_fn("quad_cap", 100.0)
    seeds = 200
    d, se_sq, hypot_sq = [], [], []
    for seed in range(seeds):
        rep = check_log_harnack(co, xi, eta, f, grid, n=256, seed=1000 + seed,
                                s_choice=0.5)
        diff = rep.rhs.mean - rep.lhs.mean
        d.append(diff)
        se_sq.append((diff / rep.margin_se) ** 2)
        hypot_sq.append(rep.lhs.std_error ** 2 + rep.rhs.std_error ** 2)
    lo, hi = chi2.ppf([0.0005, 0.9995], seeds - 1) / (seeds - 1)
    spread = np.var(d, ddof=1)
    assert lo <= spread / np.mean(se_sq) <= hi
    assert not lo <= spread / np.mean(hypot_sq) <= hi


def test_log_harnack_distinct_starts_holds():
    co = linear()
    grid, xi, eta = setup(m=100)
    f = catalog_fn("quad_cap", 100.0)
    rep = check_log_harnack(co, xi, eta, f, grid, n=4000, seed=2)
    assert rep.verdict == "holds"
    assert rep.bound > 0
    assert rep.meta["s_star"] > 0


@pytest.mark.parametrize("check", ["log", "power"])
def test_harnack_checks_reject_verdict_levels_before_any_path(monkeypatch, check):
    # a verdict level is an input: it is rejected before any of the n paths runs
    def no_chunks(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(estimators, "_run_chunks", no_chunks)
    grid, xi, eta = setup(m=20)
    f = catalog_fn("quad_cap", 100.0)
    with pytest.raises(ValueError, match="k_tol <= k_viol"):
        if check == "log":
            check_log_harnack(linear(), xi, eta, f, grid, n=1000, seed=0, k_tol=0.0)
        else:
            check_power_harnack(sine(), xi, eta, f, 16.0, grid, n=1000, seed=0, k_tol=0.0)


def test_looks_double_from_LOOK_up_to_n():
    # the prefixes reduced at the early looks sum to less than n paths
    assert _looks(100) == [100]
    assert _looks(LOOK) == [LOOK]
    assert _looks(3 * LOOK) == [LOOK, 2 * LOOK, 3 * LOOK]
    assert _looks(8 * LOOK) == [LOOK, 2 * LOOK, 4 * LOOK, 8 * LOOK]
    assert _looks(10 ** 6) == [LOOK << k for k in range(8)] + [10 ** 6]


# the seeds of the three early-stop tests below were fixed before their first run

def test_log_harnack_stops_at_the_first_look_with_the_fixed_n_verdict():
    # the benchmark's log-Harnack claim on a coarser grid, capped at three looks
    co = linear()
    grid, xi, eta = setup(m=50)
    f = catalog_fn("quad_cap", 100.0)
    n, seed = 3 * LOOK, 11
    rep = check_log_harnack(co, xi, eta, f, grid, n=n, seed=seed)
    assert rep.lhs.n == rep.rhs.n == LOOK
    assert (rep.meta["stop_look"], rep.meta["looks"]) == (1, 3)
    assert "veto" not in rep.meta

    def verdict(x, y):
        lhs, raw, cov = _reduce_paired(x, y, seed)
        return _paired_verdict("log_harnack", lhs, _log_of_mean(raw, rep.bound),
                               cov / raw.mean, rep.bound, 3.0, 6.0, {})

    x, y = _PT_f(co, ((eta, _log_of(f)), (xi, f)), grid, n, seed, None)
    full = verdict(x, y)
    assert full.lhs.n == n
    assert rep.verdict == full.verdict == "holds"
    head = verdict(x[:LOOK], y[:LOOK])
    assert (rep.lhs, rep.rhs, rep.margin_se) == (head.lhs, head.rhs, head.margin_se)
    # the boundary at look 1 of 3 is 6 sqrt(3) SEs
    assert rep.margin_se >= 6.0 * math.sqrt(3.0)


def test_vetoed_power_harnack_equals_the_fixed_n_run(monkeypatch):
    # the f^16 side on sine is carried by a few paths: every look that
    # crosses the boundary is vetoed, and the run reads all n paths
    co = sine()
    grid, xi, eta = setup(m=50)
    f = catalog_fn("quad_cap", 100.0)
    n, seed = 2 * LOOK + 100, 5
    rep = check_power_harnack(co, xi, eta, f, 16.0, grid, n=n, seed=seed)
    assert rep.lhs.n == n
    assert (rep.meta["stop_look"], rep.meta["looks"]) == (3, 3)
    assert re.fullmatch(r"look 2: one path carries \S+ of the quad_cap\^16 sum, "
                        r"above 1/sqrt\(8192\)", rep.meta["veto"])
    monkeypatch.setattr(estimators, "LOOK", n)
    fixed = check_power_harnack(co, xi, eta, f, 16.0, grid, n=n, seed=seed)
    assert fixed.meta["looks"] == 1
    assert repr(replace(rep, meta={})) == repr(replace(fixed, meta={}))


def test_stopped_check_is_the_same_at_any_worker_count_and_chunk_width(monkeypatch):
    # 1000 state columns make chunks of 500 pairs, so look 1 falls inside one
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    co = linear()
    grid, xi, eta = setup(m=50)
    f = catalog_fn("quad_cap", 100.0)
    seen = set()
    for chunk in (CHUNK, 1000):
        monkeypatch.setattr(estimators, "CHUNK", chunk)
        for threads in (1, 2):
            rep = check_log_harnack(co, xi, eta, f, grid, n=3 * LOOK, seed=11,
                                    threads=threads)
            assert rep.meta["stop_look"] == 1
            seen.add(repr(rep))
    assert len(seen) == 1


def test_log_harnack_s_choice_is_honored():
    co = linear()
    grid, xi, eta = setup(m=100)
    f = catalog_fn("quad_cap", 100.0)
    free = check_log_harnack(co, xi, eta, f, grid, n=500, seed=2)
    fixed = check_log_harnack(co, xi, eta, f, grid, n=500, seed=2,
                              s_choice=0.25)
    assert fixed.bound >= free.bound - 1e-12
    assert fixed.meta["s_star"] == pytest.approx(0.25)


def test_t_minus_r0_limits_survive_rounding():
    # 0.3 - 0.1 is 0.19999999999999998 in floats: t0 and s_choice equal to
    # t - r0 = 0.2 are accepted, one grid step past it is not
    co = linear()
    grid = GridSpec(0.1, 0.3, 10)
    xi, eta = constant_segment(1.0, 0.1, 10), constant_segment(0.0, 0.1, 10)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=0.2)
    est = estimate_entropy_Q(co, xi, eta, sched, grid, n=64, seed=0)
    assert est.failures == 0
    late = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=0.21)
    with pytest.raises(ValueError, match="deadline"):
        estimate_entropy_Q(co, xi, eta, late, grid, n=64, seed=0)
    f = catalog_fn("quad_cap", 100.0)
    rep = check_log_harnack(co, xi, eta, f, grid, n=64, seed=0, s_choice=0.2)
    assert rep.meta["s_star"] == 0.2
    with pytest.raises(ValueError, match="s_choice"):
        check_log_harnack(co, xi, eta, f, grid, n=64, seed=0, s_choice=0.21)


def test_log_harnack_needs_room_past_delay():
    co = linear()
    grid, xi, eta = setup(m=50, T=1.0)
    f = catalog_fn("quad_cap", 100.0)
    with pytest.raises(ValueError, match="r0"):
        check_log_harnack(co, xi, eta, f, grid, n=16, seed=0)


def test_log_harnack_requires_f_at_least_one():
    co = linear()
    grid, xi, eta = setup(m=50)
    f = ObsFn(name="small", fn=lambda segs: np.full(segs.shape[0], 0.5),
                     lower=0.5, upper=0.5)
    with pytest.raises(ValueError, match=">= 1"):
        check_log_harnack(co, xi, eta, f, grid, n=16, seed=0)


def test_power_harnack_trivial_f():
    co = sine()
    grid, xi, eta = setup(m=50)
    rep = check_power_harnack(co, xi, eta, ONE, 16.0, grid, n=64, seed=0)
    assert rep.verdict == "holds"
    assert rep.margin_se == math.inf


def test_power_harnack_threshold_enforced():
    co = sine()
    grid, xi, eta = setup(m=50)
    f = catalog_fn("quad_cap", 100.0)
    with pytest.raises(ValueError, match="9"):
        check_power_harnack(co, xi, eta, f, 9.0, grid, n=16, seed=0)


def test_power_of_overflow_names_the_cap():
    # a Python float's ** raises OverflowError where numpy gives inf; both
    # must end in the message that names the cap
    f = catalog_fn("exp_cap", 100.0)
    with pytest.raises(ValueError, match="f\\^p overflows for exp_cap with p=16; lower the cap"):
        _power_of(f, 16.0)
    co = sine()
    grid, xi, eta = setup(m=50)
    with pytest.raises(ValueError, match="lower the cap"):
        check_power_harnack(co, xi, eta, f, 16.0, grid, n=16, seed=0)
    # a finite power keeps the plain ** result
    assert _power_of(catalog_fn("exp_cap", 10.0), 16.0).upper == math.exp(10.0) ** 16.0


# -------------------------------------------------------------- stationary

def test_stationary_moments_loose():
    co = builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0})
    grid = GridSpec(1.0, 2.0, 100)
    s = sample_stationary_segments(co, grid, n=2000, burn_in=10.0, seed=0)
    assert s.endpoint_var[0] == pytest.approx(0.5, rel=0.15)
    assert s.lag_r0_autocov[0] == pytest.approx(0.5 / math.e, rel=0.3)
    tiled = stationary_segments_tiled(co, grid, n=2000, burn_in=10.0, seed=0)
    assert np.array_equal(tiled.endpoint_var, s.endpoint_var)
    assert len(tiled.segments) == 2000
    assert tiled.segments[0].m == grid.m


def test_stationary_deterministic_contraction():
    co = with_scaled_sigma(builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0}), 0.0)
    grid = GridSpec(1.0, 2.0, 50)
    s = sample_stationary_segments(co, grid, n=64, burn_in=10.0, seed=0)
    tiled = stationary_segments_tiled(co, grid, n=64, burn_in=10.0, seed=0)
    for seg in tiled.segments[:5]:
        np.testing.assert_allclose(seg.values, 0.0, atol=1e-300)
    assert s.endpoint_var[0] == 0.0
    assert np.array_equal(tiled.endpoint_mean, s.endpoint_mean)


def test_stationary_rejects_delay_systems():
    co = linear()
    grid = GridSpec(1.0, 2.0, 50)
    with pytest.raises(ValueError, match="delay"):
        sample_stationary_segments(co, grid, n=16, seed=0)


@pytest.mark.parametrize("burn_in", [-1.0, math.nan, math.inf])
def test_stationary_needs_finite_nonnegative_burn_in(burn_in):
    # inf passed "not burn_in >= 0" and overflowed in int(round(inf / h))
    co = builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0})
    with pytest.raises(ValueError, match="burn_in must be finite and nonnegative"):
        sample_stationary_segments(co, GridSpec(1.0, 2.0, 10), n=16, burn_in=burn_in)


def test_stationary_reproducible():
    co = builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0})
    grid = GridSpec(1.0, 2.0, 40)
    a = sample_stationary_segments(co, grid, n=300, seed=8)
    b = sample_stationary_segments(co, grid, n=300, seed=8)
    assert a.endpoint_var[0] == b.endpoint_var[0]
    assert np.array_equal(a.lag_r0_autocov, b.lag_r0_autocov)
    tiled_a = stationary_segments_tiled(co, grid, n=300, seed=8)
    tiled_b = stationary_segments_tiled(co, grid, n=300, seed=8)
    assert tiled_a.segments[7] == tiled_b.segments[7]


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [2, 255, 256, 257, 2000])
def test_stationary_moments_match_tiled_paths(n, d):
    # 256 paths: n below, at and just past one window per path, and several
    # windows with a partial last path
    co = builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0}, dim=d)
    grid = GridSpec(1.0, 2.0, 10)
    got = sample_stationary_segments(co, grid, n=n, burn_in=2.0, seed=3)
    want = stationary_segments_tiled(co, grid, n=n, burn_in=2.0, seed=3)
    assert len(want.segments) == n
    for key in ("endpoint_mean", "endpoint_var", "lag_r0_autocov"):
        assert np.array_equal(getattr(got, key), getattr(want, key)), key
