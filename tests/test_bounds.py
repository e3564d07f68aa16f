import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harnack_lab import bounds
from harnack_lab.bounds import (GapPair, _k4_ratio, _lambda_p, _s_eps,
                                _theta_set_contains, _w_eps, bound_H_T,
                                bound_H_T_at, bound_Phi_p,
                                bound_entropy_prop21,
                                bound_entropy_with_tail,
                                bound_seg_gap_moment)
from harnack_lab.coefficients import AssumptionConstants
from harnack_lab.segment_paths import constant_segment
from oracles import HarnackParameters, k4_ratio_direct, k4_ratio_series

K_REF = AssumptionConstants(k1=1.0, k2=0.0, k3=1.0, k4=1.0)
K_W = AssumptionConstants(k1=1.0, k2=0.1, k3=1.0, k4=0.0)
K_LINEAR = AssumptionConstants(k1=0.5, k2=0.0, k3=1.0, k4=-2.0)
K_SINE = AssumptionConstants(k1=2.0, k2=0.2, k3=10.0, k4=-1.99)
UNIT_GAPS = GapPair(1.0, 1.0)


# ---------------------------------------------------------------- k4_ratio

def test_k4_ratio_reference_values():
    assert _k4_ratio(0.0, 1.0) == pytest.approx(1.0)
    assert _k4_ratio(1.0, 1.0) == pytest.approx(1.581977, abs=1e-6)
    assert _k4_ratio(-1.0, 1.0) == pytest.approx(0.581977, abs=1e-6)


def test_k4_ratio_branches_agree_near_zero():
    for s in (0.1, 1.0, 10.0):
        direct = k4_ratio_direct(1e-8, s)
        series = k4_ratio_series(1e-8, s)
        assert abs(direct - series) <= 1e-6 * abs(series)
        # the package value is consistent with both
        assert _k4_ratio(1e-8, s) == pytest.approx(series, rel=1e-6)
        assert _k4_ratio(1e-8, s) == pytest.approx(direct, rel=1e-6)


def test_k4_ratio_limit_vs_direct_at_1e4():
    for s in (0.5, 1.0, 2.0):
        got = _k4_ratio(1e-4, s)
        assert got == pytest.approx(k4_ratio_direct(1e-4, s), rel=1e-4)
        assert got == pytest.approx(k4_ratio_series(1e-4, s), rel=1e-4)


def test_k4_ratio_validation():
    with pytest.raises(ValueError):
        _k4_ratio(1.0, 0.0)
    with pytest.raises(ValueError):
        _k4_ratio(1.0, -1.0)


def test_k4_ratio_past_the_float_range_of_its_denominator():
    # K4 s < -709.78 overflows 1 - e^{-K4 s}; the ratio carries on to 0
    assert _k4_ratio(-1.0, 710.0) == pytest.approx(_k4_ratio(-1.0, 709.0) / math.e, rel=1e-12)
    assert _k4_ratio(-10.0, 100.0) == 0.0


def test_long_horizon_bounds_keep_their_short_horizon_values():
    # K4 s and the history growth e^{K2^2 (K1^2 s + 8) s} leave the float
    # range on the long s-grids; the minimizers pass over those s
    k = AssumptionConstants(k1=0.5, k2=0.0, k3=1.0, k4=-10.0)
    for bound in (lambda T: bound_H_T(k, UNIT_GAPS, T, 1.0).value,
                  lambda T: bound_Phi_p(16.0, T, k, UNIT_GAPS, 1.0).value):
        assert bound(200.0) == pytest.approx(bound(20.0), rel=1e-12)
    grows = AssumptionConstants(k1=1.0, k2=3.0, k3=1.0, k4=-1.0)
    assert bound_H_T(grows, UNIT_GAPS, 20.0, 1.0).value == pytest.approx(
        bound_H_T(grows, UNIT_GAPS, 1.5, 1.0).value, rel=1e-12)


def test_entropy_bounds_past_the_float_range():
    k = AssumptionConstants(k1=0.5, k2=0.0, k3=1.0, k4=-10.0)
    assert bound_entropy_with_tail(k, 19.0, 1.0, UNIT_GAPS) == 4.875
    assert bound_entropy_with_tail(k, 199.0, 1.0, UNIT_GAPS) == 49.875
    grows = AssumptionConstants(k1=1.0, k2=3.0, k3=1.0, k4=-1.0)
    assert bound_entropy_prop21(grows, 1.0, 19.0, UNIT_GAPS) == math.inf
    assert bound_entropy_with_tail(grows, 19.0, 1.0, UNIT_GAPS) == math.inf
    # a history term that is 0 stays 0 where its growth overflows, not NaN
    assert bound_entropy_with_tail(grows, 19.0, 1.0, GapPair(0.0, 0.0)) == 0.0
    no_k1 = AssumptionConstants(k1=0.0, k2=3.0, k3=1.0, k4=-1.0)
    assert bound_entropy_prop21(no_k1, 1.0, 19.0, UNIT_GAPS) == bound_entropy_prop21(
        dataclasses.replace(no_k1, k2=0.0), 1.0, 19.0, UNIT_GAPS)


# ---------------------------------------------------------------- GapPair

def test_gap_pair_validation():
    GapPair(0.0, 0.0)
    GapPair(1.0, 1.5)
    with pytest.raises(ValueError):
        GapPair(-0.1, 1.0)
    with pytest.raises(ValueError):
        GapPair(2.0, 1.0)
    with pytest.raises(ValueError):
        GapPair(1.0, math.nan)


def test_gap_pair_from_segments():
    xi = constant_segment(1.0, 1.0, 8)
    eta = constant_segment(0.0, 1.0, 8)
    g = GapPair.from_segments(xi, eta)
    assert g.point_gap == pytest.approx(1.0)
    assert g.seg_gap == pytest.approx(1.0)
    g2 = GapPair.from_segments(xi, xi)
    assert (g2.point_gap, g2.seg_gap) == (0.0, 0.0)


# ---------------------------------------------------------------- H_T

def test_h_t_reference_value():
    rep = bound_H_T(K_REF, UNIT_GAPS, 2.0, 1.0)
    assert rep.value == pytest.approx(4.6639534, abs=1e-4)
    assert rep.s_star == pytest.approx(1.0, abs=1e-6)
    assert rep.at_boundary
    assert sum(rep.terms.values()) == pytest.approx(rep.value)


def test_h_t_negative_k4_reference_value():
    k = AssumptionConstants(k1=1.0, k2=0.0, k3=1.0, k4=-1.0)
    rep = bound_H_T(k, UNIT_GAPS, 2.0, 1.0)
    assert rep.value == pytest.approx(2.6639534, abs=1e-4)


def test_h_t_zero_gap_is_exactly_zero():
    rep = bound_H_T(K_REF, GapPair(0.0, 0.0), 2.0, 1.0)
    assert rep.value == 0.0


def test_h_t_requires_room_past_the_delay():
    with pytest.raises(ValueError):
        bound_H_T(K_REF, UNIT_GAPS, 1.0, 1.0)
    with pytest.raises(ValueError):
        bound_H_T(K_REF, UNIT_GAPS, 0.5, 1.0)


def test_h_t_at_dominates_infimum():
    rep = bound_H_T(K_SINE, UNIT_GAPS, 2.0, 1.0)
    for s in (0.1, 0.25, 0.5, 0.9):
        assert bound_H_T_at(K_SINE, UNIT_GAPS, 1.0, s) >= rep.value - 1e-12


def test_h_t_nonincreasing_in_horizon():
    vals = [bound_H_T(K_SINE, UNIT_GAPS, T, 1.0).value
            for T in (1.5, 2.0, 3.0, 5.0)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 2.0),
       st.floats(0.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_h_t_monotone_in_gaps(pg1, pg2, extra1, extra2):
    g_small = GapPair(pg1, pg1 + extra1)
    g_big = GapPair(pg1 + pg2, pg1 + pg2 + extra1 + extra2)
    small = bound_H_T(K_SINE, g_small, 2.0, 1.0).value
    big = bound_H_T(K_SINE, g_big, 2.0, 1.0).value
    assert big >= small - 1e-10 * max(1.0, abs(small))


def grid_sizes(monkeypatch):
    """The sizes of the s grids the bounds build from now on, in call order."""
    sizes, real = [], bounds._log_grid
    monkeypatch.setattr(bounds, "_log_grid",
                        lambda upper, size: sizes.append(size) or real(upper, size))
    return sizes


def test_h_t_grid_doubling_stable(monkeypatch):
    sizes = grid_sizes(monkeypatch)
    for k in (K_LINEAR, K_SINE):
        monkeypatch.setattr(bounds, "S_GRID", 200)
        a = bound_H_T(k, UNIT_GAPS, 2.0, 1.0).value
        monkeypatch.setattr(bounds, "S_GRID", 400)
        sizes.clear()
        b = bound_H_T(k, UNIT_GAPS, 2.0, 1.0).value
        assert sizes == [400]
        assert abs(a - b) <= 1e-4 * abs(b)


# ---------------------------------------------------------------- entropy

def test_entropy_prop21_reference_value():
    v = bound_entropy_prop21(K_REF, 1.0, 1.0, UNIT_GAPS)
    assert v == pytest.approx(2.0 / (1.0 - math.exp(-1.0)) + 1.0, rel=1e-12)
    assert v == pytest.approx(4.1640, abs=1e-4)


def test_entropy_prop21_zero_gaps():
    assert bound_entropy_prop21(K_REF, 1.0, 1.0, GapPair(0.0, 0.0)) == 0.0


def test_entropy_prop21_theta_one_is_cheapest():
    base = bound_entropy_prop21(K_REF, 1.0, 1.0, UNIT_GAPS)
    assert base <= bound_entropy_prop21(K_REF, 0.5, 1.0, UNIT_GAPS)
    assert base <= bound_entropy_prop21(K_REF, 1.5, 1.0, UNIT_GAPS)


def test_entropy_prop21_validation():
    with pytest.raises(ValueError):
        bound_entropy_prop21(K_REF, 0.0, 1.0, UNIT_GAPS)
    with pytest.raises(ValueError):
        bound_entropy_prop21(K_REF, 1.0, 0.0, UNIT_GAPS)
    with pytest.raises(ValueError):
        bound_entropy_prop21(K_REF, 1.0, 1.5, UNIT_GAPS, t0=1.0)


def test_entropy_partial_time_uses_frozen_deadline():
    # the gap term keeps the deadline's k4 factor; only the segment term
    # scales with the elapsed time
    full = bound_entropy_prop21(K_LINEAR, 1.0, 1.0, UNIT_GAPS, t0=1.0)
    half = bound_entropy_prop21(K_LINEAR, 1.0, 0.5, UNIT_GAPS, t0=1.0)
    gap_term = 2.0 * K_LINEAR.k3 ** 2 * _k4_ratio(K_LINEAR.k4, 1.0)
    assert half == pytest.approx(gap_term + 0.5 * K_LINEAR.k1 ** 2)
    assert full == pytest.approx(gap_term + 1.0 * K_LINEAR.k1 ** 2)
    assert half < full


def test_entropy_with_tail_assembles_both_pieces():
    v = bound_entropy_with_tail(K_LINEAR, 1.0, 1.0, UNIT_GAPS, theta=1.0)
    inner = bound_entropy_prop21(K_LINEAR, 1.0, 1.0, UNIT_GAPS)
    tail = (K_LINEAR.k1 ** 2 * 1.0 / 2.0) * math.exp(0.0) * 1.0
    assert v == pytest.approx(inner + tail, rel=1e-12)


# ---------------------------------------------------------------- power

def test_lambda_p_values():
    assert _lambda_p(4.0) == pytest.approx(0.5)
    assert _lambda_p(9.0) == pytest.approx(0.125)
    assert _lambda_p(1e8) < 1e-7
    with pytest.raises(ValueError):
        _lambda_p(1.0)


def test_theta_set_membership():
    k = AssumptionConstants(k1=1.0, k2=0.5, k3=1.0, k4=0.0)
    assert _theta_set_contains(0.01, 4.0, k)
    assert not _theta_set_contains(0.99, 4.0, k)
    # K2 = 0 admits every eps
    k0 = AssumptionConstants(k1=1.0, k2=0.0, k3=1.0, k4=0.0)
    for eps in (0.01, 0.5, 0.99):
        assert _theta_set_contains(eps, 4.0, k0)
    with pytest.raises(ValueError):
        _theta_set_contains(0.5, 2.0, k)  # threshold (1+0.5)^2 = 2.25
    with pytest.raises(ValueError):
        _theta_set_contains(0.0, 4.0, k)


def test_w_eps_and_s_eps_reference_values():
    assert _w_eps(0.5, 0.5, K_W, 1.0) == pytest.approx(9.0, rel=1e-12)
    want = (math.sqrt(19.0) - 1.0) / 3.6
    assert _s_eps(0.5, 0.5, K_W, 1.0) == pytest.approx(want, rel=1e-12)


def test_w_eps_term_structure():
    # at these inputs the three candidate terms are 1.92, 9, 0.0675
    eps, lam = 0.5, 0.5
    k = K_W
    t1 = 8 * (1 + eps) * 1.0 * k.k1 ** 3 * k.k2 * lam \
        * (4 * (1 + eps) * 1.0 * k.k1 * k.k2 * lam + eps) / eps ** 2
    t2 = 2 * (1 + eps) ** 2 * lam / eps ** 2
    t3 = (1 + eps) ** 3 * k.k1 ** 2 * k.k2 ** 2 * k.k3 ** 2 * lam \
        / (8 * eps ** 2 * (1 - eps) ** 3)
    assert t1 == pytest.approx(1.92)
    assert t2 == pytest.approx(9.0)
    assert t3 == pytest.approx(0.0675)
    assert _w_eps(eps, lam, k, 1.0) == pytest.approx(max(t1, t2, t3))


def test_s_eps_infinite_without_diffusion_lipschitz():
    k0 = AssumptionConstants(k1=1.0, k2=0.0, k3=1.0, k4=0.0)
    assert _s_eps(0.5, 0.5, k0, 1.0) == math.inf


def test_s_eps_guarantees_quadratic_denominator():
    # any s <= s_eps keeps 1 - 4 K1 K2 s positive
    for eps in (0.1, 0.5, 0.9):
        for lam in (0.05, 0.5, 5.0):
            k = K_SINE
            se = _s_eps(eps, lam, k, 1.0)
            assert 1.0 - 4.0 * k.k1 * k.k2 * se > 0.0


def test_harnack_parameters_build():
    hp = HarnackParameters.build(9.0, 0.5, K_W, 1.0)
    assert hp.lambda_p == pytest.approx(0.125)
    assert hp.s_eps > 0
    with pytest.raises(ValueError):
        HarnackParameters.build(9.0, 0.999, K_SINE, 1.0)


def test_phi_p_reference_run(monkeypatch):
    sizes = grid_sizes(monkeypatch)
    rep = bound_Phi_p(9.0, 2.0, K_W, UNIT_GAPS, 1.0)
    s_grids = len(sizes)
    assert rep.value > 0
    assert rep.eps_star is not None
    assert 0 < rep.s_star <= 1.0
    assert sum(rep.terms.values()) == pytest.approx(rep.value, rel=1e-12)
    # independent 10x denser grid agrees
    monkeypatch.setattr(bounds, "EPS_GRID", 2000)
    monkeypatch.setattr(bounds, "S_GRID", 2000)
    sizes.clear()
    dense = bound_Phi_p(9.0, 2.0, K_W, UNIT_GAPS, 1.0)
    # every s grid is the patched size, one per eps tried, and the denser
    # eps grid tries more eps
    assert set(sizes) == {2000} and len(sizes) > s_grids
    assert rep.value == pytest.approx(dense.value, rel=1e-3)


def test_phi_p_zero_gap_open_infimum():
    k0 = AssumptionConstants(k1=1.0, k2=0.0, k3=1.0, k4=1.0)
    rep = bound_Phi_p(9.0, 2.0, k0, GapPair(0.0, 0.0), 1.0)
    assert rep.value < 5e-3
    assert rep.at_boundary


def test_phi_p_nonincreasing_in_p():
    vals = [bound_Phi_p(p, 2.0, K_SINE, UNIT_GAPS, 1.0).value
            for p in (16.0, 25.0, 49.0)]
    assert vals[0] >= vals[1] >= vals[2]
    # and on the reference constants from p=4 on
    vals2 = [bound_Phi_p(p, 2.0, K_W, UNIT_GAPS, 1.0).value
             for p in (4.0, 9.0, 16.0)]
    assert vals2[0] >= vals2[1] >= vals2[2]


def test_phi_p_respects_admissibility():
    rep = bound_Phi_p(16.0, 2.0, K_SINE, UNIT_GAPS, 1.0)
    lam = _lambda_p(16.0)
    cap = _s_eps(rep.eps_star, lam, K_SINE, 1.0)
    assert rep.s_star <= cap * (1.0 + 1e-12)
    assert 1.0 - 4.0 * K_SINE.k1 * K_SINE.k2 * rep.s_star > 0.0


def test_phi_p_grid_doubling_stable(monkeypatch):
    a = bound_Phi_p(16.0, 2.0, K_SINE, UNIT_GAPS, 1.0).value
    monkeypatch.setattr(bounds, "EPS_GRID", 400)
    monkeypatch.setattr(bounds, "S_GRID", 400)
    b = bound_Phi_p(16.0, 2.0, K_SINE, UNIT_GAPS, 1.0).value
    assert abs(a - b) <= 1e-4 * abs(b)


def test_phi_p_validation():
    with pytest.raises(ValueError):
        bound_Phi_p(9.0, 2.0, K_SINE, UNIT_GAPS, 1.0)  # threshold is 9
    with pytest.raises(ValueError):
        bound_Phi_p(16.0, 1.0, K_SINE, UNIT_GAPS, 1.0)  # T = r0


# ---------------------------------------------------------------- lemmas

def test_lemma_seg_gap_integral_at_cap():
    k = AssumptionConstants(k1=1.0, k2=0.1, k3=1.0, k4=0.0)
    value = bound_seg_gap_moment(k, UNIT_GAPS, lam=40.0, s=0.5)
    assert type(value) is float  # explicit: no inner expectation is left
    assert value ==pytest.approx(math.exp(2.0 + 40.0), rel=1e-9)
    zero = bound_seg_gap_moment(k, GapPair(0.0, 0.0), lam=40.0, s=0.5)
    assert zero == pytest.approx(math.exp(2.0), rel=1e-9)


def test_lemma_seg_gap_integral_past_the_float_range_is_inf():
    k = AssumptionConstants(k1=1.0, k2=0.0, k3=1.0, k4=-1.0)
    assert bound_seg_gap_moment(k, UNIT_GAPS, lam=200.0, s=2.0) == math.inf


def test_lemma_seg_gap_integral_validation():
    k = AssumptionConstants(k1=1.0, k2=0.1, k3=1.0, k4=0.0)
    with pytest.raises(ValueError, match="cap"):
        bound_seg_gap_moment(k, UNIT_GAPS, lam=41.0, s=0.5)
    with pytest.raises(ValueError):
        bound_seg_gap_moment(k, UNIT_GAPS, lam=1.0, s=0.0)
    k_big = AssumptionConstants(k1=2.0, k2=0.2, k3=10.0, k4=0.0)
    with pytest.raises(ValueError):
        bound_seg_gap_moment(k_big, UNIT_GAPS, lam=0.1, s=1.0)


def test_nan_arguments_are_rejected():
    # each returned nan (or a bound with a nan inside) instead of raising
    nan = math.nan
    with pytest.raises(ValueError, match="s must"):
        bound_H_T_at(K_SINE, UNIT_GAPS, 1.0, nan)
    with pytest.raises(ValueError, match="r0"):
        bound_H_T_at(K_SINE, UNIT_GAPS, nan, 0.5)
    with pytest.raises(ValueError, match="r0"):
        bound_entropy_with_tail(K_LINEAR, 1.0, nan, UNIT_GAPS)
    # bound_seg_gap_moment must not return nan or inf for an infinite lam
    # or s; with K2 = 0 no cap on lam stands in the way
    no_k2 = AssumptionConstants(0.5, 0.0, 1.0, -2.0)
    zero_gaps = GapPair(0.0, 0.0)
    for bad in (nan, math.inf):
        with pytest.raises(ValueError, match="lam"):
            bound_seg_gap_moment(no_k2, zero_gaps, lam=bad, s=1.0)
        with pytest.raises(ValueError, match="needs finite s"):
            bound_seg_gap_moment(no_k2, zero_gaps, lam=0.5, s=bad)


@pytest.mark.parametrize("call", [
    lambda: bound_H_T(K_SINE, UNIT_GAPS, math.inf, 1.0),
    lambda: bound_Phi_p(16.0, math.inf, K_SINE, UNIT_GAPS, 1.0),
    lambda: bound_entropy_with_tail(K_LINEAR, 1.0, math.inf, UNIT_GAPS),
    lambda: bound_entropy_with_tail(K_LINEAR, math.inf, 1.0, UNIT_GAPS),
    lambda: bound_entropy_prop21(K_LINEAR, 1.0, 0.5, UNIT_GAPS, t0=math.inf),
    lambda: bound_H_T_at(K_SINE, UNIT_GAPS, 1.0, math.inf),
], ids=["H_T-T", "Phi_p-T", "tail-r0", "tail-t0", "prop21-t0", "H_T_at-s"])
def test_infinite_arguments_are_rejected(call):
    # bound_H_T warned, then blamed s; the others returned a number or inf
    with pytest.raises(ValueError, match="must be finite and positive"):
        call()
