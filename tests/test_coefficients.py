import dataclasses
import math

import numpy as np
import pytest

from harnack_lab.coefficients import (AssumptionConstants, AuditBox,
                                      CoefficientSet, audit_assumptions,
                                      builtin_system, with_scaled_sigma)
from oracles import coefficient_set_from_pointwise


def test_constants_validation():
    AssumptionConstants(k1=0.0, k2=0.0, k3=1.0, k4=-3.0)
    with pytest.raises(ValueError):
        AssumptionConstants(k1=-0.1, k2=0.0, k3=1.0, k4=0.0)
    with pytest.raises(ValueError):
        AssumptionConstants(k1=0.0, k2=-1.0, k3=1.0, k4=0.0)
    with pytest.raises(ValueError):
        AssumptionConstants(k1=0.0, k2=0.0, k3=0.0, k4=0.0)
    with pytest.raises(ValueError):
        AssumptionConstants(k1=0.0, k2=0.0, k3=1.0, k4=math.inf)


def test_linear_additive_constants():
    co = builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0})
    k = co.constants
    assert (k.k1, k.k2, k.k3, k.k4) == (0.5, 0.0, 1.0, -2.0)
    assert not co.delay_free
    assert builtin_system("linear_additive", {"a": -1.0, "c": 0.0, "s0": 1.0}).delay_free


def test_sine_multiplicative_constants():
    co = builtin_system("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1})
    k = co.constants
    assert k.k1 == pytest.approx(2.0)
    assert k.k2 == pytest.approx(0.2)
    assert k.k3 == pytest.approx(10.0)
    assert k.k4 == pytest.approx(-1.99)
    with pytest.raises(ValueError):
        builtin_system("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1}, dim=2)


def test_ou_nodelay_constants():
    co = builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0})
    assert co.delay_free
    assert co.constants.k4 == pytest.approx(-2.0)
    assert co.constants.k1 == 0.0


def test_builtin_param_validation():
    with pytest.raises(ValueError, match="missing"):
        builtin_system("linear_additive", {"a": -1.0, "c": 0.5})
    with pytest.raises(ValueError, match="unknown"):
        builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0, "zeta": 3.0})
    with pytest.raises(ValueError, match="catalog"):
        builtin_system("no_such_system", {})
    with pytest.raises(ValueError):
        builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 0.0})


def test_sigma_inv_application():
    co = builtin_system("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1})
    x = np.array([[0.3], [-1.2], [2.0]])
    vec = np.array([[1.0], [2.0], [-0.5]])
    want = vec / (0.1 * (2.0 + np.sin(x)))
    np.testing.assert_allclose(co.apply_sigma_inv(0.0, x, vec), want)
    # matrix form agrees with the vector form
    m = co.sigma_inv_matrix(0.0, x)
    np.testing.assert_allclose(np.einsum("bij,bj->bi", m, vec), want)


def test_sigma_inv_fallback_solve():
    # no sigma_inv provided: apply_sigma_inv goes through a dense solve
    def sig(t, x):
        out = np.zeros((x.shape[0], 2, 2))
        out[:, 0, 0] = 2.0
        out[:, 1, 1] = 4.0
        out[:, 0, 1] = 1.0
        return out

    co = CoefficientSet(
        dim=2, sigma=sig, z_drift=lambda t, x: -x,
        b_delay=lambda t, seg: np.zeros((seg.shape[0], 2)),
        constants=AssumptionConstants(k1=0.0, k2=0.0, k3=1.0, k4=-2.0))
    x = np.zeros((3, 2))
    vec = np.tile([1.0, 2.0], (3, 1))
    got = co.apply_sigma_inv(0.0, x, vec)
    want = np.linalg.solve(np.array([[2.0, 1.0], [0.0, 4.0]]), [1.0, 2.0])
    np.testing.assert_allclose(got, np.tile(want, (3, 1)))


def test_pointwise_wrapper_matches_batch():
    co = coefficient_set_from_pointwise(
        dim=1,
        sigma=lambda t, x: [[1.0 + 0.5 * float(x[0]) ** 2]],
        z_drift=lambda t, x: -x,
        b_delay=lambda t, seg: 0.1 * seg[0],
        constants=AssumptionConstants(k1=0.1, k2=1.0, k3=1.0, k4=0.0))
    x = np.array([[0.5], [1.5]])
    np.testing.assert_allclose(co.sigma(0.0, x)[:, 0, 0],
                               1.0 + 0.5 * x[:, 0] ** 2)
    seg = np.ones((2, 5, 1))
    np.testing.assert_allclose(co.b_delay(0.0, seg), 0.1 * np.ones((2, 1)))


@pytest.mark.parametrize("name,params", [
    ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0}),
    ("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1}),
    ("ou_nodelay", {"a": 1.0, "s0": 1.0}),
])
def test_audit_passes_on_catalog(name, params):
    co = builtin_system(name, params)
    report = audit_assumptions(co, n=4000, seed=3)
    assert report.all_passed, {c: (v.empirical_max, v.declared)
                               for c, v in report.conditions.items()}
    # negative dissipativity declarations are audited meaningfully too
    assert report.conditions["A4"].declared < 0


def test_audit_catches_understated_constants():
    good = builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0})
    # same dynamics, but declare a delay constant that is too small
    bad = CoefficientSet(
        dim=1, sigma=good.sigma, z_drift=good.z_drift, b_delay=good.b_delay,
        constants=AssumptionConstants(k1=0.3, k2=0.0, k3=1.0, k4=-2.0),
        sigma_inv=good.sigma_inv)
    report = audit_assumptions(bad, n=4000, seed=3)
    assert not report.conditions["A1"].passed
    assert report.conditions["A1"].empirical_max > 0.3


def test_audit_catches_understated_dissipativity():
    good = builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0})
    bad = CoefficientSet(
        dim=1, sigma=good.sigma, z_drift=good.z_drift, b_delay=good.b_delay,
        constants=AssumptionConstants(k1=0.5, k2=0.0, k3=1.0, k4=-2.5),
        sigma_inv=good.sigma_inv)
    report = audit_assumptions(bad, n=4000, seed=3)
    assert not report.conditions["A4"].passed
    assert report.conditions["A4"].empirical_max == pytest.approx(-2.0, abs=1e-6)


def test_audit_catches_understated_inverse_bound():
    good = builtin_system("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1})
    bad = CoefficientSet(
        dim=1, sigma=good.sigma, z_drift=good.z_drift, b_delay=good.b_delay,
        constants=AssumptionConstants(k1=2.0, k2=0.2, k3=5.0, k4=-1.99),
        sigma_inv=good.sigma_inv)
    report = audit_assumptions(bad, n=4000, seed=3)
    assert not report.conditions["A3"].passed


def test_audit_reports_singular_sigma():
    co = with_scaled_sigma(
        builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0}), 0.0)
    report = audit_assumptions(co, n=512, seed=0)
    a3 = report.conditions["A3"]
    assert not a3.passed
    assert a3.empirical_max == math.inf


def test_audit_deterministic():
    co = builtin_system("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1})
    r1 = audit_assumptions(co, n=3000, seed=11)
    r2 = audit_assumptions(co, n=3000, seed=11)
    for cond in r1.conditions:
        assert r1.conditions[cond].empirical_max == r2.conditions[cond].empirical_max
        assert r1.conditions[cond].worst_t == r2.conditions[cond].worst_t


def test_audit_box_validation():
    with pytest.raises(ValueError):
        AuditBox(t_min=1.0, t_max=0.0)
    with pytest.raises(ValueError):
        AuditBox(x_min=2.0, x_max=2.0)
    with pytest.raises(ValueError):
        audit_assumptions(
            builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0}), n=0)


def test_with_scaled_sigma():
    co = builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0})
    doubled = with_scaled_sigma(co, 2.0)
    x = np.array([[0.7]])
    assert doubled.sigma(0.0, x)[0, 0, 0] == pytest.approx(2.0)
    assert doubled.sigma_inv(0.0, x)[0, 0, 0] == pytest.approx(0.5)
    assert doubled.sigma_diag(0.0, x)[0, 0] == 2.0
    off = with_scaled_sigma(co, 0.0)
    assert off.sigma(0.0, x)[0, 0, 0] == 0.0
    assert off.sigma_inv is None
    assert off.sigma_diag(0.0, x)[0, 0] == 0.0


@pytest.mark.parametrize("name,params,dim", [
    ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 0.7}, 1),
    ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 0.7}, 3),
    ("ou_nodelay", {"a": 1.0, "s0": 0.3}, 3),
    ("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1}, 1),
])
def test_declared_diagonal_matches_dense_forms(name, params, dim):
    co = builtin_system(name, params, dim=dim)
    x = np.random.default_rng(5).uniform(-4.0, 4.0, size=(50, dim))
    diag = co.sigma_diag(0.3, x)
    assert diag.shape == (50, dim)
    idx = np.arange(dim)
    assert np.array_equal(co.sigma(0.3, x)[:, idx, idx], diag)
    assert np.array_equal(co.sigma_inv(0.3, x)[:, idx, idx], 1.0 / diag)
    # the audit reads the same numbers with or without the diagonal
    dense = dataclasses.replace(co, sigma_diag=None)
    assert audit_assumptions(co, n=2000, seed=3) == audit_assumptions(dense, n=2000, seed=3)
