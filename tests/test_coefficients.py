import dataclasses
import math

import numpy as np
import pytest

from harnack_lab.coefficients import (AssumptionConstants, AuditBox,
                                      CoefficientSet, audit_assumptions,
                                      builtin_system)
from harnack_lab.coupling import simulate_coupled_Q
from harnack_lab.estimators import estimate_PT_f
from harnack_lab.estimators import test_function as catalog_fn
from harnack_lab.integrator import (NoiseBlocks, NoiseStream, _Recorder, _simulate_batch,
                                    simulate_path)
from harnack_lab.segment_paths import GridSpec, constant_segment
from oracles import (audit_dense, coefficient_set_from_pointwise, dense_sigma,
                     with_scaled_sigma)


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
    sig = co.diffusion(0.0, x)
    np.testing.assert_allclose(sig.solve(vec), want)
    np.testing.assert_allclose(sig.inv_op_norm(), np.abs(want / vec)[:, 0])
    # the dense twin inverts the same matrices
    dense = dataclasses.replace(co, sigma=dense_sigma(co.sigma)).diffusion(0.0, x)
    np.testing.assert_allclose(dense.solve(vec), want)
    np.testing.assert_allclose(dense.inv_op_norm(), sig.inv_op_norm())


def test_sigma_inv_fallback_solve():
    # a dense sigma is inverted as a matrix
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
    got = co.diffusion(0.0, x).solve(vec)
    want = np.linalg.solve(np.array([[2.0, 1.0], [0.0, 4.0]]), [1.0, 2.0])
    np.testing.assert_allclose(got, np.tile(want, (3, 1)))


@pytest.mark.parametrize("shape", [lambda b, d: (b,), lambda b, d: (b, d, d + 1)],
                         ids=["B", "B-d-d+1"])
def test_sigma_of_another_shape_is_an_error(shape):
    co = CoefficientSet(
        dim=2, sigma=lambda t, x: np.ones(shape(*x.shape)), z_drift=lambda t, x: -x,
        b_delay=lambda t, seg: np.zeros((seg.shape[0], 2)),
        constants=AssumptionConstants(k1=0.0, k2=0.0, k3=1.0, k4=-2.0))
    with pytest.raises(ValueError, match="shape"):
        co.diffusion(0.0, np.zeros((3, 2)))
    # the audit reports the shape, not a singular sigma
    with pytest.raises(ValueError, match="shape"):
        audit_assumptions(co, n=16, seed=0)


@pytest.mark.parametrize("dim, z_drift, b_delay, message", [
    (1, lambda t, x: -x[:, 0], lambda t, seg: seg[:, 0, :], r"z_drift\(t=.*\) has shape \(\d+,\)"),
    (2, lambda t, x: -x, lambda t, seg: seg[:, 0, :1], r"b_delay\(t=.*\) has shape \(\d+, 1\)"),
], ids=["z_drift-B", "b_delay-B-1"])
def test_drift_of_another_shape_is_an_error(dim, z_drift, b_delay, message):
    # broadcast silently, these skewed the audit's A4 or added the one
    # column of b to both components
    co = CoefficientSet(
        dim=dim, sigma=lambda t, x: np.ones(x.shape), z_drift=z_drift, b_delay=b_delay,
        constants=AssumptionConstants(k1=1.0, k2=0.0, k3=1.0, k4=-2.0))
    grid = GridSpec(1.0, 2.0, 4)
    xi = constant_segment(np.ones(dim), 1.0, 4)
    with pytest.raises(ValueError, match=message):
        audit_assumptions(co, n=300, seed=0)
    with pytest.raises(ValueError, match=message):
        simulate_path(co, xi, grid, seed=0)
    with pytest.raises(ValueError, match=message):
        estimate_PT_f(co, xi, catalog_fn("quad_cap", 100.0), grid, n=16, seed=0)
    with pytest.raises(ValueError, match=message):
        simulate_coupled_Q(co, xi, constant_segment(np.zeros(dim), 1.0, 4), grid, t0=1.0)


def test_audit_lets_a_b_delay_error_through():
    # an error in b_delay is not a singular sigma (A3 = inf with A1 unsampled)
    def b_delay(t, seg):
        raise ValueError("user bug")

    co = CoefficientSet(
        dim=1, sigma=lambda t, x: np.ones(x.shape), z_drift=lambda t, x: -x,
        b_delay=b_delay, constants=AssumptionConstants(k1=0.0, k2=0.0, k3=1.0, k4=-2.0))
    with pytest.raises(ValueError, match="user bug"):
        audit_assumptions(co, n=300, seed=0)


def test_audit_reads_the_dense_matrix_the_kernels_step_with():
    mat = np.array([[2.0, 1.0], [0.0, 4.0]])
    k3 = np.linalg.svd(np.linalg.inv(mat), compute_uv=False)[0]

    def system(scale, k3_declared):
        return CoefficientSet(
            dim=2, sigma=lambda t, x: np.broadcast_to(scale * mat, x.shape + (2,)),
            z_drift=lambda t, x: -x,
            b_delay=lambda t, seg: np.zeros((seg.shape[0], 2)),
            constants=AssumptionConstants(k1=0.0, k2=0.0, k3=k3_declared, k4=-2.0))

    grid = GridSpec(1.0, 0.5, 2)  # one Euler step
    xi = np.ones((3, 2))
    stream = NoiseStream(seed=4, h=grid.h, dim=2)
    dw = stream.batch(0, 5, 1)[0]
    for scale in (1.0, 5.0):
        co = system(scale, k3 / scale)
        a3 = audit_assumptions(co, n=600, seed=1).conditions["A3"]
        assert a3.passed
        assert a3.empirical_max == pytest.approx(k3 / scale, rel=1e-12)
        rec = _Recorder(grid.m + grid.n_T + 1)
        _simulate_batch(co, (xi,), grid, NoiseBlocks(stream, 0, 5, 1), (rec,))
        np.testing.assert_allclose(rec.full[0][-1], 1.0 - grid.h + dw @ (scale * mat).T,
                                   rtol=1e-14, atol=1e-15)
    # the k3 of the scaled matrix does not hold for the unscaled one
    assert not audit_assumptions(system(1.0, k3 / 5.0), n=600, seed=1).conditions["A3"].passed


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
        constants=AssumptionConstants(k1=0.3, k2=0.0, k3=1.0, k4=-2.0))
    report = audit_assumptions(bad, n=4000, seed=3)
    assert not report.conditions["A1"].passed
    assert report.conditions["A1"].empirical_max > 0.3


def test_audit_catches_understated_dissipativity():
    good = builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0})
    bad = CoefficientSet(
        dim=1, sigma=good.sigma, z_drift=good.z_drift, b_delay=good.b_delay,
        constants=AssumptionConstants(k1=0.5, k2=0.0, k3=1.0, k4=-2.5))
    report = audit_assumptions(bad, n=4000, seed=3)
    assert not report.conditions["A4"].passed
    assert report.conditions["A4"].empirical_max == pytest.approx(-2.0, abs=1e-6)


def test_audit_catches_understated_inverse_bound():
    good = builtin_system("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1})
    bad = CoefficientSet(
        dim=1, sigma=good.sigma, z_drift=good.z_drift, b_delay=good.b_delay,
        constants=AssumptionConstants(k1=2.0, k2=0.2, k3=5.0, k4=-1.99))
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
    assert doubled.sigma(0.0, x)[0, 0] == 2.0
    assert doubled.diffusion(0.0, x).solve(np.ones((1, 1)))[0, 0] == 0.5
    off = with_scaled_sigma(co, 0.0)
    assert off.sigma(0.0, x)[0, 0] == 0.0
    with pytest.raises(ValueError, match="singular"):
        off.diffusion(0.0, x).solve(np.ones((1, 1)))


@pytest.mark.parametrize("name,params,dim", [
    ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 0.7}, 1),
    ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 0.7}, 3),
    ("ou_nodelay", {"a": 1.0, "s0": 0.3}, 1),
    ("ou_nodelay", {"a": 1.0, "s0": 0.3}, 3),
    ("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1}, 1),
])
def test_audit_of_diagonal_matches_dense_formulas(name, params, dim):
    co = builtin_system(name, params, dim=dim)
    assert co.sigma(0.3, np.zeros((4, dim))).shape == (4, dim)
    box = AuditBox(t_max=2.0)
    got = audit_assumptions(co, box=box, n=5000, seed=3)
    want = audit_dense(co, box, n=5000, seed=3)
    assert got.conditions.keys() == want.conditions.keys()
    for cond in want.conditions:
        assert got.conditions[cond] == want.conditions[cond], cond
    assert got == want
