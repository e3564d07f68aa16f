"""The streaming stepping core against the full-history kernels of
tests/oracles.py, its memory against the horizon and, for the stationary
sampler, against the sample size, and the early stop of coupled chunks
whose estimate reads only up to t_upper."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from harnack_lab import estimators
from harnack_lab.coefficients import AssumptionConstants, CoefficientSet, builtin_system
from harnack_lab.coupling import (GammaSchedule, _coupled_batch, _Integrals,
                                  simulate_coupled_P, simulate_coupled_Q)
from harnack_lab.estimators import (_Chunk, _reduce,
                                    _SegGapIntegral, estimate_entropy_Q,
                                    estimate_exp_functional,
                                    estimate_martingale_mean, estimate_PT_f,
                                    sample_stationary_segments)
from harnack_lab.estimators import test_function as catalog_fn
from harnack_lab.integrator import (NoiseBlocks, NoiseStream, _Recorder, _simulate_batch,
                                    simulate_path)
from harnack_lab.segment_paths import GridSpec, SegmentPath, constant_segment
from oracles import (coupled_batch_full, dense_sigma, increments,
                     seg_gap_integral_window_max, simulate_batch_full)

SINE = ("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1}, 1)
LINEAR = ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 0.7}, 3)


def system(name, dense):
    co = builtin_system(*name[:2], dim=name[2])
    # the dense twin steps through (B, d, d) matrices instead
    return dataclasses.replace(co, sigma=dense_sigma(co.sigma)) if dense else co


def setup(m, d, b=37):
    # 2(m + 1) + 1 steps: two full noise blocks and a one-step tail
    grid = GridSpec(1.0, (2 * m + 3) / m, m)
    assert grid.n_T % (m + 1) != 0
    xi = np.linspace(1.0, -0.5, (m + 1) * d).reshape(m + 1, d)
    eta = np.zeros((m + 1, d))
    stream = NoiseStream(seed=9, h=grid.h, dim=d)
    return grid, xi, eta, stream


CASES = [(sys_, dense) for sys_ in (SINE, LINEAR) for dense in (False, True)]
CASE_IDS = ["sine-d1", "sine-d1-dense", "linear-d3", "linear-d3-dense"]


@pytest.mark.parametrize("m", [1, 2, 7, 20])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_uncoupled_kernel_matches_full_history(case, m):
    co = system(*case)
    grid, xi, _, stream = setup(m, co.dim)
    b = 37
    rec = _Recorder(m + grid.n_T + 1)
    (ring,) = _simulate_batch(co, (xi,), grid, NoiseBlocks(stream, 0, b, grid.n_T), (rec,))
    want = simulate_batch_full(co, xi, grid, stream.batch(0, b, grid.n_T))
    assert np.array_equal(rec.full[0], want)
    assert np.array_equal(ring.segment(m + grid.n_T), np.moveaxis(want[grid.n_T:], 0, 1))


@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_paired_kernel_steps_each_history_on_the_same_noise(case, m):
    # two histories in one batch: each ring is the one-history run on the
    # same noise, and rows of the one-path simulator at every grid row
    co = system(*case)
    grid, xi, eta, stream = setup(m, co.dim)
    b = 5
    rec = _Recorder(m + grid.n_T + 1)
    rings = _simulate_batch(co, (eta, xi), grid, NoiseBlocks(stream, 3, b, grid.n_T), (rec,))
    assert len(rings) == len(rec.full) == 2
    noise = stream.batch(3, b, grid.n_T)
    for hist, full in zip((eta, xi), rec.full):
        assert np.array_equal(full, simulate_batch_full(co, hist, grid, noise))
    seg = SegmentPath(1.0, xi)
    for q in range(b):
        path = simulate_path(co, seg, grid, seed=9, path_index=3 + q)
        assert np.array_equal(rings[1].segment(m + grid.n_T)[q], path.values[grid.n_T:])


@pytest.mark.parametrize("k_upper", ["0", "1", "n0", "nT"])
@pytest.mark.parametrize("m", [1, 2, 7, 20])
@pytest.mark.parametrize("measure", ["Q", "P"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_coupled_kernel_matches_full_history(case, measure, m, k_upper):
    co = system(*case)
    grid, xi, eta, stream = setup(m, co.dim)
    b = 37
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    n0 = grid.index_of(1.0)
    k_upper = {"0": 0, "1": 1, "n0": n0, "nT": grid.n_T}[k_upper]
    rec = _Recorder(m + grid.n_T + 1)
    sums = _Integrals(m, k_upper, b)
    seg_gap = _SegGapIntegral(m, grid.h, k_upper, b)
    pair = _coupled_batch(co, xi, eta, grid, sched, NoiseBlocks(stream, 0, b, grid.n_T),
                          measure, 1e-8, (rec, sums, seg_gap))
    want = coupled_batch_full(co, xi, eta, grid, sched, stream.batch(0, b, grid.n_T),
                              measure, 1e-8, k_upper)
    assert want["merged"].any()
    got = {"log_weight": pair.logw, "phi_sq": sums.phi_sq,
           "gap_gamma_sq": sums.gap_over_gamma_sq, "merged": pair.merged,
           "full_x": rec.full[0], "full_y": rec.full[1]}
    for key in want:
        assert np.array_equal(got[key], want[key]), key
    last = m + grid.n_T
    for ring, full in zip(pair.rings, (want["full_x"], want["full_y"])):
        assert np.array_equal(ring.segment(last), np.moveaxis(full[grid.n_T:], 0, 1))
    assert np.array_equal(seg_gap.seg_gap_sq, seg_gap_integral_window_max(
        want["full_x"], want["full_y"], m, grid.h, k_upper))


@pytest.mark.parametrize("measure", ["Q", "P"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_one_path_dumps_match_full_history(case, measure):
    # path 5 over three noise blocks, against the full-history kernels fed
    # that path's own increments
    co = system(*case)
    m = 7
    grid, xi, eta, stream = setup(m, co.dim)
    noise = increments(stream, 5, grid.n_T)[:, None, :]
    traj = simulate_path(co, SegmentPath(grid.r0, xi), grid, seed=9, path_index=5)
    assert np.array_equal(traj.values, simulate_batch_full(co, xi, grid, noise)[:, 0, :])
    run = simulate_coupled_Q if measure == "Q" else simulate_coupled_P
    pair = run(co, SegmentPath(grid.r0, xi), SegmentPath(grid.r0, eta), grid, 1.0,
               seed=9, path_index=5)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    want = coupled_batch_full(co, xi, eta, grid, sched, noise, measure, 1e-8, grid.n_T)
    assert np.array_equal(pair.x_values, want["full_x"][:, 0, :])
    assert np.array_equal(pair.y_values, want["full_y"][:, 0, :])
    assert pair.log_weight_cum[-1] == want["log_weight"][0]
    assert pair.phi_sq_cum[-1] == want["phi_sq"][0]
    assert pair.merged == want["merged"][0]


# ------------------------------------------------------ memory vs horizon

def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


ESTIMATES = {
    "PT_f": lambda co, grid, xi, eta, sched: estimate_PT_f(
        co, xi, catalog_fn("quad_cap"), grid, n=1024, seed=1, threads=1),
    "entropy_Q": lambda co, grid, xi, eta, sched: estimate_entropy_Q(
        co, xi, eta, sched, grid, n=1024, seed=1, threads=1),
    "martingale_mean": lambda co, grid, xi, eta, sched: estimate_martingale_mean(
        co, xi, eta, sched, grid, n=1024, seed=1, threads=1),
    "seg_gap_sq": lambda co, grid, xi, eta, sched: estimate_exp_functional(
        co, xi, eta, sched, grid, lam=0.01, n=1024, seed=1,
        integrand="seg_gap_sq", t_upper=grid.T, threads=1),
}


@pytest.mark.parametrize("name", list(ESTIMATES))
def test_chunk_memory_does_not_grow_with_the_horizon(name):
    # one 1024-path chunk at m = 100: a full history at T = 8 is three
    # times the one at T = 2, the streamed state is the same
    co = builtin_system(*SINE[:2])
    m = 100
    xi, eta = constant_segment(1.0, 1.0, m), constant_segment(0.0, 1.0, m)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    peaks = {}
    for t in (2.0, 8.0):
        grid = GridSpec(1.0, t, m)
        peaks[t] = _peak(lambda: ESTIMATES[name](co, grid, xi, eta, sched))
    assert peaks[8.0] <= 1.1 * peaks[2.0], peaks


def test_stationary_memory_does_not_grow_with_n():
    # 256 paths at m = 100: whole paths at n = 8192 are about 2.3 times
    # those at n = 2048; the streamed run keeps its ring, one noise block
    # and the (n, d) window edges
    co = builtin_system("ou_nodelay", {"a": 1.0, "s0": 1.0})
    grid = GridSpec(1.0, 2.0, 100)
    # a first run allocates one-off caches that would inflate the baseline
    sample_stationary_segments(co, grid, n=16, burn_in=1.0, seed=1)
    peaks = {}
    for n in (2048, 8192):
        peaks[n] = _peak(lambda: sample_stationary_segments(co, grid, n=n, burn_in=10.0,
                                                            seed=1))
    assert peaks[8192] <= 1.25 * peaks[2048], peaks


# ------------------------------------------------- stop at max(t_upper, t0)

STOP_GRID = GridSpec(1.0, 3.0, 10)  # h = 0.1, one noise block is 11 steps
STOP_T0 = 1.5                       # n0 = 15: the merge check is in block 2
LAM = 0.05


def stop_estimate(co, kind, t_upper, n=40, seed=11):
    m, d = STOP_GRID.m, co.dim
    xi = SegmentPath(1.0, np.linspace(1.0, -0.5, (m + 1) * d).reshape(m + 1, d))
    eta = constant_segment(np.zeros(d), 1.0, m)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=STOP_T0)
    if kind == "entropy":
        est = estimate_entropy_Q(co, xi, eta, sched, STOP_GRID, n=n, seed=seed,
                                 t_upper=t_upper, threads=1)
    else:
        est = estimate_exp_functional(co, xi, eta, sched, STOP_GRID, lam=LAM, n=n,
                                      seed=seed, integrand=kind, t_upper=t_upper,
                                      threads=1)
    return est, (xi, eta, sched)


def full_horizon_estimate(co, kind, t_upper, xi, eta, sched, n=40, seed=11):
    # every chunk stepped to T on the (n_T, B, d) noise, as before the stop
    grid = STOP_GRID
    k_upper = grid.index_of(t_upper)
    stream = NoiseStream(seed=seed, h=grid.h, dim=co.dim)
    want = coupled_batch_full(co, xi.values, eta.values, grid, sched,
                              stream.batch(0, n, grid.n_T), "Q", 1e-8, k_upper)
    worst = None
    if kind == "entropy":
        v, top = 0.5 * want["phi_sq"], math.nan
    else:
        integral = {"phi_sq": want["phi_sq"], "gap_over_gamma_sq": want["gap_gamma_sq"],
                    "seg_gap_sq": seg_gap_integral_window_max(
                        want["full_x"], want["full_y"], grid.m, grid.h, k_upper)}[kind]
        expo = LAM * integral
        v, top, worst = np.exp(expo), float(expo.max()), "max_exponent"
    finite = (np.isfinite(want["log_weight"]) & np.isfinite(want["full_x"][-1]).all(axis=1)
              & np.isfinite(want["full_y"][-1]).all(axis=1))
    out = _Chunk.of(v, unmerged=int((finite & ~want["merged"]).sum()),
                    nonfinite=int((~finite).sum()), worst=top)
    return _reduce([out], seed, worst)


STOP_TIMES = {"h": 0.1, "t0-h": STOP_T0 - 0.1, "t0": STOP_T0, "past-t0": 2.2, "T": 3.0}
# gap_over_gamma_sq lives on [0, t0]
STOP_CASES = [(kind, at) for kind in ("entropy", "phi_sq", "gap_over_gamma_sq", "seg_gap_sq")
              for at in STOP_TIMES
              if kind != "gap_over_gamma_sq" or STOP_TIMES[at] <= STOP_T0]


@pytest.mark.parametrize("kind, t_upper", STOP_CASES, ids=[f"{k}-{a}" for k, a in STOP_CASES])
@pytest.mark.parametrize("case", [SINE, LINEAR], ids=["sine-d1", "linear-d3"])
def test_stopped_estimate_matches_full_horizon(case, kind, t_upper):
    t_upper = STOP_TIMES[t_upper]
    co = system(case, False)
    got, problem = stop_estimate(co, kind, t_upper)
    want = full_horizon_estimate(co, kind, t_upper, *problem)
    assert got.mean == want.mean
    assert got.std_error == want.std_error
    assert got.diagnostics == want.diagnostics


def spy_steps(monkeypatch):
    """Number of steps of every coupled chunk the estimators run."""
    seen = []
    real = estimators._coupled_batch

    def spy(coeffs, xi_values, eta_values, grid, sched, noise, *rest):
        seen.append(noise.shape[0])
        return real(coeffs, xi_values, eta_values, grid, sched, noise, *rest)

    monkeypatch.setattr(estimators, "_coupled_batch", spy)
    return seen


ACCEPTANCE_RUNS = {
    # name: (estimate at the acceptance grid, steps per chunk)
    "seg_gap_sq-0.5": (lambda *a: estimate_exp_functional(
        *a, lam=0.01, n=2, seed=1, integrand="seg_gap_sq", t_upper=0.5, threads=1), 400),
    "gap_over_gamma_sq-1.0": (lambda *a: estimate_exp_functional(
        *a, lam=0.01, n=2, seed=1, integrand="gap_over_gamma_sq", t_upper=1.0,
        threads=1), 400),
    "phi_sq-1.5": (lambda *a: estimate_exp_functional(
        *a, lam=0.01, n=2, seed=1, t_upper=1.5, threads=1), 600),
    "phi_sq-T": (lambda *a: estimate_exp_functional(
        *a, lam=0.01, n=2, seed=1, t_upper=2.0, threads=1), 800),
    "entropy-0.5": (lambda *a: estimate_entropy_Q(*a, n=2, seed=1, t_upper=0.5,
                                                  threads=1), 400),
    "entropy": (lambda *a: estimate_entropy_Q(*a, n=2, seed=1, threads=1), 800),
    "martingale_mean": (lambda *a: estimate_martingale_mean(*a, n=2, seed=1,
                                                            threads=1), 800),
}


@pytest.mark.parametrize("name", list(ACCEPTANCE_RUNS))
def test_chunk_steps_to_max_of_t_upper_and_t0(monkeypatch, name):
    # m = 400, t0 = 1, T = 2: n0 = 400, n_T = 800
    co = builtin_system(*LINEAR[:2])
    grid = GridSpec(1.0, 2.0, 400)
    xi, eta = constant_segment(1.0, 1.0, 400), constant_segment(0.0, 1.0, 400)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    seen = spy_steps(monkeypatch)
    run, steps = ACCEPTANCE_RUNS[name]
    run(co, xi, eta, sched, grid)
    assert seen == [steps]


@pytest.mark.parametrize("kind", ["entropy", "phi_sq"])
def test_stop_before_t0_still_counts_unmerged(kind):
    # t_upper = h < t0: the chunk must still run through the merge check
    co = system(LINEAR, False)
    m = STOP_GRID.m
    xi = constant_segment(np.ones(3), 1.0, m)
    eta = constant_segment(np.zeros(3), 1.0, m)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=STOP_T0)
    kw = dict(n=20, seed=3, t_upper=STOP_GRID.h, delta_merge=-1.0, threads=1)
    if kind == "entropy":
        est = estimate_entropy_Q(co, xi, eta, sched, STOP_GRID, **kw)
    else:
        est = estimate_exp_functional(co, xi, eta, sched, STOP_GRID, lam=LAM, **kw)
    assert est.diagnostics["unmerged"] == 20
    assert est.diagnostics["nonfinite"] == 0
    assert est.failures == 20


def nan_after(t_bad):
    # a contracting system whose drift turns NaN once t > t_bad; NaN then
    # holds both copies from the next grid row on
    ones = lambda t, x: np.ones((x.shape[0], 1, 1))
    return CoefficientSet(
        dim=1, sigma=ones,
        z_drift=lambda t, x: -x if t <= t_bad else np.full_like(x, np.nan),
        b_delay=lambda t, seg: np.zeros((seg.shape[0], 1)),
        constants=AssumptionConstants(k1=1.0, k2=0.0, k3=1.0, k4=1.0))


@pytest.mark.parametrize("kind", ["entropy", "phi_sq"])
@pytest.mark.parametrize("t_upper, t_bad, nonfinite", [
    (1.5, 1.45, 0),    # NaN from t = 1.6, past t_upper > t0
    (1.5, 1.35, 12),   # NaN from t = 1.5, the last row read
    (1.5, 1.25, 12),   # NaN from t = 1.4, before t_upper
    (0.5, 0.95, 0),    # NaN from t = 1.1, past t0 > t_upper
    (0.5, 0.85, 12),   # NaN from t = 1.0, the last row read
    (0.5, 0.75, 12),   # NaN from t = 0.9, between t_upper and t0
    (0.5, 0.25, 12),   # NaN from t = 0.4, before t_upper
])
def test_nonfinite_counts_failures_up_to_the_stop(kind, t_upper, t_bad, nonfinite):
    # r0 = 0.5, h = 0.1, t0 = 1, T = 2: a chunk stops at max(t_upper, t0)
    co = nan_after(t_bad)
    grid = GridSpec(0.5, 2.0, 5)
    xi, eta = constant_segment(1.0, 0.5, 5), constant_segment(0.0, 0.5, 5)
    sched = GammaSchedule(theta=1.0, k4=1.0, t0=1.0)
    kw = dict(n=12, seed=2, t_upper=t_upper, threads=1)
    with np.errstate(all="ignore"):
        if kind == "entropy":
            est = estimate_entropy_Q(co, xi, eta, sched, grid, **kw)
        else:
            est = estimate_exp_functional(co, xi, eta, sched, grid, lam=LAM, **kw)
    assert est.diagnostics["nonfinite"] == nonfinite
    assert est.diagnostics["unmerged"] == 0
    assert est.failures == nonfinite
    if not nonfinite:
        assert np.isfinite(est.mean) and np.isfinite(est.std_error)
