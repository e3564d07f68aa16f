"""The streaming stepping core against the full-history kernels of
tests/oracles.py, and its memory against the horizon and, for the
stationary sampler, against the sample size."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from harnack_lab.coefficients import builtin_system
from harnack_lab.coupling import (GammaSchedule, _coupled_batch, _Integrals,
                                  simulate_coupled_P, simulate_coupled_Q)
from harnack_lab.estimators import (_SegGapIntegral, estimate_entropy_Q,
                                    estimate_exp_functional,
                                    estimate_martingale_mean, estimate_PT_f,
                                    sample_stationary_segments)
from harnack_lab.estimators import test_function as catalog_fn
from harnack_lab.integrator import (NoiseBlocks, NoiseStream, _Recorder, _simulate_batch,
                                    simulate_path)
from harnack_lab.segment_paths import GridSpec, SegmentPath, constant_segment
from oracles import (coupled_batch_full, increments, seg_gap_integral_window_max,
                     simulate_batch_full)

SINE = ("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1}, 1)
LINEAR = ("linear_additive", {"a": -1.0, "c": 0.5, "s0": 0.7}, 3)


def system(name, dense):
    co = builtin_system(*name[:2], dim=name[2])
    # the dense twin steps through sigma / sigma_inv matrices instead
    return dataclasses.replace(co, sigma_diag=None) if dense else co


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
    ring = _simulate_batch(co, xi, grid, NoiseBlocks(stream, 0, b, grid.n_T), (rec,))
    want = simulate_batch_full(co, xi, grid, stream.batch(0, b, grid.n_T))
    assert np.array_equal(rec.full[0], want)
    assert np.array_equal(ring.segment(m + grid.n_T), np.moveaxis(want[grid.n_T:], 0, 1))


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
