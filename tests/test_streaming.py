"""The streaming stepping core against the full-history kernels of
tests/oracles.py, its memory against the horizon and, for the stationary
sampler, against the sample size, and the early stop of coupled chunks
whose estimate reads only up to t_upper."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from harnack_lab import estimators
from harnack_lab._parallel import CHUNK
from harnack_lab.coefficients import AssumptionConstants, CoefficientSet, builtin_system
from harnack_lab.coupling import GammaSchedule, _coupled_batch, simulate_coupled
from harnack_lab.estimators import (_reduce, _SegGapIntegral, estimate_entropy_Q,
                                    estimate_exp_functional,
                                    estimate_martingale_mean, estimate_PT_f,
                                    sample_stationary_segments)
from harnack_lab.estimators import test_function as catalog_fn
from harnack_lab.integrator import (NoiseBlocks, NoiseStream, _Recorder, _simulate_batch,
                                    simulate_path)
from harnack_lab.segment_paths import GridSpec, SegmentPath, constant_segment
from oracles import (SumsAt, coupled_batch_full, dense_sigma, increments, increments_batch,
                     keep_apart_at_t0, seg_gap_integral_window_max, simulate_batch_full)

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
    want = simulate_batch_full(co, xi, grid, increments_batch(stream, 0, b, grid.n_T))
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
    noise = increments_batch(stream, 3, b, grid.n_T)
    for hist, full in zip((eta, xi), rec.full):
        assert np.array_equal(full, simulate_batch_full(co, hist, grid, noise))
    seg = SegmentPath(1.0, xi)
    for q in range(b):
        path = simulate_path(co, seg, grid, seed=9, path_index=3 + q)
        assert np.array_equal(rings[1].segment(m + grid.n_T)[q], path.values[grid.n_T:])


@pytest.mark.parametrize("k_upper", ["0", "1", "n0", "nT"])
# the deadline t0 is 1 unless named: at T the snap is the last step, at h
# the first
@pytest.mark.parametrize("m, t0", [(1, "1"), (2, "1"), (7, "1"), (20, "1"),
                                   (7, "T"), (7, "h")],
                         ids=["1", "2", "7", "20", "7-T", "7-h"])
@pytest.mark.parametrize("measure", ["Q", "P"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_coupled_kernel_matches_full_history(case, measure, m, t0, k_upper):
    co = system(*case)
    grid, xi, eta, stream = setup(m, co.dim)
    b = 37
    t0 = {"1": 1.0, "T": grid.T, "h": grid.h}[t0]
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=t0)
    n0 = grid.index_of(t0)
    k_upper = {"0": 0, "1": 1, "n0": n0, "nT": grid.n_T}[k_upper]
    rec = _Recorder(m + grid.n_T + 1)
    sums = SumsAt(m, k_upper)
    seg_gap = _SegGapIntegral(m, grid.h, k_upper, b)
    pair = _coupled_batch(co, xi, eta, grid, sched, NoiseBlocks(stream, 0, b, grid.n_T),
                          measure, (rec, sums, seg_gap))
    want = coupled_batch_full(co, xi, eta, grid, sched, increments_batch(stream, 0, b, grid.n_T),
                              measure, k_upper)
    assert want["merged"].any()
    got = {"log_weight": pair.logw, "phi_sq": sums.phi_sq,
           "gap_gamma_sq": sums.gap_gamma_sq, "merged": pair.merged,
           "full_x": rec.full[0], "full_y": rec.full[1]}
    for key in want:
        assert np.array_equal(got[key], want[key]), key
    last = m + grid.n_T
    for ring, full in zip(pair.rings, (want["full_x"], want["full_y"])):
        assert np.array_equal(ring.segment(last), np.moveaxis(full[grid.n_T:], 0, 1))
    assert np.array_equal(seg_gap.seg_gap_sq, seg_gap_integral_window_max(
        want["full_x"], want["full_y"], m, grid.h, k_upper))


def counted(co):
    """co with its sigma, z_drift and b_delay counting their calls in the
    returned dict."""
    calls = dict.fromkeys(("sigma", "z_drift", "b_delay"), 0)

    def wrap(name):
        fn = getattr(co, name)

        def call(t, x):
            calls[name] += 1
            return fn(t, x)
        return call

    return dataclasses.replace(co, **{name: wrap(name) for name in calls}), calls


def nan_in_column(co, q):
    """co whose drift is NaN for path q of every batch: that path never
    merges, and the row-by-row rule keeps the NaN out of the others."""
    def z_drift(t, x):
        return np.where(np.arange(len(x))[:, None] == q, np.nan, co.z_drift(t, x))
    return dataclasses.replace(co, z_drift=z_drift)


def run_coupled(co, measure, m):
    # t0 = 1, so n0 = m of n_T = 2m + 3 steps
    grid, xi, eta, stream = setup(m, co.dim)
    b = 37
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    rec = _Recorder(m + grid.n_T + 1)
    sums = SumsAt(m, grid.n_T)
    pair = _coupled_batch(co, xi, eta, grid, sched, NoiseBlocks(stream, 0, b, grid.n_T),
                          measure, (rec, sums))
    want = coupled_batch_full(co, xi, eta, grid, sched, increments_batch(stream, 0, b, grid.n_T),
                              measure, grid.n_T)
    got = {"log_weight": pair.logw, "phi_sq": sums.phi_sq,
           "gap_gamma_sq": sums.gap_gamma_sq, "merged": pair.merged,
           "full_x": rec.full[0], "full_y": rec.full[1]}
    return grid, got, want


@pytest.mark.parametrize("m", [1, 7])
@pytest.mark.parametrize("measure", ["Q", "P"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_merged_chunk_steps_one_copy_after_t0(case, measure, m):
    # every path merges at t0, so each step from n0 on evaluates z and
    # sigma once, and the result is the full step's bit for bit
    co, calls = counted(system(*case))
    grid, got, want = run_coupled(co, measure, m)
    n0, n_t = grid.index_of(1.0), grid.n_T
    assert want["merged"].all()
    # the oracle's full step adds 2 n_T calls of each
    assert calls["z_drift"] == calls["sigma"] == 2 * n0 + (n_t - n0) + 2 * n_t
    assert calls["b_delay"] == 4 * n_t
    for key in want:
        assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize("wrap", ["none", "nan-column"])
@pytest.mark.parametrize("measure", ["Q", "P"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_snap_rows_equal_and_merged(case, measure, wrap):
    # the last contraction factor is 0, so every finite pair is equal at
    # t0 and merges with no tolerance; the snap makes the rows equal bit
    # for bit, signed zeros included
    co = system(*case)
    keep = np.ones(37, dtype=bool)
    if wrap == "nan-column":
        co, keep[3] = nan_in_column(co, 3), False
    with np.errstate(all="ignore"):
        grid, got, _ = run_coupled(co, measure, 7)
    snap = grid.m + grid.index_of(1.0)
    x, y = got["full_x"][snap][keep], got["full_y"][snap][keep]
    assert np.array_equal(x.view(np.uint64), y.view(np.uint64))
    assert np.array_equal(got["merged"], keep)


@pytest.mark.parametrize("unmerged", ["nan-column", "all"])
@pytest.mark.parametrize("measure", ["Q", "P"])
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_unmerged_chunk_keeps_the_full_step(monkeypatch, case, measure, unmerged):
    # one NaN path (or a last contraction factor that leaves every pair
    # apart at t0) keeps the chunk on the full step after t0; every finite
    # path equals the oracle bit for bit
    co = system(*case)
    keep = np.ones(37, dtype=bool)
    if unmerged == "nan-column":
        co, keep[3] = nan_in_column(co, 3), False
    else:
        keep_apart_at_t0(monkeypatch)
    co, calls = counted(co)
    with np.errstate(all="ignore"):
        grid, got, want = run_coupled(co, measure, 7)
    assert calls["z_drift"] == calls["sigma"] == 4 * grid.n_T
    assert np.array_equal(want["merged"], keep if unmerged == "nan-column" else ~keep)
    paths = lambda a: a[keep] if a.ndim == 1 else a[:, keep]
    for key in want:
        assert np.array_equal(paths(got[key]), paths(want[key])), key


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
    pair = simulate_coupled(co, SegmentPath(grid.r0, xi), SegmentPath(grid.r0, eta), grid,
                            1.0, measure, seed=9, path_index=5)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    want = coupled_batch_full(co, xi, eta, grid, sched, noise, measure, grid.n_T)
    assert np.array_equal(pair.x_values, want["full_x"][:, 0, :])
    assert np.array_equal(pair.y_values, want["full_y"][:, 0, :])
    assert pair.log_weight_cum[-1] == want["log_weight"][0]
    # row k of the running |phi|^2 integral is the oracle's over k steps
    phi_sq_cum = [coupled_batch_full(co, xi, eta, grid, sched, noise, measure,
                                     k)["phi_sq"][0] for k in range(grid.n_T + 1)]
    assert np.array_equal(pair.phi_sq_cum, phi_sq_cum)
    assert pair.merged == want["merged"][0]


# d = 1 with a diagonal sigma, d = 2 with a dense one
IN_RING_CASES = [(SINE, False), (("linear_additive", LINEAR[1], 2), True)]


@pytest.mark.parametrize("kernel", ["two-histories", "Q", "P"])
@pytest.mark.parametrize("case", IN_RING_CASES, ids=["sine-d1", "linear-d2-dense"])
def test_in_ring_noise_over_three_blocks_matches_full_history(case, kernel):
    # n_T = 2(m + 1) + 3: each noise block is drawn into the first ring's
    # mirror half, and the short last block leaves the tail of the one
    # before it there, which no segment may read
    co = system(*case)
    m, b = 7, 37
    d = co.dim
    grid = GridSpec(1.0, (2 * (m + 1) + 3) / m, m)
    assert grid.n_T == 2 * (m + 1) + 3
    xi = np.linspace(1.0, -0.5, (m + 1) * d).reshape(m + 1, d)
    eta = np.zeros((m + 1, d))
    stream = NoiseStream(seed=9, h=grid.h, dim=d)
    noise = increments_batch(stream, 0, b, grid.n_T)
    blocks = NoiseBlocks(stream, 0, b, grid.n_T)
    rec = _Recorder(m + grid.n_T + 1)
    if kernel == "two-histories":
        rings = _simulate_batch(co, (eta, xi), grid, blocks, (rec,))
        want = [simulate_batch_full(co, hist, grid, noise) for hist in (eta, xi)]
    else:
        sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
        sums = SumsAt(m, grid.n_T)
        pair = _coupled_batch(co, xi, eta, grid, sched, blocks, kernel, (rec, sums))
        full = coupled_batch_full(co, xi, eta, grid, sched, noise, kernel, grid.n_T)
        got = {"log_weight": pair.logw, "phi_sq": sums.phi_sq,
               "gap_gamma_sq": sums.gap_gamma_sq, "merged": pair.merged}
        for key in got:
            assert np.array_equal(got[key], full[key]), key
        rings, want = pair.rings, [full["full_x"], full["full_y"]]
    last = m + grid.n_T
    for ring, path, full_path in zip(rings, rec.full, want):
        assert np.array_equal(path, full_path)
        assert np.array_equal(ring.segment(last), np.moveaxis(full_path[grid.n_T:], 0, 1))


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


CHUNK_RUNS = {
    "coupled": lambda co, grid, xi, eta, noise: _coupled_batch(
        co, xi, eta, grid, GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0), noise, "Q"),
    "two-histories": lambda co, grid, xi, eta, noise: _simulate_batch(
        co, (xi, eta), grid, noise),
}


@pytest.mark.parametrize("name", list(CHUNK_RUNS))
def test_chunk_holds_its_rings_and_a_small_allowance_per_path(name):
    # m = 200, B = 512, T = 3 r0: two mirrored rings of 2(m + 1) B floats
    # each (3.3 MB) dominate, and the paths resume between noise blocks.
    # The noise is drawn into a ring, so the rest fits in 1 KB per path:
    # the saved Philox position (about 0.35 KB), the step's (B, d)
    # temporaries and the 64-path staging block of each draw. A separate
    # (m + 1, B, d) noise block and the generator's state dict per path
    # would add about 2.4 KB per path
    co = builtin_system(*LINEAR[:2])
    m, b = 200, 512
    grid = GridSpec(1.0, 3.0, m)
    xi, eta = np.ones((m + 1, 1)), np.zeros((m + 1, 1))
    stream = NoiseStream(seed=1, h=grid.h, dim=1)
    run = lambda: CHUNK_RUNS[name](co, grid, xi, eta, NoiseBlocks(stream, 0, b, grid.n_T))
    # the first call imports lazily
    run()
    rings = 2 * 2 * (m + 1) * b * 8
    assert _peak(run) <= rings + 1024 * b


def test_coupled_chunk_holds_two_half_width_rings():
    # CHUNK coupled pairs at m = 200, T = 2 r0, one worker. Its chunks of
    # CHUNK // 2 pairs run one after the other, so it holds two mirrored
    # rings of 2(m + 1) CHUNK // 2 floats (26.3 MB) and the 1 KB per path
    # of the test above. One batch of CHUNK pairs holds rings twice as
    # large (52.7 MB) and fails this
    co = builtin_system(*LINEAR[:2])
    m = 200
    grid = GridSpec(1.0, 2.0, m)
    xi, eta = constant_segment(1.0, 1.0, m), constant_segment(0.0, 1.0, m)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    run = lambda n: estimate_entropy_Q(co, xi, eta, sched, grid, n=n, seed=1, threads=1)
    # the first call imports lazily
    run(2)
    rings = 2 * 2 * (m + 1) * (CHUNK // 2) * 8
    assert _peak(lambda: run(CHUNK)) <= rings + 1024 * CHUNK


@pytest.mark.parametrize("name", list(ESTIMATES))
def test_estimates_call_each_coefficient_once_per_stepped_state(name):
    # one 1024-path chunk, n0 = 15 of n_T = 30 steps, every path merged: a
    # coupled step evaluates b, z and sigma for X and Y before t0, and from
    # t0 on the two b's and one z and sigma; an uncoupled step one of each
    co, calls = counted(builtin_system(*SINE[:2]))
    grid = GridSpec(1.0, 3.0, 10)
    xi, eta = constant_segment(1.0, 1.0, 10), constant_segment(0.0, 1.0, 10)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.5)
    est = ESTIMATES[name](co, grid, xi, eta, sched)
    if name == "PT_f":
        assert sum(calls.values()) == 3 * 30
    else:
        assert est.diagnostics["unmerged"] == est.diagnostics["nonfinite"] == 0
        assert sum(calls.values()) == 6 * 15 + 4 * 15


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
                              increments_batch(stream, 0, n, grid.n_T), "Q", k_upper)
    finite = (np.isfinite(want["log_weight"]) & np.isfinite(want["full_x"][-1]).all(axis=1)
              & np.isfinite(want["full_y"][-1]).all(axis=1))
    diag = {"unmerged": int((finite & ~want["merged"]).sum()),
            "nonfinite": int((~finite).sum())}
    if kind == "entropy":
        v = 0.5 * want["phi_sq"]
    else:
        integral = {"gap_over_gamma_sq": want["gap_gamma_sq"],
                    "seg_gap_sq": seg_gap_integral_window_max(
                        want["full_x"], want["full_y"], grid.m, grid.h, k_upper)}[kind]
        expo = LAM * integral
        v, diag["max_exponent"] = np.exp(expo), float(expo.max())
    return _reduce(v, seed, diag)


STOP_TIMES = {"h": 0.1, "t0-h": STOP_T0 - 0.1, "t0": STOP_T0, "past-t0": 2.2, "T": 3.0}
# gap_over_gamma_sq lives on [0, t0]
STOP_CASES = [(kind, at) for kind in ("entropy", "gap_over_gamma_sq", "seg_gap_sq")
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
    "seg_gap_sq-1.5": (lambda *a: estimate_exp_functional(
        *a, lam=0.01, n=2, seed=1, integrand="seg_gap_sq", t_upper=1.5, threads=1), 600),
    "seg_gap_sq-T": (lambda *a: estimate_exp_functional(
        *a, lam=0.01, n=2, seed=1, integrand="seg_gap_sq", t_upper=2.0, threads=1), 800),
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


@pytest.mark.parametrize("kind", ["entropy", "seg_gap_sq"])
def test_stop_before_t0_still_counts_unmerged(monkeypatch, kind):
    # t_upper = h < t0: the chunk must still run through the merge check
    keep_apart_at_t0(monkeypatch)
    co = system(LINEAR, False)
    m = STOP_GRID.m
    # only the first component starts apart, and the system acts component
    # by component: the other two stay equal, yet no pair is merged
    xi = constant_segment(np.array([1.0, 0.0, 0.0]), 1.0, m)
    eta = constant_segment(np.zeros(3), 1.0, m)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=STOP_T0)
    kw = dict(n=20, seed=3, t_upper=STOP_GRID.h, threads=1)
    if kind == "entropy":
        est = estimate_entropy_Q(co, xi, eta, sched, STOP_GRID, **kw)
    else:
        est = estimate_exp_functional(co, xi, eta, sched, STOP_GRID, lam=LAM, integrand=kind,
                                      **kw)
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


@pytest.mark.parametrize("kind", ["entropy", "seg_gap_sq"])
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
            est = estimate_exp_functional(co, xi, eta, sched, grid, lam=LAM, integrand=kind,
                                          **kw)
    assert est.diagnostics["nonfinite"] == nonfinite
    assert est.diagnostics["unmerged"] == 0
    assert est.failures == nonfinite
    if not nonfinite:
        assert np.isfinite(est.mean) and np.isfinite(est.std_error)
