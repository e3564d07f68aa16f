import math
import sys
import threading

import numpy as np
import pytest

from harnack_lab.coefficients import AssumptionConstants, builtin_system
from harnack_lab.integrator import (NoiseBlocks, NoiseStream, Trajectory, _simulate_batch,
                                    simulate_path)
from harnack_lab.segment_paths import GridSpec, constant_segment
from oracles import (coefficient_set_from_pointwise, increments, increments_batch, points,
                     segment_at, step_euler, times, value_at, with_scaled_sigma)


def linear(a=-1.0, c=0.5, s0=1.0):
    return builtin_system("linear_additive", {"a": a, "c": c, "s0": s0})


def drawn(ns, first, n_paths, n_steps, size=None):
    """The increments NoiseBlocks draws in blocks of size steps (default
    one block), each copied out of the block buffer before the next."""
    size = size or n_steps
    out = np.empty((size, n_paths, ns.dim))
    return np.concatenate([b.copy() for b in
                           NoiseBlocks(ns, first, n_paths, n_steps).blocks(size, out)])


def test_noise_stream_reproducible_and_scaled():
    ns = NoiseStream(seed=5, h=0.01, dim=2)
    a = drawn(ns, 3, 1, 100)[:, 0, :]
    b = drawn(ns, 3, 1, 100)[:, 0, :]
    np.testing.assert_array_equal(a, b)
    assert a.shape == (100, 2)
    # increments carry the sqrt(h) scale
    raw = drawn(NoiseStream(seed=5, h=1.0, dim=2), 3, 1, 100)[:, 0, :]
    np.testing.assert_allclose(a, raw * 0.1)


def test_noise_stream_paths_differ():
    ns = NoiseStream(seed=5, h=0.01, dim=1)
    assert not np.array_equal(increments(ns, 0, 50), increments(ns, 1, 50))
    # different seeds differ too
    other = NoiseStream(seed=6, h=0.01, dim=1)
    assert not np.array_equal(increments(ns, 0, 50), increments(other, 0, 50))


@pytest.mark.parametrize("seed, first, n_paths, n_steps, dim", [
    (9, 7, 4, 20, 3),
    (9, 0, 1, 20, 1),
    (9, 0, 64, 20, 1),
    (9, 0, 65, 20, 1),
    (9, 5, 130, 20, 3),
    (9, 5, 130, 1, 3),
    (2 ** 63 - 1, 2 ** 40, 130, 5, 2),
], ids=["n4-d3", "n1", "n64", "n65", "n130-d3", "n130-d3-one-step", "max-seed"])
def test_noise_stream_batch_matches_single(seed, first, n_paths, n_steps, dim):
    # 64-path blocks: 1, 64, 65 and 130 paths cover a partial, a full, a
    # full-plus-one and a two-full-plus-partial block layout
    ns = NoiseStream(seed=seed, h=0.04, dim=dim)
    batch = drawn(ns, first, n_paths, n_steps)
    assert batch.shape == (n_steps, n_paths, dim)
    np.testing.assert_array_equal(batch, increments_batch(ns, first, n_paths, n_steps))


def test_noise_stream_batch_chunk_split_invariant():
    ns = NoiseStream(seed=4, h=0.01, dim=2)
    whole = drawn(ns, 0, 200, 30)
    split = np.concatenate([drawn(ns, 0, 70, 30), drawn(ns, 70, 130, 30)], axis=1)
    np.testing.assert_array_equal(whole, split)


@pytest.mark.parametrize("size", [1, 7, 23], ids=["block1", "block7", "block-nT"])
def test_noise_blocks_concatenate_to_batch(size):
    # 23 steps are no multiple of 7; 130 paths span three 64-path blocks
    ns = NoiseStream(seed=2 ** 63 - 1, h=0.04, dim=3)
    out = np.empty((size, 130, 3))
    blocks = [b.copy() for b in NoiseBlocks(ns, 2 ** 40, 130, 23).blocks(size, out)]
    assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
    assert sum(len(b) for b in blocks) == 23
    np.testing.assert_array_equal(np.concatenate(blocks), increments_batch(ns, 2 ** 40, 130, 23))


def test_noise_stream_batch_resume_and_keep():
    # a keep list collects one state per path; resuming from it continues
    # every path where the first call stopped
    ns = NoiseStream(seed=9, h=0.01, dim=3)

    def draw(n_steps, resume=None, keep=None):
        out = np.empty((n_steps, 70, 3))
        ns._draw(out, 5, resume, keep)
        return out

    states = [None] * 70
    head = draw(11, keep=states)
    assert all(s is not None for s in states)
    tail = draw(9, resume=states)
    np.testing.assert_array_equal(np.concatenate([head, tail]), increments_batch(ns, 5, 70, 20))
    # a chain of four resumes, each saving into the list it resumed from; a
    # saved position is (counter word 0, buffer position, [4 buffered
    # words]), and the positions cover every buffer position 1-4, so each
    # restore case runs
    states, parts, seen = [None] * 70, [], set()
    for n_steps in (11, 9, 5, 1, 6):
        parts.append(draw(n_steps, resume=states if parts else None, keep=states))
        for counter, pos, buffered in states:
            assert all(type(v) is int for v in (counter, pos, *buffered))
            assert len(buffered) == 4
            seen.add(pos)
    assert seen == {1, 2, 3, 4}
    np.testing.assert_array_equal(np.concatenate(parts), increments_batch(ns, 5, 70, 32))


def test_noise_stream_batch_shared_across_threads():
    # threads may share one frozen stream; a generator, or saved states of
    # block draws, cached on it would interleave draws between threads
    ns = NoiseStream(seed=3, h=0.01, dim=2)
    want = [increments_batch(ns, first, 150, 40) for first in (0, 150, 300)]
    results = [None] * 4

    def work(i):
        results[i] = [drawn(ns, first, 150, 40, None if (i + j) % 2 else 7)
                      for j, first in enumerate((0, 150, 300))]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    assert vars(ns) == {"seed": 3, "h": 0.01, "dim": 2}


def test_noise_stream_validation():
    with pytest.raises(ValueError):
        NoiseStream(seed=-1, h=0.1, dim=1)
    with pytest.raises(ValueError):
        NoiseStream(seed=0, h=0.0, dim=1)
    with pytest.raises(ValueError):
        drawn(NoiseStream(seed=0, h=0.1, dim=1), -2, 3, 10)


def test_step_euler_matches_formula():
    co = linear(a=-2.0, c=0.25, s0=0.5)
    seg = constant_segment(3.0, 1.0, 4)
    x = np.array([1.0])
    dw = np.array([0.2])
    got = step_euler(0.0, x, seg, dw, 0.1, co)
    want = 1.0 + (-2.0 * 1.0 + 0.25 * 3.0) * 0.1 + 0.5 * 0.2
    assert got[0] == pytest.approx(want)


@pytest.mark.filterwarnings("ignore:overflow")
def test_step_euler_raises_on_blowup():
    co = coefficient_set_from_pointwise(
        dim=1,
        sigma=lambda t, x: [[1.0]],
        z_drift=lambda t, x: x * 1e308,
        b_delay=lambda t, seg: [0.0],
        constants=AssumptionConstants(k1=0.0, k2=0.0, k3=1.0, k4=0.0))
    seg = constant_segment(1.0, 1.0, 2)
    with pytest.raises(FloatingPointError):
        step_euler(0.0, np.array([1e300]), seg, np.array([0.0]), 1.0, co)


def test_simulate_path_ode_oracle_no_delay():
    # diffusion switched off, Z = -x: the exact flow is e^{-t}
    co = with_scaled_sigma(linear(a=-1.0, c=0.0), 0.0)
    grid = GridSpec(1.0, 1.0, 1000)
    xi = constant_segment(1.0, 1.0, 1000)
    traj = simulate_path(co, xi, grid, seed=0)
    assert traj.endpoint()[0] == pytest.approx(math.exp(-1.0), abs=1e-3)


def test_simulate_path_ode_oracle_with_delay():
    # constant history feeds the delay term on the first window:
    # X' = -X + 0.5, X(0)=1  ->  X(t) = 0.5 + 0.5 e^{-t}
    co = with_scaled_sigma(linear(a=-1.0, c=0.5), 0.0)
    grid = GridSpec(1.0, 1.0, 1000)
    xi = constant_segment(1.0, 1.0, 1000)
    traj = simulate_path(co, xi, grid, seed=0)
    t_half = value_at(traj, 0.5)[0]
    assert t_half == pytest.approx(0.5 + 0.5 * math.exp(-0.5), abs=1e-3)
    assert traj.endpoint()[0] == pytest.approx(0.5 + 0.5 * math.exp(-1.0), abs=1e-3)


def test_simulate_path_euler_identity_small_grid():
    # three steps by hand against the engine
    co = linear(a=-1.0, c=0.5, s0=1.0)
    grid = GridSpec(1.0, 0.75, 4)  # h = 0.25, n_T = 3
    xi = constant_segment(1.0, 1.0, 4)
    traj = simulate_path(co, xi, grid, seed=12)
    dw = increments(NoiseStream(seed=12, h=grid.h, dim=1), 0, 3)
    full = list(xi.values[:, 0])
    for k in range(3):
        x = full[-1]
        delayed = full[k]  # X(t_k - r0)
        full.append(x + (-x + 0.5 * delayed) * grid.h + dw[k, 0])
    np.testing.assert_allclose(traj.values[:, 0], full, rtol=0, atol=1e-15)


def test_simulate_path_validates_inputs():
    co = linear()
    grid = GridSpec(1.0, 2.0, 10)
    with pytest.raises(ValueError):
        simulate_path(co, constant_segment(1.0, 1.0, 9), grid, seed=0)
    with pytest.raises(ValueError):
        simulate_path(co, constant_segment(1.0, 0.5, 10), grid, seed=0)
    with pytest.raises(ValueError):
        simulate_path(co, constant_segment([1.0, 1.0], 1.0, 10), grid, seed=0)


def exploding():
    """x' = 1e30 x^3 without noise: 0 stays put, 10 overflows in a few steps."""
    return coefficient_set_from_pointwise(
        dim=1,
        sigma=lambda t, x: [[0.0]],
        z_drift=lambda t, x: x * x * x * 1e30,
        b_delay=lambda t, seg: [0.0],
        constants=AssumptionConstants(k1=0.0, k2=0.0, k3=1.0, k4=0.0))


@pytest.mark.filterwarnings("ignore:overflow")
def test_simulate_path_raises_on_nonfinite():
    grid = GridSpec(1.0, 2.0, 4)
    xi = constant_segment(10.0, 1.0, 4)
    with pytest.raises(FloatingPointError, match="step"):
        simulate_path(exploding(), xi, grid, seed=0)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("first", [0.0, 10.0])
def test_every_paired_ring_checks_its_states(first):
    # one history stays finite, the other overflows, in either ring
    grid = GridSpec(1.0, 2.0, 4)
    histories = [np.full((5, 1), first), np.full((5, 1), 10.0 - first)]
    noise = NoiseBlocks(NoiseStream(seed=0, h=grid.h, dim=1), 0, 3, grid.n_T)
    with pytest.raises(FloatingPointError, match="non-finite state"):
        _simulate_batch(exploding(), histories, grid, noise)


def test_trajectory_accessors():
    co = linear()
    grid = GridSpec(1.0, 2.0, 8)
    xi = constant_segment(1.0, 1.0, 8)
    traj = simulate_path(co, xi, grid, seed=4)
    assert points(traj).shape == (grid.n_T + 1, 1)
    np.testing.assert_array_equal(value_at(traj, 0.0), xi.endpoint())
    seg_T = segment_at(traj.values, grid, 2.0)
    np.testing.assert_array_equal(seg_T.values, traj.values[-(grid.m + 1):])
    np.testing.assert_array_equal(segment_at(traj.values, grid, 0.0).values, xi.values)
    assert times(traj)[0] == pytest.approx(-1.0)
    assert times(traj)[-1] == pytest.approx(2.0)
    with pytest.raises(ValueError):
        value_at(traj, 0.1234)


def test_trajectory_values_read_only():
    co = linear()
    grid = GridSpec(1.0, 1.0, 4)
    traj = simulate_path(co, constant_segment(1.0, 1.0, 4), grid, seed=0)
    with pytest.raises(ValueError):
        traj.values[0, 0] = 99.0


def test_trajectory_shape_validation():
    grid = GridSpec(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        Trajectory(grid=grid, values=np.zeros((3, 1)))


def test_multidim_simulation_runs():
    co = builtin_system("ou_nodelay", {"a": 1.0, "s0": 0.5}, dim=3)
    grid = GridSpec(1.0, 1.0, 16)
    xi = constant_segment([1.0, -1.0, 0.0], 1.0, 16)
    traj = simulate_path(co, xi, grid, seed=2)
    assert traj.endpoint().shape == (3,)
    assert np.isfinite(traj.values).all()
