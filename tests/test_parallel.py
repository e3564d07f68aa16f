import concurrent.futures.process as cf_process
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from harnack_lab import _parallel
from harnack_lab._parallel import CHUNK, WorkerDied, map_chunks
from harnack_lab.coefficients import builtin_system
from harnack_lab.coupling import GammaSchedule, _coupled_batch
from harnack_lab.estimators import MAX_EXPONENT, _SegGapIntegral, estimate_exp_functional
from harnack_lab.integrator import NoiseBlocks, NoiseStream
from harnack_lab.segment_paths import GridSpec, constant_segment

needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the platform has no fork start method")


@pytest.fixture
def two_cpus(monkeypatch):
    # two workers at most, whatever the machine has
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)


class StubPool:
    """Records how it was built and runs every chunk in the calling process."""

    built = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        StubPool.built.append(max_workers)
        initializer(*initargs)

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture
def stub_pool(monkeypatch):
    StubPool.built = []
    monkeypatch.setattr(cf_process, "ProcessPoolExecutor", StubPool)
    monkeypatch.setattr(_parallel, "_worker_fn", None)
    return StubPool.built


@needs_fork
def test_forked_chunks_match_in_process(two_cpus):
    # the closure holds a lock, a lambda and an array, none of which pickle
    # the way a worker would need; fork hands it over as it is
    lock = threading.Lock()
    scale = lambda a: 0.1 * a
    table = np.arange(40.0) ** 0.5
    parent = os.getpid()

    def fn(a, b):
        with lock:
            return {"range": (a, b), "sum": float(table[a:b].sum()) + scale(a),
                    "pid": os.getpid()}

    one = map_chunks(fn, 35, threads=1, chunk=10)
    two = map_chunks(fn, 35, threads=2, chunk=10)
    assert [r["range"] for r in two] == [(0, 10), (10, 20), (20, 30), (30, 35)]
    assert [r["sum"] for r in two] == [r["sum"] for r in one]
    assert all(r["pid"] == parent for r in one)
    assert all(r["pid"] != parent for r in two)


@pytest.mark.parametrize("threads,cpus,n_total,workers", [
    (2, 1, 40, None),     # one CPU: no pool
    (4, 64, 10, None),    # one chunk: no pool
    (1, 64, 40, None),
    (8, 2, 40, 2),        # capped at the usable CPUs
    (2, 64, 40, 2),
    (8, 64, 30, 3),       # capped at the chunk count
])
def test_worker_count_is_capped(monkeypatch, stub_pool, threads, cpus, n_total, workers):
    monkeypatch.setattr(_parallel, "_cpus", lambda: cpus)
    out = map_chunks(lambda a, b: (a, b), n_total, threads=threads, chunk=10)
    assert out == [(a, min(a + 10, n_total)) for a in range(0, n_total, 10)]
    assert stub_pool == ([] if workers is None else [workers])


@pytest.mark.parametrize("allowed,workers", [({3}, None), ({0, 5}, 2), (set(range(6)), 4)])
def test_worker_count_follows_the_affinity_set(monkeypatch, stub_pool, allowed, workers):
    # a cpuset of fewer CPUs than the machine has caps the workers, however
    # many CPUs os.cpu_count() reports
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed, raising=False)
    assert map_chunks(lambda a, b: b - a, 40, threads=8, chunk=10) == [10] * 4
    assert stub_pool == ([] if workers is None else [workers])


@pytest.mark.parametrize("count,cpus", [(3, 3), (None, 1)])
def test_cpus_without_affinity_is_the_cpu_count(monkeypatch, count, cpus):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert _parallel._cpus() == cpus


def test_without_fork_chunks_run_in_process(monkeypatch, stub_pool, two_cpus):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert map_chunks(lambda a, b: b - a, 25, threads=2, chunk=10) == [10, 10, 5]
    assert stub_pool == []


def test_one_worker_imports_no_process_machinery():
    code = (
        "import sys\n"
        "from harnack_lab._parallel import map_chunks\n"
        "assert map_chunks(lambda a, b: b - a, 30, threads=1, chunk=10) == [10] * 3\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@needs_fork
@pytest.mark.parametrize("fail,first", [((0, 1), 0), ((1, 2), 1)])
def test_first_exception_in_chunk_order(two_cpus, fail, first):
    def fn(a, b):
        k = a // 10
        if k == 0:
            time.sleep(0.3)   # the later chunk fails first in time
        if k in fail:
            raise ValueError(f"chunk {k}")
        return k

    with pytest.raises(ValueError) as info:
        map_chunks(fn, 40, threads=2, chunk=10)
    assert type(info.value) is ValueError
    assert str(info.value) == f"chunk {first}"


@needs_fork
def test_failed_map_cancels_pending_chunks(two_cpus, tmp_path):
    def fn(a, b):
        (tmp_path / str(a)).touch()
        if a == 0:
            raise ValueError("chunk 0")
        time.sleep(0.1)
        return a

    with pytest.raises(ValueError, match="chunk 0"):
        map_chunks(fn, 200, threads=2, chunk=10)
    # only the chunks already handed to a worker ran, not all 20
    assert len(list(tmp_path.iterdir())) <= 8


@needs_fork
def test_dead_worker_raises_worker_died(two_cpus):
    parent = os.getpid()

    def fn(a, b):
        if os.getpid() == parent:
            raise AssertionError("chunk ran in the calling process")
        os._exit(1)

    with pytest.raises(WorkerDied, match="worker process died"):
        map_chunks(fn, 20, threads=2, chunk=10)


@needs_fork
def test_exp_functional_overflow_reports_path_across_workers(two_cpus):
    co = builtin_system("linear_additive", {"a": -1.0, "c": 0.5, "s0": 1.0})
    grid = GridSpec(1.0, 2.0, 50)
    xi = constant_segment(1.0, 1.0, 50)
    eta = constant_segment(0.0, 1.0, 50)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    messages = []
    for threads in (1, 2):
        with pytest.raises(OverflowError, match="path") as info:
            estimate_exp_functional(co, xi, eta, sched, grid, lam=1000.0,
                                    n=CHUNK + 8, seed=0, integrand="seg_gap_sq",
                                    threads=threads)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@needs_fork
def test_overflow_names_the_runs_worst_path(two_cpus):
    # the exponents of all n paths are checked at once, so the message names
    # the largest over the run, whatever the chunking. n spans three chunks
    # of CHUNK pairs; every path overflows, and the largest exponent lies
    # past the first CHUNK paths, so a check chunk by chunk names another
    co = builtin_system("sine_multiplicative", {"a": -1.0, "c": 0.2, "s0": 0.1})
    grid = GridSpec(1.0, 2.0, 50)
    xi = constant_segment(1.0, 1.0, 50)
    eta = constant_segment(0.0, 1.0, 50)
    sched = GammaSchedule(theta=1.0, k4=co.constants.k4, t0=1.0)
    lam, seed, n = 1000.0, 2, 2 * CHUNK + 8
    ob = _SegGapIntegral(grid.m, grid.h, grid.n_T, n)
    _coupled_batch(co, xi.values, eta.values, grid, sched,
                   NoiseBlocks(NoiseStream(seed=seed, h=grid.h, dim=1), 0, n, grid.n_T),
                   "Q", (ob,))
    expo = lam * ob.seg_gap_sq
    worst = int(np.argmax(np.where(np.isnan(expo), -np.inf, expo)))
    assert worst >= CHUNK and expo[:CHUNK].max() > MAX_EXPONENT
    want = (f"exponent overflow in exp-functional estimate: lam={lam}, "
            f"path {worst}, exponent {expo[worst]:.4g}")
    for threads in (1, 2):
        with pytest.raises(OverflowError) as info:
            estimate_exp_functional(co, xi, eta, sched, grid, lam=lam, n=n,
                                    seed=seed, integrand="seg_gap_sq", threads=threads)
        assert str(info.value) == want
