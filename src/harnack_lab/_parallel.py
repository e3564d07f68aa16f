"""Deterministic work splitting for Monte Carlo loops.

map_chunks applies a chunk function to fixed path ranges and returns the
results in chunk order, whatever the worker count; the chunk plan itself
(widths, seeding, reduction) is stated once, in estimators._run_chunks: a
chunk is one batch of at most CHUNK state columns, and estimates are
reduced from the per-path values of all chunks, joined in path order.
Running with 1 worker or 8 therefore produces bit-identical numbers.

With more than one worker, chunks run in processes forked from the caller,
min(threads, chunks, usable CPUs) of them: the kernels' per-step numpy calls
hold the interpreter lock, so threads would not overlap. Fork hands the
chunk function to the workers without pickling it, so it may close over
arrays, lambdas and locks; only its results, per-path numpy arrays,
travel back by pickle, which returns them bit for bit. With one worker, or on a
platform without fork, the chunks run in the calling process.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

CHUNK = 8192

# the chunk function of the map a worker process serves; _install sets it
# in each worker as the pool forks it, the calling process never does
_worker_fn: Optional[Callable[[int, int], object]] = None


class WorkerDied(RuntimeError):
    """A worker process ended before returning its chunk's result."""


def resolve_threads(explicit: Optional[int] = None) -> int:
    """Worker count: the explicit argument, else 1."""
    n = 1 if explicit is None else int(explicit)
    if n < 1:
        raise ValueError("thread count must be >= 1")
    return n


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one (a cpuset may allow fewer than os.cpu_count()), else the
    CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_chunks(fn: Callable[[int, int], object], n_total: int,
               threads: Optional[int] = None, chunk: int = CHUNK) -> list:
    """Apply fn(start, stop) to each chunk; results come back in chunk order
    regardless of which worker ran what. When chunks raise, the first
    exception in chunk order is raised."""
    if n_total < 1:
        raise ValueError("need at least one path")
    ranges = [(a, min(a + chunk, n_total)) for a in range(0, n_total, chunk)]
    workers = min(resolve_threads(threads), len(ranges), _cpus())
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            return _map_forked(fn, ranges, workers, multiprocessing.get_context("fork"))
    return [fn(a, b) for a, b in ranges]


def _install(fn: Callable[[int, int], object]) -> None:
    global _worker_fn
    _worker_fn = fn


def _run_chunk(a: int, b: int) -> object:
    return _worker_fn(a, b)


def _map_forked(fn, ranges, workers, context) -> list:
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # a forked Process keeps its arguments in memory, so fn reaches the
    # workers through initargs without being pickled
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context,
                               initializer=_install, initargs=(fn,))
    try:
        futures = [pool.submit(_run_chunk, a, b) for a, b in ranges]
        return [f.result() for f in futures]
    except BrokenProcessPool as exc:
        raise WorkerDied(
            "a worker process died before returning its chunk (killed, "
            "for example when memory ran out); fewer workers need less memory"
        ) from exc
    finally:
        pool.shutdown(cancel_futures=True)

