"""Deterministic work splitting for Monte Carlo loops.

chunk_stream applies a chunk function to fixed path ranges and yields the
results in chunk order, whatever the worker count, and map_chunks is the
list of them, or of those up to a stop; the chunk plan itself (widths,
seeding, reduction) is stated once, in estimators._run_chunks: a chunk is
one batch of at most CHUNK state columns, and estimates are reduced from
the per-path values of the chunks read, joined in path order. Running
with 1 worker or 8 therefore produces bit-identical numbers.

With more than one worker, chunks run in processes forked from the caller,
min(threads, chunks, usable CPUs) of them: the kernels' per-step numpy calls
hold the interpreter lock, so threads would not overlap. Fork hands the
chunk function to the workers without pickling it, so it may close over
arrays, lambdas and locks; only its results, per-path numpy arrays,
travel back by pickle, which returns them bit for bit. With one worker, or on a
platform without fork, the chunks run in the calling process, each one
only when its result is asked for.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import closing
from itertools import islice
from typing import Callable, Iterator, Optional

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


def chunk_stream(fn: Callable[[int, int], object], n_total: int,
                 threads: Optional[int] = None, chunk: int = CHUNK) -> Iterator:
    """Yield fn(start, stop) of each chunk in chunk order, regardless of
    which worker ran what. When chunks raise, the first exception in chunk
    order is raised. Closing the stream before its end starts no further
    chunk: in-process, none runs after the last result read; with workers,
    at most one chunk per worker is running, and it finishes unread."""
    if n_total < 1:
        raise ValueError("need at least one path")
    ranges = [(a, min(a + chunk, n_total)) for a in range(0, n_total, chunk)]
    workers = min(resolve_threads(threads), len(ranges), _cpus())
    if workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            return _map_forked(fn, ranges, workers, multiprocessing.get_context("fork"))
    return (fn(a, b) for a, b in ranges)


def map_chunks(fn: Callable[[int, int], object], n_total: int,
               threads: Optional[int] = None, chunk: int = CHUNK,
               until: Optional[Callable[[list], bool]] = None) -> list:
    """The results of chunk_stream, in chunk order: all of them, or with
    until, those up to the first at which until(results read) is true,
    where the stream is closed."""
    results = []
    with closing(chunk_stream(fn, n_total, threads, chunk)) as stream:
        for result in stream:
            results.append(result)
            if until is not None and until(results):
                break
    return results


def _install(fn: Callable[[int, int], object]) -> None:
    global _worker_fn
    _worker_fn = fn


def _run_chunk(a: int, b: int) -> object:
    return _worker_fn(a, b)


def _map_forked(fn, ranges, workers, context) -> Iterator:
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # a forked Process keeps its arguments in memory, so fn reaches the
    # workers through initargs without being pickled
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=context,
                               initializer=_install, initargs=(fn,))
    try:
        # one wave in flight: the next chunk is handed out only when the
        # next result is asked for, so a stream closed after a result
        # leaves at most the rest of its wave running
        todo = iter(ranges)
        running = deque(pool.submit(_run_chunk, a, b) for a, b in islice(todo, workers))
        while running:
            yield running.popleft().result()
            for a, b in islice(todo, 1):
                running.append(pool.submit(_run_chunk, a, b))
    except BrokenProcessPool as exc:
        raise WorkerDied(
            "a worker process died before returning its chunk (killed, "
            "for example when memory ran out); fewer workers need less memory"
        ) from exc
    finally:
        # also on close: the running chunks finish, unread, and the workers
        # are joined
        pool.shutdown(cancel_futures=True)
