"""Deterministic work splitting for Monte Carlo loops.

map_chunks applies a chunk function to fixed path ranges, given as waves
of chunks, and returns the results in chunk order, whatever the worker
count: all of them, or those of the waves up to a stop. The chunk plan
itself (waves, widths, seeding, reduction) is stated once, in
estimators._run_chunks: a chunk is one batch of at most CHUNK state
columns, and estimates are reduced from the per-path values of the chunks
read, joined in path order. Running with 1 worker or 8 therefore produces
bit-identical numbers.

A wave is read whole before the next one starts: no chunk of a wave is
handed out before the stop has seen every result of the waves before it,
so a run that stops leaves no chunk running and none read in vain. A wave
of one chunk runs in the calling process. With more than one worker, the
chunks of a wider wave run in processes forked from the caller, min(workers,
widest wave) of them (workers below), in one pool per map, forked at the
first wave that needs it and idle between waves: the kernels' per-step
numpy calls hold the interpreter lock, so threads would not overlap. Fork
hands the chunk function to the workers without pickling it, so it may
close over arrays, lambdas and locks; only its results, per-path numpy
arrays, travel back by pickle, which returns them bit for bit. With one
worker, or on a platform without fork, every chunk runs in the calling
process.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple

CHUNK = 8192

# the chunk function of the map a worker process serves; _install sets it
# in each worker as the pool forks it, the calling process never does
_worker_fn: Optional[Callable[[int, int], object]] = None

Wave = Sequence[Tuple[int, int]]


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


def workers(threads: Optional[int] = None) -> int:
    """The processes a map with threads may run its chunks in:
    min(threads, usable CPUs), or 1 where the platform has no fork."""
    n = min(resolve_threads(threads), _cpus())
    if n > 1:
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            return 1
    return n


def map_chunks(fn: Callable[[int, int], object], waves: Sequence[Wave],
               threads: Optional[int] = None,
               until: Optional[Callable[[list], bool]] = None) -> list:
    """fn(a, b) of each range (a, b) of the waves, in chunk order, regardless
    of which worker ran what. With until, until(results read) is called
    after each wave but the last, and the first true stops the map there,
    before any chunk of the next wave starts. When chunks raise, the first
    exception in chunk order is raised."""
    k = min(workers(threads), max(map(len, waves)))
    results: list = []
    pool = None
    try:
        for i, wave in enumerate(waves):
            if i and until is not None and until(results):
                break
            if k == 1 or len(wave) < 2:
                results.extend(fn(a, b) for a, b in wave)
                continue
            if pool is None:
                pool = _fork_pool(fn, k)
            results.extend(_run_wave(pool, wave))
    finally:
        if pool is not None:
            # also on an exception: the chunks already running finish,
            # unread, the others are cancelled, and the workers are joined
            pool.shutdown(cancel_futures=True)
    return results


def _install(fn: Callable[[int, int], object]) -> None:
    global _worker_fn
    _worker_fn = fn


def _run_chunk(a: int, b: int) -> object:
    return _worker_fn(a, b)


def _fork_pool(fn: Callable[[int, int], object], k: int):
    """A pool of k worker processes forked from the caller, serving fn."""
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    # a forked Process keeps its arguments in memory, so fn reaches the
    # workers through initargs without being pickled
    return ProcessPoolExecutor(max_workers=k, mp_context=multiprocessing.get_context("fork"),
                               initializer=_install, initargs=(fn,))


def _run_wave(pool, wave: Wave) -> List[object]:
    """The results of one wave's chunks, run by the pool, in chunk order."""
    from concurrent.futures.process import BrokenProcessPool

    futures = [pool.submit(_run_chunk, a, b) for a, b in wave]
    try:
        return [f.result() for f in futures]
    except BrokenProcessPool as exc:
        raise WorkerDied(
            "a worker process died before returning its chunk (killed, "
            "for example when memory ran out); fewer workers need less memory"
        ) from exc
