"""Deterministic work splitting for Monte Carlo loops.

Chunk boundaries are fixed and never depend on the worker count: 8192
paths, or 4096 pairs in the Harnack checks, which step two copies of each
path (from xi and from eta) in one batch. Per-chunk work is a pure
function of the chunk's global path range, and partial results are
reduced in chunk order. Running with 1 worker or 8 therefore produces
bit-identical numbers.

With more than one worker, chunks run in processes forked from the caller,
min(threads, chunks, CPU count) of them: the kernels' per-step numpy calls
hold the interpreter lock, so threads would not overlap. Fork hands the
chunk function to the workers without pickling it, so it may close over
arrays, lambdas and locks; only its results travel back by pickle, which
returns Python ints and floats bit for bit. With one worker, or on a
platform without fork, the chunks run in the calling process.
"""

from __future__ import annotations

import math
import os
from typing import Callable, List, Optional, Sequence, Tuple

CHUNK = 8192

# pairs per chunk of the paired Harnack checks, whose batches step two
# copies of each path: CHUNK columns in all
PAIR_CHUNK = CHUNK // 2

ENV_THREADS = "HARNACK_LAB_THREADS"

# the chunk function of the map a worker process serves; _install sets it
# in each worker as the pool forks it, the calling process never does
_worker_fn: Optional[Callable[[int, int], object]] = None


class WorkerDied(RuntimeError):
    """A worker process ended before returning its chunk's result."""


def resolve_threads(explicit: Optional[int] = None) -> int:
    """Worker count: explicit argument, else HARNACK_LAB_THREADS, else 1."""
    if explicit is not None:
        n = int(explicit)
    else:
        raw = os.environ.get(ENV_THREADS, "").strip()
        if not raw:
            return 1
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_THREADS} must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError("thread count must be >= 1")
    return n


def chunk_ranges(n_total: int, chunk: int = CHUNK) -> List[Tuple[int, int]]:
    if n_total < 1:
        raise ValueError("need at least one path")
    return [(a, min(a + chunk, n_total)) for a in range(0, n_total, chunk)]


def map_chunks(fn: Callable[[int, int], object], n_total: int,
               threads: Optional[int] = None, chunk: int = CHUNK) -> list:
    """Apply fn(start, stop) to each chunk; results come back in chunk order
    regardless of which worker ran what. When chunks raise, the first
    exception in chunk order is raised."""
    ranges = chunk_ranges(n_total, chunk)
    workers = min(resolve_threads(threads), len(ranges), os.cpu_count() or 1)
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


def ordered_sum(parts: Sequence[float]) -> float:
    """Exact-order float sum of per-chunk partials."""
    return math.fsum(parts)
