"""Deterministic work splitting for Monte Carlo loops.

Chunk boundaries are fixed (8192 paths) and never depend on the thread
count, per-chunk work is a pure function of the chunk's global path range,
and partial results are reduced in chunk order. Running with 1 thread or 8
therefore produces bit-identical numbers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple

CHUNK = 8192

ENV_THREADS = "HARNACK_LAB_THREADS"


def resolve_threads(explicit: Optional[int] = None) -> int:
    """Thread count: explicit argument, else HARNACK_LAB_THREADS, else 1."""
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
    regardless of which thread ran what."""
    ranges = chunk_ranges(n_total, chunk)
    t = resolve_threads(threads)
    if t == 1 or len(ranges) == 1:
        return [fn(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=t) as ex:
        return list(ex.map(lambda ab: fn(ab[0], ab[1]), ranges))


def ordered_sum(parts: Sequence[float]) -> float:
    """Exact-order float sum of per-chunk partials."""
    return math.fsum(parts)
