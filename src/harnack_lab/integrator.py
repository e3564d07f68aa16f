"""Euler-Maruyama integration of delay equations on a fixed grid.

The stepping core streams: the drift at step k needs only the segment
over [t - r0, t], the last m + 1 grid rows, so a batch keeps its states in
a mirrored ring of 2(m + 1) rows and draws its noise in blocks of m + 1
steps. Memory per batch is O(m B d) whatever the horizon. One loop (_run)
drives both kernels, the Euler step here and the coupled step, and takes
its noise only as a NoiseBlocks; whatever else a caller wants (running
integrals, a window max, selected rows) it gets from observers called
after each grid row. Only the one-path dumps record whole paths. Both
kernels step one ring per copy with one noise draw: the coupled step its
X and Y, the Euler step one copy per starting history (the Harnack checks
pair xi and eta on common noise).

Noise is counter-based. Path `j` of a run with seed `s` always sees the
increments of `Philox(key=[s, j])`, however paths are grouped into chunks
or worker processes and steps into blocks, which makes reruns
bit-identical. A batch re-keys one Philox for each path (key, counter and
buffer reset together, or restored from where the path's previous block
stopped), path by path bit-identical to one standard-normal draw of
shape (n_steps, dim) from that path's own generator, scaled by sqrt(h).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coefficients import CoefficientSet
from .segment_paths import GridSpec, SegmentPath

# paths drawn into one contiguous path-major block before the transposed
# copy into the time-major batch
_BLOCK = 64


@dataclass(frozen=True)
class NoiseStream:
    """Reproducible Brownian increments, scaled by sqrt(h)."""

    seed: int
    h: float
    dim: int

    def __post_init__(self):
        if not (isinstance(self.seed, (int, np.integer)) and 0 <= self.seed < 2 ** 63):
            raise ValueError("seed must be an integer in [0, 2**63)")
        if not self.h > 0:
            raise ValueError("h must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")

    def batch(self, first_path: int, n_paths: int, n_steps: int,
              resume: Optional[list] = None, keep: Optional[list] = None) -> np.ndarray:
        """Increments for paths first_path..first_path+n_paths-1, time-major
        (n_steps, n_paths, dim).

        One Philox per call, re-keyed to [seed, path] before each path with
        a fresh counter and buffer, so every path is bit-identical to its
        own Philox(key=[seed, path]) draw; or, from resume (one saved Philox state
        per path), continuing where an earlier call stopped. keep (n_paths
        slots, resume itself allowed) receives each path's end state. The
        lists and the generator belong to the caller, so threads may share
        one stream, and each forked worker process holds its own copy.
        """
        if first_path < 0:
            raise ValueError("path_index must be >= 0")
        out = np.empty((n_steps, n_paths, self.dim))
        bitgen = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        fresh = bitgen.state
        # the state setter reads Python ints faster than uint64 array items
        fresh["state"] = {k: v.tolist() for k, v in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        key = fresh["state"]["key"]
        scale = np.sqrt(self.h)
        block = np.empty((min(_BLOCK, n_paths), n_steps, self.dim))
        for b0 in range(0, n_paths, _BLOCK):
            nb = min(_BLOCK, n_paths - b0)
            for i in range(nb):
                if resume is None:
                    key[1] = first_path + b0 + i
                    bitgen.state = fresh
                else:
                    bitgen.state = resume[b0 + i]
                gen.standard_normal(out=block[i])
                if keep is not None:
                    keep[b0 + i] = bitgen.state
            # scaled while the block is in cache, then copied time-major
            paths = block[:nb]
            paths *= scale
            out[:, b0: b0 + nb, :] = paths.transpose(1, 0, 2)
        return out


class NoiseBlocks:
    """stream.batch(first_path, n_paths, n_steps), time-major with that
    shape, drawn lazily: blocks(size) yields consecutive (size, n_paths,
    dim) blocks of steps, the last one shorter, that concatenate to the
    batch bit for bit. Between blocks each path's Philox state waits in
    the generator's frame, never on the stream."""

    def __init__(self, stream: NoiseStream, first_path: int, n_paths: int, n_steps: int):
        self.stream, self.first_path = stream, first_path
        self.shape = (n_steps, n_paths, stream.dim)

    def blocks(self, size: int):
        n_steps, n_paths, _ = self.shape
        # entries are replaced as their paths resume; the last block's end
        # states are never read, so they are not saved
        states = [None] * n_paths
        for k0 in range(0, n_steps, size):
            yield self.stream.batch(self.first_path, n_paths, min(size, n_steps - k0),
                                    states if k0 else None,
                                    states if k0 + size < n_steps else None)


@dataclass(frozen=True)
class Trajectory:
    """One simulated path, history included.

    values[k] is the state at time -r0 + k*h; index grid.m is time 0 and the
    last index is time T.
    """

    grid: GridSpec
    values: np.ndarray
    path_index: int = 0
    seed: int = 0

    def __post_init__(self):
        expect = self.grid.m + self.grid.n_T + 1
        if self.values.ndim != 2 or self.values.shape[0] != expect:
            raise ValueError(f"values must have shape ({expect}, d)")
        self.values.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def endpoint(self) -> np.ndarray:
        return self.values[-1]


def _euler_step(x: np.ndarray, drift: np.ndarray, h: float, sig,
                dw: np.ndarray) -> np.ndarray:
    """Batched Euler update x + drift h + sigma dW; every kernel steps with it.
    sig is the state's CoefficientSet.diffusion."""
    return x + drift * h + sig.apply(dw)


class _Ring:
    """The last m + 1 states of a batch in a mirrored ring of 2(m + 1) rows.

    Grid row i (row m is time 0) goes to slots i % w and i % w + w,
    w = m + 1, so the m + 1 rows ending at row i are one contiguous slice:
    segment(i) is a (B, m + 1, d) view, oldest first, with the strides of
    a full time-major history. The ring starts from one shared (m + 1, d)
    history.
    """

    __slots__ = ("buf", "w")

    def __init__(self, history: np.ndarray, b: int):
        self.w = len(history)
        self.buf = np.empty((2 * self.w, b, history.shape[1]))
        self.buf[:] = np.concatenate([history, history])[:, None, :]

    def put(self, i: int, x: np.ndarray) -> None:
        # both copies, slots i % w and i % w + w, in one strided write
        self.buf[i % self.w:: self.w] = x

    def row(self, i: int) -> np.ndarray:
        return self.buf[i % self.w]

    def segment(self, i: int) -> np.ndarray:
        j = (i + 1) % self.w
        return self.buf[j: j + self.w].swapaxes(0, 1)


def _run(kernel, noise: NoiseBlocks, observers=()) -> None:
    """The stepping loop of every kernel. kernel.step(k, dw) returns the
    new state of each of kernel.rings, written to grid row m + k + 1; noise
    (n_T, B, d) is drawn in blocks of m + 1 steps, each released before the
    next is drawn. Each observer is called as observer(row, kernel) once the
    row is in the rings, from the history rows 0..m on.
    """
    w = kernel.rings[0].w
    for i in range(w):
        for ob in observers:
            ob(i, kernel)
    k = 0
    for block in noise.blocks(w):
        for dw in block:
            new = kernel.step(k, dw)
            k += 1
            for ring, x in zip(kernel.rings, new):
                ring.put(w - 1 + k, x)
            for ob in observers:
                ob(w - 1 + k, kernel)
        # let this block go before the next one is drawn
        del block, dw


class _Recorder:
    """Observer that keeps whole paths, for the one-path dumps only: full[j]
    (m + n_T + 1, B, d) holds every grid row of ring j, row m at time 0."""

    def __init__(self, n_rows: int):
        self.n_rows, self.full = n_rows, None

    def __call__(self, i, kernel):
        if self.full is None:
            self.full = tuple(np.empty((self.n_rows,) + r.buf.shape[1:]) for r in kernel.rings)
        for f, r in zip(self.full, kernel.rings):
            f[i] = r.row(i)


class _Euler:
    """A batch of uncoupled paths in flight: one ring per starting history,
    every ring stepped by the same dw, so column q of each ring is driven by
    the noise of path q. The Euler step evaluates the diffusion once per
    state (as a diagonal where the system declares one) and never its
    inverse."""

    def __init__(self, coeffs: CoefficientSet, grid: GridSpec, rings: tuple):
        self.coeffs, self.grid, self.rings = coeffs, grid, rings

    def step(self, k, dw):
        coeffs, h = self.coeffs, self.grid.h
        t = k * h
        i = self.grid.m + k
        new = []
        for ring in self.rings:
            x = ring.row(i)
            drift = coeffs.z(t, x)
            if not coeffs.delay_free:
                drift = drift + coeffs.b(t, ring.segment(i))
            xn = _euler_step(x, drift, h, coeffs.diffusion(t, x), dw)
            if not np.isfinite(xn).all():
                raise FloatingPointError(
                    f"non-finite state at step {k + 1} of {self.grid.n_T} (t={t + h:.6g}); "
                    "reduce h or shrink the coefficients")
            new.append(xn)
        return new


def _simulate_batch(coeffs: CoefficientSet, histories: tuple,
                    grid: GridSpec, noise: NoiseBlocks, observers=()) -> tuple:
    """Advance a batch of paths to T from each shared history (m+1, d) in
    histories, all driven by the same noise, and return the final rings in
    that order; ring.segment(m + n_T) is a ring's terminal segment. noise
    has the shape (n_T, B, d) whatever the number of histories; observers
    see every grid row (see _run), so memory is O(m B d) per history unless
    an observer keeps more.
    """
    b = noise.shape[1]
    if tuple(noise.shape) != (grid.n_T, b, coeffs.dim):
        raise ValueError("noise must have shape (n_T, B, d)")
    rings = tuple(_Ring(values, b) for values in histories)
    _run(_Euler(coeffs, grid, rings), noise, observers)
    return rings


def simulate_path(coeffs: CoefficientSet, xi: SegmentPath, grid: GridSpec,
                  seed: int, path_index: int = 0) -> Trajectory:
    """Simulate one path of the delay equation started from history xi."""
    grid.check_segments(coeffs.dim, xi)
    stream = NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim)
    rec = _Recorder(grid.m + grid.n_T + 1)
    _simulate_batch(coeffs, (xi.values,), grid,
                    NoiseBlocks(stream, path_index, 1, grid.n_T), (rec,))
    return Trajectory(grid=grid, values=rec.full[0][:, 0, :], path_index=path_index,
                      seed=seed)
