"""Euler-Maruyama integration of delay equations on a fixed grid.

The stepping core streams: the drift at step k needs only the segment
over [t - r0, t], the last m + 1 grid rows, so a batch keeps its states in
a mirrored ring of 2(m + 1) rows and draws its noise in blocks of m + 1
steps into the spare mirror half of its first ring (see _run). Memory per
batch is its rings, O(m B d) whatever the horizon. One loop (_run)
drives both kernels, the Euler step here and the coupled step, and takes
its noise only as a NoiseBlocks; whatever else a caller wants (running
integrals, a window max, selected rows) it gets from observers called
after each grid row. Only the one-path dumps record whole paths. Both
kernels step one ring per copy with one noise draw: the coupled step its
X and Y, the Euler step one copy per starting history (the Harnack checks
pair xi and eta on common noise). From t0 on, a coupled batch in which
every pair merged evaluates only the unforced copy's Euler step and
writes it to both rings.

Noise is counter-based. Path `j` of a run with seed `s` always sees the
increments of `Philox(key=[s, j])`, however paths are grouped into chunks
or worker processes and steps into blocks, which makes reruns
bit-identical. A batch re-keys one Philox for each path (key, counter and
buffer reset together, or restored from the position where the path's
previous block stopped), path by path bit-identical to one standard-normal
draw of shape (n_steps, dim) from that path's own generator, scaled by
sqrt(h). Between blocks a path's position waits as six Python ints,
about 0.35 KB, not as the generator's state dict.
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


def _check_seed(seed):
    if not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 63):
        raise ValueError("seed must be an integer in [0, 2**63)")


def _check_dim(dim):
    if dim < 1:
        raise ValueError("dim must be >= 1")
    # numpy cannot index a float64 state row of more bytes than intp holds
    top = np.iinfo(np.intp).max // 8
    if dim > top:
        raise ValueError(f"dim must be <= {top}, the most float64 values one state row "
                         f"can index, got dim={dim}")


@dataclass(frozen=True)
class NoiseStream:
    """Reproducible Brownian increments, scaled by sqrt(h)."""

    seed: int
    h: float
    dim: int

    def __post_init__(self):
        _check_seed(self.seed)
        if not self.h > 0:
            raise ValueError("h must be positive")
        _check_dim(self.dim)

    def _draw(self, out: np.ndarray, first_path: int, resume: Optional[list],
              keep: Optional[list]) -> None:
        """Increments of paths first_path..first_path+n_paths-1 into out,
        time-major (n_steps, n_paths, dim): one Philox per call, re-keyed to
        [seed, path] before each path with a fresh counter and buffer, so
        every path is bit-identical to its own Philox(key=[seed, path])
        draw; or, from resume (one saved position per path), continuing
        where an earlier call stopped. keep (n_paths slots, resume itself
        allowed) receives each path's end position: (first counter word,
        buffer position, [the four buffered words]), all Python ints. The
        generator belongs to the call, so threads may share one stream and
        each forked worker holds its own; the lists belong to the caller."""
        if first_path < 0:
            raise ValueError("path_index must be >= 0")
        n_steps, n_paths, _ = out.shape
        bitgen = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        fresh = bitgen.state
        # the state setter reads Python ints faster than uint64 array items;
        # counter words 1-3 stay 0 (word 0 would have to wrap past 2**64)
        fresh["state"] = {k: v.tolist() for k, v in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        counter, key = fresh["state"]["counter"], fresh["state"]["key"]
        scale = np.sqrt(self.h)
        block = np.empty((min(_BLOCK, n_paths), n_steps, self.dim))
        for b0 in range(0, n_paths, _BLOCK):
            nb = min(_BLOCK, n_paths - b0)
            for i in range(nb):
                key[1] = first_path + b0 + i
                if resume is not None:
                    counter[0], fresh["buffer_pos"], fresh["buffer"] = resume[b0 + i]
                bitgen.state = fresh
                gen.standard_normal(out=block[i])
                if keep is not None:
                    end = bitgen.state
                    keep[b0 + i] = (int(end["state"]["counter"][0]), end["buffer_pos"],
                                    end["buffer"].tolist())
            # scaled while the block is in cache, then copied time-major
            paths = block[:nb]
            paths *= scale
            out[:, b0: b0 + nb, :] = paths.transpose(1, 0, 2)


class NoiseBlocks:
    """The increments of paths first_path..first_path+n_paths-1 over
    n_steps steps, time-major with that shape, drawn lazily: blocks(size,
    out) yields consecutive blocks of steps, the last one shorter, that
    concatenate to one draw of the whole shape bit for bit. Each block is
    the leading rows of out, of shape (size, n_paths, dim), overwritten by
    the next block (_run passes the first ring's mirror half). Between
    blocks each path's saved position waits in the generator's frame,
    never on the stream."""

    def __init__(self, stream: NoiseStream, first_path: int, n_paths: int, n_steps: int):
        self.stream, self.first_path = stream, first_path
        self.shape = (n_steps, n_paths, stream.dim)

    def blocks(self, size: int, out: np.ndarray):
        n_steps, n_paths, _ = self.shape
        # entries are replaced as their paths resume; the last block's end
        # positions are never read, so they are not saved
        states = [None] * n_paths
        for k0 in range(0, n_steps, size):
            n = min(size, n_steps - k0)
            block = out[:n]
            self.stream._draw(block, self.first_path, states if k0 else None,
                              states if k0 + size < n_steps else None)
            yield block


@dataclass(frozen=True)
class Trajectory:
    """One simulated path, history included.

    values[k] is the state at time -r0 + k*h; index grid.m is time 0 and the
    last index is time T.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expect = self.grid.m + self.grid.n_T + 1
        if self.values.ndim != 2 or self.values.shape[0] != expect:
            raise ValueError(f"values must have shape ({expect}, d)")
        self.values.setflags(write=False)

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
    history in its first half only; _run says why no segment reads the
    mirror half before the puts have filled it.
    """

    __slots__ = ("buf", "w")

    def __init__(self, history: np.ndarray, b: int):
        self.w = len(history)
        self.buf = np.empty((2 * self.w, b, history.shape[1]))
        self.buf[: self.w] = history[:, None, :]

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
    (n_T, B, d) is drawn in blocks of w = m + 1 steps. Each observer is
    called as observer(row, kernel) once the row is in the rings, from the
    history rows 0..m on.

    Each block is drawn into the mirror half of the first ring, slots
    w .. 2w - 1, so a batch holds no noise array of its own. At step
    k = q w + r the segment the kernel reads covers slots r .. r + m: the
    mirror slots below w + r, which this block's puts have filled, and
    none at or past w + r. So mirror slot w + r, which holds step k's dw,
    goes unread from the block boundary until step k, and the put after
    that step overwrites it. For the same reason no ring's mirror half is
    read before the puts fill it, so a ring writes its history into its
    first half only. The one rule this puts on kernels and observers: dw
    is valid only inside step, and none of them keeps it.
    """
    w = kernel.rings[0].w
    for i in range(w):
        for ob in observers:
            ob(i, kernel)
    k = 0
    for block in noise.blocks(w, kernel.rings[0].buf[w:]):
        for dw in block:
            new = kernel.step(k, dw)
            k += 1
            for ring, x in zip(kernel.rings, new):
                ring.put(w - 1 + k, x)
            for ob in observers:
                ob(w - 1 + k, kernel)


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
    return Trajectory(grid=grid, values=rec.full[0][:, 0, :])
