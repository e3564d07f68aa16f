"""Euler-Maruyama integration of delay equations on a fixed grid.

The state advanced here is the full path history: at step k the drift needs
the segment covering [t - r0, t], so the engine keeps a time-major array of
every grid point since -r0 and hands rolling views of it to the delay drift.

Noise is counter-based. Path `j` of a run with seed `s` always sees the
increments of `Philox(key=[s, j])`, no matter how paths are grouped into
chunks or worker processes, which is what makes reruns bit-identical. A
batch builds one Philox per call and re-keys it for each path (key,
counter and buffer reset together), so its increments are bit-identical
to those of `NoiseStream.increments`, path by path.
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

    def increments(self, path_index: int, n_steps: int) -> np.ndarray:
        """Increments dB for one path, shape (n_steps, dim)."""
        if path_index < 0:
            raise ValueError("path_index must be >= 0")
        key = np.array([self.seed, path_index], dtype=np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        return gen.standard_normal((n_steps, self.dim)) * np.sqrt(self.h)

    def batch(self, first_path: int, n_paths: int, n_steps: int) -> np.ndarray:
        """Increments for paths first_path..first_path+n_paths-1, time-major
        (n_steps, n_paths, dim).

        One Philox per call, re-keyed to [seed, path] before each path with
        a fresh counter and buffer, so every path is bit-identical to
        increments(path, n_steps). The generator stays local to the call,
        so threads may share one stream; each worker process of a
        multi-worker estimate holds its own forked copy.
        """
        if first_path < 0:
            raise ValueError("path_index must be >= 0")
        out = np.empty((n_steps, n_paths, self.dim))
        bitgen = np.random.Philox(key=np.array([self.seed, 0], dtype=np.uint64))
        gen = np.random.Generator(bitgen)
        fresh = bitgen.state
        key = fresh["state"]["key"]
        block = np.empty((min(_BLOCK, n_paths), n_steps, self.dim))
        for b0 in range(0, n_paths, _BLOCK):
            nb = min(_BLOCK, n_paths - b0)
            for i in range(nb):
                key[1] = first_path + b0 + i
                bitgen.state = fresh
                gen.standard_normal(out=block[i])
            out[:, b0: b0 + nb, :] = block[:nb].transpose(1, 0, 2)
        out *= np.sqrt(self.h)
        return out


@dataclass(frozen=True)
class Trajectory:
    """One simulated path, history included.

    values[k] is the state at time -r0 + k*h; index grid.m is time 0 and the
    last index is time T. increments holds the Brownian increments actually
    used (n_T, dim), or None when the caller did not keep them.
    """

    grid: GridSpec
    values: np.ndarray
    increments: Optional[np.ndarray] = None
    path_index: int = 0
    seed: int = 0

    def __post_init__(self):
        expect = self.grid.m + self.grid.n_T + 1
        if self.values.ndim != 2 or self.values.shape[0] != expect:
            raise ValueError(f"values must have shape ({expect}, d)")
        self.values.setflags(write=False)
        if self.increments is not None:
            if self.increments.shape[0] != self.grid.n_T:
                raise ValueError("increments must have n_T rows")
            self.increments.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def points(self) -> np.ndarray:
        """States on [0, T] only, shape (n_T + 1, dim)."""
        return self.values[self.grid.m:]

    def times(self) -> np.ndarray:
        """All grid times from -r0 to T."""
        m, h = self.grid.m, self.grid.h
        return (np.arange(self.values.shape[0]) - m) * h

    def value_at(self, t: float) -> np.ndarray:
        k = self.grid.index_of(t, "t")
        return self.values[self.grid.m + k]

    def segment_at(self, t: float) -> SegmentPath:
        """Path segment over [t - r0, t] as a SegmentPath."""
        k = self.grid.index_of(t, "t")
        return SegmentPath(self.grid.r0, self.values[k: k + self.grid.m + 1].copy())

    def endpoint(self) -> np.ndarray:
        return self.values[-1]


def _euler_step(x: np.ndarray, drift: np.ndarray, h: float, sig,
                dw: np.ndarray) -> np.ndarray:
    """Batched Euler update x + drift h + sigma dW; every kernel steps with it.
    sig is the state's CoefficientSet.diffusion."""
    return x + drift * h + sig.apply(dw)


def _segment_views(full: np.ndarray, k: int, m: int) -> np.ndarray:
    # (B, m+1, d) view of the segment ending at grid step k, no copy
    return np.moveaxis(full[k: k + m + 1], 0, 1)


def _simulate_batch(coeffs: CoefficientSet, xi_values: np.ndarray,
                    grid: GridSpec, noise: np.ndarray) -> np.ndarray:
    """Advance a batch of paths; returns the full array (m + n_T + 1, B, d).

    xi_values is either one shared history (m+1, d) or per-path histories
    (B, m+1, d). noise is time-major (n_T, B, d). The diffusion is
    evaluated once per step through coeffs.diffusion, as a diagonal where
    the system declares one; its inverse is never asked for.
    """
    m, n_t, h = grid.m, grid.n_T, grid.h
    d = coeffs.dim
    b = noise.shape[1]
    if noise.shape != (n_t, b, d):
        raise ValueError("noise must have shape (n_T, B, d)")
    full = np.empty((m + n_t + 1, b, d))
    if xi_values.ndim == 2:
        full[: m + 1] = xi_values[:, None, :]
    else:
        if xi_values.shape[0] != b:
            raise ValueError("per-path histories must match the batch size")
        full[: m + 1] = np.moveaxis(xi_values, 0, 1)

    for k in range(n_t):
        t = k * h
        x = full[m + k]
        seg = _segment_views(full, k, m)
        drift = coeffs.z_drift(t, x)
        if not coeffs.delay_free:
            drift = drift + coeffs.b_delay(t, seg)
        sig = coeffs.diffusion(t, x)
        xn = _euler_step(x, drift, h, sig, noise[k])
        if not np.all(np.isfinite(xn)):
            raise FloatingPointError(
                f"non-finite state at step {k + 1} of {n_t} (t={t + h:.6g}); "
                "reduce h or shrink the coefficients")
        full[m + k + 1] = xn
    return full


def simulate_path(coeffs: CoefficientSet, xi: SegmentPath, grid: GridSpec,
                  seed: int, path_index: int = 0) -> Trajectory:
    """Simulate one path of the delay equation started from history xi."""
    grid.check_segments(coeffs.dim, xi)
    stream = NoiseStream(seed=seed, h=grid.h, dim=coeffs.dim)
    noise = stream.increments(path_index, grid.n_T)[:, None, :]
    full = _simulate_batch(coeffs, xi.values, grid, noise)
    return Trajectory(grid=grid, values=full[:, 0, :],
                      increments=noise[:, 0, :], path_index=path_index, seed=seed)
