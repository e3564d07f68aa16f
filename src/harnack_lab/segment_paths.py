"""Discretized history segments and the simulation grid.

A segment holds the last stretch of a path, sampled on a uniform grid of
m+1 points covering the delay window [-r0, 0]. The grid step is always
h = r0/m so that the delay lookup lands exactly on a stored value.
"""

import math

import numpy as np


class GridMismatchError(ValueError):
    pass


def _as_value_array(values):
    a = np.asarray(values, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] < 2:
        raise ValueError("segment needs a 2-d (m+1, d) value array with m >= 1")
    return a


class SegmentPath:
    """Values of a path at relative times -r0, -r0+h, ..., 0.

    values has shape (m+1, d); values[-1] is the current point (offset 0),
    values[0] the oldest (offset -r0). Instances are immutable.
    """

    __slots__ = ("r0", "h", "values")

    def __init__(self, r0, values):
        a = _as_value_array(values)
        if not np.isfinite(a).all():
            raise ValueError("segment values must be finite")
        r0 = float(r0)
        if not r0 > 0:
            raise ValueError("r0 must be positive")
        m = a.shape[0] - 1
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "h", r0 / m)
        object.__setattr__(self, "values", a)

    def __setattr__(self, name, value):
        raise AttributeError("SegmentPath is immutable")

    @property
    def m(self):
        return self.values.shape[0] - 1

    @property
    def dim(self):
        return self.values.shape[1]

    def endpoint(self):
        # value at relative time 0
        return np.array(self.values[-1])

    def times(self):
        return np.linspace(-self.r0, 0.0, self.m + 1)

    def same_grid(self, other):
        return self.m == other.m and abs(self.r0 - other.r0) <= 1e-12 * max(self.r0, 1.0)

    def __repr__(self):
        return f"SegmentPath(r0={self.r0}, m={self.m}, d={self.dim})"

    def __eq__(self, other):
        if not isinstance(other, SegmentPath):
            return NotImplemented
        return self.same_grid(other) and np.array_equal(self.values, other.values)


def constant_segment(x, r0, m):
    """Segment identically equal to the point x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return SegmentPath(r0, np.tile(x, (int(m) + 1, 1)))


def sup_distance(a, b):
    """Uniform distance between two segments on the same grid.

    Maximum over grid points of the Euclidean distance between values.
    """
    if not a.same_grid(b):
        raise GridMismatchError(f"segment grids differ: {a!r} vs {b!r}")
    d = a.values - b.values
    return float(np.sqrt((d * d).sum(axis=1)).max())


def grid_index(t, h):
    """The index k with k h = t to within 1e-12 relative, or None if t is
    not on the grid of step h (NaN, infinite and overflowing t included)."""
    k = t / h if h > 0 else math.inf
    if not math.isfinite(k):
        return None
    k = round(k)
    return k if abs(k * h - t) <= 1e-12 * max(abs(t), 1.0) else None


class GridSpec:
    """Uniform time grid for a run: step h = r0/m, horizon T = n_T * h."""

    __slots__ = ("r0", "T", "m", "h", "n_T")

    def __init__(self, r0, T, m):
        r0 = float(r0)
        T = float(T)
        m = int(m)
        if not (r0 > 0 and T > 0) or m < 1:
            raise ValueError("need r0 > 0, T > 0 and integer m >= 1")
        h = r0 / m
        n_T = grid_index(T, h)
        if n_T is None or n_T < 1:
            raise ValueError(f"T={T} is not an integer multiple of h={h}")
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "n_T", n_T)

    def __setattr__(self, name, value):
        raise AttributeError("GridSpec is immutable")

    def index_of(self, t, label="time"):
        """Grid index of a time that must lie on the grid."""
        k = grid_index(float(t), self.h)
        if k is None or k < 0 or k > self.n_T:
            raise ValueError(f"{label}={t} does not lie on the grid (h={self.h})")
        return k

    def deadline_index(self, t0):
        """Grid index n0 of a coupling deadline t0 in (0, T - r0]. The upper
        end is checked on indices, n0 + m <= n_T, so that a t0 equal to
        T - r0 passes however T - r0 rounds."""
        n0 = self.index_of(t0, "t0")
        if n0 < 1 or n0 + self.m > self.n_T:
            raise ValueError("the coupling deadline must satisfy 0 < t0 <= T - r0")
        return n0

    def check_segments(self, dim, *segments):
        """Raise ValueError unless the initial segments have dimension dim,
        share one segment grid, and cover this grid's delay window (m, r0)."""
        for seg in segments:
            if seg.dim != dim:
                raise ValueError(f"segment dimension {seg.dim} does not match the system (d={dim})")
        if not all(segments[0].same_grid(seg) for seg in segments[1:]):
            raise ValueError("initial segments must share one segment grid")
        for seg in segments:
            if seg.m != self.m or not np.isclose(seg.r0, self.r0, rtol=1e-12, atol=0.0):
                raise ValueError(f"segment grid (r0={seg.r0}, m={seg.m}) does not match "
                                 f"the time grid {self!r}")

    def __repr__(self):
        return f"GridSpec(r0={self.r0}, T={self.T}, m={self.m})"

    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return (self.r0, self.T, self.m) == (other.r0, other.T, other.m)
