"""Tabulated 2-argument maps with bilinear evaluation and monotone inversion.

The same mechanism backs three roles in the controllers: the moment map
(motor position, ankle angle) -> Nm, its zero-moment inversion giving the
unloaded ankle angle or motor position, and the feedforward inversion
giving the motor position that realizes a target moment at a desired
angle.  A table saturates at its range, as the actuator it stands for
does: a query coordinate off the grid reads the grid's edge, and a target
beyond a slice gives the end node of the axis solved along.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


class InvalidLutError(ValueError):
    """Grid or monotonicity requirements violated."""


# The simulated ankle's moment map (`moment_map`), read by the plant and the
# controllers: an affine stand-in for a hardware map, so inversions are exact.
SIGMA = 2.5   # Nm per mm, motor-side stiffness gain
RHO = 2.0     # mm per deg, kinematic coupling of motor and ankle


def moment_map(x, q):
    """Ankle moment (Nm) at motor position x (mm) and ankle angle q (deg);
    works elementwise on arrays.

    The package's one sign convention: q is positive in dorsiflexion and M
    is the internal plantarflexor moment, positive while the ankle carries
    a dorsiflexing load, so a spring's quasi-stiffness dM/dq is positive.
    """
    return SIGMA * (RHO * q - x)


class Lut2D:
    """Bilinear lookup table on a rectangular grid.

    Inversion along an axis is well defined only when every 1-D slice
    along it is strictly monotone in the same direction; which axes are
    is worked out from the values at construction.

    Queries never raise for their values: coordinates are clamped to the
    grid, a target beyond its slice saturates at an end node, and NaN in
    gives NaN out.

    The controllers invert the table twice per AC tick, one scalar at a
    time, so `invert` works on Python-float copies of the grid and touches
    only the table entries it needs.  `invert_array` answers a whole
    trial's queries at once with the same float operations in the same
    order, so each element is bit-identical to the scalar call; it and
    `eval_array` gather only the entries each query probes.
    """

    def __init__(self, axis_a, axis_b, values):
        self.axis_a = np.asarray(axis_a, dtype=float)
        self.axis_b = np.asarray(axis_b, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.axis_a.ndim != 1 or self.axis_b.ndim != 1:
            raise InvalidLutError("axes must be one-dimensional")
        if len(self.axis_a) < 2 or len(self.axis_b) < 2:
            raise InvalidLutError("each axis needs at least two nodes")
        if np.any(np.diff(self.axis_a) <= 0) or np.any(np.diff(self.axis_b) <= 0):
            raise InvalidLutError("grid axes must be strictly increasing")
        if self.values.shape != (len(self.axis_a), len(self.axis_b)):
            raise InvalidLutError(
                f"values shape {self.values.shape} does not match axes "
                f"({len(self.axis_a)}, {len(self.axis_b)})")
        # fixed axis -> free axis, for the inversions that are well defined
        self._free = {}
        for fixed, free, axis in (("b", "a", 0), ("a", "b", 1)):
            d = np.diff(self.values, axis=axis)
            if np.all(d > 0) or np.all(d < 0):
                self._free[fixed] = free
        self._grid = {"a": self.axis_a.tolist(), "b": self.axis_b.tolist()}
        # fixed axis -> the slices along the free axis, one per fixed node
        self._slices = {"a": self.values.tolist(),
                        "b": self.values.T.tolist()}

    def _cell(self, name: str, c: float) -> tuple[int, float]:
        """Index of the axis_<name> cell holding c, clamped to the axis,
        and its fraction across the cell."""
        axis = self._grid[name]
        c = axis[0] if c < axis[0] else axis[-1] if c > axis[-1] else c
        # searching nodes 1 .. n - 2 clamps the cell index to 0 .. n - 2
        i = bisect_right(axis, c, 1, len(axis) - 1) - 1
        return i, (c - axis[i]) / (axis[i + 1] - axis[i])

    def _cells(self, name: str, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`_cell` of each element of c; np.searchsorted(side="right")
        finds the cells `bisect_right` does."""
        axis = self.axis_a if name == "a" else self.axis_b
        c = np.clip(c, axis[0], axis[-1])
        i = np.clip(np.searchsorted(axis, c, side="right") - 1,
                    0, len(axis) - 2)
        return i, (c - axis[i]) / (axis[i + 1] - axis[i])

    def _free_axis(self, fixed_axis: str) -> str:
        """The axis an inversion solves along, once it is known to be
        strictly monotone."""
        free_axis = self._free.get(fixed_axis)
        if free_axis is None:
            if fixed_axis not in ("a", "b"):
                raise InvalidLutError("fixed axis must be 'a' or 'b'")
            raise InvalidLutError("values are not strictly monotone along "
                                  f"axis {'a' if fixed_axis == 'b' else 'b'}")
        return free_axis

    def invert(self, target: float, fixed: tuple[str, float]) -> float:
        """Solve lut(c, fixed) = target for the free coordinate c.

        The slice along the free axis holds the interpolant at the free
        grid nodes, so it is piecewise-linear in c and the root is exact
        (one linear solve inside the bracketing cell): the round-trip
        error is at floating-point level.  A target beyond the slice gives
        the free axis' end node where the slice is highest (target above
        it) or lowest (target below it).
        """
        fixed_axis, fixed_value = fixed
        free_axis = self._free_axis(fixed_axis)
        j, t = self._cell(fixed_axis, fixed_value)
        slices = self._slices[fixed_axis]
        v0, v1 = slices[j], slices[j + 1]
        n = len(v0)
        w = 1 - t
        first = w * v0[0] + t * v1[0]
        last = w * v0[-1] + t * v1[-1]
        increasing = last > first
        grid = self._grid[free_axis]
        above = target > max(first, last)
        if above or target < min(first, last):
            return grid[-1] if above == increasing else grid[0]
        # binary search of the slice in rising order for the last entry
        # <= target, with the probes of np.searchsorted(side="right");
        # slice entry m is computed only when probed
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) >> 1
            m = mid if increasing else n - 1 - mid
            if target < w * v0[m] + t * v1[m]:
                hi = mid
            else:
                lo = mid + 1
        k = 0 if lo < 1 else n - 2 if lo > n - 1 else lo - 1
        k0, k1 = (k, k + 1) if increasing else (n - 1 - k, n - 2 - k)
        g0 = w * v0[k0] + t * v1[k0]
        denom = w * v0[k1] + t * v1[k1] - g0
        t = 0.0 if denom == 0 else (target - g0) / denom
        return float(grid[k0] + t * (grid[k1] - grid[k0]))

    def eval_array(self, a, b) -> np.ndarray:
        """Bilinear interpolation of the four nodes around each element of
        the broadcast arrays a and b; exact at nodes."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                   np.asarray(b, dtype=float))
        i, ta = self._cells("a", a)
        j, tb = self._cells("b", b)
        v = self.values
        return ((1 - ta) * (1 - tb) * v[i, j] + ta * (1 - tb) * v[i + 1, j]
                + (1 - ta) * tb * v[i, j + 1] + ta * tb * v[i + 1, j + 1])

    def invert_array(self, target, fixed: tuple[str, np.ndarray]) -> np.ndarray:
        """`invert` of each element of the broadcast target and fixed[1].

        The binary search makes the scalar search's probes, one round for
        every query at a time, until each query's range is empty.
        """
        fixed_axis, fixed_value = fixed
        free_axis = self._free_axis(fixed_axis)
        target, fixed_value = np.broadcast_arrays(
            np.asarray(target, dtype=float),
            np.asarray(fixed_value, dtype=float))
        j, t = self._cells(fixed_axis, fixed_value)
        # row k of s is the slice along the free axis at fixed node k
        s = self.values if fixed_axis == "a" else self.values.T
        n = s.shape[1]
        w = 1 - t

        def g(m):
            return w * s[j, m] + t * s[j + 1, m]

        first, last = g(0), g(n - 1)
        increasing = last > first
        lo = np.zeros(j.shape, dtype=np.intp)
        hi = np.full(j.shape, n, dtype=np.intp)
        searching = lo < hi
        while searching.any():
            # a finished search may sit at n, one past the last entry
            mid = np.minimum((lo + hi) >> 1, n - 1)
            left = target < g(np.where(increasing, mid, n - 1 - mid))
            hi = np.where(searching & left, mid, hi)
            lo = np.where(searching & ~left, mid + 1, lo)
            searching = lo < hi
        k = np.clip(lo - 1, 0, n - 2)
        k0 = np.where(increasing, k, n - 1 - k)
        k1 = np.where(increasing, k + 1, n - 2 - k)
        g0 = g(k0)
        denom = g(k1) - g0
        u = np.divide(target - g0, denom, out=np.zeros_like(denom),
                      where=denom != 0)
        grid = self.axis_a if free_axis == "a" else self.axis_b
        above = target > np.maximum(first, last)
        end = np.where(above == increasing, grid[-1], grid[0])
        return np.where(above | (target < np.minimum(first, last)), end,
                        grid[k0] + u * (grid[k1] - grid[k0]))
