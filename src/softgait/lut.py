"""Tabulated 2-argument maps with bilinear evaluation and monotone inversion.

The same mechanism backs three roles in the controllers: the moment map
(motor position, ankle angle) -> Nm, its zero-moment inversion giving the
unloaded ankle angle, and the feedforward inversion giving the motor
position that realizes a target moment at a desired angle.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


class LutDomainError(ValueError):
    """Query coordinate outside the tabulated grid (no extrapolation)."""


class UnreachableTargetError(ValueError):
    """Inversion target outside the value range of the slice."""


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

    The controllers query the table a few times per tick, one scalar at a
    time, so `eval` and `invert` work on Python-float copies of the grid
    and touch only the table entries they need.
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
        self._monotone_axes = set()
        for ax, axis in (("a", 0), ("b", 1)):
            d = np.diff(self.values, axis=axis)
            if np.all(d > 0) or np.all(d < 0):
                self._monotone_axes.add(ax)
        self._grid = {"a": self.axis_a.tolist(), "b": self.axis_b.tolist()}
        # fixed axis -> the slices along the free axis, one per fixed node
        self._slices = {"a": self.values.tolist(),
                        "b": self.values.T.tolist()}

    def _cell(self, name: str, c: float) -> tuple[int, float]:
        """Index of the axis_<name> cell holding c and c's fraction across it."""
        axis = self._grid[name]
        if not (axis[0] <= c <= axis[-1]):
            grid = self.axis_a if name == "a" else self.axis_b
            raise LutDomainError(
                f"coordinate {c} outside axis_{name} range "
                f"[{grid[0]}, {grid[-1]}]")
        i = max(min(bisect_right(axis, c) - 1, len(axis) - 2), 0)
        return i, (c - axis[i]) / (axis[i + 1] - axis[i])

    def eval(self, a: float, b: float) -> float:
        """Bilinear interpolation of the four surrounding nodes; exact at nodes."""
        i, ta = self._cell("a", a)
        j, tb = self._cell("b", b)
        v0, v1 = self._slices["a"][i], self._slices["a"][i + 1]
        return float((1 - ta) * (1 - tb) * v0[j] + ta * (1 - tb) * v1[j]
                     + (1 - ta) * tb * v0[j + 1] + ta * tb * v1[j + 1])

    def invert(self, target: float, fixed: tuple[str, float]) -> float:
        """Solve lut(c, fixed) = target for the free coordinate c.

        The slice along the free axis holds the interpolant at the free
        grid nodes, so it is piecewise-linear in c and the root is exact
        (one linear solve inside the bracketing cell): the round-trip
        error is at floating-point level.
        """
        fixed_axis, fixed_value = fixed
        if fixed_axis == "b":
            free_axis = "a"
        elif fixed_axis == "a":
            free_axis = "b"
        else:
            raise InvalidLutError("fixed axis must be 'a' or 'b'")
        if free_axis not in self._monotone_axes:
            raise InvalidLutError(
                f"values are not strictly monotone along axis {free_axis}")
        j, t = self._cell(fixed_axis, fixed_value)
        v0, v1 = self._slices[fixed_axis][j], self._slices[fixed_axis][j + 1]
        n = len(v0)
        w = 1 - t
        first = w * v0[0] + t * v1[0]
        last = w * v0[-1] + t * v1[-1]
        if not (min(first, last) <= target <= max(first, last)):
            g = w * np.asarray(v0) + t * np.asarray(v1)
            raise UnreachableTargetError(
                f"target {target} outside slice range [{g.min()}, {g.max()}]")
        # binary search of the slice in rising order for the last entry
        # <= target, with the probes and the NaN-last ordering of
        # np.searchsorted(side="right"); slice entry m is computed only
        # when probed
        increasing = last > first
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) >> 1
            m = mid if increasing else n - 1 - mid
            g_m = w * v0[m] + t * v1[m]
            if target < g_m or g_m != g_m:
                hi = mid
            else:
                lo = mid + 1
        k = min(max(lo - 1, 0), n - 2)
        k0, k1 = (k, k + 1) if increasing else (n - 1 - k, n - 2 - k)
        g0 = w * v0[k0] + t * v1[k0]
        denom = w * v0[k1] + t * v1[k1] - g0
        t = 0.0 if denom == 0 else (target - g0) / denom
        grid = self._grid[free_axis]
        return float(grid[k0] + t * (grid[k1] - grid[k0]))

