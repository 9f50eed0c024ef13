"""Tabulated 2-argument maps with bilinear evaluation and monotone inversion.

The same mechanism backs three roles in the controllers: the moment map
(motor position, ankle angle) -> Nm, its zero-moment inversion giving the
unloaded ankle angle, and the feedforward inversion giving the motor
position that realizes a target moment at a desired angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LutDomainError(ValueError):
    """Query coordinate outside the tabulated grid (no extrapolation)."""


class UnreachableTargetError(ValueError):
    """Inversion target outside the value range of the slice."""


class InvalidLutError(ValueError):
    """Grid or monotonicity requirements violated."""


@dataclass
class SyntheticMomentMap:
    """Affine stand-in for a hardware moment map: M = sigma * (x - rho * q).

    sigma is the motor-side stiffness gain (Nm per mm), rho the kinematic
    coupling (mm per deg).  Affinity keeps every inversion closed-form.
    """

    sigma: float = 2.5
    rho: float = 2.0

    def __post_init__(self):
        if not (self.sigma > 0 and self.rho > 0):
            raise ValueError("sigma and rho must be positive")

    def __call__(self, x: float, q: float) -> float:
        return self.sigma * (x - self.rho * q)


class Lut2D:
    """Bilinear lookup table on a rectangular grid.

    Inversion along an axis is well defined only when every 1-D slice
    along it is strictly monotone in the same direction; which axes are
    is worked out from the values at construction.
    """

    def __init__(self, axis_a, axis_b, values):
        self.axis_a = np.asarray(axis_a, dtype=float)
        self.axis_b = np.asarray(axis_b, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.axis_a.ndim != 1 or self.axis_b.ndim != 1:
            raise InvalidLutError("axes must be one-dimensional")
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

    @staticmethod
    def _cell(axis: np.ndarray, c: float, name: str) -> tuple[int, float]:
        """Index of the grid cell holding c and c's fraction across it."""
        if not (axis[0] <= c <= axis[-1]):
            raise LutDomainError(
                f"coordinate {c} outside axis_{name} range "
                f"[{axis[0]}, {axis[-1]}]")
        i = min(int(np.searchsorted(axis, c, side="right")) - 1, len(axis) - 2)
        i = max(i, 0)
        return i, (c - axis[i]) / (axis[i + 1] - axis[i])

    def eval(self, a: float, b: float) -> float:
        """Bilinear interpolation of the four surrounding nodes; exact at nodes."""
        i, ta = self._cell(self.axis_a, a, "a")
        j, tb = self._cell(self.axis_b, b, "b")
        v = self.values
        return float((1 - ta) * (1 - tb) * v[i, j] + ta * (1 - tb) * v[i + 1, j]
                     + (1 - ta) * tb * v[i, j + 1] + ta * tb * v[i + 1, j + 1])

    def invert(self, target: float, fixed: tuple[str, float]) -> float:
        """Solve lut(c, fixed) = target for the free coordinate c.

        The slice along the free axis holds the interpolant at the free
        grid nodes, so it is piecewise-linear in c and the root is exact
        (one linear solve inside the bracketing cell): the round-trip
        error is at floating-point level.
        """
        fixed_axis, fixed_value = fixed
        if fixed_axis == "b":
            free_axis, grid, fixed_grid, values = \
                "a", self.axis_a, self.axis_b, self.values
        elif fixed_axis == "a":
            free_axis, grid, fixed_grid, values = \
                "b", self.axis_b, self.axis_a, self.values.T
        else:
            raise InvalidLutError("fixed axis must be 'a' or 'b'")
        if free_axis not in self._monotone_axes:
            raise InvalidLutError(
                f"values are not strictly monotone along axis {free_axis}")
        j, t = self._cell(fixed_grid, fixed_value, fixed_axis)
        g = (1 - t) * values[:, j] + t * values[:, j + 1]
        increasing = g[-1] > g[0]
        gs = g if increasing else g[::-1]
        cs = grid if increasing else grid[::-1]
        if not (min(g[0], g[-1]) <= target <= max(g[0], g[-1])):
            raise UnreachableTargetError(
                f"target {target} outside slice range [{g.min()}, {g.max()}]")
        k = int(np.searchsorted(gs, target, side="right")) - 1
        k = min(max(k, 0), len(gs) - 2)
        denom = gs[k + 1] - gs[k]
        t = 0.0 if denom == 0 else (target - gs[k]) / denom
        return float(cs[k] + t * (cs[k + 1] - cs[k]))


# the simulated ankle's moment map, read by the plant and the controllers
MOMENT_MAP = SyntheticMomentMap()
