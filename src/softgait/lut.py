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

    def unloaded_angle(self, x: float) -> float:
        return x / self.rho

    def motor_for(self, moment: float, q: float) -> float:
        return moment / self.sigma + self.rho * q


class Lut2D:
    """Bilinear lookup table on a rectangular grid.

    `monotone_axis` ("a" or "b"), when declared, promises every 1-D slice
    along that axis is strictly monotone; this is validated at construction
    and is what makes single-axis inversion well defined.
    """

    def __init__(self, axis_a, axis_b, values, monotone_axis: str | None = None,
                 units: tuple[str, str, str] = ("mm", "deg", "Nm")):
        self.axis_a = np.asarray(axis_a, dtype=float)
        self.axis_b = np.asarray(axis_b, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.monotone_axis = monotone_axis
        self.units = units
        if self.axis_a.ndim != 1 or self.axis_b.ndim != 1:
            raise InvalidLutError("axes must be one-dimensional")
        if np.any(np.diff(self.axis_a) <= 0) or np.any(np.diff(self.axis_b) <= 0):
            raise InvalidLutError("grid axes must be strictly increasing")
        if self.values.shape != (len(self.axis_a), len(self.axis_b)):
            raise InvalidLutError(
                f"values shape {self.values.shape} does not match axes "
                f"({len(self.axis_a)}, {len(self.axis_b)})")
        if monotone_axis is not None:
            if monotone_axis not in ("a", "b", "both"):
                raise InvalidLutError("monotone_axis must be 'a', 'b' or 'both'")
            axes = ("a", "b") if monotone_axis == "both" else (monotone_axis,)
            for ax in axes:
                sliced = self.values if ax == "a" else self.values.T
                d = np.diff(sliced, axis=0)
                if not (np.all(d > 0) or np.all(d < 0)):
                    raise InvalidLutError(
                        f"values are not strictly monotone along axis {ax}")

    def _check_range(self, axis: np.ndarray, c: float, name: str):
        if not (axis[0] <= c <= axis[-1]):
            raise LutDomainError(
                f"coordinate {c} outside axis_{name} range "
                f"[{axis[0]}, {axis[-1]}]")

    def eval(self, a: float, b: float) -> float:
        """Bilinear interpolation of the four surrounding nodes; exact at nodes."""
        self._check_range(self.axis_a, a, "a")
        self._check_range(self.axis_b, b, "b")
        i = min(int(np.searchsorted(self.axis_a, a, side="right")) - 1,
                len(self.axis_a) - 2)
        j = min(int(np.searchsorted(self.axis_b, b, side="right")) - 1,
                len(self.axis_b) - 2)
        i = max(i, 0)
        j = max(j, 0)
        ta = (a - self.axis_a[i]) / (self.axis_a[i + 1] - self.axis_a[i])
        tb = (b - self.axis_b[j]) / (self.axis_b[j + 1] - self.axis_b[j])
        v = self.values
        return float((1 - ta) * (1 - tb) * v[i, j] + ta * (1 - tb) * v[i + 1, j]
                     + (1 - ta) * tb * v[i, j + 1] + ta * tb * v[i + 1, j + 1])

    def _slice_along_free_axis(self, fixed_axis: str, fixed_value: float):
        """Values of the interpolant at the free-axis grid nodes, fixed
        coordinate interpolated.  Piecewise-linear in the free coordinate."""
        if fixed_axis == "b":
            self._check_range(self.axis_b, fixed_value, "b")
            j = min(int(np.searchsorted(self.axis_b, fixed_value, side="right")) - 1,
                    len(self.axis_b) - 2)
            j = max(j, 0)
            t = (fixed_value - self.axis_b[j]) / (self.axis_b[j + 1] - self.axis_b[j])
            g = (1 - t) * self.values[:, j] + t * self.values[:, j + 1]
            return self.axis_a, g
        if fixed_axis == "a":
            self._check_range(self.axis_a, fixed_value, "a")
            i = min(int(np.searchsorted(self.axis_a, fixed_value, side="right")) - 1,
                    len(self.axis_a) - 2)
            i = max(i, 0)
            t = (fixed_value - self.axis_a[i]) / (self.axis_a[i + 1] - self.axis_a[i])
            g = (1 - t) * self.values[i, :] + t * self.values[i + 1, :]
            return self.axis_b, g
        raise InvalidLutError("fixed axis must be 'a' or 'b'")

    def invert(self, target: float, fixed: tuple[str, float]) -> float:
        """Solve lut(c, fixed) = target for the free coordinate c.

        The root is exact on the piecewise-linear interpolant (one linear
        solve inside the bracketing cell), so the round-trip error is at
        floating-point level.
        """
        fixed_axis, fixed_value = fixed
        free_axis = {"a": "b", "b": "a"}[fixed_axis]
        if self.monotone_axis not in (free_axis, "both"):
            raise InvalidLutError(
                f"inversion along axis {free_axis} requires monotone_axis "
                f"'{free_axis}', have {self.monotone_axis!r}")
        grid, g = self._slice_along_free_axis(fixed_axis, fixed_value)
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


def build_lut_from_map(moment_map: SyntheticMomentMap, a_grid, b_grid) -> Lut2D:
    """Tabulate the analytic moment map; monotone along the motor axis."""
    a = np.asarray(a_grid, dtype=float)
    b = np.asarray(b_grid, dtype=float)
    values = moment_map.sigma * (a[:, None] - moment_map.rho * b[None, :])
    return Lut2D(a, b, values, monotone_axis="both")


def default_motor_grid() -> np.ndarray:
    return np.arange(-40.0, 40.0 + 0.5, 1.0)


def default_angle_grid() -> np.ndarray:
    return np.arange(-30.0, 30.0 + 0.5, 1.0)


def write_lut_csv(lut: Lut2D, path) -> None:
    """CSV layout: comment headers with axis units, first row the axis_b
    grid, first column the axis_a grid, body the values row-major."""
    with open(path, "w") as f:
        f.write(f"# axis_a: {lut.units[0]}\n")
        f.write(f"# axis_b: {lut.units[1]}\n")
        f.write("," + ",".join(f"{b:.9g}" for b in lut.axis_b) + "\n")
        for a, row in zip(lut.axis_a, lut.values):
            f.write(f"{a:.9g}," + ",".join(f"{v:.9g}" for v in row) + "\n")


def read_lut_csv(path, monotone_axis: str | None = None) -> Lut2D:
    units = ["mm", "deg", "Nm"]
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith("# axis_a:"):
                    units[0] = line.split(":", 1)[1].strip()
                elif line.startswith("# axis_b:"):
                    units[1] = line.split(":", 1)[1].strip()
                continue
            rows.append(line)
    header = rows[0].split(",")
    axis_b = np.array([float(v) for v in header[1:]])
    axis_a = []
    values = []
    for line in rows[1:]:
        parts = line.split(",")
        axis_a.append(float(parts[0]))
        values.append([float(v) for v in parts[1:]])
    return Lut2D(np.array(axis_a), axis_b, np.array(values),
                 monotone_axis=monotone_axis, units=tuple(units))
