"""Tabulated utility functions built from sampled profiles.

The multicore substrate produces utilities as samples on a grid (IPC at
each cache-size x frequency point, Section 6's 90-point profile).  The
classes here wrap such samples into :class:`~repro.utility.base.UtilityFunction`
objects the market can consume:

* :class:`TabularUtility1D` — raw linear interpolation of a 1-D curve
  (possibly non-concave; what the cache looks like *before* Talus).
* :class:`HullUtility1D` — the Talus-convexified version.
* :class:`GridUtility2D` — bilinear interpolation over a 2-D sample grid,
  used for joint cache x power utilities.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from .base import UtilityFunction
from .convex_hull import PiecewiseLinearConcave

__all__ = ["TabularUtility1D", "HullUtility1D", "GridUtility2D", "grid_bilinear_batch"]


class TabularUtility1D(UtilityFunction):
    """Linear interpolation through ``(xs, ys)`` samples, clamped outside.

    Makes no concavity promise — it faithfully represents cliffy cache
    curves.  Use :class:`HullUtility1D` when the market needs concavity.
    """

    num_resources = 1

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        if self.xs.ndim != 1 or self.xs.size != self.ys.size or self.xs.size == 0:
            raise ValueError("xs and ys must be non-empty 1-D arrays of equal length")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("xs must be strictly increasing")

    def value_batch(self, allocations: np.ndarray) -> np.ndarray:
        points = np.asarray(allocations, dtype=float)
        return np.interp(points[:, 0], self.xs, self.ys)

    def gradient_batch(self, allocations: np.ndarray) -> np.ndarray:
        points = np.asarray(allocations, dtype=float)
        x = points[:, 0]
        if self.xs.size == 1:
            return np.zeros_like(points)
        seg = np.clip(
            np.searchsorted(self.xs, x, side="right") - 1, 0, self.xs.size - 2
        )
        slopes = (self.ys[seg + 1] - self.ys[seg]) / (self.xs[seg + 1] - self.xs[seg])
        inside = (x >= self.xs[0]) & (x < self.xs[-1])
        return np.where(inside, slopes, 0.0)[:, None]

    def __repr__(self) -> str:
        return f"TabularUtility1D({self.xs.size} samples on [{self.xs[0]}, {self.xs[-1]}])"


class HullUtility1D(UtilityFunction):
    """The upper convex hull of a sampled curve — concave and continuous.

    This is the utility the market sees after Talus: linear between
    points of interest, saturating past the last one.
    """

    num_resources = 1

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        self.hull = PiecewiseLinearConcave(xs, ys)

    def value_batch(self, allocations: np.ndarray) -> np.ndarray:
        points = np.asarray(allocations, dtype=float)
        return self.hull.value_batch(points[:, 0])

    def gradient_batch(self, allocations: np.ndarray) -> np.ndarray:
        points = np.asarray(allocations, dtype=float)
        return self.hull.derivative_batch(points[:, 0])[:, None]

    @property
    def points_of_interest(self):
        return self.hull.points_of_interest

    def __repr__(self) -> str:
        xs, _ = self.hull.points_of_interest
        return f"HullUtility1D({xs.size} PoIs on [{xs[0]}, {xs[-1]}])"


class GridUtility2D(UtilityFunction):
    """Bilinear interpolation of samples on a 2-D grid.

    ``values[i, j]`` is the utility at ``(xs[i], ys[j])``.  Evaluation is
    clamped to the grid's bounding box, so the function saturates (stays
    constant) outside the sampled range — matching the paper's assumption
    that more than 16 cache regions yields no additional utility.
    """

    num_resources = 2

    def __init__(self, xs: Sequence[float], ys: Sequence[float], values: np.ndarray):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (self.xs.size, self.ys.size):
            raise ValueError("values must have shape (len(xs), len(ys))")
        if np.any(np.diff(self.xs) <= 0) or np.any(np.diff(self.ys) <= 0):
            raise ValueError("grid axes must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            # NaN or inf breaks the concave, non-decreasing contract the
            # market and Theorems 1-2 rely on.
            raise MarketConfigurationError("grid values must be finite")

    def value_batch(self, allocations: np.ndarray) -> np.ndarray:
        points = np.asarray(allocations, dtype=float)
        if self.xs.size == 1 and self.ys.size == 1:
            return np.full(points.shape[0], float(self.values[0, 0]))
        xc = np.clip(points[:, 0], self.xs[0], self.xs[-1])
        yc = np.clip(points[:, 1], self.ys[0], self.ys[-1])
        if self.xs.size == 1:
            return np.interp(yc, self.ys, self.values[0, :])
        if self.ys.size == 1:
            return np.interp(xc, self.xs, self.values[:, 0])
        return grid_bilinear_batch(self.xs, self.ys, self.values, xc, yc)

    def __repr__(self) -> str:
        return f"GridUtility2D({self.xs.size}x{self.ys.size} grid)"


def grid_bilinear_batch(
    xs: np.ndarray,
    ys: np.ndarray,
    values: np.ndarray,
    xc: np.ndarray,
    yc: np.ndarray,
) -> np.ndarray:
    """Bilinear interpolation of pre-clamped points, vectorized.

    The kernel of :meth:`GridUtility2D.value_batch`: a clamped cell
    lookup per point, then the four-term blend.  ``values`` is
    ``(nx, ny)``; both axes must have at least two samples.
    """
    i = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, xs.size - 2)
    j = np.clip(np.searchsorted(ys, yc, side="right") - 1, 0, ys.size - 2)
    tx = (xc - xs[i]) / (xs[i + 1] - xs[i])
    ty = (yc - ys[j]) / (ys[j + 1] - ys[j])
    return _bilinear_blend(values.ravel(), i * ys.size + j, ys.size, tx, ty)


def _bilinear_blend(
    table: np.ndarray, cell: np.ndarray, stride: int, tx: np.ndarray, ty: np.ndarray
) -> np.ndarray:
    """The four-term bilinear blend of grid cells.

    ``table`` is a flattened C-order value grid with ``stride`` samples
    per row and ``cell`` the flat index of each cell's low corner, so
    one lookup serves a single grid and a stack of same-shape grids, and
    both sum the four terms in the same order (bitwise equal results).
    """
    v00, v01 = table[cell], table[cell + 1]
    v10, v11 = table[cell + stride], table[cell + (stride + 1)]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v10 * tx * (1 - ty)
        + v01 * (1 - tx) * ty
        + v11 * tx * ty
    )
