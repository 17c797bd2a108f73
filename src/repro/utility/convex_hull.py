"""Upper-convex-hull computation for sampled 1-D utility curves.

This is the mathematical heart of the Talus convexification step
(Section 4.1.1 of the paper): given a cache utility sampled at discrete
partition sizes — which may be cliffy and non-concave, like *mcf*'s
working-set step — derive the *upper convex hull* (the smallest concave
majorant through a subset of sample points).  The hull vertices are the
"points of interest" (PoIs); Talus realizes any allocation between two
PoIs by time/stream-interleaving two shadow partitions, which makes the
achievable utility exactly the linear interpolation between the PoIs.

The hull of a set of ``(x, y)`` samples is computed with a monotone-chain
scan, keeping the points whose incremental slopes are strictly
decreasing.  The scan runs over many curves in lockstep
(:func:`upper_hull_mask`), which is how the chip-wide Talus step hulls
every row and column of every core's grid in one pass; a single curve
is the one-row case.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "upper_convex_hull",
    "upper_hull_mask",
    "upper_hull_values",
    "hull_interpolate",
    "PiecewiseLinearConcave",
]


def upper_convex_hull(
    xs: Sequence[float], ys: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Return the vertices of the upper convex hull of ``(xs, ys)``.

    ``xs`` must be strictly increasing.  The returned vertex arrays always
    include the first and last sample, and the piecewise-linear function
    through them is the least concave function that dominates every
    sample (``hull(x) >= y`` for all samples, with slopes non-increasing).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.size != ys.size:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    if xs.size == 0:
        raise ValueError("need at least one sample")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing")
    keep = upper_hull_mask(xs, ys[None, :])[0]
    return xs[keep], ys[keep]


def upper_hull_mask(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Hull-vertex mask of many sampled curves, built in lockstep.

    ``ys`` is ``(L, n)``: ``L`` curves of ``n`` samples each.  ``xs`` is
    the shared ``(n,)`` axis or a per-curve ``(L, n)`` one, strictly
    increasing along its last axis (not checked here).  Returns the
    ``(L, n)`` boolean mask of each curve's upper-hull vertices.

    This is the monotone chain over points sorted by x: a stack whose
    consecutive slopes are non-increasing.  All curves take sample ``k``
    together; each then pops while its top vertex ``b`` lies (weakly)
    below the chord from the vertex ``a`` beneath it to ``k`` —
    ``(xb - xa) * (yk - ya) - (yb - ya) * (xk - xa) >= 0`` — until no
    curve pops.  Every curve makes exactly the comparisons a one-curve
    chain would, so its mask does not depend on which curves share the
    call.  A curve whose consecutive triples all turn down never pops,
    and those triples are the very tests its chain would make, so such
    curves skip the chain.
    """
    ys = np.asarray(ys, dtype=float)
    num_curves, n = ys.shape
    xs = np.broadcast_to(np.asarray(xs, dtype=float), ys.shape)
    keep = np.ones((num_curves, n), dtype=bool)
    if n < 3:
        return keep
    xa, xb, xk = xs[:, :-2], xs[:, 1:-1], xs[:, 2:]
    ya, yb, yk = ys[:, :-2], ys[:, 1:-1], ys[:, 2:]
    turns_up = (xb - xa) * (yk - ya) - (yb - ya) * (xk - xa) >= 0.0
    bent = np.flatnonzero(turns_up.any(axis=1))
    if bent.size == 0:
        return keep
    # Chain the bent curves on flat arrays: ``below[v]`` is the flat
    # index of the vertex under ``v`` on its curve's stack (-1: bottom).
    flat_x = np.ascontiguousarray(xs[bent]).ravel()
    flat_y = np.ascontiguousarray(ys[bent]).ravel()
    first = np.arange(bent.size) * n
    below = np.empty(flat_x.size, dtype=np.intp)
    below[first] = -1
    top = first.copy()
    for k in range(1, n):
        at = first + k
        x_k, y_k = flat_x[at], flat_y[at]
        popping = np.flatnonzero(below[top] >= 0)
        while popping.size:
            b = top[popping]
            a = below[b]
            x_a, y_a = flat_x[a], flat_y[a]
            cross = (flat_x[b] - x_a) * (y_k[popping] - y_a) - (flat_y[b] - y_a) * (
                x_k[popping] - x_a
            )
            pops = cross >= 0.0
            popping = popping[pops]
            top[popping] = a[pops]
            popping = popping[below[top[popping]] >= 0]
        below[at] = top
        top = at
    on_stack = np.zeros(flat_x.size, dtype=bool)
    while top.size:
        on_stack[top] = True
        top = below[top]
        top = top[top >= 0]
    keep[bent] = on_stack.reshape(bent.size, n)
    return keep


def upper_hull_values(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Each curve's upper hull evaluated back on its own sample points.

    Same shapes as :func:`upper_hull_mask`; returns ``(L, n)`` values
    equal, bit for bit, to ``np.interp(x, *upper_convex_hull(x, y))``
    curve by curve.  It uses ``np.interp``'s own arithmetic: a vertex
    keeps its sample, and a sample between vertices ``(x0, y0)`` and
    ``(x1, y1)`` becomes ``slope * (x - x0) + y0`` with
    ``slope = (y1 - y0) / (x1 - x0)`` (and, should that overflow to
    NaN, ``np.interp``'s fallback from the right-hand vertex).
    """
    ys = np.asarray(ys, dtype=float)
    xs = np.broadcast_to(np.asarray(xs, dtype=float), ys.shape)
    keep = upper_hull_mask(xs, ys)
    out = ys.copy()
    curve, at = np.nonzero(~keep)
    if curve.size == 0:
        return out
    index = np.arange(ys.shape[1])
    # The first and last samples are always vertices, so every
    # non-vertex has a vertex on each side.
    left = np.maximum.accumulate(np.where(keep, index, 0), axis=1)[curve, at]
    right = np.minimum.accumulate(
        np.where(keep, index, index[-1])[:, ::-1], axis=1
    )[:, ::-1][curve, at]
    x0, y0 = xs[curve, left], ys[curve, left]
    x1, y1 = xs[curve, right], ys[curve, right]
    x = xs[curve, at]
    with np.errstate(invalid="ignore", over="ignore"):
        slope = (y1 - y0) / (x1 - x0)
        values = slope * (x - x0) + y0
        lost = np.isnan(values)
        if lost.any():
            values[lost] = slope[lost] * (x[lost] - x1[lost]) + y1[lost]
            flat = lost & np.isnan(values) & (y0 == y1)
            values[flat] = y0[flat]
    out[curve, at] = values
    return out


def hull_interpolate(
    hull_x: np.ndarray, hull_y: np.ndarray, x: float
) -> float:
    """Evaluate the piecewise-linear hull at ``x``.

    Values outside the sampled range are clamped to the end-point values:
    below the first PoI the utility is the first sample's (a player can
    always leave capacity unused), above the last PoI it saturates.
    """
    if x <= hull_x[0]:
        return float(hull_y[0])
    if x >= hull_x[-1]:
        return float(hull_y[-1])
    return float(np.interp(x, hull_x, hull_y))


class PiecewiseLinearConcave:
    """A concave piecewise-linear function defined by hull vertices.

    This is what the Talus layer hands to the market: continuous,
    non-decreasing (when built from a non-decreasing curve's hull) and
    concave, with O(log n) evaluation and exact sub-gradients.
    """

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        hx, hy = upper_convex_hull(xs, ys)
        self.xs = hx
        self.ys = hy
        # Slopes of each hull segment; one fewer entry than vertices.
        if hx.size > 1:
            self.slopes = np.diff(hy) / np.diff(hx)
        else:
            self.slopes = np.zeros(0)

    @property
    def points_of_interest(self) -> Tuple[np.ndarray, np.ndarray]:
        """The Talus PoIs: hull vertex coordinates ``(x, y)``."""
        return self.xs.copy(), self.ys.copy()

    def value(self, x: float) -> float:
        return hull_interpolate(self.xs, self.ys, x)

    def value_batch(self, x: np.ndarray) -> np.ndarray:
        """Hull values at a 1-D batch of points.

        ``np.interp`` clamps to the end-point values exactly like
        :func:`hull_interpolate`, so this is the scalar path vectorized —
        the two agree bitwise.
        """
        return np.interp(np.asarray(x, dtype=float), self.xs, self.ys)

    def derivative_batch(self, x: np.ndarray) -> np.ndarray:
        """Right-derivatives at a 1-D batch of points (0 past the last PoI)."""
        x = np.asarray(x, dtype=float)
        if self.slopes.size == 0:
            return np.zeros_like(x)
        seg = np.clip(
            np.searchsorted(self.xs, x, side="right") - 1, 0, self.slopes.size - 1
        )
        return np.where(
            x >= self.xs[-1],
            0.0,
            np.where(x < self.xs[0], self.slopes[0], self.slopes[seg]),
        )

    def derivative(self, x: float) -> float:
        """Right-derivative at ``x`` (0 beyond the last vertex).

        Using the right-derivative makes the marginal utility reported at
        a vertex the gain from *adding* resources, which is what the
        bidding hill climb and ReBudget's lambda comparisons need.
        """
        if self.slopes.size == 0 or x >= self.xs[-1]:
            return 0.0
        if x < self.xs[0]:
            return float(self.slopes[0])
        seg = int(np.searchsorted(self.xs, x, side="right") - 1)
        seg = min(seg, self.slopes.size - 1)
        return float(self.slopes[seg])

    def bracketing_pois(self, x: float) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """The two neighbouring PoIs around ``x`` (Talus shadow targets)."""
        if x <= self.xs[0]:
            return (self.xs[0], self.ys[0]), (self.xs[0], self.ys[0])
        if x >= self.xs[-1]:
            return (self.xs[-1], self.ys[-1]), (self.xs[-1], self.ys[-1])
        hi = int(np.searchsorted(self.xs, x, side="right"))
        lo = hi - 1
        return (self.xs[lo], self.ys[lo]), (self.xs[hi], self.ys[hi])

    def __call__(self, x: float) -> float:
        return self.value(x)
