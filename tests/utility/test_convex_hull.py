"""Upper-convex-hull tests, including hypothesis properties.

The hull is the mathematical core of Talus; these properties must hold
for every input: the hull dominates all samples, its slopes are
non-increasing, and it passes through the first and last sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utility.convex_hull import (
    PiecewiseLinearConcave,
    hull_interpolate,
    upper_convex_hull,
    upper_hull_mask,
    upper_hull_values,
)


def _scalar_chain(xs, ys):
    """Oracle: the one-curve monotone chain as a plain Python loop."""
    stack = []
    for k in range(xs.size):
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            cross = (xs[b] - xs[a]) * (ys[k] - ys[a]) - (ys[b] - ys[a]) * (xs[k] - xs[a])
            if cross < 0.0:
                break
            stack.pop()
        stack.append(k)
    return np.array(stack)


def _curves(min_size=1, max_size=40):
    """Strategy: strictly increasing xs with arbitrary bounded ys."""
    return st.lists(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        min_size=min_size,
        max_size=max_size,
    ).map(lambda ys: (np.arange(1.0, len(ys) + 1.0), np.array(ys)))


class TestUpperConvexHull:
    def test_single_point(self):
        hx, hy = upper_convex_hull([2.0], [5.0])
        assert hx.tolist() == [2.0]
        assert hy.tolist() == [5.0]

    def test_linear_curve_keeps_endpoints_only_in_value(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        ys = 2.0 * xs
        hx, hy = upper_convex_hull(xs, ys)
        # Collinear points may be kept or dropped; values must match.
        for x, y in zip(xs, ys):
            assert hull_interpolate(hx, hy, x) == pytest.approx(y)

    def test_cliff_is_linearized(self):
        # An mcf-style step: flat then jump.
        xs = np.arange(1.0, 6.0)
        ys = np.array([0.2, 0.2, 0.2, 1.0, 1.0])
        hx, hy = upper_convex_hull(xs, ys)
        # The hull bridges straight from the first point to the jump.
        assert hull_interpolate(hx, hy, 2.5) == pytest.approx(0.2 + 0.8 * 1.5 / 3.0)

    def test_rejects_unsorted_x(self):
        with pytest.raises(ValueError):
            upper_convex_hull([1.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            upper_convex_hull([2.0, 1.0], [0.0, 1.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            upper_convex_hull([1.0, 2.0], [0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            upper_convex_hull([], [])

    @given(_curves())
    @settings(max_examples=120, deadline=None)
    def test_hull_dominates_samples(self, curve):
        xs, ys = curve
        hx, hy = upper_convex_hull(xs, ys)
        for x, y in zip(xs, ys):
            assert hull_interpolate(hx, hy, x) >= y - 1e-9

    @given(_curves(min_size=2))
    @settings(max_examples=120, deadline=None)
    def test_hull_slopes_non_increasing(self, curve):
        xs, ys = curve
        hx, hy = upper_convex_hull(xs, ys)
        if hx.size >= 3:
            slopes = np.diff(hy) / np.diff(hx)
            assert np.all(np.diff(slopes) <= 1e-9)

    @given(_curves())
    @settings(max_examples=120, deadline=None)
    def test_hull_keeps_endpoints(self, curve):
        xs, ys = curve
        hx, hy = upper_convex_hull(xs, ys)
        assert hx[0] == xs[0] and hy[0] == ys[0]
        assert hx[-1] == xs[-1] and hy[-1] == ys[-1]

    @given(_curves(min_size=2), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=120, deadline=None)
    def test_hull_is_midpoint_concave(self, curve, t):
        xs, ys = curve
        hx, hy = upper_convex_hull(xs, ys)
        a, b = xs[0], xs[-1]
        x1 = a + t * (b - a)
        x2 = b - t * (b - a) / 2.0
        mid = (x1 + x2) / 2.0
        v1 = hull_interpolate(hx, hy, x1)
        v2 = hull_interpolate(hx, hy, x2)
        vm = hull_interpolate(hx, hy, mid)
        assert vm >= (v1 + v2) / 2.0 - 1e-9


class TestHullInterpolate:
    def test_clamps_below_and_above(self):
        hx = np.array([1.0, 3.0])
        hy = np.array([0.5, 1.5])
        assert hull_interpolate(hx, hy, 0.0) == 0.5
        assert hull_interpolate(hx, hy, 10.0) == 1.5

    def test_linear_between_vertices(self):
        hx = np.array([0.0, 2.0])
        hy = np.array([0.0, 4.0])
        assert hull_interpolate(hx, hy, 1.0) == pytest.approx(2.0)


class TestPiecewiseLinearConcave:
    def test_points_of_interest_are_hull_vertices(self):
        xs = np.arange(1.0, 6.0)
        ys = np.array([0.2, 0.2, 0.2, 1.0, 1.0])
        f = PiecewiseLinearConcave(xs, ys)
        px, py = f.points_of_interest
        assert px[0] == 1.0 and px[-1] == 5.0
        assert np.all(np.diff(py) >= -1e-12)

    def test_derivative_is_right_slope(self):
        f = PiecewiseLinearConcave([0.0, 1.0, 2.0], [0.0, 1.0, 1.2])
        assert f.derivative(0.5) == pytest.approx(1.0)
        assert f.derivative(1.5) == pytest.approx(0.2)
        assert f.derivative(5.0) == 0.0

    def test_derivative_non_increasing(self):
        f = PiecewiseLinearConcave([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 3.0, 3.4])
        ds = [f.derivative(x) for x in np.linspace(0.0, 3.0, 20)]
        assert all(a >= b - 1e-12 for a, b in zip(ds, ds[1:]))

    def test_bracketing_pois(self):
        f = PiecewiseLinearConcave([0.0, 2.0, 4.0], [0.0, 3.0, 4.0])
        (lo, _), (hi, _) = f.bracketing_pois(1.0)
        assert lo == 0.0 and hi == 2.0
        (lo, _), (hi, _) = f.bracketing_pois(-1.0)
        assert lo == hi == 0.0
        (lo, _), (hi, _) = f.bracketing_pois(9.0)
        assert lo == hi == 4.0

    def test_callable(self):
        f = PiecewiseLinearConcave([0.0, 1.0], [0.0, 1.0])
        assert f(0.5) == pytest.approx(0.5)


class TestLockstepHull:
    """The lockstep kernel makes the one-curve chain's exact decisions."""

    @given(_curves())
    @settings(max_examples=150, deadline=None)
    def test_single_curve_matches_the_scalar_chain(self, curve):
        xs, ys = curve
        idx = _scalar_chain(xs, ys)
        hx, hy = upper_convex_hull(xs, ys)
        assert np.array_equal(hx, xs[idx]) and np.array_equal(hy, ys[idx])

    @pytest.mark.parametrize("shared_axis", [True, False])
    def test_stacked_curves_match_the_scalar_chain_bitwise(self, shared_axis):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 7, 17):
            num = 40
            xs = np.cumsum(rng.random((num, n)) + 0.01, axis=1)
            if shared_axis:
                xs = xs[0]
            ys = rng.random((num, n))
            ys[::4] = np.round(ys[::4] * 2.0)  # plateaus and ties
            ys[1::4] = np.sqrt(np.arange(n) + 1.0)  # already concave
            ys[2::4] = 3.0 * np.arange(n)  # collinear
            mask = upper_hull_mask(xs, ys)
            values = upper_hull_values(xs, ys)
            for c in range(num):
                x = xs if shared_axis else xs[c]
                idx = _scalar_chain(x, ys[c])
                assert np.flatnonzero(mask[c]).tolist() == idx.tolist()
                want = np.interp(x, x[idx], ys[c][idx])
                assert np.array_equal(values[c].view(np.int64), want.view(np.int64))
