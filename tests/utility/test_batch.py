"""Batched utility evaluation: every ``value_batch`` / ``gradient_batch``
must reproduce the looped scalar calls — bitwise for the families whose
overrides mirror the scalar arithmetic operation for operation, within
an explicit (documented) tolerance where a vectorized reduction may
reassociate a summation.  Also covers the stacked-grid fast path, the
compiled :class:`BatchedUtilitySet`, and the evaluation counters the
hot-loop bench reads.
"""

import numpy as np
import pytest

from repro.core.player import marginal_utility_of_bids
from repro.qa import sanitize
from repro.utility import (
    EVAL_COUNTERS,
    AdditiveUtility,
    BatchedUtilitySet,
    CobbDouglasUtility,
    GridUtility2D,
    HullUtility1D,
    LinearUtility,
    LogUtility,
    PiecewiseLinearConcave,
    PowerUtility,
    SaturatingUtility,
    ScaledUtility,
    StackedGrids,
    TabularUtility1D,
    UtilityFunction,
    numeric_gradient,
    numeric_gradient_batch,
)


def looped_values(utility, points):
    return np.array([utility.value(p) for p in points], dtype=float)


def looped_gradients(utility, points):
    return np.stack(
        [np.asarray(utility.gradient(p), dtype=float) for p in points]
    )


def assert_batch_matches(utility, points, exact=True):
    values = utility.value_batch(points)
    gradients = utility.gradient_batch(points)
    assert values.shape == (points.shape[0],)
    assert gradients.shape == points.shape
    if exact:
        assert np.array_equal(values, looped_values(utility, points))
        assert np.array_equal(gradients, looped_gradients(utility, points))
    else:
        np.testing.assert_allclose(
            values, looped_values(utility, points), rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(
            gradients, looped_gradients(utility, points), rtol=1e-12, atol=1e-15
        )


def make_grid(seed=0, nx=5, ny=4, x_span=4.0, y_span=2.0):
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, x_span, nx)
    ys = np.linspace(0.0, y_span, ny) * (1.0 + 0.3 * seed)
    # Concave, non-decreasing surface with some per-seed texture.
    values = np.sqrt(1.0 + xs[:, None]) * np.log1p(1.0 + ys[None, :])
    values = values + 0.01 * rng.random((nx, ny))
    values = np.maximum.accumulate(np.maximum.accumulate(values, axis=0), axis=1)
    return GridUtility2D(xs, ys, values)


#: Points exercising the edge cases the clamping (tabulated) overrides
#: must handle identically: below the first sample, above the last,
#: exactly on bounds, zero rows.
POINTS_1D = np.array([[-1.0], [0.0], [0.3], [1.0], [2.7], [3.0], [99.0]])
POINTS_2D = np.array(
    [
        [0.0, 0.0],
        [-1.0, -1.0],
        [0.5, 0.25],
        [4.0, 2.0],
        [1.7, 0.9],
        [99.0, 99.0],
        [0.0, 2.5],
    ]
)
#: Non-negative points for the closed-form families (utilities are only
#: defined over non-negative allocations; the market never goes below 0).
NONNEG_2D = np.array(
    [[0.0, 0.0], [0.5, 0.25], [4.0, 2.0], [1.7, 0.9], [99.0, 99.0], [0.0, 2.5]]
)
#: Strictly positive points for families whose gradients blow up at zero.
POSITIVE_2D = np.array([[0.5, 0.25], [1.0, 1.0], [4.0, 2.0], [1.7, 0.9], [9.0, 0.1]])


CASES = [
    pytest.param(
        lambda: TabularUtility1D([0.0, 1.0, 3.0], [0.0, 2.0, 3.0]),
        POINTS_1D,
        True,
        id="tabular1d",
    ),
    pytest.param(
        lambda: HullUtility1D([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 1.2, 1.3]),
        POINTS_1D,
        True,
        id="hull1d",
    ),
    pytest.param(lambda: make_grid(1), POINTS_2D, True, id="grid2d"),
    pytest.param(
        lambda: GridUtility2D([1.0], [0.0, 1.0], np.array([[0.0, 2.0]])),
        POINTS_2D,
        True,
        id="grid2d-degenerate-x",
    ),
    pytest.param(
        lambda: GridUtility2D([0.0, 1.0], [2.0], np.array([[0.0], [4.0]])),
        POINTS_2D,
        True,
        id="grid2d-degenerate-y",
    ),
    pytest.param(lambda: LinearUtility([1.0, 2.5]), NONNEG_2D, True, id="linear"),
    pytest.param(
        lambda: LogUtility([1.0, 0.5], [2.0, 1.0]), NONNEG_2D, True, id="log"
    ),
    pytest.param(
        lambda: PowerUtility([1.0, 0.7], [0.5, 0.9]), POSITIVE_2D, True, id="power"
    ),
    pytest.param(
        lambda: CobbDouglasUtility([0.3, 0.4], scale=2.0),
        POSITIVE_2D,
        True,
        id="cobb-douglas",
    ),
    pytest.param(
        lambda: SaturatingUtility([1.0, 2.0], [3.0, 1.5]),
        NONNEG_2D,
        True,
        id="saturating",
    ),
    pytest.param(
        lambda: AdditiveUtility(
            [
                TabularUtility1D([0.0, 1.0, 3.0], [0.0, 2.0, 3.0]),
                LogUtility([1.0], [1.0]),
            ]
        ),
        NONNEG_2D,
        True,
        id="additive",
    ),
    pytest.param(
        lambda: ScaledUtility(LogUtility([1.0, 0.5], [2.0, 1.0]), 2.0, 0.1),
        NONNEG_2D,
        True,
        id="scaled",
    ),
]


class TestBatchEqualsScalar:
    @pytest.mark.parametrize("factory, points, exact", CASES)
    def test_batch_matches_looped_scalar(self, factory, points, exact):
        assert_batch_matches(factory(), points, exact=exact)

    def test_empty_batch(self):
        u = LogUtility([1.0, 0.5])
        points = np.empty((0, 2))
        assert u.value_batch(points).shape == (0,)
        assert u.gradient_batch(points).shape == (0, 2)

    def test_shape_validation(self):
        # The generic fallback validates via _as_point_matrix; fast
        # overrides are internal hot-path code and skip the check.
        u = OnlyScalar()
        with pytest.raises(ValueError):
            u.value_batch(np.zeros(2))  # 1-D, not (K, M)
        with pytest.raises(ValueError):
            u.gradient_batch(np.zeros((3, 5)))  # wrong resource count


class OnlyScalar(UtilityFunction):
    """A subclass implementing nothing beyond the scalar interface."""

    num_resources = 2

    def value(self, allocation):
        r = np.asarray(allocation, dtype=float)
        return float(np.sqrt(1.0 + r[0]) + np.log1p(r[1]))


class TestGenericFallback:
    def test_fallback_matches_scalar_bitwise(self):
        u = OnlyScalar()
        assert_batch_matches(u, NONNEG_2D, exact=True)

    def test_fallback_counts_scalar_per_point(self):
        u = OnlyScalar()
        before = EVAL_COUNTERS.snapshot()
        u.value_batch(NONNEG_2D)
        delta = EVAL_COUNTERS.since(before)
        assert delta["scalar_value_calls"] == NONNEG_2D.shape[0]
        assert delta["batch_calls"] == 0

    def test_scalar_call_counts_its_one_row_kernel(self):
        # A scalar call on a batch-first utility is the one-row case of
        # its kernels: a grid gradient is one gradient and one value
        # dispatch over a single point, and no scalar evaluation.
        u = make_grid(2)
        before = EVAL_COUNTERS.snapshot()
        u.gradient(POINTS_2D[2])
        delta = EVAL_COUNTERS.since(before)
        assert delta["batch_gradient_calls"] == 1
        assert delta["batch_value_calls"] == 1
        assert delta["scalar_calls"] == 0

    def test_fast_override_counts_batch_not_scalar(self):
        u = make_grid(2)
        before = EVAL_COUNTERS.snapshot()
        u.value_batch(POINTS_2D)
        delta = EVAL_COUNTERS.since(before)
        assert delta["batch_value_calls"] == 1
        assert delta["batch_points"] == POINTS_2D.shape[0]
        assert delta["scalar_calls"] == 0


class TestWrapperCounting:
    """Wrappers delegate to leaf utilities, which do the counting: one
    vectorized evaluation is one call over K points, not two."""

    POINTS = np.array(
        [[0.5, 1.0], [1.0, 2.0], [2.0, 0.5], [3.0, 3.0], [0.0, 1.5]]
    )

    @pytest.mark.parametrize("method", ["value_batch", "gradient_batch"])
    def test_scaled_counts_once(self, method):
        u = ScaledUtility(LinearUtility([1.0, 2.0]), scale=2.0, offset=0.5)
        before = EVAL_COUNTERS.snapshot()
        getattr(u, method)(self.POINTS)
        delta = EVAL_COUNTERS.since(before)
        assert delta["batch_calls"] == 1
        assert delta["batch_points"] == self.POINTS.shape[0]
        assert delta["scalar_calls"] == 0

    @pytest.mark.parametrize("method", ["value_batch", "gradient_batch"])
    def test_additive_counts_each_component_once(self, method):
        u = AdditiveUtility([LinearUtility([1.0]), LogUtility([2.0])])
        before = EVAL_COUNTERS.snapshot()
        getattr(u, method)(self.POINTS)
        delta = EVAL_COUNTERS.since(before)
        assert delta["batch_calls"] == 2
        assert delta["batch_points"] == 2 * self.POINTS.shape[0]


class TestNumericGradientBatch:
    def test_matches_scalar_including_zero_boundary(self):
        # Rows with zero coordinates exercise the forward-difference
        # fallback; both paths must pick it for exactly the same rows.
        def f(p):
            p = np.asarray(p, dtype=float)
            return float(np.sqrt(1.0 + p[0]) * np.log1p(1.0 + p[1]))

        def f_batch(points):
            return np.sqrt(1.0 + points[:, 0]) * np.log1p(1.0 + points[:, 1])

        points = np.array([[0.0, 0.0], [0.0, 3.0], [2.0, 0.0], [1.5, 0.5]])
        expected = np.stack([numeric_gradient(f, p) for p in points])
        assert np.array_equal(numeric_gradient_batch(f_batch, points), expected)

    def test_empty(self):
        out = numeric_gradient_batch(lambda pts: pts[:, 0], np.empty((0, 2)))
        assert out.shape == (0, 2)


class TestPiecewiseLinearConcave:
    def test_batch_matches_scalar_bitwise(self):
        hull = PiecewiseLinearConcave(
            [0.0, 1.0, 2.0, 4.0], [0.0, 0.9, 1.3, 1.5]
        )
        xs = np.array([-1.0, 0.0, 0.5, 1.0, 3.0, 4.0, 9.0])
        values = hull.value_batch(xs)
        derivatives = hull.derivative_batch(xs)
        assert np.array_equal(values, [hull.value(x) for x in xs])
        assert np.array_equal(derivatives, [hull.derivative(x) for x in xs])


class TestStackedGrids:
    def test_matches_per_grid_scalar_bitwise(self):
        # Same sample counts, *different* axes per grid — the Fig-4 case
        # (shared cache axis, per-app power scaling).
        grids = [make_grid(seed) for seed in range(3)]
        stack = StackedGrids(grids)
        rng = np.random.default_rng(7)
        points = rng.uniform(-1.0, 5.0, size=(20, 2))
        owners = rng.integers(0, 3, size=20)
        values = stack.value_points(points, owners)
        gradients = stack.gradient_points(points, owners)
        for k in range(20):
            grid = grids[owners[k]]
            assert values[k] == grid.value(points[k])
            assert np.array_equal(gradients[k], grid.gradient(points[k]))


    @pytest.mark.parametrize("nx, ny", [(5, 9), (9, 3)])
    def test_padded_axes_match_value_batch_bitwise(self, nx, ny):
        # The shorter axis is NaN-padded in the shared (G, 2, L) table;
        # points outside the box clamp and NaN points stay NaN, exactly
        # as each grid's own kernels do.
        grids = [make_grid(seed, nx=nx, ny=ny) for seed in range(3)]
        stack = StackedGrids(grids)
        rng = np.random.default_rng(nx * ny)
        points = np.vstack([
            rng.uniform(-1.0, 7.0, size=(30, 2)),
            [[-5.0, 1.0], [1.0, -5.0], [50.0, 50.0], [-1.0, 99.0]],
            [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan], [np.nan, -3.0]],
        ])
        owners = np.arange(points.shape[0]) % 3
        values = stack.value_points(points, owners)
        gradients = stack.gradient_points(points, owners)
        assert np.isnan(values[-4:]).all()
        for g, grid in enumerate(grids):
            mine = owners == g
            assert np.array_equal(
                values[mine], grid.value_batch(points[mine]), equal_nan=True
            )
            assert np.array_equal(
                gradients[mine], grid.gradient_batch(points[mine]), equal_nan=True
            )


class TestBatchedUtilitySet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BatchedUtilitySet([])

    def test_all_grids_compile_to_one_group(self):
        # 8 same-shape grids with distinct power axes must fuse into a
        # single stacked group: one gradients() call costs exactly one
        # batched gradient dispatch (plus its inner value dispatch).
        utilities = [make_grid(seed) for seed in range(8)]
        evaluator = BatchedUtilitySet(utilities)
        allocations = np.tile([1.5, 0.8], (8, 1))
        before = EVAL_COUNTERS.snapshot()
        evaluator.gradients(allocations)
        delta = EVAL_COUNTERS.since(before)
        assert delta["batch_gradient_calls"] == 1
        assert delta["batch_value_calls"] == 1
        assert delta["scalar_calls"] == 0

    def test_mixed_groups_match_per_player_scalar(self):
        shared = LogUtility([1.0, 0.5], [2.0, 1.0])
        utilities = [
            make_grid(0),
            make_grid(1),
            shared,
            shared,  # same object twice: one shared-group dispatch
            LinearUtility([1.0, 2.0]),
            SaturatingUtility([1.0, 2.0], [3.0, 1.5]),
        ]
        evaluator = BatchedUtilitySet(utilities)
        rng = np.random.default_rng(3)
        allocations = rng.uniform(0.0, 3.0, size=(len(utilities), 2))
        out = evaluator.gradients(allocations)
        values = evaluator.values(allocations)
        for i, utility in enumerate(utilities):
            assert np.array_equal(out[i], utility.gradient(allocations[i])), i
            assert values[i] == utility.value(allocations[i]), i

    def test_player_subset(self):
        utilities = [make_grid(seed) for seed in range(4)] + [
            LogUtility([1.0, 1.0])
        ]
        evaluator = BatchedUtilitySet(utilities)
        players = np.array([4, 1, 3])
        allocations = np.array([[1.0, 0.5], [2.0, 1.0], [0.0, 0.0]])
        out = evaluator.gradients(allocations, players=players)
        values = evaluator.values(allocations, players=players)
        for k, i in enumerate(players):
            assert np.array_equal(out[k], utilities[i].gradient(allocations[k]))
            assert values[k] == utilities[i].value(allocations[k])

    def test_duplicate_player_rows(self):
        # The same player may appear on several rows (probe batches).
        utilities = [make_grid(0), LogUtility([1.0, 1.0])]
        evaluator = BatchedUtilitySet(utilities)
        players = np.array([0, 0, 1, 0])
        allocations = np.array([[1.0, 0.5], [2.0, 1.0], [1.0, 1.0], [1.0, 0.5]])
        out = evaluator.gradients(allocations, players=players)
        for k, i in enumerate(players):
            assert np.array_equal(out[k], utilities[i].gradient(allocations[k]))


class TestMarginalsOracle:
    """``BatchedUtilitySet.marginals`` against Equation 7 written out.

    The oracle is per player and per resource, in plain floats: the
    Eq. 2 allocation, the gradient (for a grid, the scalar
    :func:`numeric_gradient` loop over the grid's own searchsorted
    lookup — neither the stacked kernel nor the batched difference) and
    the chain-rule rate, with the first-bid rate ``C_j * 1e9`` spelled
    out.
    """

    CAPACITIES = np.array([4.0, 2.0])
    #: (player, bids, others): interior rows, a resource nobody bids on
    #: (b_j + y_j == 0, the first-bid branch), allocations below the
    #: numeric-gradient step (forward differences), a player already
    #: owning (nearly) everything, and repeated players.
    ROWS = [
        (0, [10.0, 5.0], [30.0, 20.0]),
        (1, [10.0, 0.0], [5.0, 0.0]),
        (2, [0.0, 7.0], [0.0, 3.0]),
        (3, [1e-9, 1e-9], [50.0, 50.0]),
        (4, [0.0, 0.0], [10.0, 10.0]),
        (5, [1e6, 1e6], [1.0, 1.0]),
        (6, [0.0, 0.0], [0.0, 0.0]),
        (7, [3.0, 9.0], [9.0, 3.0]),
        (2, [50.0, 1e-8], [50.0, 100.0]),
        (5, [0.5, 2.0], [0.0, 8.0]),
    ]

    @staticmethod
    def _written_out(utility, bids, others, capacities):
        allocation, rate = [], []
        for b, y, c in zip(bids, others, capacities):
            total = b + y
            if total > 0.0:
                allocation.append(b / total * c)
                rate.append(y * c / (total * total))
            else:
                allocation.append(0.0)
                rate.append(c * 1e9)
        if isinstance(utility, GridUtility2D):
            gradient = numeric_gradient(utility.value, np.array(allocation))
        else:
            gradient = utility.gradient(np.array(allocation))
        return np.array([g * r for g, r in zip(gradient, rate)]), allocation

    @pytest.mark.parametrize("sanitized", [True, False])
    @pytest.mark.parametrize("mixed", [False, True], ids=["stacked", "mixed"])
    def test_bitwise_against_written_out_eq7(self, sanitized, mixed):
        utilities = [make_grid(seed) for seed in range(8)]
        if mixed:
            # Non-grid players take the per-utility gradient_batch route.
            utilities[3] = LogUtility([1.0, 0.5], [2.0, 1.0])
            utilities[6] = utilities[3]
        evaluator = BatchedUtilitySet(utilities)
        players = np.array([p for p, _, _ in self.ROWS])
        bids = np.array([b for _, b, _ in self.ROWS])
        others = np.array([y for _, _, y in self.ROWS])
        with sanitize.enabled(sanitized):
            out = evaluator.marginals(bids, others, self.CAPACITIES, players)
            seams = [
                marginal_utility_of_bids(
                    utilities[p], bids[k], others[k], self.CAPACITIES
                )
                for k, p in enumerate(players)
            ]
        first_bids = forward = 0
        for k, p in enumerate(players):
            expected, allocation = self._written_out(
                utilities[p], bids[k], others[k], self.CAPACITIES
            )
            assert np.array_equal(out[k], expected), k
            assert np.array_equal(seams[k], expected), k
            first_bids += int(np.sum(bids[k] + others[k] <= 0.0))
            forward += sum(a - 1e-6 * max(1.0, abs(a)) < 0.0 for a in allocation)
        # The rows really reach both guarded branches.
        assert first_bids >= 3
        assert forward >= 6

    def test_one_gradient_and_one_probe_dispatch_per_step(self):
        evaluator = BatchedUtilitySet([make_grid(seed) for seed in range(8)])
        players = np.array([1, 4, 6])
        before = EVAL_COUNTERS.snapshot()
        evaluator.marginals(
            np.full((3, 2), 10.0), np.full((3, 2), 30.0), self.CAPACITIES, players
        )
        delta = EVAL_COUNTERS.since(before)
        assert delta["batch_gradient_calls"] == 1
        assert delta["batch_value_calls"] == 1
        # K rows for the gradient call plus its 2 * M * K probes.
        assert delta["batch_points"] == 3 + 2 * 2 * 3
