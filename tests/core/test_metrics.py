"""Efficiency, envy-freeness, MUR and MBR metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    efficiency,
    envy_freeness,
    envy_matrix,
    market_budget_range,
    market_utility_range,
    price_of_anarchy,
)
from repro.cmp import ChipModel, cmp_64core
from repro.core import EqualShare
from repro.core.mechanisms import AllocationProblem
from repro.utility import LinearUtility, UtilityFunction
from repro.workloads import generate_bundles


def _scalar_envy_matrix(utilities, allocations):
    """Oracle: the N^2 scalar ``value()`` double loop."""
    n = allocations.shape[0]
    return np.array([[u.value(allocations[j]) for j in range(n)] for u in utilities])


def _scalar_envy_freeness(matrix):
    """Oracle: the pairwise loop of Definition 3 (NaN-blind ``min``)."""
    worst = 1.0
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[0]):
            if i != j and matrix[i, j] > 0.0:
                worst = min(worst, matrix[i, i] / matrix[i, j])
    return worst


@pytest.fixture(scope="module")
def problem_64():
    bundle = generate_bundles("CPBN", 64, count=1, seed=4)[0]
    return ChipModel(cmp_64core(), bundle.apps).build_problem()


class _NaNAt(UtilityFunction):
    """Linear utility that is NaN on one poisoned bundle."""

    num_resources = 1

    def __init__(self, poisoned):
        self.poisoned = poisoned

    def value(self, allocation):
        x = float(allocation[0])
        return float("nan") if x == self.poisoned else x


class TestEfficiency:
    def test_sum_of_utilities(self):
        assert efficiency([0.5, 0.7, 0.8]) == pytest.approx(2.0)

    def test_empty_is_zero(self):
        assert efficiency([]) == 0.0


class TestEnvyMatrix:
    def test_entries(self):
        utilities = [LinearUtility([1.0]), LinearUtility([2.0])]
        allocations = np.array([[1.0], [3.0]])
        matrix = envy_matrix(utilities, allocations)
        np.testing.assert_allclose(matrix, [[1.0, 3.0], [2.0, 6.0]])


    def test_rows_equal_the_scalar_double_loop_on_64_cores(self, problem_64):
        rng = np.random.default_rng(9)
        n = problem_64.num_players
        shares = rng.dirichlet(np.ones(n), size=2).T * problem_64.capacities
        shares[:3] = 0.0  # the zero bundle and the grid's low corner
        for allocations in (shares, np.tile(problem_64.capacities / n, (n, 1))):
            got = envy_matrix(problem_64.utilities, allocations)
            want = _scalar_envy_matrix(problem_64.utilities, allocations)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert envy_freeness(problem_64.utilities, allocations) == (
                _scalar_envy_freeness(want)
            )


class TestEnvyFreeness:
    def test_equal_split_identical_players_is_envy_free(self):
        utilities = [LinearUtility([1.0, 1.0])] * 3
        allocations = np.tile([2.0, 2.0], (3, 1))
        assert envy_freeness(utilities, allocations) == pytest.approx(1.0)

    def test_definition_3(self):
        # Player 0 values player 1's bundle at 4 vs its own 1 -> EF 0.25.
        utilities = [LinearUtility([1.0]), LinearUtility([1.0])]
        allocations = np.array([[1.0], [4.0]])
        assert envy_freeness(utilities, allocations) == pytest.approx(0.25)

    def test_capped_at_one(self):
        # Everyone strictly prefers their own bundle: EF is 1 (the i==j
        # pairs are included in the minimum).
        utilities = [LinearUtility([1.0, 0.0]), LinearUtility([0.0, 1.0])]
        allocations = np.array([[5.0, 0.0], [0.0, 5.0]])
        assert envy_freeness(utilities, allocations) == 1.0

    def test_worthless_bundles_ignored(self):
        utilities = [LinearUtility([1.0, 0.0]), LinearUtility([0.0, 1.0])]
        # Player 1 holds something player 0 values at zero.
        allocations = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert envy_freeness(utilities, allocations) == 1.0

    def test_zero_own_utility_with_positive_envy(self):
        utilities = [LinearUtility([1.0]), LinearUtility([1.0])]
        allocations = np.array([[0.0], [4.0]])
        assert envy_freeness(utilities, allocations) == 0.0

    def test_single_player(self):
        assert envy_freeness([LinearUtility([1.0])], np.array([[1.0]])) == 1.0

    @given(
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=3)
    )
    @settings(max_examples=60, deadline=None)
    def test_always_in_unit_interval_for_positive_bundles(self, amounts):
        utilities = [LinearUtility([1.0])] * 3
        allocations = np.array(amounts)[:, None]
        ef = envy_freeness(utilities, allocations)
        assert 0.0 <= ef <= 1.0


class TestEnvyFreenessNaN:
    """A NaN valuation never scores as perfectly fair."""

    def test_nan_entry_in_the_matrix(self):
        utilities = [LinearUtility([1.0]), _NaNAt(poisoned=3.0)]
        allocations = np.array([[3.0], [1.0]])
        assert np.isnan(envy_matrix(utilities, allocations)[1, 0])
        ef = envy_freeness(utilities, allocations)
        assert ef != 1.0 and np.isnan(ef)

    def test_nan_own_utility(self):
        utilities = [LinearUtility([1.0]), _NaNAt(poisoned=0.0)]
        allocations = np.array([[0.0], [0.0]])
        assert np.isnan(envy_freeness(utilities, allocations))

    def test_nan_capacity_through_a_mechanism(self):
        problem = AllocationProblem(
            utilities=[LinearUtility([1.0, 1.0]), LinearUtility([2.0, 0.5])],
            capacities=np.array([4.0, np.nan]),
            resource_names=["cache", "power"],
            player_names=["a", "b"],
        )
        result = EqualShare().allocate(problem)
        assert np.isnan(result.efficiency)
        assert result.envy_freeness != 1.0 and np.isnan(result.envy_freeness)


class TestPriceOfAnarchy:
    def test_ratio(self):
        assert price_of_anarchy(8.0, 10.0) == pytest.approx(0.8)

    def test_degenerate_opt(self):
        assert price_of_anarchy(1.0, 0.0) == 1.0


class TestRanges:
    def test_mur(self):
        assert market_utility_range([1.0, 2.0, 4.0]) == pytest.approx(0.25)

    def test_mur_all_zero(self):
        assert market_utility_range([0.0, 0.0]) == 1.0

    def test_mbr(self):
        assert market_budget_range([50.0, 100.0]) == pytest.approx(0.5)

    def test_mbr_equal_budgets(self):
        assert market_budget_range([100.0] * 5) == 1.0

    def test_negative_lambda_clamped_to_theorem_domain(self):
        # Monitored (noisy) utilities can report a negative marginal
        # utility of money; the raw min/max ratio would go below zero
        # and poa_lower_bound / ef_lower_bound would raise.  The ranges
        # clamp to [0, 1] instead.
        from repro.core.theory import ef_lower_bound, poa_lower_bound

        mur = market_utility_range([-0.2, 1.0])
        mbr = market_budget_range([-5.0, 100.0])
        assert mur == 0.0
        assert mbr == 0.0
        assert poa_lower_bound(mur) >= 0.0  # must not raise
        assert ef_lower_bound(mbr) >= 0.0

    @given(
        st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=8)
    )
    @settings(max_examples=80, deadline=None)
    def test_ranges_in_unit_interval(self, values):
        assert 0.0 <= market_utility_range(values) <= 1.0
        assert 0.0 <= market_budget_range(values) <= 1.0
