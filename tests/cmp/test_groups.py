"""Application-granularity (thread-group) allocation."""

import numpy as np
import pytest

from repro.cmp import ChipModel, cmp_8core
from repro.cmp.groups import (
    GroupUtility,
    build_grouped_problem,
    expand_group_allocation,
)
from repro.core import EqualBudget
from repro.exceptions import MarketConfigurationError
from repro.utility import LinearUtility
from repro.workloads import paper_bbpc_bundle


@pytest.fixture(scope="module")
def chip():
    return ChipModel(cmp_8core(), paper_bbpc_bundle().apps)


#: BBPC layout: apsi, apsi, swim, swim, mcf, mcf, hmmer, sixtrack —
#: pairing the copies gives 6 application-level players.
GROUPS = [0, 0, 1, 1, 2, 2, 3, 4]


class TestGroupUtility:
    def test_sum_of_member_shares(self):
        u = GroupUtility([LinearUtility([2.0]), LinearUtility([4.0])])
        # Each member sees half the bundle: 2*2 + 4*2 = 12.
        assert u.value([4.0]) == pytest.approx(12.0)

    def test_gradient_matches_numeric(self):
        u = GroupUtility([LinearUtility([2.0, 1.0]), LinearUtility([4.0, 3.0])])
        np.testing.assert_allclose(u.gradient([4.0, 2.0]), [3.0, 2.0])

    def test_batch_form_matches_scalar_member_sum_bitwise(self, chip):
        members = chip.true_core_utilities(True)[:3]
        group = GroupUtility(members)
        rng = np.random.default_rng(5)
        capacities = [chip.extra_cache_capacity, chip.extra_power_capacity]
        points = rng.uniform(0.0, 1.0, size=(6, 2)) * capacities
        values, gradients = [], []
        for point in points:
            # Oracle: the per-point scalar sum over members, left to right.
            share = point / len(members)
            values.append(float(sum(u.value(share) for u in members)))
            total = np.zeros(2)
            for u in members:
                total += np.asarray(u.gradient(share), dtype=float)
            gradients.append(total / len(members))
        assert np.array_equal(group.value_batch(points), values)
        assert np.array_equal(group.gradient_batch(points), gradients)

    def test_validation(self):
        with pytest.raises(MarketConfigurationError):
            GroupUtility([])
        with pytest.raises(MarketConfigurationError):
            GroupUtility([LinearUtility([1.0]), LinearUtility([1.0, 1.0])])


class TestGroupedProblem:
    def test_player_per_group(self, chip):
        problem = build_grouped_problem(chip, GROUPS)
        assert problem.num_players == 5
        assert problem.player_names[0] == "apsix2"
        assert problem.player_names[3] == "hmmer"

    def test_validation(self, chip):
        with pytest.raises(MarketConfigurationError):
            build_grouped_problem(chip, [0, 1])
        with pytest.raises(MarketConfigurationError):
            build_grouped_problem(chip, [0, 0, 0, 0, 2, 2, 2, 2])  # gap

    def test_market_clears(self, chip):
        problem = build_grouped_problem(chip, GROUPS)
        result = EqualBudget().allocate(problem)
        np.testing.assert_allclose(
            result.allocations.sum(axis=0), problem.capacities, rtol=1e-6
        )
        assert result.converged

    def test_expand_even_division(self, chip):
        problem = build_grouped_problem(chip, GROUPS)
        result = EqualBudget().allocate(problem)
        per_core = expand_group_allocation(result.allocations, GROUPS)
        assert per_core.shape == (8, 2)
        # Cores 0 and 1 (same group) get identical shares, each half.
        np.testing.assert_allclose(per_core[0], per_core[1])
        np.testing.assert_allclose(per_core[0] * 2, result.allocations[0])
        # Total is conserved.
        np.testing.assert_allclose(
            per_core.sum(axis=0), result.allocations.sum(axis=0)
        )

    def test_group_fairness_is_per_application(self, chip):
        # With equal budgets per *application*, single-threaded hmmer
        # has the same purse as two-thread apsi — the Section 5 policy.
        problem = build_grouped_problem(chip, GROUPS)
        result = EqualBudget().allocate(problem)
        assert result.envy_freeness >= 0.828 - 1e-9  # Lemma 3 still applies
