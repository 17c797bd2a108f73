"""Allocation mechanisms behind the Figure 4/5 comparison."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    AllocationProblem,
    BalancedBudget,
    ElasticitiesProportional,
    EqualBudget,
    EqualShare,
    MaxEfficiency,
    ReBudgetMechanism,
    standard_mechanism_suite,
)
from repro.exceptions import MarketConfigurationError
from repro.utility import (
    EVAL_COUNTERS,
    BatchedUtilitySet,
    CobbDouglasUtility,
    GridUtility2D,
    LogUtility,
    SaturatingUtility,
)


@pytest.fixture
def synthetic_problem():
    """Three heterogeneous players over two abstract resources."""
    return AllocationProblem(
        utilities=[
            LogUtility([2.0, 0.5], [1.0, 1.0]),
            LogUtility([0.5, 2.0], [1.0, 1.0]),
            SaturatingUtility([0.3, 0.3], [1.0, 1.0]),
        ],
        capacities=np.array([10.0, 10.0]),
        resource_names=["cache", "power"],
        player_names=["a", "b", "c"],
        quanta=np.array([0.25, 0.25]),
    )


def _grid_problem(**overrides):
    """Three GridUtility2D players over (cache, power), fields overridable."""
    xs = np.linspace(0.0, 4.0, 5)
    ys = np.linspace(0.0, 2.0, 3)
    fields = dict(
        utilities=[
            GridUtility2D(xs, ys, np.sqrt(1.0 + xs[:, None]) * np.log1p(k + ys[None, :]))
            for k in (1.0, 2.0, 3.0)
        ],
        capacities=np.array([4.0, 2.0]),
        resource_names=["cache", "power"],
        player_names=["a", "b", "c"],
    )
    fields.update(overrides)
    return AllocationProblem(**fields)


class TestAllocationProblem:
    def test_default_quanta(self):
        problem = AllocationProblem(
            utilities=[LogUtility([1.0])],
            capacities=np.array([256.0]),
            resource_names=["cache"],
            player_names=["p"],
        )
        np.testing.assert_allclose(problem.quanta, [1.0])

    def test_validation(self):
        with pytest.raises(MarketConfigurationError):
            AllocationProblem(
                utilities=[],
                capacities=np.array([1.0]),
                resource_names=["x"],
                player_names=[],
            )
        with pytest.raises(MarketConfigurationError):
            AllocationProblem(
                utilities=[LogUtility([1.0])],
                capacities=np.array([1.0]),
                resource_names=["x", "y"],
                player_names=["p"],
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize(
        "mechanism", standard_mechanism_suite(), ids=lambda m: m.name
    )
    def test_bad_capacity_never_reaches_a_mechanism(self, mechanism, bad):
        # Unchecked, a NaN capacity scored NaN efficiency and EF, and an
        # infinite or non-positive one scored EF 1.0.
        with pytest.raises(MarketConfigurationError, match="capacities"):
            mechanism.allocate(_grid_problem(capacities=np.array([4.0, bad])))

    @pytest.mark.parametrize(
        "quanta",
        [[np.nan, 0.5], [np.inf, 0.5], [0.0, 0.5], [-1.0, 0.5], [0.5], [[0.5, 0.5]]],
    )
    def test_rejects_bad_quanta(self, quanta):
        with pytest.raises(MarketConfigurationError, match="quanta"):
            _grid_problem(quanta=np.array(quanta))

    @pytest.mark.parametrize(
        "caps",
        [
            [[1.0, 1.0], [1.0, np.nan], [1.0, 1.0]],
            [[1.0, 1.0], [np.inf, 1.0], [1.0, 1.0]],
            [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            [1.0, 1.0],
        ],
    )
    def test_rejects_bad_per_player_caps(self, caps):
        with pytest.raises(MarketConfigurationError, match="per_player_caps"):
            _grid_problem(per_player_caps=np.array(caps))

    def test_build_market(self, synthetic_problem):
        market = synthetic_problem.build_market([10.0, 20.0, 30.0])
        np.testing.assert_allclose(market.budgets, [10.0, 20.0, 30.0])
        assert market.resources.names == ["cache", "power"]


class TestEqualShare:
    def test_even_split(self, synthetic_problem):
        result = EqualShare().allocate(synthetic_problem)
        np.testing.assert_allclose(result.allocations, np.full((3, 2), 10.0 / 3.0))
        assert result.envy_freeness == pytest.approx(1.0)

    def test_metrics_populated(self, synthetic_problem):
        result = EqualShare().allocate(synthetic_problem)
        assert result.efficiency == pytest.approx(float(result.utilities.sum()))
        assert result.mechanism == "EqualShare"


class TestEqualBudget:
    def test_equilibrium_metrics(self, synthetic_problem):
        result = EqualBudget().allocate(synthetic_problem)
        assert result.mbr == pytest.approx(1.0)
        assert result.mur is not None and 0.0 <= result.mur <= 1.0
        assert result.iterations >= 1
        np.testing.assert_allclose(result.budgets, 100.0)
        np.testing.assert_allclose(
            result.allocations.sum(axis=0), synthetic_problem.capacities, rtol=1e-9
        )

    def test_beats_equal_share_on_heterogeneous_problem(self, synthetic_problem):
        share = EqualShare().allocate(synthetic_problem)
        market = EqualBudget().allocate(synthetic_problem)
        assert market.efficiency >= share.efficiency - 1e-9


class TestBalancedBudget:
    @pytest.fixture
    def offset_problem(self):
        """Players with non-zero minimum utilities (free minimums).

        Potential = (U_max - U_min) / U_max differs only when U_min > 0,
        which is the normal CMP situation (every core's free resources
        already buy some performance).
        """
        from repro.utility import ScaledUtility

        return AllocationProblem(
            utilities=[
                ScaledUtility(LogUtility([0.4, 0.1], [1.0, 1.0]), 1.0, 0.1),
                ScaledUtility(SaturatingUtility([0.1, 0.1], [1.0, 1.0]), 1.0, 0.8),
            ],
            capacities=np.array([10.0, 10.0]),
            resource_names=["cache", "power"],
            player_names=["hungry", "content"],
            quanta=np.array([0.25, 0.25]),
        )

    def test_low_potential_players_get_less(self, offset_problem):
        result = BalancedBudget().allocate(offset_problem)
        # The content player starts at 0.8 of its max: tiny potential.
        assert result.budgets[1] < result.budgets[0]
        assert result.budgets.max() == pytest.approx(100.0)

    def test_mbr_below_one(self, offset_problem):
        result = BalancedBudget().allocate(offset_problem)
        assert result.mbr < 1.0

    def test_equal_potentials_degenerate_to_equal_budgets(self, synthetic_problem):
        # With U_min = 0 for everyone, potential is 1 for everyone and
        # Balanced collapses to EqualBudget (the paper's observation 1).
        result = BalancedBudget().allocate(synthetic_problem)
        np.testing.assert_allclose(result.budgets, 100.0)


class TestReBudgetMechanism:
    def test_names(self):
        assert ReBudgetMechanism(step=20).name == "ReBudget-20"
        assert ReBudgetMechanism(min_envy_freeness=0.5).name == "ReBudget(EF>=0.5)"

    def test_details_contain_rounds(self, synthetic_problem):
        result = ReBudgetMechanism(step=30).allocate(synthetic_problem)
        rebudget = result.details["rebudget"]
        assert len(rebudget.rounds) >= 1
        assert result.mbr <= 1.0

    def test_ef_target_guarantee(self, synthetic_problem):
        result = ReBudgetMechanism(min_envy_freeness=0.6).allocate(synthetic_problem)
        from repro.core.theory import ef_lower_bound

        assert result.envy_freeness >= ef_lower_bound(result.mbr) - 1e-9
        assert ef_lower_bound(result.mbr) >= 0.6 - 1e-9


class TestConstructionErrors:
    """Bad mechanism parameters fail at construction with a typed error,
    not later inside allocate()."""

    def test_rebudget_needs_step_or_target(self):
        with pytest.raises(MarketConfigurationError):
            ReBudgetMechanism()

    def test_rebudget_rejects_negative_step(self):
        with pytest.raises(MarketConfigurationError):
            ReBudgetMechanism(step=-1)

    @pytest.mark.parametrize("budget", [0.0, -5.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "make",
        [
            EqualBudget,
            BalancedBudget,
            lambda budget: ReBudgetMechanism(step=20, budget=budget),
        ],
    )
    def test_rejects_non_positive_or_non_finite_budget(self, make, budget):
        with pytest.raises(MarketConfigurationError):
            make(budget=budget)


class TestEvaluationPath:
    def test_standard_suite_makes_no_scalar_utility_calls(self, bbpc_problem):
        # Every mechanism of Figures 4/5 scores and climbs through batch
        # kernels on a chip problem; a scalar call would mean a
        # one-player-at-a-time loop crept back in.
        before = EVAL_COUNTERS.snapshot()
        for mechanism in standard_mechanism_suite():
            mechanism.allocate(bbpc_problem)
        delta = EVAL_COUNTERS.since(before)
        assert delta["scalar_calls"] == 0
        assert delta["batch_calls"] > 0


class TestProblemEvaluator:
    """One compiled evaluator per problem, living and dying with it."""

    def test_every_market_and_score_shares_the_problem_evaluator(
        self, bbpc_problem, monkeypatch
    ):
        problem = dataclasses.replace(bbpc_problem)
        assert problem.build_market(np.full(problem.num_players, 1.0)).evaluator is (
            problem.evaluator
        )
        compiled = []
        real = BatchedUtilitySet._compile
        monkeypatch.setattr(
            BatchedUtilitySet, "_compile",
            lambda self: compiled.append(self) or real(self),
        )
        for mechanism in standard_mechanism_suite():
            mechanism.allocate(problem)
        assert compiled == []

    def test_replace_compiles_a_fresh_evaluator(self, synthetic_problem):
        replaced = dataclasses.replace(synthetic_problem)
        assert replaced.evaluator is not synthetic_problem.evaluator
        assert replaced.evaluator.utilities == synthetic_problem.utilities
        other = dataclasses.replace(
            synthetic_problem, utilities=synthetic_problem.utilities[::-1]
        )
        allocation = np.array([[1.0, 2.0]])
        assert other.evaluator.values(allocation)[0] == (
            synthetic_problem.utilities[-1].value(allocation[0])
        )


class TestMaxEfficiency:
    def test_is_upper_bound_among_mechanisms(self, synthetic_problem):
        opt = MaxEfficiency().allocate(synthetic_problem)
        for mech in (EqualShare(), EqualBudget(), ReBudgetMechanism(step=30)):
            assert opt.efficiency >= mech.allocate(synthetic_problem).efficiency - 1e-6


class TestElasticitiesProportional:
    def test_recovers_cobb_douglas_elasticities(self):
        problem = AllocationProblem(
            utilities=[
                CobbDouglasUtility([0.8, 0.1]),
                CobbDouglasUtility([0.1, 0.8]),
            ],
            capacities=np.array([10.0, 10.0]),
            resource_names=["cache", "power"],
            player_names=["a", "b"],
        )
        result = ElasticitiesProportional().allocate(problem)
        fitted = result.details["elasticities"]
        np.testing.assert_allclose(fitted[0], [0.8, 0.1], atol=0.05)
        np.testing.assert_allclose(fitted[1], [0.1, 0.8], atol=0.05)
        # Resource split is elasticity-proportional.
        assert result.allocations[0, 0] == pytest.approx(10.0 * 0.8 / 0.9, rel=0.05)

    def test_misallocates_on_cliffy_utilities(self, bbpc_problem):
        # The paper's critique: EP underperforms the market when the
        # utilities are not Cobb-Douglas shaped.
        ep = ElasticitiesProportional().allocate(bbpc_problem)
        market = EqualBudget().allocate(bbpc_problem)
        assert ep.efficiency <= market.efficiency + 1e-6


class TestStandardSuite:
    def test_lineup(self):
        names = [m.name for m in standard_mechanism_suite()]
        assert names == [
            "EqualShare",
            "EqualBudget",
            "Balanced",
            "ReBudget-20",
            "ReBudget-40",
            "MaxEfficiency",
        ]
