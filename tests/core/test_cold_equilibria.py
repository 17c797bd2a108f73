"""The per-problem cold-equilibrium memo (``AllocationProblem.cold_equilibria``).

ReBudget's first round is the cold search EqualBudget runs on the same
problem; the memo solves it once.  A hit must be invisible in every
result, reach only cold Jacobi searches with the same key, hand each
caller its own arrays, and never outlive its problem.
"""

import numpy as np
import pytest

from repro.analysis import run_analytic_sweep
from repro.analysis.experiments import sweeps_identical
from repro.cmp import cmp_8core
from repro.core import (
    AllocationProblem,
    BalancedBudget,
    EqualBudget,
    HillClimbBidder,
    ReBudgetMechanism,
    VectorHillClimbBidder,
    find_equilibrium,
)
from repro.core import mechanisms as mechanisms_module
from repro.core import rebudget as rebudget_module
from repro.core.equilibrium import ColdEquilibria
from repro.utility import LinearUtility


class _Searches:
    """Counting stand-in for ``find_equilibrium``."""

    def __init__(self):
        self.calls = []

    def __call__(self, market, **kwargs):
        self.calls.append(kwargs)
        return find_equilibrium(market, **kwargs)

    @property
    def cold(self):
        return sum(1 for kw in self.calls if kw.get("warm_start") is None)


@pytest.fixture
def searches(monkeypatch):
    """Count every search the mechanisms and ReBudget start."""
    counter = _Searches()
    monkeypatch.setattr(mechanisms_module, "find_equilibrium", counter)
    monkeypatch.setattr(rebudget_module, "find_equilibrium", counter)
    return counter


@pytest.fixture
def problem(bbpc_chip):
    """A fresh problem per test: the shared `bbpc_problem` keeps its memo."""
    return bbpc_chip.build_problem()


def _assert_same_result(a, b):
    for name in ("allocations", "utilities", "budgets", "lambdas"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("efficiency", "envy_freeness", "iterations", "converged", "mur", "mbr"):
        assert getattr(a, name) == getattr(b, name), name
    assert np.array_equal(a.details["prices"], b.details["prices"])


class TestSharing:
    def test_rebudget_after_equal_budget_is_bitwise_rebudget_alone(
        self, bbpc_chip, searches
    ):
        alone = ReBudgetMechanism(step=20).allocate(bbpc_chip.build_problem())
        searched_alone = len(searches.calls)

        shared = bbpc_chip.build_problem()
        EqualBudget().allocate(shared)
        searches.calls.clear()
        after = ReBudgetMechanism(step=20).allocate(shared)

        _assert_same_result(alone, after)
        rounds_alone = alone.details["rebudget"].rounds
        rounds_after = after.details["rebudget"].rounds
        assert len(rounds_alone) == len(rounds_after) == searched_alone
        for x, y in zip(rounds_alone, rounds_after):
            assert np.array_equal(x.equilibrium.state.bids, y.equilibrium.state.bids)
            assert np.array_equal(x.budgets, y.budgets)
        # Round 0 came from the memo; every later round is warm.
        assert len(searches.calls) == searched_alone - 1
        assert searches.cold == 0

    def test_balanced_budget_without_potentials_hits(self, searches):
        # Every potential 0 -> equal budgets -> EqualBudget's search.
        problem = AllocationProblem(
            utilities=[LinearUtility([0.0, 0.0]) for _ in range(3)],
            capacities=np.array([10.0, 5.0]),
            resource_names=["cache", "power"],
            player_names=["a", "b", "c"],
        )
        equal = EqualBudget().allocate(problem)
        balanced = BalancedBudget().allocate(problem)
        assert searches.cold == 1
        assert np.array_equal(balanced.budgets, equal.budgets)
        assert np.array_equal(balanced.allocations, equal.allocations)

    def test_mutating_one_result_leaves_the_other(self, problem):
        equal = EqualBudget().allocate(problem)
        rebudget = ReBudgetMechanism(step=40).allocate(problem)
        first = rebudget.details["rebudget"].rounds[0].equilibrium
        kept = first.state.allocations.copy()
        kept_lambdas = first.lambdas.copy()

        equal.allocations[:] = -1.0
        equal.lambdas[:] = -1.0
        assert np.array_equal(first.state.allocations, kept)
        assert np.array_equal(first.lambdas, kept_lambdas)

        first.state.bids[:] = -1.0
        first.warm_start.bids[:] = -1.0
        again = EqualBudget().allocate(problem)
        assert np.array_equal(again.allocations, kept)
        assert np.all(again.details["prices"] > 0.0)


class TestKey:
    @pytest.fixture
    def market(self, problem):
        return problem.build_market([100.0] * problem.num_players)

    def test_same_key_searches_once(self, problem, market):
        memo, search = ColdEquilibria(), _Searches()
        first = memo.solve(search, market, VectorHillClimbBidder())
        second = memo.solve(search, market, VectorHillClimbBidder())
        assert len(search.calls) == 1
        assert np.array_equal(first.state.bids, second.state.bids)
        assert first.iterations == second.iterations
        assert first.eval_counts == second.eval_counts

    @pytest.mark.parametrize(
        "change",
        [
            {"budgets": [50.0] * 8},
            {"bidder": VectorHillClimbBidder(lambda_tolerance=0.04)},
            {"bidder": VectorHillClimbBidder(step_stop_fraction=0.02)},
            {"bidder": HillClimbBidder()},
            {"max_iterations": 20},
            {"price_tolerance": 0.005},
        ],
        ids=["budgets", "lambda_tolerance", "step_stop", "bidder_type",
             "max_iterations", "price_tolerance"],
    )
    def test_any_key_change_misses(self, problem, market, change):
        memo, search = ColdEquilibria(), _Searches()
        memo.solve(search, market, VectorHillClimbBidder())
        other_market = (
            problem.build_market(change["budgets"]) if "budgets" in change else market
        )
        kwargs = {
            k: v for k, v in change.items() if k in ("max_iterations", "price_tolerance")
        }
        memo.solve(
            search, other_market, change.get("bidder", VectorHillClimbBidder()), **kwargs
        )
        assert len(search.calls) == 2

    def test_bidder_without_key_is_never_memoised(self, market):
        class Custom(VectorHillClimbBidder):
            pass

        memo, search = ColdEquilibria(), _Searches()
        memo.solve(search, market, Custom())
        memo.solve(search, market, Custom())
        assert len(search.calls) == 2

    def test_warm_searches_never_hit(self, problem, searches):
        mechanism = EqualBudget()
        cold = mechanism.allocate(problem)
        warm = mechanism.allocate(problem)
        assert [kw.get("warm_start") is None for kw in searches.calls] == [True, False]
        assert cold.iterations > warm.iterations


class TestLifetime:
    @staticmethod
    def _sweep(workers=1):
        return run_analytic_sweep(
            config=cmp_8core(),
            bundles_per_category=2,
            categories=("CPBN",),
            mechanisms_factory=lambda: [
                EqualBudget(),
                ReBudgetMechanism(step=20),
                ReBudgetMechanism(step=40),
            ],
            workers=workers,
        )

    def test_two_sweeps_search_twice(self, searches):
        first = self._sweep()
        cold_first = searches.cold
        second = self._sweep()
        # One cold search per bundle, in each sweep.
        assert cold_first == 2
        assert searches.cold == 2 * cold_first
        assert sweeps_identical(first, second)[0]

    def test_workers_do_not_change_results(self):
        serial = self._sweep(workers=1)
        pooled = self._sweep(workers=2)
        identical, divergence = sweeps_identical(serial, pooled)
        assert identical, f"parallel diverged from serial by {divergence:.3g}"
