"""Lockstep multi-player hill climb vs. the scalar reference.

The :class:`VectorHillClimbBidder` advances every player's Section 4.1.2
climb with batched marginal evaluations; because each per-player decision
mirrors the scalar arithmetic operation for operation, the bid matrices
must be *bitwise identical* to N independent scalar climbs — cold, warm,
stale-seeded, zero-budget, and single-resource alike.  The same holds
end-to-end through ``find_equilibrium``, where the lockstep path must
also cut the Python-level utility-call count at least 3x on the paper's
8-core reference chip.  Every other strategy reaches Jacobi rounds
through the inherited row-by-row ``optimize_all``, which must reproduce
the per-player ``optimize`` / ``player_lambda`` oracle bitwise.
"""

import numpy as np
import pytest

from repro.core import (
    BiddingStrategy,
    ExactBidder,
    HillClimbBidder,
    PriceTakingBidder,
    VectorHillClimbBidder,
    bid_to_allocation,
    find_equilibrium,
    marginal_utility_of_bids,
    marginal_utility_of_bids_batch,
)
from repro.core import bidding
from repro.core.bidding import LOCKSTEP_TOLERANCE
from repro.utility import (
    CobbDouglasUtility,
    LinearUtility,
    LogUtility,
    PowerUtility,
    SaturatingUtility,
)
from repro.utility.batch import BatchedUtilitySet


def scalar_reference(utilities, budgets, others, capacities, current_bids=None, step_hints=None):
    """N independent scalar climbs, row for row."""
    bidder = HillClimbBidder()
    out = np.zeros((len(utilities), capacities.size))
    for i, utility in enumerate(utilities):
        out[i] = bidder.optimize(
            utility,
            float(budgets[i]),
            others[i],
            capacities,
            current_bids=None if current_bids is None else current_bids[i],
            step_hint=None if step_hints is None else float(step_hints[i]),
        )
    return out


@pytest.fixture
def mixed_setup(bbpc_problem):
    """The BBPC chip's grid utilities plus two closed-form stragglers."""
    utilities = list(bbpc_problem.utilities) + [
        LogUtility([1.0, 0.5], [2.0e6, 1.0]),
        LinearUtility([1e-7, 0.02]),
    ]
    capacities = bbpc_problem.capacities
    rng = np.random.default_rng(42)
    budgets = rng.uniform(20.0, 150.0, size=len(utilities))
    others = rng.uniform(0.0, 80.0, size=(len(utilities), capacities.size))
    return utilities, budgets, others, capacities


class TestPlayerBatchSeams:
    """The (K, M) player seams must reproduce their scalar forms row for
    row — including zero-capacity resources, all-zero bid rows, and the
    first-bid (nobody-else-bids) marginal."""

    #: Rows covering: ordinary bids, all-zero bids, a first bid on an
    #: otherwise un-bid resource, and a bid against a dead resource.
    BIDS = np.array(
        [[10.0, 5.0, 1.0], [0.0, 0.0, 0.0], [3.0, 0.0, 7.0], [1.0, 1.0, 1.0]]
    )
    OTHERS = np.array(
        [[20.0, 10.0, 0.0], [5.0, 5.0, 5.0], [0.0, 0.0, 2.0], [9.0, 0.0, 4.0]]
    )
    #: Middle resource has zero capacity (e.g. a powered-off domain).
    CAPACITIES = np.array([10.0, 0.0, 5.0])

    def test_allocation_batch_matches_scalar(self):
        batch = bid_to_allocation(self.BIDS, self.OTHERS, self.CAPACITIES)
        for k in range(self.BIDS.shape[0]):
            expected = bid_to_allocation(
                self.BIDS[k], self.OTHERS[k], self.CAPACITIES
            )
            assert np.array_equal(batch[k], expected)

    def test_allocation_batch_broadcasts_shared_others(self):
        shared = self.OTHERS[0]
        batch = bid_to_allocation(self.BIDS, shared, self.CAPACITIES)
        for k in range(self.BIDS.shape[0]):
            expected = bid_to_allocation(self.BIDS[k], shared, self.CAPACITIES)
            assert np.array_equal(batch[k], expected)

    def test_marginal_batch_matches_scalar(self):
        utility = LogUtility([1.0, 0.5, 2.0], [2.0, 1.0, 3.0])
        batch = marginal_utility_of_bids_batch(
            self.BIDS, self.OTHERS, self.CAPACITIES, utility=utility
        )
        for k in range(self.BIDS.shape[0]):
            expected = marginal_utility_of_bids(
                utility, self.BIDS[k], self.OTHERS[k], self.CAPACITIES
            )
            assert np.array_equal(batch[k], expected)

    def test_marginal_batch_requires_an_evaluation_route(self):
        # One utility is the only route: rows of several players go
        # through BatchedUtilitySet.marginals.
        with pytest.raises(TypeError):
            marginal_utility_of_bids_batch(
                self.BIDS, self.OTHERS, self.CAPACITIES
            )


class TestOptimizeAll:
    def test_cold_matches_scalar_bitwise(self, mixed_setup):
        utilities, budgets, others, capacities = mixed_setup
        bids = VectorHillClimbBidder().optimize_all(
            utilities, budgets, others, capacities
        )
        expected = scalar_reference(utilities, budgets, others, capacities)
        assert np.array_equal(bids, expected)

    def test_warm_with_hints_matches_scalar_bitwise(self, mixed_setup):
        utilities, budgets, others, capacities = mixed_setup
        cold = scalar_reference(utilities, budgets, others, capacities)
        # Perturb the seed slightly and hand every player a small hint;
        # some rows will probe as stale (full-mobility climb) and some
        # fresh — both branches must mirror the scalar path.
        rng = np.random.default_rng(7)
        seed = cold * rng.uniform(0.9, 1.1, size=cold.shape)
        seed = seed * (budgets / seed.sum(axis=1))[:, None]
        hints = rng.uniform(0.5, 5.0, size=budgets.size)
        bids = VectorHillClimbBidder().optimize_all(
            utilities, budgets, others, capacities,
            current_bids=seed, step_hints=hints,
        )
        expected = scalar_reference(
            utilities, budgets, others, capacities,
            current_bids=seed, step_hints=hints,
        )
        assert np.array_equal(bids, expected)

    def test_zero_budget_players(self, mixed_setup):
        utilities, budgets, others, capacities = mixed_setup
        budgets = budgets.copy()
        budgets[1] = 0.0
        budgets[3] = -5.0
        bids = VectorHillClimbBidder().optimize_all(
            utilities, budgets, others, capacities
        )
        expected = scalar_reference(utilities, budgets, others, capacities)
        assert np.array_equal(bids, expected)
        assert np.all(bids[1] == 0.0) and np.all(bids[3] == 0.0)

    def test_single_resource_short_circuit(self):
        utilities = [LogUtility([1.0]), LogUtility([2.0]), LogUtility([0.5])]
        budgets = np.array([10.0, 0.0, 3.0])
        others = np.array([[5.0], [5.0], [5.0]])
        capacities = np.array([4.0])
        bids = VectorHillClimbBidder().optimize_all(
            utilities, budgets, others, capacities
        )
        expected = scalar_reference(utilities, budgets, others, capacities)
        assert np.array_equal(bids, expected)

    def test_prebuilt_evaluator_gives_same_answer(self, mixed_setup):
        utilities, budgets, others, capacities = mixed_setup
        evaluator = BatchedUtilitySet(utilities)
        with_eval = VectorHillClimbBidder().optimize_all(
            utilities, budgets, others, capacities, evaluator=evaluator
        )
        without = VectorHillClimbBidder().optimize_all(
            utilities, budgets, others, capacities
        )
        assert np.array_equal(with_eval, without)


class TestScalarAgreement:
    def test_lockstep_within_tolerance_of_scalar_optimize_all(self, mixed_setup):
        # The scalar reference is HillClimbBidder's default row loop, held
        # to the documented LOCKSTEP_TOLERANCE slack per player.
        utilities, budgets, others, capacities = mixed_setup
        bids = VectorHillClimbBidder().optimize_all(
            utilities, budgets, others, capacities
        )
        expected = HillClimbBidder().optimize_all(
            utilities, budgets, others, capacities
        )
        slack = LOCKSTEP_TOLERANCE * np.maximum(1.0, budgets)
        assert np.all(np.abs(bids - expected) <= slack[:, None])


class TestFindEquilibriumLockstep:
    def _market(self, problem):
        return problem.build_market(np.full(problem.num_players, 100.0))

    def test_vector_matches_scalar_bitwise(self, bbpc_problem):
        market = self._market(bbpc_problem)
        scalar = find_equilibrium(market, bidder=HillClimbBidder())
        vector = find_equilibrium(market, bidder=VectorHillClimbBidder())
        assert np.array_equal(vector.state.bids, scalar.state.bids)
        assert np.array_equal(vector.state.allocations, scalar.state.allocations)
        assert np.array_equal(vector.lambdas, scalar.lambdas)
        assert vector.converged == scalar.converged
        assert vector.iterations == scalar.iterations

    def test_vector_cuts_utility_calls_3x(self, bbpc_problem):
        market = self._market(bbpc_problem)
        scalar = find_equilibrium(market, bidder=HillClimbBidder())
        vector = find_equilibrium(market, bidder=VectorHillClimbBidder())
        assert scalar.eval_counts is not None and vector.eval_counts is not None
        assert scalar.eval_counts["total_calls"] >= 3 * vector.eval_counts["total_calls"]

    def test_warm_verification_round_matches_scalar(self, bbpc_problem):
        market = self._market(bbpc_problem)
        cold = find_equilibrium(market, bidder=VectorHillClimbBidder())
        warm_scalar = find_equilibrium(
            market, bidder=HillClimbBidder(), warm_start=cold.warm_start
        )
        warm_vector = find_equilibrium(
            market, bidder=VectorHillClimbBidder(), warm_start=cold.warm_start
        )
        assert warm_vector.iterations == warm_scalar.iterations
        assert np.array_equal(warm_vector.state.bids, warm_scalar.state.bids)
        # The reused-lambda fast path must still agree bitwise with the
        # scalar path's freshly computed lambdas.
        assert np.array_equal(warm_vector.lambdas, warm_scalar.lambdas)

    def test_warm_verification_round_reuses_climb_marginals(self, bbpc_problem):
        market = self._market(bbpc_problem)
        cold = find_equilibrium(market, bidder=VectorHillClimbBidder())
        warm = find_equilibrium(
            market, bidder=VectorHillClimbBidder(), warm_start=cold.warm_start
        )
        assert warm.iterations == 1
        # One batched evaluation at the seed serves both the staleness
        # test and the first climb step; the final lambda collection
        # reuses the climb's marginals instead of paying a second
        # batched dispatch.
        assert warm.eval_counts["batch_gradient_calls"] == 1

    def test_default_bidder_is_lockstep(self, bbpc_problem):
        market = self._market(bbpc_problem)
        default = find_equilibrium(market)
        explicit = find_equilibrium(market, bidder=VectorHillClimbBidder())
        assert np.array_equal(default.state.bids, explicit.state.bids)
        assert default.eval_counts["batch_gradient_calls"] > 0


class TestGaussSeidelIncrementalTotals:
    def test_matches_recomputed_sum_oracle(self, bbpc_problem):
        """The O(N*M)-per-round running totals must reproduce the old
        recompute-``bids.sum(axis=0)``-per-player semantics: identical
        convergence and bids within float-dust (1e-9 of budget)."""
        market = bbpc_problem.build_market(
            np.full(bbpc_problem.num_players, 100.0)
        )
        result = find_equilibrium(
            market, bidder=HillClimbBidder(), update="gauss-seidel"
        )

        # Reference loop: the pre-optimization Gauss-Seidel semantics,
        # re-summing the whole bid matrix for every player.
        bidder = HillClimbBidder()
        capacities = market.capacities
        bids = market.equal_split_bids()
        prices = market.prices(bids)
        last_moves = None
        converged = False
        iterations = 0
        for iterations in range(1, 31):
            previous_bids = bids
            resume = iterations > 1
            bids = bids.copy()
            for i, player in enumerate(market.players):
                others = bids.sum(axis=0) - bids[i]
                bids[i] = bidder.optimize(
                    player.utility,
                    player.budget,
                    others,
                    capacities,
                    current_bids=bids[i] if resume else None,
                    step_hint=None if last_moves is None else float(last_moves[i]),
                )
            new_prices = market.prices(bids)
            last_moves = np.abs(bids - previous_bids).max(axis=1)
            stable = np.abs(new_prices - prices) <= 0.01 * np.where(
                np.maximum(np.abs(prices), np.abs(new_prices)) > 0.0,
                np.maximum(np.abs(prices), np.abs(new_prices)),
                1.0,
            )
            prices = new_prices
            if np.all(stable):
                converged = True
                break

        assert result.converged == converged
        assert result.iterations == iterations
        np.testing.assert_allclose(
            result.state.bids, bids, rtol=0.0, atol=1e-9 * 100.0
        )


class TestLastLambdaExposure:
    def test_fresh_exit_exposes_lambda(self):
        # A climb that stops on the tolerance condition evaluated its
        # marginals at exactly the returned bids: lambda is free.
        bidder = HillClimbBidder()
        utility = LogUtility([1.0, 1.0], [1.0, 1.0])
        others = np.array([50.0, 50.0])
        capacities = np.array([10.0, 5.0])
        bids = bidder.optimize(utility, 100.0, others, capacities)
        assert np.array_equal(
            bidder.last_marginals,
            marginal_utility_of_bids(utility, bids, others, capacities),
        )

    def test_stale_exit_exposes_nothing(self):
        # A heavily lopsided linear utility keeps moving money until the
        # step decays below the floor, so the climb's last act is a move
        # and the stored marginals would be stale.
        bidder = HillClimbBidder()
        utility = LinearUtility([1.0, 100.0])
        others = np.array([1000.0, 0.01])
        capacities = np.array([10.0, 5.0])
        bidder.optimize(utility, 100.0, others, capacities)
        assert bidder.last_marginals is None

    def test_reset_between_calls(self):
        bidder = HillClimbBidder()
        utility = LogUtility([1.0, 1.0], [1.0, 1.0])
        others = np.array([50.0, 50.0])
        capacities = np.array([10.0, 5.0])
        bidder.optimize(utility, 100.0, others, capacities)
        assert bidder.last_marginals is not None
        bidder.optimize(utility, 0.0, others, capacities)  # zero budget
        assert bidder.last_marginals is None


def lambda_oracle(market, bids):
    """Per-player scalar ``player_lambda`` at a final bid matrix."""
    totals = bids.sum(axis=0)
    return np.array(
        [
            BiddingStrategy.player_lambda(
                player.utility, bids[i], totals - bids[i], market.capacities
            )
            for i, player in enumerate(market.players)
        ]
    )


def jacobi_oracle(market, bidder, max_iterations=30, tolerance=0.01):
    """A cold Jacobi search written out with one ``optimize`` call per
    player per round and scalar lambdas — the semantics every bidder's
    ``optimize_all`` must reproduce inside ``find_equilibrium``."""

    def stable(old, new):
        reference = np.maximum(np.abs(old), np.abs(new))
        return bool(
            np.all(
                np.abs(new - old)
                <= tolerance * np.where(reference > 0.0, reference, 1.0)
            )
        )

    capacities = market.capacities
    bids = market.equal_split_bids()
    prices = market.prices(bids)
    history = [prices]
    last_moves = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        totals = bids.sum(axis=0)
        previous = bids
        bids = np.empty_like(previous)
        for i, player in enumerate(market.players):
            bids[i] = bidder.optimize(
                player.utility,
                player.budget,
                totals - previous[i],
                capacities,
                current_bids=previous[i] if iterations > 1 else None,
                step_hint=None if last_moves is None else float(last_moves[i]),
            )
        new_prices = market.prices(bids)
        oscillating = (
            len(history) >= 2
            and stable(history[-2], new_prices)
            and not stable(prices, new_prices)
        )
        slow = iterations > 8 and not stable(prices, new_prices)
        if oscillating or slow:
            bids = 0.5 * (previous + bids)
            new_prices = market.prices(bids)
        last_moves = np.abs(bids - previous).max(axis=1)
        history.append(new_prices)
        if stable(prices, new_prices):
            converged = True
            break
        prices = new_prices
    return bids, lambda_oracle(market, bids), iterations, converged


@pytest.mark.parametrize(
    "make_bidder", [HillClimbBidder, ExactBidder, PriceTakingBidder]
)
def test_scalar_bidders_match_per_player_oracle(bbpc_problem, make_bidder):
    """Scalar-class strategies run Jacobi rounds through the inherited
    row-by-row ``optimize_all``; the equilibrium and its batched lambda
    collection must equal the per-player oracle bitwise."""
    market = bbpc_problem.build_market(np.full(bbpc_problem.num_players, 100.0))
    result = find_equilibrium(market, bidder=make_bidder())
    bids, lambdas, iterations, converged = jacobi_oracle(market, make_bidder())
    assert np.array_equal(result.state.bids, bids)
    assert np.array_equal(result.lambdas, lambdas)
    assert result.iterations == iterations
    assert result.converged == converged


def test_default_optimize_all_reports_fresh_climbs(mixed_setup):
    utilities, budgets, others, capacities = mixed_setup
    bidder = HillClimbBidder()
    bids = bidder.optimize_all(utilities, budgets, others, capacities)
    assert np.array_equal(
        bids, scalar_reference(utilities, budgets, others, capacities)
    )
    for i, utility in enumerate(utilities):
        if bidder.last_fresh[i]:
            assert np.array_equal(
                bidder.last_marginals_all[i],
                marginal_utility_of_bids(utility, bids[i], others[i], capacities),
            )


def test_gauss_seidel_keeps_scalar_path(bbpc_problem):
    """GS rounds are sequential by construction; the lockstep bidder must
    fall back to its inherited scalar ``optimize`` there and still agree
    with the plain scalar bidder."""
    market = bbpc_problem.build_market(np.full(bbpc_problem.num_players, 100.0))
    scalar = find_equilibrium(market, bidder=HillClimbBidder(), update="gauss-seidel")
    vector = find_equilibrium(
        market, bidder=VectorHillClimbBidder(), update="gauss-seidel"
    )
    assert np.array_equal(vector.state.bids, scalar.state.bids)
    assert np.array_equal(vector.lambdas, lambda_oracle(market, vector.state.bids))


def test_gauss_seidel_ignores_marginals_of_an_earlier_jacobi_search(bbpc_problem):
    """A bidder object shared across searches still carries the fresh
    marginals of its last Jacobi round; a later Gauss–Seidel search on a
    different market must not report them as its lambdas."""
    bidder = VectorHillClimbBidder()
    jacobi_market = bbpc_problem.build_market(np.full(bbpc_problem.num_players, 100.0))
    cold = find_equilibrium(jacobi_market, bidder=bidder)
    warm = find_equilibrium(jacobi_market, bidder=bidder, warm_start=cold.warm_start)
    assert warm.iterations == 1 and bool(np.all(bidder.last_fresh))

    gs_market = bbpc_problem.build_market(np.full(bbpc_problem.num_players, 60.0))
    seed = find_equilibrium(gs_market, bidder=bidder, update="gauss-seidel")
    find_equilibrium(jacobi_market, bidder=bidder, warm_start=cold.warm_start)
    result = find_equilibrium(
        gs_market, bidder=bidder, update="gauss-seidel", warm_start=seed.warm_start
    )
    assert np.array_equal(result.lambdas, lambda_oracle(gs_market, result.state.bids))


def _scalar_warm_rule(current_bids, budget, num_resources):
    """Oracle: the one-vector warm-start rule, written out."""
    if current_bids is None:
        return None
    bids = np.asarray(current_bids, dtype=float)
    if bids.shape != (num_resources,) or not np.all(np.isfinite(bids)):
        return None
    bids = np.maximum(bids, 0.0)
    total = float(bids.sum())
    if total <= 0.0:
        return None
    if abs(total - budget) > 1e-6 * max(budget, total):
        return None
    return bids * (budget / total)


def _counted_scalar_climbs(utilities, budgets, others, capacities, current_bids, step_hints):
    """N scalar climbs plus what a merged lockstep round must reproduce.

    Returns the bids, the fresh marginals (zeros where stale), the fresh
    flags, the number of lockstep steps and the staleness verdicts.  A
    hinted row's staleness probe evaluates the same bids as its first
    climb step, so in lockstep the row needs ``max(climb evaluations,
    probe)`` steps, and the round needs the most any row needs.
    """
    bidder = HillClimbBidder()
    num_players, num_resources = len(utilities), capacities.size
    bids = np.zeros((num_players, num_resources))
    marginals = np.zeros((num_players, num_resources))
    fresh = np.zeros(num_players, dtype=bool)
    evaluations = []
    verdicts = []
    real_marginals = bidding.marginal_utility_of_bids
    real_stale = HillClimbBidder._stale

    def counted(*args):
        evaluations.append(1)
        return real_marginals(*args)

    def probed(self, *args):
        verdicts.append(real_stale(self, *args))
        return verdicts[-1]

    steps = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bidding, "marginal_utility_of_bids", counted)
        patch.setattr(HillClimbBidder, "_stale", probed)
        for i, utility in enumerate(utilities):
            evaluated, probes = len(evaluations), len(verdicts)
            bids[i] = bidder.optimize(
                utility,
                float(budgets[i]),
                others[i],
                capacities,
                current_bids=None if current_bids is None else current_bids[i],
                step_hint=None if step_hints is None else float(step_hints[i]),
            )
            probe = len(verdicts) - probes
            climb = len(evaluations) - evaluated - probe
            steps = max(steps, climb, probe)
            if bidder.last_marginals is not None:
                marginals[i] = bidder.last_marginals
                fresh[i] = True
    return bids, marginals, fresh, steps, verdicts


def _merged_round(utilities, budgets, others, capacities, current_bids, step_hints):
    """One lockstep round, counting its ``marginals`` calls."""
    evaluator = BatchedUtilitySet(utilities)
    real = evaluator.marginals
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    evaluator.marginals = counted
    bidder = VectorHillClimbBidder()
    bids = bidder.optimize_all(
        utilities, budgets, others, capacities,
        current_bids=current_bids, step_hints=step_hints, evaluator=evaluator,
    )
    return bidder, bids, len(calls)


class TestMergedFirstStep:
    """One ``marginals`` call at the round's starting bids is both the
    hinted rows' staleness test and the first lockstep step; bids,
    marginals and fresh flags equal N scalar climbs bitwise."""

    def _assert_matches_scalar(self, utilities, budgets, others, capacities,
                               current_bids=None, step_hints=None):
        bids, marginals, fresh, steps, verdicts = _counted_scalar_climbs(
            utilities, budgets, others, capacities, current_bids, step_hints
        )
        bidder, got, calls = _merged_round(
            utilities, budgets, others, capacities, current_bids, step_hints
        )
        assert np.array_equal(got, bids)
        assert np.array_equal(bidder.last_marginals_all, marginals)
        assert np.array_equal(bidder.last_fresh, fresh)
        assert calls == steps
        return verdicts

    @staticmethod
    def _seeds(utilities, budgets, others, capacities):
        """Balanced (fresh) seeds with every kind of unusable row mixed in.

        A 1%-step climb can stop out of balance; a few warm re-climbs
        from its own result settle every row within tolerance.
        """
        seeds = scalar_reference(utilities, budgets, others, capacities)
        for _ in range(6):
            seeds = scalar_reference(
                utilities, budgets, others, capacities, current_bids=seeds
            )
        seeds[1] = seeds[1][::-1]           # reversed split: stale
        seeds[2, 0] = np.nan                # non-finite
        seeds[3] = 0.0                      # all-zero
        seeds[4] = -seeds[4]                # negative
        seeds[5] *= 1.5                     # budget mismatch
        seeds[6, 1] += seeds[6, 0]          # negative dust, clipped away:
        seeds[6, 0] = -1e-9                 # still usable
        return seeds

    def test_hinted_unhinted_stale_fresh_and_unusable_rows(self, mixed_setup):
        utilities, budgets, others, capacities = mixed_setup
        seeds = self._seeds(utilities, budgets, others, capacities)
        hints = np.random.default_rng(5).uniform(0.5, 5.0, size=budgets.size)
        verdicts = self._assert_matches_scalar(
            utilities, budgets, others, capacities, seeds, hints
        )
        assert True in verdicts and False in verdicts

    def test_warm_rows_without_hints(self, mixed_setup):
        utilities, budgets, others, capacities = mixed_setup
        seeds = self._seeds(utilities, budgets, others, capacities)
        verdicts = self._assert_matches_scalar(
            utilities, budgets, others, capacities, seeds
        )
        assert verdicts == []

    def test_non_positive_budgets(self, mixed_setup):
        utilities, budgets, others, capacities = mixed_setup
        seeds = self._seeds(utilities, budgets, others, capacities)
        budgets = budgets.copy()
        budgets[0] = 0.0
        budgets[7] = -3.0
        hints = np.full(budgets.size, 2.0)
        self._assert_matches_scalar(
            utilities, budgets, others, capacities, seeds, hints
        )
        for budgets in (np.zeros(budgets.size), np.full(budgets.size, -1.0)):
            bidder, bids, calls = _merged_round(
                utilities, budgets, others, capacities, seeds, hints
            )
            assert calls == 0 and not np.any(bids) and not bidder.last_fresh.any()

    def test_single_resource(self):
        utilities = [LogUtility([1.0]), LogUtility([2.0]), LogUtility([0.5])]
        budgets = np.array([10.0, 0.0, -3.0])
        others = np.full((3, 1), 5.0)
        capacities = np.array([4.0])
        self._assert_matches_scalar(
            utilities, budgets, others, capacities,
            np.array([[10.0], [1.0], [np.nan]]), np.ones(3),
        )

    def test_non_grid_utilities_with_three_resources(self):
        shared = LogUtility([1.0, 0.5, 2.0], [2.0, 1.0, 0.5])
        utilities = [
            shared,
            shared,
            LinearUtility([0.2, 1.0, 0.5]),
            PowerUtility([1.0, 2.0, 0.5], [0.5, 0.3, 0.7]),
            CobbDouglasUtility([0.3, 0.3, 0.3]),
            SaturatingUtility([1.0, 2.0, 0.5], [3.0, 1.5, 2.0]),
            LogUtility([0.1, 3.0, 1.0]),
            LogUtility([2.0, 0.1, 1.0]),
        ]
        capacities = np.array([6.0, 4.0, 5.0])
        rng = np.random.default_rng(11)
        budgets = rng.uniform(20.0, 150.0, size=len(utilities))
        others = rng.uniform(0.0, 80.0, size=(len(utilities), 3))
        seeds = self._seeds(utilities, budgets, others, capacities)
        hints = rng.uniform(0.5, 5.0, size=budgets.size)
        verdicts = self._assert_matches_scalar(
            utilities, budgets, others, capacities, seeds, hints
        )
        assert True in verdicts and False in verdicts
        self._assert_matches_scalar(utilities, budgets, others, capacities)


class TestWarmStartBidsRowWise:
    def test_matches_the_written_out_scalar_rule(self):
        budgets = np.array([10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 0.0, -2.0, 6.0])
        rows = np.array([
            [4.0, 6.0],               # usable
            [4.0, 6.0 + 1e-9],        # within tolerance: rescaled
            [np.nan, 10.0],           # non-finite
            [np.inf, 1.0],            # non-finite
            [0.0, 0.0],               # all-zero
            [-1.0, -9.0],             # negative: nothing left
            [-1e-9, 10.0],            # negative dust clipped
            [1.0, 1.0],               # zero budget
            [1.0, 1.0],               # negative budget
            [3.0, 5.0],               # budget mismatch
        ])
        bids, warm = BiddingStrategy.warm_start_bids(rows, budgets, 2)
        for k, budget in enumerate(budgets):
            expected = _scalar_warm_rule(rows[k], float(budget), 2)
            if expected is None:
                assert not warm[k]
                assert np.array_equal(bids[k], np.full(2, budget / 2))
            else:
                assert warm[k]
                assert np.array_equal(bids[k], expected)
        assert list(warm) == [True, True] + [False] * 4 + [True] + [False] * 3

    @pytest.mark.parametrize("current", [None, np.ones((3, 2)), np.ones(2)])
    def test_absent_or_misshapen_falls_back_to_equal_split(self, current):
        budgets = np.array([4.0, 2.0])
        bids, warm = BiddingStrategy.warm_start_bids(current, budgets, 2)
        assert not warm.any()
        assert np.array_equal(bids, [[2.0, 2.0], [1.0, 1.0]])
