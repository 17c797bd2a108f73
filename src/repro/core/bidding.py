"""Player bidding strategies.

Given the prices announced by the market, every player independently
finds the bid vector that maximizes its own utility subject to its
budget (optimization problem 3 in the paper).  Two strategies are
provided:

* :class:`HillClimbBidder` — the paper's Section 4.1.2 procedure: start
  from an equal split (or, warm-started, from the previous bid vector),
  repeatedly move an exponentially shrinking amount ``S`` of money from
  the resource with the lowest marginal utility to the one with the
  highest, stopping when marginals agree within 5% or ``S`` drops below
  1% of the budget.
* :class:`ExactBidder` — a numerically exact best response found by
  projected gradient ascent with backtracking; used as an ablation
  reference for how much the cheap hill climb loses.

Both return bid vectors that (a) are non-negative and (b) spend the full
budget whenever any resource still has positive marginal utility.
:class:`VectorHillClimbBidder` runs the hill climb for all players in
lockstep, and :class:`PriceTakingBidder` is the price-taking ablation.
A Jacobi round is one :meth:`BiddingStrategy.optimize_all` call, which
by default loops :meth:`~BiddingStrategy.optimize` over the players.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import checked_positive
from ..utility.base import UtilityFunction
from ..utility.batch import BatchedUtilitySet
from .player import bid_to_allocation, marginal_utility_of_bids

__all__ = [
    "LOCKSTEP_TOLERANCE",
    "BiddingStrategy",
    "HillClimbBidder",
    "VectorHillClimbBidder",
    "ExactBidder",
    "PriceTakingBidder",
]

#: Documented slack, relative to ``max(1, budget)``, between a lockstep
#: climb and the scalar climb it mirrors: the bound the tests assert and
#: the hot-loop bench's ``--check`` gates allocations on.
LOCKSTEP_TOLERANCE = 1e-9


class BiddingStrategy(abc.ABC):
    """Finds a player's (approximately) optimal bids given others' bids."""

    #: Equation 7 marginals this strategy computed at the bids it last
    #: returned, or ``None`` when the last evaluation happened *before*
    #: the final move (the climb stopped on step size, so the stored
    #: marginals would be stale) or the strategy never evaluates them.
    #: Lets the equilibrium search skip re-deriving ``lambda_i`` when the
    #: climb already paid for it.
    last_marginals: Optional[np.ndarray] = None

    #: What :meth:`optimize_all` last left behind: the (N, M) marginals
    #: of every climb at its returned bids, and a per-player flag saying
    #: whether they are *fresh* (the row of :attr:`last_marginals`);
    #: rows that are not fresh hold zeros.
    last_marginals_all: Optional[np.ndarray] = None
    last_fresh: Optional[np.ndarray] = None

    @abc.abstractmethod
    def optimize(
        self,
        utility: UtilityFunction,
        budget: float,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: np.ndarray | None = None,
        step_hint: float | None = None,
    ) -> np.ndarray:
        """Return the player's new bid vector (length M, sums to budget).

        ``current_bids`` is the player's bid vector from the previous
        round (or epoch); strategies that support warm starts begin the
        search there instead of from an equal split.  ``step_hint`` is
        how far the player's bids moved in the previous round — warm
        climbs size their first step to it so a near-converged player
        does not re-explore the whole simplex.
        """

    def optimize_all(
        self,
        utilities: Sequence[UtilityFunction],
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray] = None,
        step_hints: Optional[np.ndarray] = None,
        evaluator: Optional[BatchedUtilitySet] = None,
    ) -> np.ndarray:
        """Best-respond for every player against fixed ``others`` bids.

        One Jacobi round.  Parameters mirror :meth:`optimize` row-wise:
        ``budgets`` is ``(N,)``, ``others`` is ``(N, M)`` (row ``i`` is
        the sum of the *other* players' bids as player ``i`` sees them),
        and ``current_bids`` / ``step_hints`` are the optional ``(N, M)``
        / ``(N,)`` warm-start state.  ``evaluator`` is a prebuilt
        :class:`~repro.utility.batch.BatchedUtilitySet` over
        ``utilities`` for strategies that batch their evaluations.
        Returns the new ``(N, M)`` bid matrix and fills
        :attr:`last_marginals_all` / :attr:`last_fresh`.

        This default calls :meth:`optimize` once per row.
        """
        budgets = np.asarray(budgets, dtype=float)
        bids = np.zeros((budgets.size, np.asarray(capacities).size))
        self.last_marginals_all = np.zeros_like(bids)
        self.last_fresh = np.zeros(budgets.size, dtype=bool)
        for i, utility in enumerate(utilities):
            self.last_marginals = None
            bids[i] = self.optimize(
                utility,
                float(budgets[i]),
                others[i],
                capacities,
                current_bids=None if current_bids is None else current_bids[i],
                step_hint=None if step_hints is None else float(step_hints[i]),
            )
            if self.last_marginals is not None:
                self.last_marginals_all[i] = self.last_marginals
                self.last_fresh[i] = True
        return bids

    def memo_key(self) -> Optional[tuple]:
        """What besides the market fixes this strategy's cold equilibria.

        A hashable tuple lets :class:`~repro.core.equilibrium.ColdEquilibria`
        reuse a cold search made with an equally configured bidder;
        ``None`` (the default) means never memoise.
        """
        return None

    @staticmethod
    def warm_start_bids(
        current_bids: Optional[np.ndarray], budgets: np.ndarray, num_resources: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Previous bid rows made reusable, or an equal split where they are not.

        Row-wise over ``budgets`` (``(K,)``): row ``k`` of the ``(K, M)``
        ``current_bids`` is reused when it is finite, its non-negative
        part sums to a positive total, and that total matches
        ``budgets[k]`` within 1e-6 relative (a budget change means the
        old split is stale); it is then rescaled to spend exactly
        ``budgets[k]``.  Every other row — all of them when
        ``current_bids`` is absent or not ``(K, M)`` — is the equal
        split.  Returns the ``(K, M)`` bids and the ``(K,)`` mask of
        reused rows; the scalar climbs pass one row.
        """
        budgets = np.asarray(budgets, dtype=float)
        bids = np.repeat(budgets[:, None] / num_resources, num_resources, axis=1)
        warm = np.zeros(budgets.size, dtype=bool)
        if current_bids is None:
            return bids, warm
        previous = np.asarray(current_bids, dtype=float)
        if previous.shape != bids.shape:
            return bids, warm
        finite = np.isfinite(previous).all(axis=1)
        previous = np.where(finite[:, None], np.maximum(previous, 0.0), 0.0)
        totals = previous.sum(axis=1)
        # Spelled as "not beyond tolerance" so a NaN budget compares as
        # the scalar rule always did.
        warm = (totals > 0.0) & ~(
            np.abs(totals - budgets) > 1e-6 * np.maximum(budgets, totals)
        )
        bids[warm] = previous[warm] * (budgets[warm] / totals[warm])[:, None]
        return bids, warm

    @classmethod
    def _warm_start_row(
        cls, current_bids: Optional[np.ndarray], budget: float, num_resources: int
    ) -> Tuple[np.ndarray, bool]:
        """:meth:`warm_start_bids` for one player's ``(M,)`` bid vector."""
        bids, warm = cls.warm_start_bids(
            None if current_bids is None else np.asarray(current_bids, dtype=float)[None],
            np.array([budget], dtype=float),
            num_resources,
        )
        return bids[0], bool(warm[0])

    @staticmethod
    def player_lambda(
        utility: UtilityFunction,
        bids: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
    ) -> float:
        """The player-specific multiplier ``lambda_i`` at a bid vector.

        At an optimum, all resources with non-zero bids share the same
        marginal utility (Equation 4); we report the maximum marginal
        over resources with non-zero bids, which equals that shared
        value at an optimum and degrades gracefully away from one.
        """
        marginals = marginal_utility_of_bids(utility, bids, others, capacities)
        active = bids > 1e-12
        if not np.any(active):
            return float(marginals.max(initial=0.0))
        return float(marginals[active].max())


class HillClimbBidder(BiddingStrategy):
    """The exponential back-off hill climb of Section 4.1.2.

    Parameters
    ----------
    lambda_tolerance:
        Stop when max and min marginal utilities agree within this
        relative tolerance (paper: 5%).
    step_stop_fraction:
        Stop when the shift amount ``S`` falls below this fraction of the
        player's budget (paper: 1%).
    """

    def __init__(self, lambda_tolerance: float = 0.05, step_stop_fraction: float = 0.01):
        self.lambda_tolerance = lambda_tolerance
        self.step_stop_fraction = checked_positive(
            step_stop_fraction, "step_stop_fraction"
        )

    def memo_key(self) -> Optional[tuple]:
        # Exact types only: a subclass may carry state this key misses.
        if type(self) not in (HillClimbBidder, VectorHillClimbBidder):
            return None
        return (type(self).__name__, self.lambda_tolerance, self.step_stop_fraction)

    def _stale(
        self,
        bids: np.ndarray,
        utility: UtilityFunction,
        others: np.ndarray,
        capacities: np.ndarray,
    ) -> bool:
        """True when ``bids`` is far from this player's optimum.

        The climb moves at most ~2x its initial step per call, so a
        hint-sized step cannot recover from a large utility shift; a
        marginal imbalance beyond twice the stop tolerance means the
        seed is stale and the climb needs full mobility.
        """
        marginals = marginal_utility_of_bids(utility, bids, others, capacities)
        donors = np.where(bids > 1e-12)[0]
        if donors.size == 0:
            return False
        hi = float(marginals.max())
        lo = float(marginals[donors].min())
        return hi > 0.0 and hi - lo > 2.0 * self.lambda_tolerance * hi

    def optimize(
        self,
        utility: UtilityFunction,
        budget: float,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: np.ndarray | None = None,
        step_hint: float | None = None,
    ) -> np.ndarray:
        num_resources = capacities.size
        self.last_marginals = None
        if budget <= 0.0:
            return np.zeros(num_resources)
        if num_resources == 1:
            return np.array([budget])

        cold_step = budget / (2.0 * num_resources)
        min_step = self.step_stop_fraction * budget

        # Step 1: start from the previous bids when they are reusable
        # (same budget), otherwise from an equal split; S is half of one
        # equal-split bid, shrunk to the last move for warm starts.
        bids, warm = self._warm_start_row(current_bids, budget, num_resources)
        if not warm or step_hint is None or self._stale(
            bids, utility, others, capacities
        ):
            # A cold start, no hint, or a seed whose marginals are badly
            # out of balance (the problem shifted under us): a hint-sized
            # step cannot cover the distance, so climb at full mobility.
            step = cold_step
        else:
            step = float(np.clip(step_hint, 2.0 * min_step, cold_step))

        self.last_marginals = _climb(
            bids,
            step,
            min_step,
            self.lambda_tolerance,
            lambda b: marginal_utility_of_bids(utility, b, others, capacities),
        )
        return bids


class VectorHillClimbBidder(HillClimbBidder):
    """Section 4.1.2's hill climb for *all* players at once, in lockstep.

    Jacobi rounds make players independent within a round (everyone
    best-responds to the same broadcast bids), so their climbs can be
    advanced together: one ``(K, M)`` batched marginal evaluation per
    lockstep iteration serves every still-active player, instead of each
    player paying its own chain of scalar ``gradient()`` calls.  The
    first evaluation, at the round's starting bids, doubles as the
    hinted rows' staleness check, so every evaluation is one step.  The
    per-player arithmetic — warm-start validation, staleness check,
    donor/recipient selection, step back-off, every stop condition — is
    the scalar :meth:`HillClimbBidder.optimize` mirrored operation for
    operation, so the returned bid matrix is *bitwise identical* to N
    scalar climbs whenever each utility's scalar gradient is the one-row
    case of its batch kernel, as for every built-in family.  The tests
    and the hot-loop bench hold it to :data:`LOCKSTEP_TOLERANCE` of the
    scalar climbs.

    The scalar :meth:`optimize` entry point is inherited unchanged, so
    this bidder also works for Gauss–Seidel rounds and any other
    one-player-at-a-time caller.
    """

    def optimize_all(
        self,
        utilities: Sequence[UtilityFunction],
        budgets: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: Optional[np.ndarray] = None,
        step_hints: Optional[np.ndarray] = None,
        evaluator: Optional[BatchedUtilitySet] = None,
    ) -> np.ndarray:
        """All players' climbs in lockstep (see :meth:`BiddingStrategy.optimize_all`).

        ``evaluator`` is built fresh when omitted — pass one when calling
        every round.
        """
        budgets = np.asarray(budgets, dtype=float)
        others = np.asarray(others, dtype=float)
        capacities = np.asarray(capacities, dtype=float)
        num_players = budgets.size
        num_resources = capacities.size
        if evaluator is None:
            evaluator = BatchedUtilitySet(utilities)

        self.last_marginals_all = np.zeros((num_players, num_resources))
        self.last_fresh = np.zeros(num_players, dtype=bool)
        spent = budgets <= 0.0
        if num_resources == 1:
            return np.where(spent, 0.0, budgets)[:, None]

        # Initialization, mirroring the scalar climb row for row: warm
        # bids when reusable, equal split otherwise, cold step unless a
        # warm row has a hint AND its seed is not stale.
        bids, warm = self.warm_start_bids(current_bids, budgets, num_resources)
        bids[spent] = 0.0
        cold_step = budgets / (2.0 * num_resources)
        min_step = self.step_stop_fraction * budgets
        step = cold_step.copy()

        # Every step a row can take is at most its cold step, so only
        # rows whose cold step clears the stop can climb.  Their
        # marginals at the round's starting bids serve twice: the
        # staleness test of the hinted rows, and the first lockstep step.
        rows = np.flatnonzero(~spent & (cold_step >= min_step))
        if not rows.size:
            return bids
        marginals = evaluator.marginals(bids[rows], others[rows], capacities, rows)
        hinted = warm[rows] & (step_hints is not None)
        if hinted.any():
            probed = rows[hinted]
            at = marginals[hinted]
            donors = bids[probed] > 1e-12
            hi = at.max(axis=1)
            lo = np.where(donors, at, np.inf).min(axis=1)
            stale = (
                donors.any(axis=1)
                & (hi > 0.0)
                & (hi - lo > 2.0 * self.lambda_tolerance * hi)
            )
            hints = np.asarray(step_hints, dtype=float)[probed]
            step[probed] = np.where(
                stale,
                cold_step[probed],
                np.clip(hints, 2.0 * min_step[probed], cold_step[probed]),
            )
            climbing = step[rows] >= min_step[rows]
            rows, marginals = rows[climbing], marginals[climbing]

        # ``rows`` stays ascending: every step keeps a subset in order.
        while rows.size:
            span = np.arange(rows.size)
            donors = bids[rows] > 1e-12
            # Donor: lowest marginal among resources the player bids on
            # (np.inf masking preserves the scalar first-among-ties
            # index); recipient: highest marginal overall.
            donor = np.argmin(np.where(donors, marginals, np.inf), axis=1)
            recipient = np.argmax(marginals, axis=1)
            hi = marginals[span, recipient]
            lo = marginals[span, donor]
            stop = (
                ~donors.any(axis=1)
                | (recipient == donor)
                | (hi <= 0.0)
                | (hi - lo <= self.lambda_tolerance * hi)
            )
            # A row that stops on this test was evaluated at exactly the
            # bids it returns: its marginals are fresh.  A row whose step
            # decays after a move ends stale and keeps zeros.
            stopped = rows[stop]
            self.last_marginals_all[stopped] = marginals[stop]
            self.last_fresh[stopped] = True
            go = ~stop
            move = rows[go]
            if not move.size:
                break
            d = donor[go]
            r = recipient[go]
            moved = np.minimum(step[move], bids[move, d])
            bids[move, d] -= moved
            bids[move, r] += moved
            step[move] *= 0.5
            rows = move[step[move] >= min_step[move]]
            if rows.size:
                marginals = evaluator.marginals(
                    bids[rows], others[rows], capacities, rows
                )

        return bids


class ExactBidder(BiddingStrategy):
    """Projected gradient ascent on the budget simplex.

    Maximizes ``U(r(b))`` over ``{b >= 0, sum b = budget}``.  The
    objective is concave whenever ``U`` is concave and non-decreasing
    (each ``r_j(b_j)`` is concave), so gradient ascent with a simplex
    projection converges to the true best response.  Slower but sharper
    than :class:`HillClimbBidder`; used in the bidding ablation.
    """

    def __init__(self, max_iterations: int = 200, tolerance: float = 1e-9):
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    def optimize(
        self,
        utility: UtilityFunction,
        budget: float,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: np.ndarray | None = None,
        step_hint: float | None = None,
    ) -> np.ndarray:
        num_resources = capacities.size
        if budget <= 0.0:
            return np.zeros(num_resources)
        if num_resources == 1:
            return np.array([budget])

        if current_bids is not None and current_bids.sum() > 0:
            bids = current_bids * (budget / current_bids.sum())
        else:
            bids = np.full(num_resources, budget / num_resources)

        def objective(b: np.ndarray) -> float:
            return utility.value(bid_to_allocation(b, others, capacities))

        value = objective(bids)
        step = budget / 4.0
        for _ in range(self.max_iterations):
            grad = marginal_utility_of_bids(utility, bids, others, capacities)
            # Cap the synthetic "infinite" first-bid marginals so the
            # ascent direction stays finite.
            grad = np.minimum(grad, 1e6)
            scale = float(np.abs(grad).max())
            if scale <= 0.0:
                break
            candidate = _project_to_simplex(bids + (step / scale) * grad, budget)
            candidate_value = objective(candidate)
            if candidate_value > value + 1e-15:
                moved = float(np.max(np.abs(candidate - bids)))
                bids, value = candidate, candidate_value
                step = min(step * 1.5, budget)  # expand while improving
                if moved < self.tolerance * budget:
                    break
            else:
                step *= 0.5
                if step < self.tolerance * budget:
                    break
        return bids


class PriceTakingBidder(BiddingStrategy):
    """A naive bidder that treats broadcast prices as fixed.

    The paper's bidders are *price-anticipating* (Equation 2: a player
    predicts how its own bid moves its allocation through the shared
    price).  The classic alternative from the literature the paper
    builds on (Feldman et al.; Kelly-style proportional fairness) is
    *price-taking*: assume ``r_j = b_j / p_j`` with ``p_j`` fixed at the
    last broadcast value.  Price takers over-bid on contested resources
    (they ignore that their own money inflates the price), which is the
    behaviour the bidding ablation quantifies.
    """

    def __init__(self, lambda_tolerance: float = 0.05, step_stop_fraction: float = 0.01):
        self.lambda_tolerance = lambda_tolerance
        self.step_stop_fraction = checked_positive(
            step_stop_fraction, "step_stop_fraction"
        )

    def optimize(
        self,
        utility: UtilityFunction,
        budget: float,
        others: np.ndarray,
        capacities: np.ndarray,
        current_bids: np.ndarray | None = None,
        step_hint: float | None = None,
    ) -> np.ndarray:
        num_resources = capacities.size
        if budget <= 0.0:
            return np.zeros(num_resources)
        if num_resources == 1:
            return np.array([budget])

        # Fixed prices from the last broadcast (Equation 1 with the
        # player's previous bids included).
        previous = (
            current_bids
            if current_bids is not None
            else np.full(num_resources, budget / num_resources)
        )
        prices = (others + np.maximum(np.asarray(previous, dtype=float), 0.0)) / capacities
        prices = np.maximum(prices, 1e-12)

        def marginals_at(b: np.ndarray) -> np.ndarray:
            allocation = np.minimum(b / prices, capacities)
            du_dr = np.asarray(utility.gradient(allocation), dtype=float)
            return np.where(allocation < capacities, du_dr / prices, 0.0)

        # The climb starts from the same bids the prices were derived
        # from: restarting from an equal split would optimize bids that
        # are inconsistent with the prices assumed above.  Its marginals
        # are price-taking ones, not Equation 7's, so they are not
        # exposed as last_marginals.
        bids, _ = self._warm_start_row(current_bids, budget, num_resources)
        _climb(
            bids,
            budget / (2.0 * num_resources),
            self.step_stop_fraction * budget,
            self.lambda_tolerance,
            marginals_at,
        )
        return bids


def _climb(
    bids: np.ndarray,
    step: float,
    min_step: float,
    tolerance: float,
    marginals_at: Callable[[np.ndarray], np.ndarray],
) -> Optional[np.ndarray]:
    """Section 4.1.2's donor/recipient/back-off loop, moving ``bids`` in place.

    Returns the marginals evaluated at exactly the bids left behind, or
    ``None`` when the loop's last act was a move (stale marginals).
    """
    final_marginals: Optional[np.ndarray] = None
    while step >= min_step:
        marginals = marginals_at(bids)
        final_marginals = marginals
        # Donor: lowest marginal among resources we actually bid on.
        # Recipient: highest marginal overall.
        donors = np.where(bids > 1e-12)[0]
        if donors.size == 0:
            break
        donor = donors[np.argmin(marginals[donors])]
        recipient = int(np.argmax(marginals))
        hi, lo = marginals[recipient], marginals[donor]
        # Stop condition (a): marginals already agree within tolerance.
        if recipient == donor or hi <= 0.0 or hi - lo <= tolerance * hi:
            break
        moved = min(step, bids[donor])
        bids[donor] -= moved
        bids[recipient] += moved
        final_marginals = None
        # Step 3: exponential back-off.
        step *= 0.5
    return final_marginals


def _project_to_simplex(vector: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of ``vector`` onto ``{x >= 0, sum x = total}``."""
    if total <= 0.0:
        return np.zeros_like(vector)
    sorted_desc = np.sort(vector)[::-1]
    cumulative = np.cumsum(sorted_desc) - total
    ranks = np.arange(1, vector.size + 1)
    feasible = sorted_desc - cumulative / ranks > 0
    rho = int(np.nonzero(feasible)[0][-1])
    theta = cumulative[rho] / (rho + 1.0)
    return np.maximum(vector - theta, 0.0)
