"""MaxEfficiency: the welfare-maximizing reference allocation.

The paper obtains its efficiency upper bound by running an "infeasible
very fine-grained hill-climbing search" over concave utilities
(Section 6).  We reproduce that with a lazy-greedy quantum allocator:
resources are split into small quanta and each quantum is handed to the
player whose utility increases the most.  For concave utilities marginal
gains are diminishing, so the lazy evaluation (a max-heap with stale
entries re-validated on pop) is sound, and the greedy solution converges
to the continuous optimum as the quantum shrinks.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from ..utility.base import UtilityFunction

__all__ = ["max_efficiency_allocation", "GreedyOptimum"]


@dataclass
class GreedyOptimum:
    """Result of the greedy welfare maximization."""

    allocations: np.ndarray  # (N, M)
    utilities: np.ndarray    # (N,)
    steps: int

    @property
    def efficiency(self) -> float:
        return float(self.utilities.sum())


class _LatticeValueCache:
    """Memoized utility evaluation on the quantum lattice.

    Every point the greedy fill, the exchange passes and the leftovers
    pass evaluate is an integer multiple of the quanta, and the
    refinement loop re-scores the same candidate moves on every sweep —
    ~20x redundancy on a 64-player problem.  Caching by integer lattice
    coordinates turns those revisits into dict hits while returning the
    exact same floats, so the optimum is bitwise unchanged.  Off-lattice
    queries fall through uncached.
    """

    __slots__ = ("_utility", "_quanta", "_cache")

    def __init__(self, utility: UtilityFunction, quanta: np.ndarray):
        self._utility = utility
        self._quanta = quanta
        self._cache: dict = {}

    def value(self, allocation) -> float:
        coords = np.asarray(allocation, dtype=float) / self._quanta
        rounded = np.rint(coords)
        if coords.size and float(np.max(np.abs(coords - rounded))) > 1e-6:
            return self._utility.value(allocation)
        key = tuple(int(c) for c in rounded)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = self._utility.value(allocation)
        return hit


def max_efficiency_allocation(
    utilities: Sequence[UtilityFunction],
    capacities: Sequence[float],
    quanta: Sequence[float],
    per_player_caps: Optional[np.ndarray] = None,
) -> GreedyOptimum:
    """Greedily maximize ``sum_i U_i(r_i)`` subject to capacity limits.

    Parameters
    ----------
    utilities:
        One concave utility per player over the M resources.
    capacities:
        Total amount of each resource to distribute.
    quanta:
        Allocation granularity per resource (e.g. one 128 kB cache
        region, one 0.125 W RAPL power unit).  Smaller quanta approach
        the continuous optimum at linear cost.
    per_player_caps:
        Optional (N, M) matrix limiting any player's share of each
        resource (e.g. the 2 MB shadow-tag monitoring limit).

    Notes
    -----
    Capacity that yields no player any positive gain is still handed out
    round-robin at the end so the result honours the paper's "no
    leftovers" invariant; those quanta are utility-neutral by
    construction.
    """
    capacities = np.asarray(capacities, dtype=float)
    quanta = np.asarray(quanta, dtype=float)
    num_players = len(utilities)
    num_resources = capacities.size
    if quanta.size != num_resources:
        raise MarketConfigurationError("need one quantum per resource")
    if np.any(quanta <= 0):
        raise MarketConfigurationError("quanta must be positive")
    if per_player_caps is not None:
        per_player_caps = np.asarray(per_player_caps, dtype=float)
        if per_player_caps.shape != (num_players, num_resources):
            raise MarketConfigurationError("per_player_caps must be (N, M)")

    utilities = [_LatticeValueCache(u, quanta) for u in utilities]
    allocations = np.zeros((num_players, num_resources))
    current = np.zeros(num_players)  # cached U_i(r_i)
    remaining = np.floor(capacities / quanta + 1e-9).astype(int)

    def gain(i: int, j: int) -> float:
        trial = allocations[i].copy()
        trial[j] += quanta[j]
        return utilities[i].value(trial) - current[i]

    def capped(i: int, j: int) -> bool:
        return (
            per_player_caps is not None
            and allocations[i, j] + quanta[j] > per_player_caps[i, j] + 1e-9
        )

    counter = itertools.count()
    heap: list = []
    for i in range(num_players):
        current[i] = utilities[i].value(allocations[i])
        for j in range(num_resources):
            if remaining[j] > 0 and not capped(i, j):
                heapq.heappush(heap, (-gain(i, j), next(counter), i, j))

    steps = 0
    while heap:
        neg_gain, _, i, j = heapq.heappop(heap)
        if remaining[j] <= 0 or capped(i, j):
            continue
        fresh = gain(i, j)
        if fresh <= 0.0:
            # Diminishing returns: no entry below this one can be
            # positive for this (i, j); drop it.
            continue
        if heap and fresh < -heap[0][0] - 1e-15:
            # Stale entry: re-insert with the recomputed gain.
            heapq.heappush(heap, (-fresh, next(counter), i, j))
            continue
        allocations[i, j] += quanta[j]
        current[i] += fresh
        remaining[j] -= 1
        steps += 1
        if remaining[j] > 0 and not capped(i, j):
            heapq.heappush(heap, (-gain(i, j), next(counter), i, j))

    _distribute_leftovers(allocations, remaining, quanta, per_player_caps)

    # Cache and power are complements for cliffy applications (extra
    # power is worthless until the working set fits), which violates the
    # submodularity the lazy greedy relies on.  A hill-climbing exchange
    # pass — move one quantum at a time from the player that loses least
    # to the player that gains most — repairs those misallocations; this
    # is the paper's "very fine-grained hill-climbing search".
    steps += _exchange_refinement(
        utilities, allocations, current, quanta, per_player_caps
    )
    # Pure complements (a quantum of cache is worthless without the
    # matching power) defeat single-resource moves entirely: every
    # marginal gain is zero until both resources arrive.  A joint pass
    # transfers a bundle with one quantum of *every* resource at once.
    joint_moves = _joint_exchange_pass(
        utilities, allocations, current, quanta, per_player_caps
    )
    if joint_moves:
        # Joint moves open new single-resource opportunities; re-run.
        steps += joint_moves + _exchange_refinement(
            utilities, allocations, current, quanta, per_player_caps
        )

    final_utilities = np.array(
        [utilities[i].value(allocations[i]) for i in range(num_players)]
    )
    return GreedyOptimum(allocations=allocations, utilities=final_utilities, steps=steps)


def _exchange_refinement(
    utilities: Sequence[UtilityFunction],
    allocations: np.ndarray,
    current: np.ndarray,
    quanta: np.ndarray,
    per_player_caps: Optional[np.ndarray],
    max_moves: int = 20000,
    tolerance: float = 1e-12,
) -> int:
    """Quantum-exchange hill climbing on top of the greedy fill."""
    num_players, num_resources = allocations.shape
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        for j in range(num_resources):
            q = quanta[j]
            gains = np.full(num_players, -np.inf)
            losses = np.full(num_players, np.inf)
            for i in range(num_players):
                at_cap = (
                    per_player_caps is not None
                    and allocations[i, j] + q > per_player_caps[i, j] + 1e-9
                )
                if not at_cap:
                    trial = allocations[i].copy()
                    trial[j] += q
                    gains[i] = utilities[i].value(trial) - current[i]
                if allocations[i, j] >= q - 1e-9:
                    trial = allocations[i].copy()
                    trial[j] -= q
                    losses[i] = current[i] - utilities[i].value(trial)
            recipient, donor = _best_exchange_pair(gains, losses)
            if (
                recipient is not None
                and gains[recipient] - losses[donor] > tolerance
            ):
                allocations[recipient, j] += q
                allocations[donor, j] -= q
                current[recipient] += gains[recipient]
                current[donor] -= losses[donor]
                moves += 1
                improved = True
    return moves


def _joint_exchange_pass(
    utilities: Sequence[UtilityFunction],
    allocations: np.ndarray,
    current: np.ndarray,
    quanta: np.ndarray,
    per_player_caps: Optional[np.ndarray],
    max_moves: int = 5000,
    tolerance: float = 1e-12,
) -> int:
    """Move one quantum of *every* resource between players at once."""
    num_players, num_resources = allocations.shape
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        for donor in range(num_players):
            bundle = np.minimum(quanta, allocations[donor])
            if np.all(bundle <= 0.0):
                continue
            donor_after = allocations[donor] - bundle
            loss = current[donor] - utilities[donor].value(donor_after)
            best_gain = 0.0
            best_recipient = None
            for recipient in range(num_players):
                if recipient == donor:
                    continue
                trial = allocations[recipient] + bundle
                if per_player_caps is not None and np.any(
                    trial > per_player_caps[recipient] + 1e-9
                ):
                    continue
                gain = utilities[recipient].value(trial) - current[recipient]
                if gain > best_gain:
                    best_gain = gain
                    best_recipient = recipient
            if best_recipient is not None and best_gain - loss > tolerance:
                allocations[donor] -= bundle
                allocations[best_recipient] += bundle
                current[donor] -= loss
                current[best_recipient] += best_gain
                moves += 1
                improved = True
    return moves


def _best_exchange_pair(gains: np.ndarray, losses: np.ndarray):
    """The (recipient, donor) pair maximizing ``gain - loss``.

    The top gainer and the top (least-loss) donor may be the same
    player; in that case the optimum pairs one of them with the runner-up
    on the other side, so both combinations are evaluated.
    """
    order_gain = np.argsort(gains)[::-1]
    order_loss = np.argsort(losses)
    best = (None, None)
    best_value = -np.inf
    for r in order_gain[:2]:
        for d in order_loss[:2]:
            if r == d or not np.isfinite(gains[r]) or not np.isfinite(losses[d]):
                continue
            value = gains[r] - losses[d]
            if value > best_value:
                best_value = value
                best = (int(r), int(d))
    return best


def _distribute_leftovers(
    allocations: np.ndarray,
    remaining: np.ndarray,
    quanta: np.ndarray,
    per_player_caps: Optional[np.ndarray],
) -> None:
    """Hand out utility-neutral residual quanta round-robin ("no leftovers")."""
    num_players = allocations.shape[0]
    for j in range(remaining.size):
        i = 0
        guard = remaining[j] * num_players + num_players
        while remaining[j] > 0 and guard > 0:
            guard -= 1
            target = i % num_players
            i += 1
            if (
                per_player_caps is not None
                and allocations[target, j] + quanta[j] > per_player_caps[target, j] + 1e-9
            ):
                continue
            allocations[target, j] += quanta[j]
            remaining[j] -= 1
