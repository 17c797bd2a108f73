"""MaxEfficiency: the welfare-maximizing reference allocation.

The paper obtains its efficiency upper bound by running an "infeasible
very fine-grained hill-climbing search" over concave utilities
(Section 6).  We reproduce that with a lazy-greedy quantum allocator:
resources are split into small quanta and each quantum is handed to the
player whose utility increases the most.  For concave utilities marginal
gains are diminishing, so the lazy evaluation (a max-heap with stale
entries re-validated on pop) is sound, and the greedy solution converges
to the continuous optimum as the quantum shrinks.  Exchange passes then
repair what complementary resources do to the greedy.

Every phase works on the integer quantum lattice: player ``i`` holds
``units[i, j]`` quanta of resource ``j`` and its allocation is
``units[i] * quanta``.  Utility values come from a :class:`_LatticeTable`
that evaluates each player's utility a tile of lattice points at a
time, with one ``value_batch`` call per tile, only inside the box of
points the search can query, and never twice.  The single-resource
exchange pass keeps every player's one-quantum gains and losses in
matrices and refreshes only the two players a move touches; the joint
pass scores all recipients of a donor with array operations.  With
power-of-two quanta (the chip's 128 kB cache regions and 0.125 W /
0.5 W power units) ``units * quanta`` equals the running float sums of
a scalar walk bit for bit, so the optimum is bitwise that of the scalar
greedy; docs/SUBSTRATE.md, "MaxEfficiency lattice table", has the
details.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from ..utility.base import UtilityFunction

__all__ = ["max_efficiency_allocation", "GreedyOptimum"]

#: log2 of the lattice points one tile fill evaluates.
_TILE_SHIFT = 10


@dataclass
class GreedyOptimum:
    """Result of the greedy welfare maximization."""

    allocations: np.ndarray  # (N, M)
    utilities: np.ndarray    # (N,)
    steps: int

    @property
    def efficiency(self) -> float:
        return float(self.utilities.sum())


class _LatticeTable:
    """Every player's utility on its box of the integer quantum lattice.

    Player ``i``'s box is ``0 <= units <= limits[i]``; a point of it is
    addressed by its *flat index*, the C-order position in the box, so a
    one-quantum step in resource ``j`` adds ``strides[i, j]``.  Values
    live in one growing float pool.  A missing value is filled together
    with its tile — the ``2**_TILE_SHIFT`` consecutive flat indices
    around it, clipped to the box — in a single ``value_batch`` call.  A
    utility that only has the generic scalar ``value_batch`` loop gets
    one-point tiles, since a tile of scalar calls would mostly evaluate
    points nobody reads.
    """

    def __init__(
        self, utilities: Sequence[UtilityFunction], quanta: np.ndarray, limits: np.ndarray
    ):
        shapes = limits + 1
        strides = np.ones_like(shapes)
        for j in range(shapes.shape[1] - 2, -1, -1):
            strides[:, j] = strides[:, j + 1] * shapes[:, j + 1]
        self.strides = strides
        self._shapes = [tuple(int(s) for s in row) for row in shapes]
        self._volumes = [int(v) for v in shapes.prod(axis=1)]
        self._utilities = utilities
        self._quanta = quanta
        self._shifts = [
            0 if type(u).value_batch is UtilityFunction.value_batch else _TILE_SHIFT
            for u in utilities
        ]
        self._masks = [(1 << shift) - 1 for shift in self._shifts]
        self._starts: List[Dict[int, int]] = [{} for _ in utilities]
        self._pool = np.empty(1 << _TILE_SHIFT)
        self._used = 0

    def value(self, i: int, flat: int) -> float:
        """Player ``i``'s utility at flat index ``flat``."""
        offset = self._offset(i, flat)  # before reading the pool: a fill may grow it
        return float(self._pool[offset])

    def values(self, players: np.ndarray, flats: np.ndarray) -> np.ndarray:
        """Utilities of ``players[k]`` at ``flats[k]``, as one array."""
        offsets = [self._offset(i, f) for i, f in zip(players.tolist(), flats.tolist())]
        return self._pool[np.array(offsets, dtype=np.intp)]

    def _offset(self, i: int, flat: int) -> int:
        """Pool position of player ``i``'s value at ``flat``; fills its tile if missing."""
        tile = flat >> self._shifts[i]
        start = self._starts[i].get(tile)
        if start is None:
            start = self._fill(i, tile)
        return start + (flat & self._masks[i])

    def _fill(self, i: int, tile: int) -> int:
        low = tile << self._shifts[i]
        high = min(low + (1 << self._shifts[i]), self._volumes[i])
        units = np.stack(np.unravel_index(np.arange(low, high), self._shapes[i]), axis=1)
        values = self._utilities[i].value_batch(units * self._quanta)
        if self._used + values.size > self._pool.size:
            grown = np.empty(max(2 * self._pool.size, self._used + values.size))
            grown[: self._used] = self._pool[: self._used]
            self._pool = grown
        start = self._used
        self._pool[start : start + values.size] = values
        self._used += values.size
        self._starts[i][tile] = start
        return start


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
    if not np.all(np.isfinite(quanta)):
        raise MarketConfigurationError("quanta must be finite")
    if np.any(quanta <= 0):
        raise MarketConfigurationError("quanta must be positive")
    if not np.all(np.isfinite(capacities)):
        raise MarketConfigurationError("capacities must be finite")
    if np.any(capacities < 0):
        raise MarketConfigurationError("capacities must be non-negative")
    if per_player_caps is not None:
        per_player_caps = np.asarray(per_player_caps, dtype=float)
        if per_player_caps.shape != (num_players, num_resources):
            raise MarketConfigurationError("per_player_caps must be (N, M)")
        if not np.all(np.isfinite(per_player_caps)):
            raise MarketConfigurationError("per_player_caps must be finite")
        if np.any(per_player_caps < 0):
            raise MarketConfigurationError("per_player_caps must be non-negative")

    totals = np.floor(capacities / quanta + 1e-9).astype(np.int64)
    limits = _unit_limits(per_player_caps, quanta, totals, num_players)
    remaining = totals.tolist()
    table = _LatticeTable(utilities, quanta, limits)
    strides = table.strides.tolist()
    limit_rows = limits.tolist()
    units = [[0] * num_resources for _ in range(num_players)]
    flat = [0] * num_players
    current = [0.0] * num_players  # cached U_i(r_i)

    def gain(i: int, j: int) -> float:
        return table.value(i, flat[i] + strides[i][j]) - current[i]

    counter = itertools.count()
    heap: list = []
    for i in range(num_players):
        current[i] = table.value(i, 0)
        for j in range(num_resources):
            if remaining[j] > 0 and units[i][j] < limit_rows[i][j]:
                heapq.heappush(heap, (-gain(i, j), next(counter), i, j))

    steps = 0
    while heap:
        neg_gain, _, i, j = heapq.heappop(heap)
        if remaining[j] <= 0 or units[i][j] >= limit_rows[i][j]:
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
        units[i][j] += 1
        flat[i] += strides[i][j]
        current[i] += fresh
        remaining[j] -= 1
        steps += 1
        if remaining[j] > 0 and units[i][j] < limit_rows[i][j]:
            heapq.heappush(heap, (-gain(i, j), next(counter), i, j))

    units = np.array(units, dtype=np.int64).reshape(num_players, num_resources)
    current = np.array(current, dtype=float)
    _distribute_leftovers(units, remaining, limits)

    # Cache and power are complements for cliffy applications (extra
    # power is worthless until the working set fits), which violates the
    # submodularity the lazy greedy relies on.  A hill-climbing exchange
    # pass — move one quantum at a time from the player that loses least
    # to the player that gains most — repairs those misallocations; this
    # is the paper's "very fine-grained hill-climbing search".
    steps += _exchange_refinement(table, units, current, limits)
    # Pure complements (a quantum of cache is worthless without the
    # matching power) defeat single-resource moves entirely: every
    # marginal gain is zero until both resources arrive.  A joint pass
    # transfers a bundle with one quantum of *every* resource at once.
    joint_moves = _joint_exchange_pass(table, units, current, limits)
    if joint_moves:
        # Joint moves open new single-resource opportunities; re-run.
        steps += joint_moves + _exchange_refinement(table, units, current, limits)

    players = np.arange(num_players)
    final_utilities = table.values(players, (units * table.strides).sum(axis=1))
    return GreedyOptimum(allocations=units * quanta, utilities=final_utilities, steps=steps)


def _unit_limits(
    per_player_caps: Optional[np.ndarray],
    quanta: np.ndarray,
    totals: np.ndarray,
    num_players: int,
) -> np.ndarray:
    """``(N, M)`` bound on the quanta any phase gives or probes per player.

    A player's cap admits one more quantum while ``units * q + q <= cap
    + 1e-9``; the bound is the first count where it stops admitting one
    (the division's estimate corrected by that exact test).  No player
    ever holds more than the total, so the bound never exceeds
    ``total + 1`` — the exchange pass's probe one quantum past the
    capacity, made only for an uncapped player holding all of it.
    """
    totals = np.broadcast_to(totals + 1, (num_players, totals.size))
    if per_player_caps is None:
        return totals.astype(np.int64)
    slack = per_player_caps + 1e-9
    bound = np.minimum(np.floor(slack / quanta), totals)
    bound -= (bound > 0) & ((bound - 1) * quanta + quanta > slack)
    bound += (bound < totals) & (bound * quanta + quanta <= slack)
    return bound.astype(np.int64)


def _exchange_refinement(
    table: _LatticeTable,
    units: np.ndarray,
    current: np.ndarray,
    limits: np.ndarray,
    max_moves: int = 20000,
    tolerance: float = 1e-12,
) -> int:
    """Quantum-exchange hill climbing on top of the greedy fill.

    ``gains[j, i]`` / ``losses[j, i]`` hold what player ``i`` gains from
    one more quantum of resource ``j`` / loses by giving one up; a move
    changes only its recipient's and donor's columns.
    """
    num_players, num_resources = units.shape
    strides = table.strides
    flat = (units * strides).sum(axis=1)
    gains = np.empty((num_resources, num_players))
    losses = np.empty((num_resources, num_players))

    def refresh(i: int) -> None:
        here, mine = int(flat[i]), float(current[i])
        for j, (held, limit, stride) in enumerate(
            zip(units[i].tolist(), limits[i].tolist(), strides[i].tolist())
        ):
            gains[j, i] = table.value(i, here + stride) - mine if held < limit else -np.inf
            losses[j, i] = mine - table.value(i, here - stride) if held >= 1 else np.inf

    for i in range(num_players):
        refresh(i)
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        for j in range(num_resources):
            recipient, donor = _best_exchange_pair(gains[j], losses[j])
            if (
                recipient is not None
                and gains[j, recipient] - losses[j, donor] > tolerance
            ):
                units[recipient, j] += 1
                units[donor, j] -= 1
                flat[recipient] += strides[recipient, j]
                flat[donor] -= strides[donor, j]
                current[recipient] += gains[j, recipient]
                current[donor] -= losses[j, donor]
                refresh(recipient)
                refresh(donor)
                moves += 1
                improved = True
    return moves


def _joint_exchange_pass(
    table: _LatticeTable,
    units: np.ndarray,
    current: np.ndarray,
    limits: np.ndarray,
    max_moves: int = 5000,
    tolerance: float = 1e-12,
) -> int:
    """Move one quantum of *every* resource between players at once.

    The bundle holds one quantum of each resource the donor has; every
    recipient it fits is scored in one table lookup, and the first
    largest positive gain wins.
    """
    num_players = units.shape[0]
    strides = table.strides
    flat = (units * strides).sum(axis=1)
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        for donor in range(num_players):
            bundle = (units[donor] >= 1).astype(np.int64)
            if not bundle.any():
                continue
            step = strides @ bundle
            loss = current[donor] - table.value(donor, int(flat[donor] - step[donor]))
            fits = ~np.any(units + bundle > limits, axis=1)
            fits[donor] = False
            recipients = np.flatnonzero(fits)
            gains = table.values(recipients, flat[recipients] + step[recipients])
            gains -= current[recipients]
            gains[np.isnan(gains)] = -np.inf
            if not gains.size:
                continue
            best = int(np.argmax(gains))
            best_gain = gains[best]
            if best_gain > 0.0 and best_gain - loss > tolerance:
                recipient = recipients[best]
                units[donor] -= bundle
                units[recipient] += bundle
                flat[donor] -= step[donor]
                flat[recipient] += step[recipient]
                current[donor] -= loss
                current[recipient] += best_gain
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
    units: np.ndarray, remaining: List[int], limits: np.ndarray
) -> None:
    """Hand out utility-neutral residual quanta round-robin ("no leftovers")."""
    num_players = units.shape[0]
    for j in range(len(remaining)):
        i = 0
        guard = remaining[j] * num_players + num_players
        while remaining[j] > 0 and guard > 0:
            guard -= 1
            target = i % num_players
            i += 1
            if units[target, j] >= limits[target, j]:
                continue
            units[target, j] += 1
            remaining[j] -= 1
