"""Market players.

A player (one per core in the multicore instantiation) owns a budget and
a concave utility function over the market's resources.  The player's
only interaction with the market is through its bid vector; everything
else (utility introspection, marginal utilities with respect to bids) is
local, which is what makes the mechanism distributed and scalable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from ..qa import sanitize as _sanitize
from ..utility.base import UtilityFunction
from ..utility.batch import bid_marginals

__all__ = [
    "Player",
    "bid_to_allocation",
    "marginal_utility_of_bids",
    "marginal_utility_of_bids_batch",
]


class Player:
    """A budget-constrained utility maximizer.

    Parameters
    ----------
    name:
        Display name (e.g. the application running on the core).
    utility:
        Concave, non-decreasing utility over the market's M resources.
    budget:
        Total money the player may spend across all resources
        (``sum_j b_ij <= B_i``).
    """

    def __init__(self, name: str, utility: UtilityFunction, budget: float):
        if budget < 0:
            raise MarketConfigurationError(f"player {name!r} budget must be >= 0")
        self.name = name
        self.utility = utility
        self.budget = float(budget)

    def utility_of(self, allocation: Sequence[float]) -> float:
        """Utility of an allocation vector (length M)."""
        return self.utility.value(allocation)

    def __repr__(self) -> str:
        return f"Player({self.name!r}, budget={self.budget})"


def bid_to_allocation(bids: np.ndarray, others: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Allocation a player receives for ``bids`` given others' bids.

    Implements Equation 2 of the paper:
    ``r_j = b_j / (b_j + y_j) * C_j``, where ``y_j`` is the sum of the
    other players' bids on resource ``j``.  When nobody bids on a
    resource at all (``b_j + y_j == 0``) the player receives nothing.

    ``bids`` may also be a ``(K, M)`` batch of rows, with ``others``
    ``(K, M)`` or ``(M,)``; numpy broadcasts the same arithmetic over the
    leading axis, so row ``k`` equals the single-row call bitwise.
    """
    total = bids + others
    with np.errstate(invalid="ignore", divide="ignore"):
        shares = np.where(total > 0.0, bids / np.where(total > 0.0, total, 1.0), 0.0)
    allocation = shares * capacities
    if _sanitize.ACTIVE:
        _sanitize.check_player_allocations(allocation, capacities)
    return allocation


def marginal_utility_of_bids(
    utility: UtilityFunction,
    bids: np.ndarray,
    others: np.ndarray,
    capacities: np.ndarray,
) -> np.ndarray:
    """Per-resource marginal utility of bids, ``lambda_ij = dU/db_ij``.

    By the chain rule (Equation 7 in the paper's appendix)::

        dU/db_j = dU/dr_j * y_j * C_j / (b_j + y_j)^2

    When ``y_j == 0`` the player already owns the whole resource for any
    positive bid, so the marginal value of bidding more is zero.  This is
    the one-row case of :func:`marginal_utility_of_bids_batch`.
    """
    return marginal_utility_of_bids_batch(
        np.asarray(bids, dtype=float)[None, :],
        np.asarray(others, dtype=float)[None, :],
        capacities,
        utility,
    )[0]


def marginal_utility_of_bids_batch(
    bids: np.ndarray,
    others: np.ndarray,
    capacities: np.ndarray,
    utility: UtilityFunction,
) -> np.ndarray:
    """Equation 7 marginals of one ``utility`` for a ``(K, M)`` batch of bid rows.

    Row ``k`` is Equation 7 for bid row ``k`` against ``others[k]`` (see
    :func:`~repro.utility.batch.bid_marginals`), with ``dU/dr`` from the
    utility's own ``gradient_batch``.  Rows of several players go
    through :meth:`~repro.utility.batch.BatchedUtilitySet.marginals`.
    """

    def gradients(allocations: np.ndarray) -> np.ndarray:
        return np.asarray(utility.gradient_batch(allocations), dtype=float)

    return bid_marginals(bids, others, capacities, gradients)
