"""Cross-player batched utility evaluation.

The market asks for the utilities or marginals of every player at once
(Eq. 2 scoring, Eq. 7 marginals at every hill-climb step).  This module
compiles a fixed player list into a :class:`BatchedUtilitySet` that
answers "values / gradients / Eq. 7 marginals of players ``I``" in as
few vectorized dispatches as possible:

* **Stacked grids** — :class:`~repro.utility.tabular.GridUtility2D`
  players whose grids share a *shape* (every core of a homogeneous chip,
  i.e. every Fig-4/Fig-5 player — the cache axis is common, the power
  axis is per-app) are stacked into ``(G, nx)`` / ``(G, ny)`` axis
  matrices and one ``(G, nx, ny)`` value tensor.  One vectorized
  evaluation then serves the whole group, however many players are
  active: a value call is one dispatch, and a central-difference
  gradient builds all of its probes in one broadcast and evaluates them
  in one more.
* **Shared objects** — players holding the *same* utility object (the
  synthetic theory markets) are evaluated with a single batch call.
* **Everything else** — one ``value_batch`` / ``gradient_batch`` call
  per distinct utility; a utility that implements only the scalar
  interface is served by the generic loop of
  :class:`~repro.utility.base.UtilityFunction`, so results are always
  defined (and counted honestly).

The stacked kernels are :class:`GridUtility2D`'s elementwise, so row
``k`` of every method equals the player's own ``value_batch`` /
``gradient_batch`` at that row bitwise.

:func:`bid_marginals` is Equation 7 itself — the proportional-share
allocation of a bid row and the chain rule through it — shared by
:meth:`BatchedUtilitySet.marginals` (the lockstep hill climb's one
entry per step) and :func:`~repro.core.player.marginal_utility_of_bids`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..qa import sanitize as _sanitize
from .base import UtilityFunction, central_difference, count_batch, counted_kernel
from .tabular import GridUtility2D, _bilinear_blend

__all__ = ["FIRST_BID_RATE", "BatchedUtilitySet", "StackedGrids", "bid_marginals"]

#: Finite stand-in for the infinite first-bid marginal (``y_j == 0``):
#: large enough to dominate any real marginal, scaled by capacity so the
#: bytes-vs-watts resources keep their relative ordering.
FIRST_BID_RATE = 1e9


def bid_marginals(
    bids: np.ndarray,
    others: np.ndarray,
    capacities: np.ndarray,
    gradients: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Equation 7 marginals ``dU/db_j`` for a ``(K, M)`` batch of bid rows.

    Row ``k`` bids ``bids[k]`` against the other players' bids
    ``others[k]`` (``(K, M)`` or a shared ``(M,)``) and receives the
    Equation 2 allocation ``r_j = b_j / (b_j + y_j) * C_j`` (nothing
    where nobody bids); ``gradients`` maps those ``(K, M)`` allocations
    to ``dU/dr``.  By the chain rule::

        dU/db_j = dU/dr_j * y_j * C_j / (b_j + y_j)^2

    A first bid on an un-bid resource (``b_j + y_j == 0``) captures all
    of it, so its rate is the utility slope times
    ``C_j * FIRST_BID_RATE``, a large finite value that keeps
    comparisons meaningful.  An infinite rate from an overflowing
    quotient is mapped the same way.
    """
    total = bids + others
    bid_on = total > 0.0
    safe = np.where(bid_on, total, 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        allocations = np.where(bid_on, bids / safe, 0.0) * capacities
        rate = np.where(bid_on, others * capacities / safe ** 2, np.inf)
    if _sanitize.ACTIVE:
        _sanitize.check_player_allocations(allocations, capacities)
    rate = np.where(np.isinf(rate), capacities * FIRST_BID_RATE, rate)
    marginals = gradients(allocations) * rate
    if _sanitize.ACTIVE:
        _sanitize.check_marginals(marginals)
    return marginals


class StackedGrids:
    """Several same-shape 2-D grid utilities fused into one value tensor.

    Every grid contributes its own axes — only the sample *counts* must
    match — so one stack covers a whole heterogeneous-workload chip even
    though each app's power axis is scaled differently.
    """

    def __init__(self, grids: Sequence[GridUtility2D]):
        self.xs = np.stack([g.xs for g in grids])          # (G, nx)
        self.ys = np.stack([g.ys for g in grids])          # (G, ny)
        self.values = np.stack([g.values for g in grids])  # (G, nx, ny)
        nx, ny = self.xs.shape[1], self.ys.shape[1]
        #: Flat view: sample (g, i, j) of the value tensor sits at
        #: (g * nx + i) * ny + j.
        self._table = self.values.ravel()
        #: Both axes of every grid in one NaN-padded ``(G, 2, L)`` table,
        #: ``L = max(nx, ny)``, so the two coordinates share each clamp,
        #: lookup and gather; axis sample (g, c, i) sits at flat index
        #: (2 * g + c) * L + i.  A NaN pad never counts as ``<= x``.
        length = max(nx, ny)
        axes = np.full((len(grids), 2, length), np.nan)
        axes[:, 0, :nx] = self.xs
        axes[:, 1, :ny] = self.ys
        self._axes = axes
        self._flat_axes = axes.ravel()
        #: Flat index of each grid's first x and y sample, ``(G, 2)``.
        self._axis_start = np.arange(2 * len(grids)).reshape(-1, 2) * length
        #: Highest cell index per coordinate (the last cell's low sample).
        self._last_cell = np.array([nx - 2, ny - 2])
        #: Each grid's clamp box, ``[[x_lo, y_lo], [x_hi, y_hi]]``.
        self._box = np.stack(
            [
                np.stack([self.xs[:, 0], self.ys[:, 0]], axis=1),
                np.stack([self.xs[:, -1], self.ys[:, -1]], axis=1),
            ],
            axis=1,
        )                                                  # (G, 2, 2)

    @counted_kernel("value")
    def value_points(self, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Values of ``points[k]`` under grid ``owners[k]``."""
        return self._interpolate(points, owners)

    @counted_kernel("gradient")
    def gradient_points(self, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Numeric gradients of ``points[k]`` under grid ``owners[k]``.

        :func:`~repro.utility.base.central_difference`, the gradient
        :class:`GridUtility2D` derives from its ``value_batch``; its
        ``2 * K * M`` probes are one broadcast over the ``K`` rows' own
        grids, counted as one value call.
        """
        count_batch("value", 2 * points.size)
        return central_difference(
            lambda probes: self._interpolate(probes, owners), points
        )

    def _interpolate(self, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Bilinear values of ``(..., K, 2)`` points; ``points[..., k, :]``
        lies on grid ``owners[k]``.

        Mirrors :meth:`GridUtility2D.value_batch` (clamp, clamped-index
        lookup, four-term bilinear blend) elementwise, both coordinates
        at once through the padded axis table.  The cell index uses a
        broadcast count ``sum(axis <= x)`` — exactly
        ``searchsorted(axis, x, side="right")`` for a sorted axis — since
        numpy's searchsorted cannot look up a different axis per point.
        """
        box = self._box[owners]                            # (K, 2, 2)
        clamped = np.minimum(np.maximum(points, box[:, 0]), box[:, 1])
        cell = (self._axes[owners] <= clamped[..., None]).sum(axis=-1) - 1
        cell = np.minimum(np.maximum(cell, 0), self._last_cell)
        # Flat index of each coordinate's low axis sample.
        low = self._axis_start[owners] + cell
        lo = self._flat_axes[low]
        t = (clamped - lo) / (self._flat_axes[low + 1] - lo)
        ny = self.ys.shape[1]
        flat = (owners * self.xs.shape[1] + cell[..., 0]) * ny + cell[..., 1]
        return _bilinear_blend(self._table, flat, ny, t[..., 0], t[..., 1])


class BatchedUtilitySet:
    """A compiled batched evaluator for a fixed utility list.

    Build once per player list — an
    :class:`~repro.core.mechanisms.AllocationProblem` holds one for all
    its markets — then call :meth:`marginals` every lockstep iteration
    with whatever subset of players is still climbing, and
    :meth:`values` to score the players.
    """

    def __init__(self, utilities: Sequence[UtilityFunction]):
        self.utilities: List[UtilityFunction] = list(utilities)
        if not self.utilities:
            raise ValueError("need at least one utility")
        self.num_resources = self.utilities[0].num_resources
        #: Group index of every player and the player's slot inside it.
        self._group_of = np.empty(len(self.utilities), dtype=np.intp)
        self._slot_of = np.zeros(len(self.utilities), dtype=np.intp)
        self._groups: list = []
        self._compile()

    def _compile(self) -> None:
        # Stackable 2-D grids, one stack per grid shape (degenerate
        # single-sample axes take the np.interp branches of value_batch,
        # so those grids stay out); same-object grids share a slot.
        stacks: dict = {}
        remaining: List[int] = []
        for idx, utility in enumerate(self.utilities):
            if (
                isinstance(utility, GridUtility2D)
                and utility.xs.size > 1
                and utility.ys.size > 1
            ):
                members, slot_by_id, rows = stacks.setdefault(
                    utility.values.shape, ([], {}, [])
                )
                slot = slot_by_id.get(id(utility))
                if slot is None:
                    slot = len(members)
                    slot_by_id[id(utility)] = slot
                    members.append(utility)
                rows.append(idx)
                self._slot_of[idx] = slot
            else:
                remaining.append(idx)

        for members, _, rows in stacks.values():
            group = len(self._groups)
            self._groups.append(StackedGrids(members))
            self._group_of[rows] = group

        # Remaining players: one group per distinct utility object.
        group_by_id: dict = {}
        for idx in remaining:
            utility = self.utilities[idx]
            group = group_by_id.get(id(utility))
            if group is None:
                group = len(self._groups)
                group_by_id[id(utility)] = group
                self._groups.append(utility)
            self._group_of[idx] = group

    def values(
        self, allocations: np.ndarray, players: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``U_i`` of ``players[k]`` at allocation row ``k``.

        ``allocations`` is ``(K, M)`` with row ``k`` belonging to player
        ``players[k]`` (default: players ``0..K-1``).  Entry ``k`` of the
        ``(K,)`` result equals ``utilities[players[k]].value(allocations[k])``
        bitwise.
        """
        allocations = np.asarray(allocations, dtype=float)
        return self._evaluate("value", allocations, players, allocations.shape[:1])

    def gradients(
        self, allocations: np.ndarray, players: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``dU_i/dr`` for ``players[k]`` at allocation row ``k``.

        Same row layout as :meth:`values`; row ``k`` of the ``(K, M)``
        result equals ``utilities[players[k]].gradient(allocations[k])``
        bitwise.
        """
        allocations = np.asarray(allocations, dtype=float)
        return self._evaluate("gradient", allocations, players, allocations.shape)

    def marginals(
        self,
        bids: np.ndarray,
        others: np.ndarray,
        capacities: np.ndarray,
        players: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Equation 7 marginals of ``players[k]`` bidding ``bids[k]``.

        :func:`bid_marginals` of the ``(K, M)`` bid rows against
        ``others``, with every row's ``dU/dr`` from :meth:`gradients`;
        row ``k`` equals
        ``marginal_utility_of_bids(utilities[players[k]], bids[k],
        others[k], capacities)`` bitwise.
        """
        return bid_marginals(
            bids, others, capacities,
            lambda allocations: self.gradients(allocations, players),
        )

    def _evaluate(
        self,
        kind: str,
        allocations: np.ndarray,
        players: Optional[np.ndarray],
        shape: tuple,
    ) -> np.ndarray:
        """One ``kind`` ("value" or "gradient") dispatch per group that owns rows."""
        if players is None:
            players = np.arange(allocations.shape[0])
        out = np.empty(shape)
        if players.size == 0:
            return out
        if len(self._groups) == 1:
            selections = [(self._groups[0], slice(None))]
        else:
            group_of = self._group_of[players]
            selections = []
            for g, group in enumerate(self._groups):
                rows = np.flatnonzero(group_of == g)
                if rows.size:
                    selections.append((group, rows))
        for group, rows in selections:
            points = allocations[rows]
            if isinstance(group, StackedGrids):
                owners = self._slot_of[players[rows]]
                out[rows] = (
                    group.value_points(points, owners)
                    if kind == "value"
                    else group.gradient_points(points, owners)
                )
            else:
                out[rows] = (
                    group.value_batch(points)
                    if kind == "value"
                    else group.gradient_batch(points)
                )
        return out
