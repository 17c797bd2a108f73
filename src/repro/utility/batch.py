"""Cross-player batched utility evaluation.

The market asks for the utilities or marginals of every player at once
(Eq. 2 scoring, Eq. 7 marginals at every hill-climb step).  This module
compiles a fixed player list into a :class:`BatchedUtilitySet` that
answers "values / gradients of players ``I`` at allocations ``A``" in as
few vectorized dispatches as possible:

* **Stacked grids** — :class:`~repro.utility.tabular.GridUtility2D`
  players whose grids share a *shape* (every core of a homogeneous chip,
  i.e. every Fig-4/Fig-5 player — the cache axis is common, the power
  axis is per-app) are stacked into ``(G, nx)`` / ``(G, ny)`` axis
  matrices and one ``(G, nx, ny)`` value tensor.  One vectorized
  evaluation then serves the whole group, however many players are
  active: a value call is one dispatch, a central-difference gradient
  two.
* **Shared objects** — players holding the *same* utility object (the
  synthetic theory markets) are evaluated with a single batch call.
* **Everything else** — one ``value_batch`` / ``gradient_batch`` call
  per distinct utility; a utility that implements only the scalar
  interface is served by the generic loop of
  :class:`~repro.utility.base.UtilityFunction`, so results are always
  defined (and counted honestly).

The stacked kernels are :class:`GridUtility2D`'s elementwise, so row
``k`` of either method equals the player's own ``value_batch`` /
``gradient_batch`` at that row bitwise.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .base import UtilityFunction, counted_kernel, numeric_gradient_batch
from .tabular import GridUtility2D, _bilinear_blend

__all__ = ["BatchedUtilitySet", "StackedGrids"]


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
        #: Flat view of the value tensor: sample (g, i, j) sits at
        #: (g * nx + i) * ny + j.
        self._table = self.values.ravel()

    @counted_kernel("value")
    def value_points(self, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Values of ``points[k]`` under grid ``owners[k]``.

        Mirrors :meth:`GridUtility2D.value_batch` (clamp, clamped-index
        lookup, four-term bilinear blend) elementwise.  The cell index
        uses a broadcast count ``sum(axis <= x)`` — exactly
        ``searchsorted(axis, x, side="right")`` for a sorted axis — since
        numpy's searchsorted cannot look up a different axis per point.
        """
        xs = self.xs[owners]                               # (K, nx)
        ys = self.ys[owners]                               # (K, ny)
        xc = np.clip(points[:, 0], xs[:, 0], xs[:, -1])
        yc = np.clip(points[:, 1], ys[:, 0], ys[:, -1])
        i = np.clip(np.sum(xs <= xc[:, None], axis=1) - 1, 0, xs.shape[1] - 2)
        j = np.clip(np.sum(ys <= yc[:, None], axis=1) - 1, 0, ys.shape[1] - 2)
        span = np.arange(points.shape[0])
        x0, y0 = xs[span, i], ys[span, j]
        tx = (xc - x0) / (xs[span, i + 1] - x0)
        ty = (yc - y0) / (ys[span, j + 1] - y0)
        ny = ys.shape[1]
        cell = (owners * xs.shape[1] + i) * ny + j
        return _bilinear_blend(self._table, cell, ny, tx, ty)

    @counted_kernel("gradient")
    def gradient_points(self, points: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Numeric gradients of ``points[k]`` under grid ``owners[k]``.

        :func:`~repro.utility.base.numeric_gradient_batch`, the gradient
        :class:`GridUtility2D` derives from its ``value_batch``, with all
        ``4K`` probes evaluated in one :meth:`value_points` call.
        """
        probe_owners = np.tile(owners, 2 * points.shape[1])
        return numeric_gradient_batch(
            lambda probes: self.value_points(probes, probe_owners), points
        )


class BatchedUtilitySet:
    """A compiled batched evaluator for a fixed utility list.

    Build once per equilibrium search (the player list is fixed for the
    search's lifetime), then call :meth:`gradients` every lockstep
    iteration with whatever subset of players is still climbing, and
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
        out = np.empty(allocations.shape[0])
        for evaluator, rows, owners in self._split(allocations, players):
            out[rows] = (
                evaluator.value_batch(allocations[rows])
                if owners is None
                else evaluator.value_points(allocations[rows], owners)
            )
        return out

    def gradients(
        self, allocations: np.ndarray, players: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``dU_i/dr`` for ``players[k]`` at allocation row ``k``.

        Same row layout as :meth:`values`; row ``k`` of the ``(K, M)``
        result equals ``utilities[players[k]].gradient(allocations[k])``
        bitwise.
        """
        allocations = np.asarray(allocations, dtype=float)
        out = np.empty_like(allocations)
        for evaluator, rows, owners in self._split(allocations, players):
            out[rows] = (
                evaluator.gradient_batch(allocations[rows])
                if owners is None
                else evaluator.gradient_points(allocations[rows], owners)
            )
        return out

    def _split(self, allocations: np.ndarray, players: Optional[np.ndarray]):
        """``(evaluator, rows, owners)`` for every group that owns rows.

        ``owners`` are the rows' slots in a :class:`StackedGrids`, and
        ``None`` for a plain utility.
        """
        if players is None:
            players = np.arange(allocations.shape[0])
        if len(self._groups) == 1:
            selections = [np.arange(players.size)]
        else:
            group_of = self._group_of[players]
            selections = [
                np.flatnonzero(group_of == g) for g in range(len(self._groups))
            ]
        for evaluator, rows in zip(self._groups, selections):
            if rows.size:
                owners = (
                    self._slot_of[players[rows]]
                    if isinstance(evaluator, StackedGrids)
                    else None
                )
                yield evaluator, rows, owners
