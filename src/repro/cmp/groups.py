"""Application-granularity allocation (Section 5's alternative).

The paper's evaluation allocates per core, but Section 5 sketches the
alternative: "allocate resources at the granularity of applications.
All the threads of one application may share the same resources, which
is a reasonable assumption, because the demand of the threads tend to
be similar across threads of a parallel application."

This module implements that: cores are partitioned into *groups* (one
per multithreaded application); each group is a single market player
whose bundle is divided evenly among its member cores.  The group's
utility is the sum of its members' utilities at the per-member share —
a composition of concave functions with a linear map, so concavity is
preserved and all of the paper's theory continues to apply with N =
number of applications instead of number of cores.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.mechanisms import AllocationProblem
from ..exceptions import MarketConfigurationError
from ..utility.base import UtilityFunction
from .chip import ChipModel
from .power import RAPL_QUANTUM_WATTS
from .utility_builder import extra_capacity_for

__all__ = ["GroupUtility", "build_grouped_problem", "expand_group_allocation"]


class GroupUtility(UtilityFunction):
    """Sum of member utilities at an even per-member share of the bundle."""

    def __init__(self, member_utilities: Sequence[UtilityFunction]):
        if not member_utilities:
            raise MarketConfigurationError("a group needs at least one member")
        dims = {u.num_resources for u in member_utilities}
        if len(dims) != 1:
            raise MarketConfigurationError("members must span the same resources")
        self.members = list(member_utilities)
        self.num_resources = self.members[0].num_resources

    def value(self, allocation) -> float:
        share = np.asarray(allocation, dtype=float) / len(self.members)
        return float(sum(u.value(share) for u in self.members))

    def gradient(self, allocation) -> np.ndarray:
        share = np.asarray(allocation, dtype=float) / len(self.members)
        # d/dR sum_m U_m(R/k) = (1/k) * sum_m grad U_m(R/k); with k
        # members the 1/k and the k-fold sum of identical-ish members
        # roughly cancel.
        total = np.zeros(self.num_resources)
        for u in self.members:
            total += np.asarray(u.gradient(share), dtype=float)
        return total / len(self.members)


def build_grouped_problem(
    chip: ChipModel,
    groups: Sequence[int],
    convexify: bool = True,
) -> AllocationProblem:
    """An AllocationProblem with one player per core *group*.

    ``groups[i]`` is the group id of core ``i``; ids must form a
    contiguous range starting at 0.  Resource capacities are unchanged
    (the same chip), but budgets/fairness now apply per application.
    """
    groups = list(groups)
    if len(groups) != chip.config.num_cores:
        raise MarketConfigurationError("one group id per core required")
    num_groups = max(groups) + 1
    if sorted(set(groups)) != list(range(num_groups)):
        raise MarketConfigurationError("group ids must be contiguous from 0")

    core_utilities = chip.true_core_utilities(convexify)
    member_utilities: List[List[UtilityFunction]] = [[] for _ in range(num_groups)]
    member_caps: List[List[np.ndarray]] = [[] for _ in range(num_groups)]
    member_names: List[List[str]] = [[] for _ in range(num_groups)]
    for i, core in enumerate(chip.cores):
        g = groups[i]
        member_utilities[g].append(core_utilities[i])
        member_caps[g].append(np.array(extra_capacity_for(core, chip.config)))
        member_names[g].append(core.app.name)

    utilities = [GroupUtility(m) for m in member_utilities]
    # A group's cap is the sum of its members' caps (even division means
    # each member is individually capped).
    caps = np.array([np.sum(m, axis=0) for m in member_caps])
    names = []
    for members in member_names:
        if len(members) == 1:
            names.append(members[0])
        elif len(set(members)) == 1:
            names.append(f"{members[0]}x{len(members)}")
        else:
            names.append("+".join(members))
    return AllocationProblem(
        utilities=utilities,
        capacities=np.array([chip.extra_cache_capacity, chip.extra_power_capacity]),
        resource_names=["cache_bytes", "power_watts"],
        player_names=names,
        quanta=np.array([float(chip.config.cache_region_bytes), RAPL_QUANTUM_WATTS]),
        per_player_caps=caps,
    )


def expand_group_allocation(
    allocations: np.ndarray, groups: Sequence[int]
) -> np.ndarray:
    """Per-core extras from a per-group allocation (even division)."""
    groups = list(groups)
    counts = np.bincount(groups)
    out = np.empty((len(groups), allocations.shape[1]))
    for i, g in enumerate(groups):
        out[i] = allocations[g] / counts[g]
    return out
