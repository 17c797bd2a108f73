"""Efficiency and fairness metrics (Sections 2.2, 2.3, and 3).

* efficiency / weighted speedup (Definition 1, Equation 5)
* envy-freeness (Definition 3) and c-approximate envy-freeness
* Price of Anarchy (Definition 2) given an optimal reference
* Market Utility Range, MUR (Definition 5)
* Market Budget Range, MBR (Definition 6)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..qa import sanitize as _sanitize
from ..utility.base import UtilityFunction

__all__ = [
    "efficiency",
    "envy_freeness",
    "envy_matrix",
    "price_of_anarchy",
    "market_utility_range",
    "market_budget_range",
]


def efficiency(utilities: Sequence[float]) -> float:
    """System efficiency: the sum of player utilities (Definition 1).

    With utilities normalized to standalone IPC this is exactly the
    weighted-speedup throughput metric (Equation 5).
    """
    return float(np.sum(np.asarray(utilities, dtype=float)))


def envy_matrix(
    utilities: Sequence[UtilityFunction], allocations: np.ndarray
) -> np.ndarray:
    """``E[i, j] = U_i(r_j)``: what player i's utility would be with j's bundle.

    Row ``i`` is one ``utilities[i].value_batch`` call over every bundle,
    which equals ``value`` point by point.
    """
    allocations = np.asarray(allocations, dtype=float)
    n = allocations.shape[0]
    matrix = np.empty((n, n))
    for i, utility in enumerate(utilities):
        matrix[i] = utility.value_batch(allocations)
    return matrix


def envy_freeness(
    utilities: Sequence[UtilityFunction], allocations: np.ndarray
) -> float:
    """Envy-freeness of an allocation (Definition 3).

    ``EF = min_{i,j} U_i(r_i) / U_i(r_j)``.  The minimum ranges over all
    ordered pairs including ``i == j``, so ``EF <= 1`` always and
    ``EF == 1`` means the allocation is envy-free.  Conventions for
    degenerate values: if a player values some other bundle positively
    but its own at zero, the ratio is 0; pairs where the other bundle is
    valued at zero impose no constraint (nobody envies a worthless
    bundle).  A NaN valuation is not worthless: it reaches the minimum
    and makes EF NaN, so a broken allocation never scores as fair.
    """
    matrix = envy_matrix(utilities, allocations)
    own = np.diag(matrix)
    # Off-diagonal pairs constrain unless the other bundle is worth <= 0
    # (NaN is not <= 0); a NaN own utility poisons its i == j pair.
    binding = ~(matrix <= 0.0)
    np.fill_diagonal(binding, np.isnan(own))
    rows, cols = np.nonzero(binding)
    return float(np.min(own[rows] / matrix[rows, cols], initial=1.0))


def price_of_anarchy(equilibrium_efficiency: float, optimal_efficiency: float) -> float:
    """Realized efficiency ratio ``Nash / OPT`` (cf. Definition 2).

    Definition 2's PoA is the worst case over all equilibria; with a
    single computed equilibrium this returns the realized ratio, which
    upper-bounds the true PoA and must respect Theorem 1's lower bound.
    """
    if optimal_efficiency <= 0.0:
        return 1.0
    return float(equilibrium_efficiency / optimal_efficiency)


def market_utility_range(lambdas: Sequence[float]) -> float:
    """MUR: ``min_i lambda_i / max_i lambda_i`` (Definition 5).

    Degenerate markets where every player's marginal utility of money is
    zero (everyone saturated) have nothing to gain from budget movement,
    so we report MUR = 1.  Monitored (noisy) utilities can yield a
    negative lambda estimate, which would push the raw ratio below 0 and
    outside Theorem 1's domain; the result is clamped to [0, 1] so
    downstream bound checks (``poa_lower_bound``) stay applicable.
    """
    values = np.asarray(lambdas, dtype=float)
    top = float(values.max(initial=0.0))
    if top <= 0.0:
        return 1.0
    result = float(min(max(float(values.min()) / top, 0.0), 1.0))
    if _sanitize.ACTIVE:
        _sanitize.check_unit_interval("MUR", result)
    return result


def market_budget_range(budgets: Sequence[float]) -> float:
    """MBR: ``min_i B_i / max_i B_i`` (Definition 6).

    Clamped to [0, 1] symmetrically with :func:`market_utility_range`
    so a pathological negative budget can never escape Theorem 2's
    domain (``ef_lower_bound``).
    """
    values = np.asarray(budgets, dtype=float)
    top = float(values.max(initial=0.0))
    if top <= 0.0:
        return 1.0
    result = float(min(max(float(values.min()) / top, 0.0), 1.0))
    if _sanitize.ACTIVE:
        _sanitize.check_unit_interval("MBR", result)
    return result
