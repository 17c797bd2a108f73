"""Exception hierarchy for the repro package, and the one
positive-and-finite check that raises its configuration error."""

from __future__ import annotations

import math

__all__ = [
    "ReproError",
    "MarketConfigurationError",
    "ConvergenceError",
    "SanitizerError",
    "checked_positive",
]


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class MarketConfigurationError(ReproError):
    """A market, player, or mechanism was configured inconsistently."""


def checked_positive(value: float, name: str) -> float:
    """``value`` as a float, rejecting zero, negative and non-finite ones.

    A NaN budget, step or stop fraction compares False against every
    bound, so a plain ``<= 0`` test lets it through to the market.
    """
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise MarketConfigurationError(
            f"{name} must be positive and finite, got {value!r}"
        )
    return value


class ConvergenceError(ReproError):
    """An iterative solver failed to converge and no fail-safe was allowed."""


class SanitizerError(ReproError):
    """A runtime invariant check (``repro.qa.sanitize``) failed.

    ``invariant`` names the violated contract (e.g.
    ``"rebudget-budget-floor"``) so tests and CI logs can assert on the
    exact guarantee that broke, not just the message text.
    """

    def __init__(self, message: str, invariant: str = ""):
        super().__init__(message)
        self.invariant = invariant
