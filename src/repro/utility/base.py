"""Utility-function framework.

The market framework of Section 2 of the paper assumes each player has a
utility function ``U_i(r_i)`` over a vector of resource allocations that is
concave, non-decreasing, and continuous.  This module defines the
interface every utility implementation in this package satisfies, the
evaluation counters, and generic numeric helpers (gradients, concavity
probes).

A :class:`UtilityFunction` maps an allocation vector ``r`` (one entry per
resource, in resource units such as bytes of cache or watts of power) to a
scalar utility.  In the multicore instantiation utilities are normalized
IPC, so values lie in ``[0, 1]``, but the core market code never relies on
that range.

The market asks for all N players at once, so an implementation is
batch-first: it overrides ``value_batch`` (or, for a utility that can only
be evaluated one point at a time, ``value``) and optionally
``gradient_batch`` or ``gradient``.  The base class derives every entry
point left out — a scalar call is the one-row case of the batch kernel —
and counts every evaluation in :data:`EVAL_COUNTERS`.
"""

from __future__ import annotations

import functools
from typing import Dict, Sequence

import numpy as np

__all__ = [
    "UtilityFunction",
    "EvalCounters",
    "EVAL_COUNTERS",
    "count_batch",
    "counted_kernel",
    "numeric_gradient",
    "numeric_gradient_batch",
    "central_difference",
    "is_concave_on_grid",
    "is_nondecreasing_on_grid",
]

#: Default relative step used by the numeric differentiator.
_GRADIENT_EPS = 1e-6


class EvalCounters:
    """Running tally of utility-layer evaluations made by the market stack.

    The equilibrium search snapshots these around every run so
    :class:`~repro.core.equilibrium.EquilibriumResult` can report how many
    Python-level utility evaluations the search cost — benches and
    profilers read the result instead of monkeypatching the utility
    classes.  Every count is made in this module, where a kernel runs:

    * ``batch_value_calls`` / ``batch_gradient_calls`` — one per call of
      a vectorized kernel (a ``value_batch`` / ``gradient_batch``
      override, a gradient derived from ``value_batch``, or a
      stacked-grid group evaluation), however many points it covers.
      A scalar ``value()`` / ``gradient()`` derived from such a kernel is
      counted as the one-row dispatches it makes.
    * ``batch_points`` — total points covered by those vectorized calls.
    * ``scalar_value_calls`` / ``scalar_gradient_calls`` — one per point
      of the generic loop that serves a utility implementing only the
      scalar ``value()`` / ``gradient()``, and two per coordinate of a
      scalar numeric gradient.

    Counters are per-process (each :class:`~repro.exec.SweepExecutor`
    worker tallies its own) and are never consulted by the allocation
    logic, so they cannot affect results.
    """

    __slots__ = (
        "scalar_value_calls",
        "scalar_gradient_calls",
        "batch_value_calls",
        "batch_gradient_calls",
        "batch_points",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.scalar_value_calls = 0
        self.scalar_gradient_calls = 0
        self.batch_value_calls = 0
        self.batch_gradient_calls = 0
        self.batch_points = 0

    def snapshot(self) -> Dict[str, int]:
        """The current tallies as a plain dict (JSON-ready)."""
        return {name: getattr(self, name) for name in self.__slots__}

    def since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Per-field deltas accumulated after ``snapshot`` was taken.

        The returned dict additionally carries ``scalar_calls`` /
        ``batch_calls`` / ``total_calls`` roll-ups, which is what the
        hot-loop bench's ">= 3x fewer Python-level utility calls" claim
        is measured on.
        """
        delta = {
            name: getattr(self, name) - snapshot.get(name, 0)
            for name in self.__slots__
        }
        delta["scalar_calls"] = (
            delta["scalar_value_calls"] + delta["scalar_gradient_calls"]
        )
        delta["batch_calls"] = (
            delta["batch_value_calls"] + delta["batch_gradient_calls"]
        )
        delta["total_calls"] = delta["scalar_calls"] + delta["batch_calls"]
        return delta


#: Process-global tally every kernel increments.  A plain attribute-bearing
#: object (not a dict) so the hot path pays one attribute add per event.
EVAL_COUNTERS = EvalCounters()


def counted_kernel(kind: str):
    """Decorator counting each call of a vectorized kernel over K points.

    ``kind`` is ``"value"`` or ``"gradient"``; the kernel's first
    argument after ``self`` is its ``(K, M)`` point matrix.  Applied
    automatically to the batch methods of :class:`UtilityFunction`
    subclasses, and by hand to kernels that are not utilities
    (:class:`~repro.utility.batch.StackedGrids`).
    """

    def decorate(kernel):
        @functools.wraps(kernel)
        def counted(self, points, *args):
            count_batch(kind, len(points))
            return kernel(self, points, *args)

        return counted

    return decorate


def count_batch(kind: str, points: int) -> None:
    """Count one vectorized ``kind`` kernel call over ``points`` points.

    The one counting rule behind :func:`counted_kernel`, also called
    directly by a fused kernel for the probe evaluation it makes inside
    a counted gradient call.
    """
    if kind == "value":
        EVAL_COUNTERS.batch_value_calls += 1
    else:
        EVAL_COUNTERS.batch_gradient_calls += 1
    EVAL_COUNTERS.batch_points += points


class UtilityFunction:
    """A concave, non-decreasing, continuous utility over M resources.

    Subclasses override :meth:`value_batch` or :meth:`value`, and
    optionally :meth:`gradient_batch` or :meth:`gradient`; the base
    derives the rest:

    * a scalar call on a utility with a batch kernel is the one-row case
      of that kernel;
    * ``gradient_batch`` of a utility with only ``value_batch`` is the
      vectorized central difference :func:`numeric_gradient_batch`;
    * a utility with only scalar methods is batch-callable through a
      generic loop over them (and its gradient is :func:`numeric_gradient`).

    Every ``value_batch`` / ``gradient_batch`` a subclass defines is
    counted as one batch call over its points.  Combinators whose batch
    methods only call other utilities' batch methods declare
    ``delegates=True`` in their class statement, so one evaluation is
    counted once, by the utilities doing the work.
    """

    #: Number of resources this utility is defined over.
    num_resources: int = 1

    def __init_subclass__(cls, delegates: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if delegates:
            return
        for name, kind in (("value_batch", "value"), ("gradient_batch", "gradient")):
            kernel = cls.__dict__.get(name)
            if kernel is not None:
                setattr(cls, name, counted_kernel(kind)(kernel))

    def __new__(cls, *args, **kwargs):
        if not (_overrides(cls, "value") or _overrides(cls, "value_batch")):
            raise TypeError(
                f"can't instantiate {cls.__name__}: it implements neither "
                "value nor value_batch"
            )
        return super().__new__(cls)

    def value(self, allocation: Sequence[float]) -> float:
        """Return the utility of ``allocation`` (length ``num_resources``)."""
        return float(self.value_batch(self._one_row(allocation))[0])

    def gradient(self, allocation: Sequence[float]) -> np.ndarray:
        """Return the marginal utility of each resource at ``allocation``.

        The one-row case of :meth:`gradient_batch` when the utility has a
        batch kernel; otherwise a central finite difference of the scalar
        :meth:`value` (see :func:`numeric_gradient`).
        """
        cls = type(self)
        if _overrides(cls, "value_batch") or _overrides(cls, "gradient_batch"):
            return self.gradient_batch(self._one_row(allocation))[0]
        return numeric_gradient(self.value, allocation)

    def marginal(self, allocation: Sequence[float], resource: int) -> float:
        """Marginal utility of a single ``resource`` at ``allocation``."""
        return float(self.gradient(allocation)[resource])

    def value_batch(self, allocations: np.ndarray) -> np.ndarray:
        """Utilities of a ``(K, num_resources)`` batch of allocations.

        Returns a ``(K,)`` vector whose point ``k`` is ``value(allocations[k])``.
        This generic loop serves utilities that implement only the
        scalar :meth:`value`, counting one scalar evaluation per point.
        """
        points = _as_point_matrix(allocations, self.num_resources)
        EVAL_COUNTERS.scalar_value_calls += points.shape[0]
        return np.array([self.value(p) for p in points], dtype=float)

    def gradient_batch(self, allocations: np.ndarray) -> np.ndarray:
        """Per-resource marginals of a ``(K, num_resources)`` batch.

        Returns a ``(K, num_resources)`` matrix whose row ``k`` is
        ``gradient(allocations[k])``.  A utility with a ``value_batch``
        kernel and no scalar ``gradient`` gets all rows from one
        :func:`numeric_gradient_batch` (counted as one batch gradient
        call); otherwise this loops the scalar :meth:`gradient`,
        counting one scalar evaluation per point.
        """
        points = _as_point_matrix(allocations, self.num_resources)
        cls = type(self)
        if _overrides(cls, "value_batch") and not _overrides(cls, "gradient"):
            EVAL_COUNTERS.batch_gradient_calls += 1
            EVAL_COUNTERS.batch_points += points.shape[0]
            return numeric_gradient_batch(self.value_batch, points)
        EVAL_COUNTERS.scalar_gradient_calls += points.shape[0]
        if points.shape[0] == 0:
            return np.zeros_like(points)
        return np.stack([np.asarray(self.gradient(p), dtype=float) for p in points])

    def __call__(self, allocation: Sequence[float]) -> float:
        return self.value(allocation)

    def _one_row(self, allocation: Sequence[float]) -> np.ndarray:
        """``allocation`` as the ``(1, num_resources)`` batch of a scalar call."""
        return _as_point_matrix(
            np.asarray(allocation, dtype=float).reshape(1, -1), self.num_resources
        )


def _overrides(cls: type, name: str) -> bool:
    """True when ``cls`` replaces the base implementation of method ``name``."""
    return getattr(cls, name) is not getattr(UtilityFunction, name)


def _as_point_matrix(allocations: np.ndarray, num_resources: int) -> np.ndarray:
    """Validate a batched-evaluation input as a ``(K, M)`` float matrix."""
    points = np.asarray(allocations, dtype=float)
    if points.ndim != 2 or points.shape[1] != num_resources:
        raise ValueError(
            f"batched evaluation expects a (K, {num_resources}) matrix, "
            f"got shape {points.shape}"
        )
    return points


def numeric_gradient(func, allocation: Sequence[float], eps: float = _GRADIENT_EPS) -> np.ndarray:
    """Central-difference gradient of ``func`` at ``allocation``.

    Steps are scaled to the magnitude of each coordinate so that the
    differentiator behaves sensibly for resources measured in bytes
    (~1e6) and in watts (~1e0) alike.  Coordinates are clamped at zero:
    if a backward step would go negative we use a forward difference.
    """
    point = np.asarray(allocation, dtype=float)
    grad = np.empty_like(point)
    for j in range(point.size):
        step = eps * max(1.0, abs(point[j]))
        lo = point.copy()
        hi = point.copy()
        EVAL_COUNTERS.scalar_value_calls += 2
        if point[j] - step >= 0.0:
            lo[j] -= step
            hi[j] += step
            grad[j] = (func(hi) - func(lo)) / (2.0 * step)
        else:
            hi[j] += step
            grad[j] = (func(hi) - func(point)) / step
    return grad


def numeric_gradient_batch(
    value_batch, points: np.ndarray, eps: float = _GRADIENT_EPS
) -> np.ndarray:
    """Vectorized central-difference gradients at a ``(K, M)`` batch.

    :func:`central_difference` with all ``2 * K * M`` probe points
    evaluated in a single ``value_batch`` dispatch over a ``(2KM, M)``
    matrix.
    """
    points = np.asarray(points, dtype=float)
    shape = (2,) + points.shape[::-1]                       # (2, M, K)

    def probe_values(probes: np.ndarray) -> np.ndarray:
        flat = probes.reshape(-1, points.shape[1])
        return np.asarray(value_batch(flat), dtype=float).reshape(shape)

    return central_difference(probe_values, points, eps)


def central_difference(
    probe_values, points: np.ndarray, eps: float = _GRADIENT_EPS
) -> np.ndarray:
    """Central-difference gradients at a ``(K, M)`` batch, probes built at once.

    Mirrors :func:`numeric_gradient` coordinate for coordinate — the same
    relative step, the same forward-difference fallback at the zero
    boundary, the same operation order — so the batched gradients agree
    bitwise with the scalar ones whenever the probe values agree bitwise
    with the scalar ``value``.  ``probe_values`` maps the ``(2, M, K, M)``
    probe tensor — ``probes[0, j]`` the points with coordinate ``j``
    stepped up, ``probes[1, j]`` stepped down (or left in place for a
    forward difference) — to its ``(2, M, K)`` values.
    """
    n_points, n_dims = points.shape
    if n_points == 0:
        return np.zeros_like(points)
    steps = eps * np.maximum(1.0, np.abs(points))          # (K, M)
    forward = points - steps < 0.0                          # (K, M)
    # Every coordinate stepped up / down, then one coordinate per block.
    ends = np.array([points + steps, points - np.where(forward, 0.0, steps)])
    probes = np.where(_diagonal(n_dims), ends[:, None], points)
    values = probe_values(probes)
    rise = (values[0] - values[1]).T                        # (K, M)
    return np.where(forward, rise / steps, rise / (2.0 * steps))


@functools.lru_cache(maxsize=None)
def _diagonal(n_dims: int) -> np.ndarray:
    """``(M, 1, M)`` mask moving coordinate ``j`` of probe block ``j``."""
    mask = np.eye(n_dims, dtype=bool)[:, None, :]
    mask.flags.writeable = False
    return mask


def is_nondecreasing_on_grid(func, grids: Sequence[np.ndarray], tol: float = 1e-9) -> bool:
    """Check that ``func`` is non-decreasing along each axis of a grid.

    ``grids`` holds one sorted 1-D sample array per resource.  Every grid
    point is evaluated; the check passes if increasing any single
    coordinate never decreases utility by more than ``tol``.
    """
    values = _tabulate(func, grids)
    for axis in range(values.ndim):
        diffs = np.diff(values, axis=axis)
        if np.any(diffs < -tol):
            return False
    return True


def is_concave_on_grid(func, grids: Sequence[np.ndarray], tol: float = 1e-9) -> bool:
    """Check midpoint concavity of ``func`` on the cartesian grid.

    For every pair of grid points ``a, b`` whose midpoint is evaluable we
    require ``f((a+b)/2) >= (f(a)+f(b))/2 - tol``.  For 1-D grids this
    reduces to the standard second-difference test, which we use directly
    because it is much cheaper.
    """
    if len(grids) == 1:
        xs = np.asarray(grids[0], dtype=float)
        ys = np.array([func((x,)) for x in xs])
        # Slopes between consecutive samples must be non-increasing.
        slopes = np.diff(ys) / np.diff(xs)
        return bool(np.all(np.diff(slopes) <= tol))

    points = _grid_points(grids)
    values = np.array([func(p) for p in points])
    rng = np.random.default_rng(0)
    n = len(points)
    # Exhaustive pairing is quadratic; sample pairs for large grids.
    max_pairs = 2000
    if n * (n - 1) // 2 <= max_pairs:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        pairs = [tuple(sorted(rng.choice(n, size=2, replace=False))) for _ in range(max_pairs)]
    for i, j in pairs:
        mid = (points[i] + points[j]) / 2.0
        if func(mid) < (values[i] + values[j]) / 2.0 - tol:
            return False
    return True


def _grid_points(grids: Sequence[np.ndarray]) -> np.ndarray:
    mesh = np.meshgrid(*[np.asarray(g, dtype=float) for g in grids], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _tabulate(func, grids: Sequence[np.ndarray]) -> np.ndarray:
    points = _grid_points(grids)
    shape = tuple(len(g) for g in grids)
    return np.array([func(p) for p in points]).reshape(shape)
