"""In-memory spans around the public callables of each layer.

The benchmark's traced run replaces a fixed table of callables — module
functions at the module that *calls* them (a name imported with
``from x import f`` must be patched where it is looked up) and methods
on their class — with wrappers that record ``(name, start, end,
parent)`` spans.  The patches live in memory only: :func:`installed`
swaps the attributes in and always swaps the originals back, so an
untraced pass never runs through a wrapper.

Self time of a span is its duration minus the part of its interval
that its direct child spans cover (:func:`layer_table`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "LAYERS",
    "TARGETS",
    "SpanRecorder",
    "installed",
    "layer_table",
    "resolve",
]

#: Layer -> (what it covers, which end-to-end metric it should move on
#: which workload).  Written down before measuring; baseline.json copies it.
LAYERS: Dict[str, Tuple[str, str]] = {
    "exec": (
        "SweepExecutor.run: the sweep's cell loop",
        "wall_s on all three workloads (self time: executor bookkeeping)",
    ),
    "sim.run": (
        "ExecutionDrivenSimulator.run: one simulated (bundle, mechanism) cell",
        "wall_s on fig5-64 only",
    ),
    "core.allocate": (
        "AllocationMechanism.allocate on every mechanism class",
        "solve_ms_p50/solve_ms_tail on all three workloads",
    ),
    "core.equilibrium": (
        "find_equilibrium, as called from core.mechanisms and core.rebudget",
        "solve_ms_* on market-8",
    ),
    "core.rebudget": (
        "run_rebudget, as called from core.mechanisms",
        "solve_ms_* on market-8",
    ),
    "core.optimum": (
        "max_efficiency_allocation, as called from core.mechanisms",
        "wall_s on fig4-64 and fig5-64 (solve_ms_tail only once no optimum "
        "solve is among the ten slowest); absent on market-8",
    ),
    "core.envy": (
        "envy_freeness, as called from core.mechanisms and sim.engine",
        "wall_s/solve_ms_p50 on fig4-64 and fig5-64; ~nothing on market-8",
    ),
    "cmp.build_problem": (
        "ChipModel.build_problem: one bundle's true-utility problem",
        "wall_s on market-8 and fig4-64",
    ),
    "cmp.true_utility": (
        "build_true_utility, as called from cmp.chip and sim.engine",
        "wall_s on market-8 and fig4-64",
    ),
    "cmp.monitor_utility": (
        "build_utility_from_miss_curve, as called from cmp.monitor",
        "wall_s on fig5-64",
    ),
    "cmp.convexify_grid": (
        "convexify_grid, as called from cmp.utility_builder",
        "wall_s on fig5-64 (and fig4-64 through cmp.true_utility)",
    ),
    "cmp.freq_for_power": (
        "DVFSPowerModel.frequency_for_power (scalar DVFS bisection)",
        "wall_s on fig5-64 (and fig4-64 through cmp.true_utility)",
    ),
    "cmp.monitor_observe": (
        "RuntimeMonitor.observe_epoch: UMON sampling of one epoch",
        "wall_s on fig5-64",
    ),
}


def _count_equilibrium(counts: Counter, result) -> None:
    counts["core.equilibrium.iterations"] += int(result.iterations)
    counts["core.equilibrium.converged"] += int(bool(result.converged))
    counts["core.equilibrium.warm_started"] += int(bool(result.warm_started))


def _count_rebudget(counts: Counter, result) -> None:
    counts["core.rebudget.rounds"] += len(result.rounds)


def _count_optimum(counts: Counter, result) -> None:
    counts["core.optimum.steps"] += int(result.steps)


def _count_sim(counts: Counter, result) -> None:
    counts["sim.epochs"] += result.trace.num_epochs


_MECHANISMS = "repro.core.mechanisms"

#: (owner, attribute, span name, result hook).  ``owner`` is a module
#: path, or ``module:Class`` for a method.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.exec.executor:SweepExecutor", "run", "exec", None),
    ("repro.sim.engine:ExecutionDrivenSimulator", "run", "sim.run", _count_sim),
    (f"{_MECHANISMS}:EqualShare", "allocate", "core.allocate", None),
    (f"{_MECHANISMS}:EqualBudget", "allocate", "core.allocate", None),
    (f"{_MECHANISMS}:BalancedBudget", "allocate", "core.allocate", None),
    (f"{_MECHANISMS}:ReBudgetMechanism", "allocate", "core.allocate", None),
    (f"{_MECHANISMS}:MaxEfficiency", "allocate", "core.allocate", None),
    (f"{_MECHANISMS}:ElasticitiesProportional", "allocate", "core.allocate", None),
    (_MECHANISMS, "find_equilibrium", "core.equilibrium", _count_equilibrium),
    ("repro.core.rebudget", "find_equilibrium", "core.equilibrium", _count_equilibrium),
    (_MECHANISMS, "run_rebudget", "core.rebudget", _count_rebudget),
    (_MECHANISMS, "max_efficiency_allocation", "core.optimum", _count_optimum),
    (_MECHANISMS, "envy_freeness", "core.envy", None),
    ("repro.sim.engine", "envy_freeness", "core.envy", None),
    ("repro.cmp.chip:ChipModel", "build_problem", "cmp.build_problem", None),
    ("repro.cmp.chip", "build_true_utility", "cmp.true_utility", None),
    ("repro.sim.engine", "build_true_utility", "cmp.true_utility", None),
    ("repro.cmp.monitor", "build_utility_from_miss_curve", "cmp.monitor_utility", None),
    ("repro.cmp.utility_builder", "convexify_grid", "cmp.convexify_grid", None),
    ("repro.cmp.power:DVFSPowerModel", "frequency_for_power", "cmp.freq_for_power", None),
    ("repro.cmp.monitor:RuntimeMonitor", "observe_epoch", "cmp.monitor_observe", None),
)


def resolve(owner: str):
    """The module, or ``module:Class`` class, named by ``owner``."""
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class SpanRecorder:
    """Nestable spans of one thread, kept in parallel lists until read."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0.0)
            self._open.append(index)
            self.starts.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = self.clock()
                self._open.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    @property
    def spans(self) -> List[Tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


@contextlib.contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every target with a span wrapper; restore all on exit."""
    saved = []
    try:
        for owner_name, attr, span, hook in TARGETS:
            owner = resolve(owner_name)
            # vars() reads the attribute defined on this very owner, so a
            # method a subclass inherits is never copied onto it.
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(span, original, hook))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_table(spans: Sequence[Tuple[str, float, float, int]]) -> Dict[str, Dict[str, float]]:
    """Per span name: inclusive seconds ``s``, ``self_s`` and ``calls``.

    ``spans`` are ``(name, start, end, parent_index)`` with ``-1`` for a
    root.  A span nested inside a span of the same name adds to
    ``calls`` and ``self_s`` but not again to the inclusive ``s``.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    table: Dict[str, Dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        row = table.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - _covered(children.get(index, []), start, end)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["s"] += end - start
    return table
