"""Cold-vs-warm equilibrium benchmark (the warm-start layer's receipts).

The epoch simulator re-solves the market every millisecond on utilities
that drift only slightly between epochs, which is exactly the situation
warm starts exploit.  This module measures the win: a
:class:`ColdVsWarmProbe` rides inside a Figure-5-style simulation and,
at every reallocation, solves the *same* problem twice —

* once with a fresh, cold mechanism (no carried state), and
* once with the persistent warm mechanism whose state survives from the
  previous epoch.

The warm result drives the simulation (so the trajectory is the warm
trajectory — the one production code would follow) while the cold solve
is a per-epoch control.  Per epoch we record equilibrium iterations,
wall-clock seconds and the worst allocation divergence between the two
solutions as a fraction of resource capacity.

``run_warmstart_bench`` aggregates this over one bundle per workload
category and returns a JSON-ready dict; ``scripts/bench_warmstart.py``
and ``benchmarks/test_warmstart.py`` both feed from it.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cmp import ChipModel, CMPConfig, cmp_8core
from repro.core.mechanisms import (
    AllocationMechanism,
    AllocationProblem,
    EqualBudget,
    MechanismResult,
    ReBudgetMechanism,
)
from repro.sim import ExecutionDrivenSimulator, SimulationConfig
from repro.workloads import generate_bundles, paper_bbpc_bundle

__all__ = [
    "ColdVsWarmProbe",
    "EpochProbeRecord",
    "reference_invariance",
    "run_warmstart_bench",
]


@dataclass
class EpochProbeRecord:
    """One reallocation's cold-vs-warm measurements."""

    cold_iterations: int
    warm_iterations: int
    cold_seconds: float
    warm_seconds: float
    #: max_ij |warm - cold| / capacity_j over the allocation matrices.
    divergence: float
    #: max_j |p_warm - p_cold| / p_cold over equilibrium prices — the
    #: paper's own convergence metric (NaN for price-less mechanisms).
    price_divergence: float


class ColdVsWarmProbe:
    """Mechanism wrapper that shadows every allocate with a cold solve.

    Quacks like an :class:`AllocationMechanism` as far as the simulator
    is concerned (``name``, ``allocate``, ``reset_warm_state``).  The
    warm mechanism's result is returned, so the simulated trajectory is
    the warm one; the cold mechanism is rebuilt from ``factory`` on
    every call so it can never carry state, and solves a copy of the
    problem so the warm mechanism's cold first epoch cannot take its
    search from the problem's cold-equilibrium memo.
    """

    def __init__(self, factory: Callable[[], AllocationMechanism]):
        self.factory = factory
        self.warm_mechanism = factory()
        self.records: List[EpochProbeRecord] = []
        self.resets = 0

    @property
    def name(self) -> str:
        return self.warm_mechanism.name

    def reset_warm_state(self) -> None:
        self.resets += 1
        self.warm_mechanism.reset_warm_state()

    def allocate(self, problem: AllocationProblem) -> MechanismResult:
        cold_mechanism = self.factory()
        t0 = time.perf_counter()
        cold = cold_mechanism.allocate(dataclasses.replace(problem))
        t1 = time.perf_counter()
        warm = self.warm_mechanism.allocate(problem)
        t2 = time.perf_counter()
        divergence = float(
            (np.abs(warm.allocations - cold.allocations) / problem.capacities).max()
        )
        cold_prices = cold.details.get("prices")
        warm_prices = warm.details.get("prices")
        if cold_prices is None or warm_prices is None:
            price_divergence = float("nan")
        else:
            price_divergence = float(
                (np.abs(warm_prices - cold_prices) / cold_prices).max()
            )
        self.records.append(
            EpochProbeRecord(
                cold_iterations=cold.iterations,
                warm_iterations=warm.iterations,
                cold_seconds=t1 - t0,
                warm_seconds=t2 - t1,
                divergence=divergence,
                price_divergence=price_divergence,
            )
        )
        return warm


@dataclass
class _MechanismTally:
    records: List[EpochProbeRecord] = field(default_factory=list)

    def summary(self) -> Dict[str, float]:
        cold_it = sum(r.cold_iterations for r in self.records)
        warm_it = sum(r.warm_iterations for r in self.records)
        cold_s = sum(r.cold_seconds for r in self.records)
        warm_s = sum(r.warm_seconds for r in self.records)
        return {
            "epochs": len(self.records),
            "cold_iterations": cold_it,
            "warm_iterations": warm_it,
            "iteration_savings": 1.0 - warm_it / cold_it if cold_it else 0.0,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "wallclock_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
            "max_divergence": max((r.divergence for r in self.records), default=0.0),
            "mean_divergence": float(
                np.mean([r.divergence for r in self.records])
            )
            if self.records
            else 0.0,
            "max_price_divergence": float(
                np.nanmax([r.price_divergence for r in self.records])
            )
            if self.records
            else 0.0,
            "mean_price_divergence": float(
                np.nanmean([r.price_divergence for r in self.records])
            )
            if self.records
            else 0.0,
        }


def _default_factories() -> Dict[str, Callable[[], AllocationMechanism]]:
    return {
        "EqualBudget": EqualBudget,
        "ReBudget-40": lambda: ReBudgetMechanism(step=40.0),
    }


def reference_invariance(config: Optional[CMPConfig] = None) -> Dict[str, float]:
    """Warm-vs-cold on the paper's Figure-5 reference problem.

    The same static problem (the bbpc example bundle, true utilities —
    no monitoring drift) is solved cold and then warm from the cold
    result.  This isolates the invariance claim from workload dynamics:
    the warm restart must terminate in fewer rounds and land on the same
    equilibrium within the paper's 1% price tolerance.
    """
    config = config or cmp_8core()
    chip = ChipModel(config, paper_bbpc_bundle().apps)
    problem = chip.build_problem()
    mech = EqualBudget()
    cold = mech.allocate(problem)
    warm = mech.allocate(problem)
    return {
        "bundle": paper_bbpc_bundle().name,
        "cold_iterations": cold.iterations,
        "warm_iterations": warm.iterations,
        "iteration_savings": 1.0 - warm.iterations / cold.iterations,
        "max_divergence": float(
            (np.abs(warm.allocations - cold.allocations) / problem.capacities).max()
        ),
        "max_price_divergence": float(
            (
                np.abs(warm.details["prices"] - cold.details["prices"])
                / cold.details["prices"]
            ).max()
        ),
    }


def run_warmstart_bench(
    config: Optional[CMPConfig] = None,
    categories: Sequence[str] = ("CPBN", "CCPP"),
    sim_config: Optional[SimulationConfig] = None,
    mechanism_factories: Optional[Dict[str, Callable[[], AllocationMechanism]]] = None,
    seed: int = 2016,
) -> Dict[str, object]:
    """Run the warm-start benchmark: reference invariance + epoch study.

    Returns a JSON-serializable dict with (a) the static Figure-5
    reference check (warm restart must match the cold equilibrium within
    the paper's 1% price tolerance) and (b) the cold-vs-warm probe over
    one simulated bundle per category: per-mechanism and overall
    iteration/wall-clock totals plus the per-epoch divergence between
    the warm solution and its cold control (allocations as a fraction of
    capacity, prices relative).  In the simulation the divergence is
    bounded by one epoch of genuine utility drift, not by the price
    tolerance: a warm chain lags the moving equilibrium by at most one
    re-search while monitored utilities move several percent per epoch.
    """
    config = config or cmp_8core()
    sim_config = sim_config or SimulationConfig(duration_ms=8.0, seed=seed)
    factories = mechanism_factories or _default_factories()

    tallies: Dict[str, _MechanismTally] = {name: _MechanismTally() for name in factories}
    for category in categories:
        bundle = generate_bundles(category, config.num_cores, count=1, seed=seed)[0]
        chip = ChipModel(config, bundle.apps)
        for name, factory in factories.items():
            probe = ColdVsWarmProbe(factory)
            ExecutionDrivenSimulator(chip, probe, sim_config).run()
            tallies[name].records.extend(probe.records)

    mechanisms = {name: tally.summary() for name, tally in tallies.items()}
    cold_it = sum(m["cold_iterations"] for m in mechanisms.values())
    warm_it = sum(m["warm_iterations"] for m in mechanisms.values())
    return {
        "reference": reference_invariance(config),
        "config": {
            "cores": config.num_cores,
            "categories": list(categories),
            "duration_ms": sim_config.duration_ms,
            "epoch_ms": sim_config.epoch_ms,
            "seed": seed,
        },
        "mechanisms": mechanisms,
        "overall": {
            "cold_iterations": cold_it,
            "warm_iterations": warm_it,
            "iteration_savings": 1.0 - warm_it / cold_it if cold_it else 0.0,
            "cold_seconds": sum(m["cold_seconds"] for m in mechanisms.values()),
            "warm_seconds": sum(m["warm_seconds"] for m in mechanisms.values()),
            "max_divergence": max(m["max_divergence"] for m in mechanisms.values()),
            "max_price_divergence": max(
                m["max_price_divergence"] for m in mechanisms.values()
            ),
        },
    }
