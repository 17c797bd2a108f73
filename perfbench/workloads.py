"""The benchmark's three workloads, run through the public sweep entry points.

Each workload is one call of the entry point the CLI uses
(``run_analytic_sweep`` or ``run_simulation_experiment``) with
``workers=1``; that call is one *pass*.  A pass returns one record per
(bundle, mechanism) cell, which :mod:`perfbench.reference` compares
with the recorded reference outputs.

Inputs: ``--seed`` picks the bundle seed ``seed % POOL``, which the
entry point turns into bundles with ``generate_bundles``.  Reference
outputs are recorded for every bundle seed of the pool, so every run,
whatever its seed, is checked against a recorded reference.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from perfbench import hostspeed
from repro.analysis import run_analytic_sweep, run_simulation_experiment
from repro.cmp import cmp_8core, cmp_64core
from repro.core.mechanisms import (
    AllocationMechanism,
    BalancedBudget,
    EqualBudget,
    MechanismResult,
    ReBudgetMechanism,
    standard_mechanism_suite,
)
from repro.sim import SimulationConfig
from repro.workloads import BUNDLE_CATEGORIES, generate_bundles

__all__ = [
    "POOL",
    "WORKLOADS",
    "Workload",
    "SolveLog",
    "bundle_seed",
    "cell_record",
]

#: Bundle seeds with a recorded reference; ``--seed`` maps onto them.
POOL = 8

#: Weights of an allocation column's fixed projection are the fractional
#: parts of ``i * _GOLDEN``, so a reference can hold a tolerance-checkable
#: fingerprint instead of every allocation entry (irrational weights: no
#: single entry can move without moving it).
_GOLDEN = 0.6180339887498949


def bundle_seed(seed: int) -> int:
    """The bundle-generation seed a benchmark ``--seed`` selects."""
    return seed % POOL


def cell_record(result: MechanismResult) -> Dict[str, object]:
    """The outputs of one solve that the reference pins.

    ``digest`` is bitwise (reported, not required); ``fp`` holds one
    weighted sum per resource column of the allocation and is compared
    within the reference tolerance.
    """
    alloc = np.ascontiguousarray(result.allocations, dtype=np.float64)
    fingerprint = np.modf(np.arange(1, alloc.shape[0] + 1) * _GOLDEN)[0] @ alloc
    return {
        "eff": float(result.efficiency),
        "ef": float(result.envy_freeness),
        "iters": int(result.iterations),
        "conv": bool(result.converged),
        "digest": hashlib.sha256(alloc.tobytes()).hexdigest()[:16],
        "fp": [float(v) for v in fingerprint.ravel()],
    }


class SolveLog:
    """Times every ``allocate`` of the mechanisms a sweep's factory hands out.

    The timer is set on each mechanism *instance* the factory creates,
    so no class or module is touched and nothing needs restoring.  After
    each solve, outside its timing, it takes one calibration slice
    (:mod:`perfbench.hostspeed`); ``factor`` converts the pass's host
    seconds to reference seconds.
    """

    def __init__(self, calibrate: Callable[[], float] = hostspeed.calibration_slice) -> None:
        self.entries: List[Tuple[str, float, MechanismResult]] = []
        self.slices: List[float] = []
        self.calibrate = calibrate

    def timed(self, mechanisms: Sequence[AllocationMechanism]) -> List[AllocationMechanism]:
        for mechanism in mechanisms:
            mechanism.allocate = self._timer(mechanism.name, mechanism.allocate)
        return list(mechanisms)

    def _timer(self, name: str, allocate: Callable) -> Callable:
        def allocate_timed(problem):
            start = time.perf_counter()
            result = allocate(problem)
            self.entries.append((name, time.perf_counter() - start, result))
            self.slices.append(self.calibrate())
            return result

        return allocate_timed

    @property
    def seconds(self) -> List[float]:
        return [entry[1] for entry in self.entries]

    @property
    def calibration_s(self) -> float:
        """Host seconds the pass spent in calibration slices."""
        return sum(self.slices)

    @property
    def factor(self) -> float:
        return hostspeed.factor(self.slices)


def _failure_cells(failures) -> Dict[str, Dict[str, object]]:
    return {
        f"{f.bundle}/{f.mechanism}": {"error": f.error.strip().splitlines()[-1]}
        for f in failures
    }


def _market8_mechanisms() -> List[AllocationMechanism]:
    return [
        EqualBudget(),
        BalancedBudget(),
        ReBudgetMechanism(step=20),
        ReBudgetMechanism(step=40),
    ]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    :meth:`run_pass` performs the workload's fixed work once and returns
    its cell records: an analytic sweep when ``epochs`` is 0, otherwise
    an ``epochs``-long simulation of the first bundle of each category.
    :meth:`setup` is the part of a run before the first cell (chip config
    and bundle generation), which ``setup_s`` times in a fresh
    interpreter together with the imports.  ``nominal_pass_s`` is the
    pass length in reference seconds (:mod:`perfbench.hostspeed`), used
    only to fix how many passes a run of ``--seconds`` makes.
    """

    name: str
    num_cores: int
    categories: Tuple[str, ...]
    bundles_per_category: int
    mechanisms: Callable[[], List[AllocationMechanism]]
    epochs: int
    nominal_pass_s: float

    def config(self):
        return cmp_64core() if self.num_cores == 64 else cmp_8core()

    def setup(self, seed: int):
        config = self.config()
        bundles = [
            bundle
            for category in self.categories
            for bundle in generate_bundles(
                category,
                config.num_cores,
                count=self.bundles_per_category,
                seed=bundle_seed(seed),
            )
        ]
        return config, bundles

    def passes(self, seconds: float) -> int:
        """Passes a run of ``seconds`` makes: a fixed count, never zero."""
        return max(1, int(round(seconds / self.nominal_pass_s)))

    def run_pass(self, seed: int, log: SolveLog) -> Dict[str, Dict[str, object]]:
        if self.epochs:
            return self._simulate(seed, log)
        sweep = run_analytic_sweep(
            config=self.config(),
            bundles_per_category=self.bundles_per_category,
            categories=self.categories,
            mechanisms_factory=lambda: log.timed(self.mechanisms()),
            seed=bundle_seed(seed),
            workers=1,
        )
        cells = {
            f"{score.bundle}/{name}": cell_record(result)
            for score in sweep.scores
            for name, result in score.results.items()
        }
        cells.update(_failure_cells(sweep.failures))
        return cells

    def _simulate(self, seed: int, log: SolveLog) -> Dict[str, Dict[str, object]]:
        first = len(log.entries)
        scores = run_simulation_experiment(
            config=self.config(),
            categories=self.categories,
            sim_config=SimulationConfig(
                duration_ms=float(self.epochs), seed=bundle_seed(seed)
            ),
            mechanisms_factory=lambda: log.timed(self.mechanisms()),
            seed=bundle_seed(seed),
            workers=1,
        )
        # The solves of a category run mechanism by mechanism, epoch by epoch.
        epochs: Dict[str, List[Dict[str, object]]] = {}
        for name, _, result in log.entries[first:]:
            epochs.setdefault(name, []).append(cell_record(result))
        cells: Dict[str, Dict[str, object]] = {}
        for score in scores:
            for name in score.efficiency:
                cells[f"{score.bundle}/{name}"] = {
                    "eff": float(score.efficiency[name]),
                    "ef": float(score.envy_freeness[name]),
                    "mean_iters": float(score.mean_iterations[name]),
                    "epochs": epochs.get(name, []),
                }
        cells.update(_failure_cells(scores.failures))
        return cells


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig4-64",
            num_cores=64,
            categories=BUNDLE_CATEGORIES,
            bundles_per_category=1,
            mechanisms=standard_mechanism_suite,
            epochs=0,
            nominal_pass_s=9.0,
        ),
        Workload(
            name="fig5-64",
            num_cores=64,
            categories=("CPBN",),
            bundles_per_category=1,
            mechanisms=standard_mechanism_suite,
            epochs=6,
            nominal_pass_s=20.0,
        ),
        Workload(
            name="market-8",
            num_cores=8,
            categories=BUNDLE_CATEGORIES,
            bundles_per_category=8,
            mechanisms=_market8_mechanisms,
            epochs=0,
            nominal_pass_s=3.5,
        ),
    )
}
