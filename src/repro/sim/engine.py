"""The execution-driven CMP simulator (the paper's phase-2 evaluation).

This is the SESC-substitute: a discrete-epoch simulation of a chip
multiprocessor in which

* every core runs its application through cyclic program phases;
* UMON shadow tags sample the (synthetic) access stream and produce
  noisy online miss-curve estimates;
* the allocation mechanism (EqualBudget, ReBudget, ...) re-runs every
  1 ms epoch on the *monitored* utilities, exactly as Section 4.3
  piggybacks the market on the kernel's timer interrupt — warm-started
  from the previous epoch's equilibrium bids, and re-searched from
  scratch whenever a context switch replaces a market player;
* Futility Scaling slews the physical cache partitions toward the
  market's targets with finite eviction bandwidth;
* per-core DVFS resolves purchased watts into frequency, with static
  power riding on an RC thermal model (HotSpot-style);
* DRAM channel contention feeds back into next epoch's miss latency.

Performance is *measured* by retiring instructions at the operating
points the hardware actually reached — not at the points the market
believed in — which is what separates Figure 5 from Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..cmp.chip import ChipModel
from ..cmp.config import CMPConfig
from ..cmp.futility import FutilityScalingController
from ..cmp.core_model import resolve_frequency_axes
from ..cmp.monitor import RuntimeMonitor, estimated_utilities
from ..cmp.talus import TalusController
from ..cmp.thermal import ThermalModel
from ..cmp.utility_builder import (
    POWER_GRID_POINTS,
    build_true_utility,
    convexify_utilities,
    extra_capacity_for,
)
from ..core.mechanisms import AllocationMechanism, AllocationProblem
from ..core.metrics import envy_freeness
from .phases import PhaseTracker
from .trace import EpochRecord, SimulationTrace

__all__ = [
    "ContextSwitch",
    "SimulationConfig",
    "SimulationResult",
    "ExecutionDrivenSimulator",
]


@dataclass(frozen=True)
class ContextSwitch:
    """Replace the application on one core at a given time.

    Context switches are the paper's stated reason (Section 4.3) for
    re-running the market every millisecond: the demand profile of a
    core changes instantly, and the monitors must re-learn it.
    """

    time_ms: float
    core_index: int
    app: object  # AppProfile


@dataclass
class SimulationConfig:
    """Knobs of one simulation run."""

    duration_ms: float = 30.0
    epoch_ms: float = 1.0
    #: Use runtime monitors (phase 2).  False runs the market on the
    #: true analytic utilities — useful to isolate monitoring noise.
    use_monitors: bool = True
    #: Re-run the allocation mechanism every this many epochs.
    reallocation_period_epochs: int = 1
    #: Per-core instruction rate assumed for stream synthesis is derived
    #: from the model; this seed drives all monitoring noise.
    seed: int = 1
    #: Enable the RC thermal model (False pins the leakage reference).
    thermal: bool = True
    #: Optimum-search quanta for mechanisms that need them (MaxEfficiency);
    #: coarser than the RAPL default to keep per-epoch cost sane.
    power_quantum_watts: float = 0.5
    #: Scheduled context switches (see :class:`ContextSwitch`).
    context_switches: tuple = ()

    def __post_init__(self) -> None:
        if not np.isfinite(self.epoch_ms) or self.epoch_ms <= 0.0:
            raise ValueError(f"epoch_ms must be positive, got {self.epoch_ms!r}")
        if not np.isfinite(self.duration_ms) or self.duration_ms <= 0.0:
            raise ValueError(f"duration_ms must be positive, got {self.duration_ms!r}")
        if self.num_epochs < 1:
            raise ValueError(
                f"duration_ms={self.duration_ms!r} rounds to zero epochs of "
                f"epoch_ms={self.epoch_ms!r}; utilities would be 0/0"
            )
        if self.reallocation_period_epochs < 1:
            raise ValueError(
                "reallocation_period_epochs must be >= 1, got "
                f"{self.reallocation_period_epochs!r}"
            )

    @property
    def num_epochs(self) -> int:
        """Epochs in one run; guaranteed >= 1 by construction."""
        return int(round(self.duration_ms / self.epoch_ms))


@dataclass
class SimulationResult:
    """Measured outcome of one run (what Figure 5 plots)."""

    mechanism: str
    trace: SimulationTrace
    utilities: np.ndarray          # measured: instr / standalone instr
    alone_instructions: np.ndarray
    envy_freeness: float
    converged_fraction: float

    @property
    def efficiency(self) -> float:
        """Measured weighted speedup (Equation 5 over retired instructions)."""
        return float(self.utilities.sum())

    @property
    def mean_market_iterations(self) -> float:
        iters = self.trace.market_iterations()
        return float(np.mean(iters)) if iters else 0.0


class ExecutionDrivenSimulator:
    """Simulates one mechanism on one chip/bundle combination."""

    def __init__(
        self,
        chip: ChipModel,
        mechanism: AllocationMechanism,
        config: Optional[SimulationConfig] = None,
    ):
        self.chip = chip
        self.mechanism = mechanism
        self.config = config or SimulationConfig()
        self.num_cores = chip.config.num_cores
        for switch in self.config.context_switches:
            if not 0 <= switch.core_index < self.num_cores:
                raise ValueError(f"context switch core {switch.core_index} out of range")
        # Per-core state is owned by the simulator (not the shared chip)
        # so context switches can replace applications mid-run.
        self._cores = list(chip.cores)
        self._switch_time_ms = [0.0] * self.num_cores
        self._trackers = [PhaseTracker(app) for app in chip.apps]
        # Talus shadow partitioning: the cache each core *experiences*
        # at a partition size between two points of interest is the
        # interleaving of two shadow partitions, so its effective miss
        # rate is the hull's linear interpolation — not the raw curve's
        # value mid-cliff.
        self._talus = [self._build_talus(core.app) for core in self._cores]

    def _build_talus(self, app) -> TalusController:
        region = self.chip.config.cache_region_bytes
        sizes = np.arange(1, self.chip.config.umon_max_regions + 1) * float(region)
        hits = np.array([1.0 - app.mrc.miss_fraction(s) for s in sizes])
        return TalusController(sizes, hits)

    def _effective_miss(self, core_index: int, cache_bytes: float) -> float:
        """Talus-realized miss fraction at an arbitrary partition size."""
        talus = self._talus[core_index]
        clamped = min(cache_bytes, float(self.chip.config.umon_max_bytes))
        return float(min(max(1.0 - talus.value_at(clamped), 0.0), 1.0))

    def _phase_state(self, core_index: int, time_ms: float):
        """Phase multipliers, measured from the app's arrival on the core."""
        local = time_ms - self._switch_time_ms[core_index]
        return self._trackers[core_index].state_at(max(local, 0.0))

    def _apply_context_switches(self, time_ms: float, pending, monitors, rng) -> bool:
        """Swap applications whose switch time has arrived.

        Returns True when at least one core changed hands, so the caller
        can force a market re-run this epoch.
        """
        from ..cmp.core_model import CoreModel

        switched = False
        while pending and pending[0].time_ms <= time_ms + 1e-9:
            switch = pending.pop(0)
            i = switch.core_index
            old = self._cores[i]
            self._cores[i] = CoreModel(
                switch.app, self.chip.config, power_model=old.power_model, dram=old.dram
            )
            self._switch_time_ms[i] = time_ms
            self._trackers[i] = PhaseTracker(switch.app)
            self._talus[i] = self._build_talus(switch.app)
            # Fresh monitors: the shadow tags know nothing about the
            # incoming application and must re-learn its miss curve.
            monitors[i] = RuntimeMonitor(
                self._cores[i],
                self.chip.config,
                rng=np.random.default_rng(rng.integers(2**32)),
            )
            switched = True
        if switched:
            # The market player on the switched core changed identity:
            # its carried bids describe the departed application, so the
            # next allocation must re-search from scratch.
            self.mechanism.reset_warm_state()
        return switched

    def run(self) -> SimulationResult:
        cfg = self.config
        chip_cfg: CMPConfig = self.chip.config
        n = self.num_cores
        rng = np.random.default_rng(cfg.seed)
        pending_switches = sorted(cfg.context_switches, key=lambda s: s.time_ms)
        # A fresh run must not inherit equilibrium state from a previous
        # run of the same mechanism instance (possibly on another chip).
        self.mechanism.reset_warm_state()

        monitors = [
            RuntimeMonitor(core, chip_cfg, rng=np.random.default_rng(rng.integers(2**32)))
            for core in self._cores
        ]
        futility = FutilityScalingController(
            capacity_bytes=chip_cfg.l2_capacity_bytes, num_partitions=n
        )
        thermal = ThermalModel(n)
        dram = self._cores[0].dram
        dram_latency = dram.uncontended_latency_ns()
        power_model = self.chip.power_model

        region = float(chip_cfg.cache_region_bytes)
        extras = self._equal_share_extras()
        trace = SimulationTrace()
        converged_epochs = 0
        market_epochs = 0
        alone = np.zeros(n)

        # Warm-up: let the monitors see one epoch of execution at the
        # equal-share allocation before the first market run.
        self._warmup(monitors, extras, dram_latency)

        num_epochs = cfg.num_epochs
        alloc_result = None
        for epoch in range(num_epochs):
            time_ms = epoch * cfg.epoch_ms
            if self._apply_context_switches(time_ms, pending_switches, monitors, rng):
                # Section 4.3: the incoming application must not execute
                # under the departed one's allocation, even between the
                # scheduled market epochs of reallocation_period_epochs.
                alloc_result = None
            states = [self._phase_state(i, time_ms) for i in range(n)]

            # (1) Allocation: re-run the market on monitored utilities.
            if epoch % cfg.reallocation_period_epochs == 0 or alloc_result is None:
                problem = self._build_problem(monitors)
                alloc_result = self.mechanism.allocate(problem)
                market_epochs += 1
                if alloc_result.converged:
                    converged_epochs += 1
                extras = alloc_result.allocations

            # (2) Cache partitioning: Futility Scaling slews occupancy.
            targets = region + extras[:, 0]
            access_rates = np.array(
                [
                    core.app.apki * states[i].apki_scale
                    for i, core in enumerate(self._cores)
                ]
            )
            occupancy = futility.step(targets, access_rates)

            # (3) DVFS: resolve purchased watts into frequency at the
            # current temperature (leakage rises with heat), all cores in
            # one bisection.
            temps = thermal.temperatures_c if cfg.thermal else [None] * n
            activities = np.array(
                [
                    core.app.activity * states[i].activity_scale
                    for i, core in enumerate(self._cores)
                ]
            )
            budgets_w = np.array(
                [
                    core.min_power_watts(temps[i]) + extras[i, 1]
                    for i, core in enumerate(self._cores)
                ]
            )
            frequencies = power_model.frequency_for_power(
                budgets_w, activities, temps if cfg.thermal else None
            )
            powers = np.array(
                [
                    power_model.total_power(frequencies[i], activities[i], temps[i])
                    for i in range(n)
                ]
            )

            # (4) Execution: retire instructions at the *actual* points,
            # with Talus delivering the hull-effective miss rate at the
            # occupancy Futility Scaling realized.
            perf = np.empty(n)
            misses_per_instr = np.empty(n)
            for i, core in enumerate(self._cores):
                miss = self._effective_miss(i, occupancy[i])
                mpi = core.app.apki * states[i].apki_scale / 1000.0 * miss
                misses_per_instr[i] = mpi
                time_ns = (
                    core.app.cpi_exe * states[i].cpi_scale / frequencies[i]
                    + mpi * dram_latency
                )
                perf[i] = 1.0 / time_ns
            instructions = perf * cfg.epoch_ms * 1e-3  # giga-instructions

            # Standalone reference for the same epoch and phase mix.
            for i, core in enumerate(self._cores):
                alone[i] += (
                    core.performance_gips(
                        chip_cfg.umon_max_bytes,
                        chip_cfg.core.max_frequency_ghz,
                        cpi_scale=states[i].cpi_scale,
                        apki_scale=states[i].apki_scale,
                    )
                    * cfg.epoch_ms
                    * 1e-3
                )

            # (5) Feedback: thermals and DRAM contention for next epoch.
            if cfg.thermal:
                thermal.step(powers, cfg.epoch_ms * 1e-3)
            miss_bw_gbps = float(np.sum(perf * misses_per_instr) * dram.line_bytes)
            dram_latency = dram.latency_ns(miss_bw_gbps)

            # (6) Monitoring: shadow tags ingest this epoch's stream.
            if cfg.use_monitors:
                for i, monitor in enumerate(monitors):
                    monitor.observe_epoch(
                        instructions[i] * 1e9, apki_scale=states[i].apki_scale
                    )

            trace.append(
                EpochRecord(
                    epoch=epoch,
                    time_ms=time_ms,
                    extras=extras.copy(),
                    cache_occupancy=occupancy.copy(),
                    frequencies_ghz=frequencies,
                    instructions=instructions,
                    powers_w=powers,
                    temperatures_c=np.array(thermal.temperatures_c),
                    dram_latency_ns=dram_latency,
                    market_iterations=alloc_result.iterations,
                    market_converged=alloc_result.converged,
                )
            )

        totals = trace.total_instructions()
        utilities = totals / alone
        ef = self._score_envy_freeness(trace.mean_allocation())
        return SimulationResult(
            mechanism=self.mechanism.name,
            trace=trace,
            utilities=utilities,
            alone_instructions=alone,
            envy_freeness=ef,
            converged_fraction=converged_epochs / max(market_epochs, 1),
        )

    # ------------------------------------------------------------------

    def _equal_share_extras(self) -> np.ndarray:
        n = self.num_cores
        return np.column_stack(
            [
                np.full(n, self.chip.extra_cache_capacity / n),
                np.full(n, self._extra_power_capacity() / n),
            ]
        )

    def _extra_power_capacity(self) -> float:
        """Watts beyond the free minimums of the *current* applications."""
        free = sum(core.min_power_watts() for core in self._cores)
        return float(self.chip.config.power_budget_watts - free)

    def _warmup(self, monitors, extras, dram_latency) -> None:
        if not self.config.use_monitors:
            return
        budgets_w = np.array(
            [core.min_power_watts() + extras[i, 1] for i, core in enumerate(self._cores)]
        )
        frequencies = self.chip.power_model.frequency_for_power(
            budgets_w, np.array([core.app.activity for core in self._cores])
        )
        for i, core in enumerate(self._cores):
            perf = core.performance_gips(
                self.chip.free.cache_bytes + extras[i, 0],
                frequencies[i],
                latency_ns=dram_latency,
            )
            monitors[i].observe_epoch(perf * self.config.epoch_ms * 1e6)

    def _true_utilities(self) -> list:
        """The resident applications' phase-1 utilities, hulled chip-wide."""
        resolve_frequency_axes(self._cores, POWER_GRID_POINTS)
        return convexify_utilities(
            [
                build_true_utility(core, self.chip.config, convexify=False)
                for core in self._cores
            ]
        )

    def _build_problem(self, monitors) -> AllocationProblem:
        if self.config.use_monitors:
            utilities = estimated_utilities(monitors)
        else:
            utilities = self._true_utilities()
        caps = np.array(
            [extra_capacity_for(core, self.chip.config) for core in self._cores]
        )
        return AllocationProblem(
            utilities=utilities,
            capacities=np.array(
                [self.chip.extra_cache_capacity, self._extra_power_capacity()]
            ),
            resource_names=["cache_bytes", "power_watts"],
            player_names=[core.app.name for core in self._cores],
            quanta=np.array(
                [
                    float(self.chip.config.cache_region_bytes),
                    self.config.power_quantum_watts,
                ]
            ),
            per_player_caps=caps,
        )

    def _score_envy_freeness(self, mean_extras: np.ndarray) -> float:
        """EF of the time-averaged allocation under the (final) true utilities.

        With context switches the scoring uses the applications resident
        at the end of the run.
        """
        return envy_freeness(self._true_utilities(), mean_extras)
