"""Analytic core performance model (Section 4.1.1's decomposition).

The paper splits execution time into a *compute phase*, whose length
scales with frequency, and a *memory phase*, whose length is set by the
L2 miss count and the DRAM latency and is frequency-independent.  For an
application with compute CPI ``cpi_exe``, ``mpi`` misses per instruction
and memory latency ``L`` ns, the time per instruction at frequency ``f``
GHz is::

    t(s, f) = cpi_exe / f  +  mpi(s) * L      [ns]

Performance is ``1/t`` giga-instructions per second.  The paper's
utility is IPC normalized to the standalone IPC; measured at a common
reference clock that equals performance normalized to standalone
performance, which is what we compute (both are dimensionless and
identical whenever frequencies match; normalized performance is the
physically meaningful quantity under DVFS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .application import AppProfile
from .config import CMPConfig
from .dram import DRAMModel
from .power import DVFSPowerModel

__all__ = ["CoreModel", "OperatingPoint", "resolve_frequency_axes"]


@dataclass(frozen=True)
class OperatingPoint:
    """A fully resolved (cache, frequency) operating point for one core."""

    cache_bytes: float
    frequency_ghz: float
    performance_gips: float
    power_watts: float
    utility: float


class CoreModel:
    """Performance/power model of one application on one core.

    Combines the application profile, the DVFS power model and the DRAM
    latency into the two functions the rest of the system needs:
    performance at an operating point, and the maximum performance
    affordable within a power cap.
    """

    def __init__(
        self,
        app: AppProfile,
        config: CMPConfig,
        power_model: DVFSPowerModel | None = None,
        dram: DRAMModel | None = None,
    ):
        self.app = app
        self.config = config
        self.power_model = power_model or DVFSPowerModel(core=config.core)
        self.dram = dram or DRAMModel(channels=config.memory_channels)
        self._mem_latency_ns = self.dram.uncontended_latency_ns()
        self._alone_gips = self.performance_gips(
            self.config.umon_max_bytes, self.config.core.max_frequency_ghz
        )
        # power_points -> frequencies over extra_power_axis(power_points);
        # see resolve_frequency_axes for why caching is sound.
        self._frequency_axes: Dict[int, np.ndarray] = {}

    @property
    def memory_latency_ns(self) -> float:
        return self._mem_latency_ns

    @property
    def alone_performance_gips(self) -> float:
        """Standalone performance: all monitorable cache, max frequency."""
        return self._alone_gips

    def time_per_instruction_ns(
        self,
        cache_bytes: float,
        frequency_ghz: float,
        cpi_scale: float = 1.0,
        apki_scale: float = 1.0,
        latency_ns: float | None = None,
    ) -> float:
        """Compute-phase plus memory-phase time per instruction.

        ``cpi_scale``/``apki_scale`` apply program-phase modulation and
        ``latency_ns`` overrides the uncontended DRAM latency (the
        execution-driven simulator feeds back channel contention).
        """
        latency = self._mem_latency_ns if latency_ns is None else latency_ns
        compute = self.app.cpi_exe * cpi_scale / frequency_ghz
        memory = (
            self.app.misses_per_instruction(cache_bytes) * apki_scale * latency
        )
        return compute + memory

    def performance_gips(
        self,
        cache_bytes: float,
        frequency_ghz: float,
        cpi_scale: float = 1.0,
        apki_scale: float = 1.0,
        latency_ns: float | None = None,
    ) -> float:
        """Instructions per nanosecond (== GIPS) at an operating point.

        Cache beyond the UMON-monitorable 2 MB yields no additional
        utility (the paper's footnote 3); we clamp accordingly.
        """
        cache = min(cache_bytes, float(self.config.umon_max_bytes))
        return 1.0 / self.time_per_instruction_ns(
            cache, frequency_ghz, cpi_scale, apki_scale, latency_ns
        )

    def utility(self, cache_bytes: float, frequency_ghz: float) -> float:
        """Normalized performance in [0, 1] (Section 4.1.1's utility)."""
        return self.performance_gips(cache_bytes, frequency_ghz) / self._alone_gips

    def power_watts(
        self, frequency_ghz: float, temperature_c: float | None = None
    ) -> float:
        """Core power at a frequency, using the app's activity factor."""
        return self.power_model.total_power(frequency_ghz, self.app.activity, temperature_c)

    def min_power_watts(self, temperature_c: float | None = None) -> float:
        """The free power allocation: enough to run at 800 MHz."""
        return self.power_model.min_power(self.app.activity, temperature_c)

    def max_power_watts(self, temperature_c: float | None = None) -> float:
        """Power draw at 4 GHz — no allocation beyond this is useful."""
        return self.power_model.max_power(self.app.activity, temperature_c)

    def frequency_for_power(
        self, watts: float, temperature_c: float | None = None
    ) -> float:
        """Highest frequency sustainable within ``watts``."""
        return self.power_model.frequency_for_power(watts, self.app.activity, temperature_c)

    def extra_power_axis(self, power_points: int) -> np.ndarray:
        """Extra watts sampled uniformly from 0 to the 4 GHz draw."""
        return np.linspace(0.0, self.max_power_watts() - self.min_power_watts(), power_points)

    def frequency_axis(self, power_points: int) -> np.ndarray:
        """Frequencies sustained at ``min_power_watts() + extra_power_axis``.

        Cached per ``power_points``: it is the reference-temperature
        inversion, which never changes for this core.
        """
        return resolve_frequency_axes([self], power_points)[0]

    def operating_point(
        self,
        cache_bytes: float,
        power_watts: float,
        temperature_c: float | None = None,
    ) -> OperatingPoint:
        """Resolve a (cache, power) allocation to frequency and utility."""
        frequency = self.frequency_for_power(power_watts, temperature_c)
        gips = self.performance_gips(cache_bytes, frequency)
        return OperatingPoint(
            cache_bytes=cache_bytes,
            frequency_ghz=frequency,
            performance_gips=gips,
            power_watts=self.power_watts(frequency, temperature_c),
            utility=gips / self._alone_gips,
        )


def resolve_frequency_axes(cores: Sequence[CoreModel], power_points: int) -> np.ndarray:
    """``(G, power_points)`` frequency axes of ``cores``, cached per core.

    Every core not yet cached is resolved in one array bisection per
    power model.  An axis depends only on the core's power model, its
    application's activity and ``power_points`` — all fixed for a
    :class:`CoreModel`'s lifetime (a context switch builds a new one) —
    and it is the inversion at the reference temperature, so it is the
    same in every epoch.  Calls that pass a temperature go through
    :meth:`CoreModel.frequency_for_power` and are never cached.
    """
    missing: Dict[DVFSPowerModel, list] = {}
    for core in cores:
        if power_points not in core._frequency_axes:
            missing.setdefault(core.power_model, []).append(core)
    for model, group in missing.items():
        watts = np.array(
            [core.min_power_watts() + core.extra_power_axis(power_points) for core in group]
        )
        activity = np.array([[core.app.activity] for core in group])
        for core, axis in zip(group, model.frequency_for_power(watts, activity)):
            core._frequency_axes[power_points] = axis
    return np.array([core._frequency_axes[power_points] for core in cores])
