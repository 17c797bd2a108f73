"""Per-core runtime utility monitoring (Section 4.1.1).

The paper models every application's utility *online*: UMON shadow tags
estimate the miss-rate curve, a critical-path predictor estimates the
memory phase, and Isci-style counters estimate compute time and power.
No offline profiling is used.

:class:`RuntimeMonitor` reproduces that loop for one core.  Every epoch
it draws the core's (synthetic) access stream, maps to stack distances
only the one-in-``sampling_rate`` accesses the shadow tags record, and
folds a noisy CPI estimate into an exponential moving average; on
demand it produces the concave utility function the market bids with.
The gap between this estimated utility and the true analytic one is
exactly the phase-1 vs phase-2 difference of Section 6.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import MarketConfigurationError
from ..utility.tabular import GridUtility2D
from .config import CMPConfig
from .core_model import CoreModel, resolve_frequency_axes
from .umon import UMONShadowTags
from .utility_builder import (
    POWER_GRID_POINTS,
    build_utility_from_miss_curve,
    convexify_utilities,
)

__all__ = ["MAX_EPOCH_ACCESSES", "RuntimeMonitor", "estimated_utilities"]

#: Cap on the L2 accesses one epoch streams past the shadow tags, of
#: which one in ``umon_sampling_rate`` is recorded; real UMON sees the
#: full stream, but the histogram converges long before this.
MAX_EPOCH_ACCESSES = 200_000


class RuntimeMonitor:
    """Online utility estimation for one core.

    Parameters
    ----------
    core:
        The true core model (used to synthesize the access stream and
        as the source of power/DRAM parameters).
    config:
        Chip configuration (region size, UMON limits, sampling rate).
    rng:
        Randomness source for the synthetic access stream — this is
        where phase-2's monitoring noise comes from.
    cpi_noise_std:
        Relative noise on the compute-CPI estimate per epoch, modeling
        critical-path-predictor error.
    history_weight:
        EWMA weight on past epochs' miss curves, smoothing estimates
        across epochs the way hardware monitors effectively do.
    """

    def __init__(
        self,
        core: CoreModel,
        config: CMPConfig,
        rng: Optional[np.random.Generator] = None,
        cpi_noise_std: float = 0.03,
        history_weight: float = 0.5,
    ):
        if not math.isfinite(cpi_noise_std) or cpi_noise_std < 0.0:
            raise MarketConfigurationError(
                f"cpi_noise_std must be finite and >= 0, got {cpi_noise_std!r}"
            )
        if not math.isfinite(history_weight) or not 0.0 <= history_weight <= 1.0:
            raise MarketConfigurationError(
                f"history_weight must lie in [0, 1], got {history_weight!r}"
            )
        self.core = core
        self.config = config
        self.rng = rng or np.random.default_rng(0)
        self.cpi_noise_std = cpi_noise_std
        self.history_weight = history_weight
        self.umon = UMONShadowTags(
            max_regions=config.umon_max_regions,
            region_bytes=config.cache_region_bytes,
            sampling_rate=config.umon_sampling_rate,
        )
        self._survival_table = core.app.mrc.survival_table(
            max_bytes=2.0 * config.umon_max_bytes
        )
        self._smoothed_curve: Optional[np.ndarray] = None
        self._cpi_estimate = core.app.cpi_exe
        self._utility_cache: Optional[GridUtility2D] = None

    def observe_epoch(self, instructions: float, apki_scale: float = 1.0) -> None:
        """Ingest one epoch of execution into the monitors.

        ``instructions`` retired this epoch determine the L2 access
        count; ``apki_scale`` reflects the application's current phase.
        The epoch's uniform draws are made for every access, so the RNG
        stream is that of sampling the whole epoch, but only the slice
        the shadow tags record is mapped to stack distances (the map is
        elementwise, so the recorded distances are the same bits).
        """
        access_rate = instructions * self.core.app.apki * apki_scale / 1000.0
        if not math.isfinite(access_rate):
            raise MarketConfigurationError(
                f"epoch access count must be finite, got instructions={instructions!r}, "
                f"apki_scale={apki_scale!r}"
            )
        accesses = min(max(int(access_rate), 0), MAX_EPOCH_ACCESSES)
        if accesses > 0:
            mrc = self.core.app.mrc
            self.umon.reset()
            recorded = self.umon.stride(accesses)
            # As in sample_stack_distances, a curve that never misses
            # draws nothing (it maps every draw to distance 0).
            draws = self.rng.random(accesses) if mrc.ceiling > 0.0 else np.zeros(accesses)
            self.umon.record(mrc.stack_distances(draws[recorded], self._survival_table))
            fresh = self.umon.miss_curve()
            if self._smoothed_curve is None:
                self._smoothed_curve = fresh
            else:
                w = self.history_weight
                self._smoothed_curve = w * self._smoothed_curve + (1.0 - w) * fresh

        # Critical-path / power-counter noise on the compute-CPI estimate.
        noise = 1.0 + self.cpi_noise_std * self.rng.standard_normal()
        self._cpi_estimate = self.core.app.cpi_exe * max(noise, 0.5)
        self._utility_cache = None

    @property
    def miss_curve(self) -> np.ndarray:
        """Current smoothed miss-curve estimate (1..16 regions)."""
        if self._smoothed_curve is None:
            return np.ones(self.config.umon_max_regions)
        return self._smoothed_curve.copy()

    @property
    def cpi_estimate(self) -> float:
        return self._cpi_estimate

    def estimated_utility(self) -> GridUtility2D:
        """The concave utility the market should bid with this epoch."""
        return estimated_utilities([self])[0]


def estimated_utilities(monitors: Sequence[RuntimeMonitor]) -> List[GridUtility2D]:
    """Every monitor's estimated utility, rebuilt chip-wide where stale.

    The monitors observed since their last build resolve their cores'
    frequency axes in one bisection, sample their raw grids from the
    current miss-curve and CPI estimates, and share one stacked Talus
    hull; each result fills its monitor's cache until the next
    :meth:`RuntimeMonitor.observe_epoch`.
    """
    stale = [m for m in monitors if m._utility_cache is None]
    if stale:
        resolve_frequency_axes([m.core for m in stale], POWER_GRID_POINTS)
        raw = [
            build_utility_from_miss_curve(
                m.core, m.config, m.miss_curve, cpi_estimate=m.cpi_estimate, convexify=False
            )
            for m in stale
        ]
        for monitor, utility in zip(stale, convexify_utilities(raw)):
            monitor._utility_cache = utility
    return [m._utility_cache for m in monitors]
