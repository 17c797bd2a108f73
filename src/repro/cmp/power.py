"""DVFS power model (Wattch/Cacti-flavoured first-order physics).

Each core runs at a frequency between 0.8 and 4.0 GHz; voltage scales
linearly with frequency between 0.8 and 1.2 V (Table 1).  Dynamic power
follows ``P_dyn = activity * C_eff * V(f)^2 * f`` and static power is a
temperature-dependent fraction of a voltage-dependent leakage base,
following Intel's Sandy Bridge power-management approximation the paper
adopts.  The model follows the paper's 65 nm assumptions: a fully active
core at 4 GHz draws well above its 10 W TDP share, so the chip-level
power budget is a genuinely contended resource.

The market treats *power* (watts) as the resource; performance comes
from the frequency the purchased watts can sustain, so this module also
provides the inverse mapping ``frequency_for_power``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import CoreConfig

__all__ = ["DVFSPowerModel", "RAPL_QUANTUM_WATTS"]

#: Intel RAPL's power-limit granularity (Section 4.1.1): 0.125 W.
RAPL_QUANTUM_WATTS = 0.125


@dataclass(frozen=True)
class DVFSPowerModel:
    """Per-core power as a function of frequency, activity and temperature.

    Parameters
    ----------
    core:
        Frequency/voltage envelope.
    effective_capacitance:
        ``C_eff`` in watts per (V^2 * GHz); 4.0 puts a fully active 4 GHz
        core at ~23 W dynamic (the paper's 65 nm power model: the TDP
        share of 10 W per core cannot sustain peak frequency, which is
        what makes power a genuinely contended resource).
    leakage_coefficient:
        Leakage base in watts per volt at the reference temperature.
    leakage_temp_slope_k:
        Exponential temperature dependence scale (leakage doubles every
        ``ln(2) * slope`` kelvin), per the Sandy-Bridge-style model.
    reference_temperature_c:
        Temperature at which the leakage coefficient is specified.
    """

    core: CoreConfig = CoreConfig()
    effective_capacitance: float = 4.0
    leakage_coefficient: float = 1.2
    leakage_temp_slope_k: float = 30.0
    reference_temperature_c: float = 80.0

    def voltage(self, frequency_ghz: float) -> float:
        """Linear V-f mapping within the DVFS envelope (clamped outside)."""
        f = self._clamp_frequency(frequency_ghz)
        span = self.core.max_frequency_ghz - self.core.min_frequency_ghz
        t = (f - self.core.min_frequency_ghz) / span
        return self.core.min_voltage + t * (self.core.max_voltage - self.core.min_voltage)

    def dynamic_power(self, frequency_ghz: float, activity: float = 1.0) -> float:
        """``activity * C_eff * V^2 * f`` in watts."""
        f = self._clamp_frequency(frequency_ghz)
        v = self.voltage(f)
        return activity * self.effective_capacitance * v * v * f

    def static_power(self, frequency_ghz: float, temperature_c: float | None = None) -> float:
        """Voltage- and temperature-dependent leakage in watts."""
        v = self.voltage(frequency_ghz)
        return self.leakage_coefficient * v * self._leakage_scale(temperature_c)

    def total_power(
        self,
        frequency_ghz: float,
        activity: float = 1.0,
        temperature_c: float | None = None,
    ) -> float:
        """Dynamic plus static power at an operating point."""
        return self._power_in_envelope(
            self._clamp_frequency(frequency_ghz),
            activity,
            self._leakage_scale(temperature_c),
        )

    def min_power(self, activity: float = 1.0, temperature_c: float | None = None) -> float:
        """Power of the free minimum-frequency allocation (800 MHz)."""
        return self.total_power(self.core.min_frequency_ghz, activity, temperature_c)

    def max_power(self, activity: float = 1.0, temperature_c: float | None = None) -> float:
        """Power at the top of the DVFS envelope (4 GHz)."""
        return self.total_power(self.core.max_frequency_ghz, activity, temperature_c)

    def frequency_for_power(
        self,
        watts: float | np.ndarray,
        activity: float | np.ndarray = 1.0,
        temperature_c: float | np.ndarray | None = None,
    ) -> float | np.ndarray:
        """Highest sustainable frequency within a power cap (inverse model).

        Total power is strictly increasing in frequency, so a bisection
        on the envelope suffices.  Caps below the minimum-frequency power
        return the minimum frequency (the free allocation guarantees it);
        caps above the 4 GHz power return 4 GHz.

        ``watts``, ``activity`` and ``temperature_c`` broadcast against
        each other (``temperature_c=None`` is the reference temperature)
        and every element runs the same 60-step bisection on
        :meth:`total_power`'s arithmetic that a lone scalar call runs,
        so an array call equals the elementwise scalar calls bit for
        bit.  All-scalar inputs run the loop on Python floats and return
        a float.  The leakage scale goes through ``math.exp`` element by
        element: ``np.exp`` differs from it in the last bit for some
        arguments.
        """
        lo_f = self.core.min_frequency_ghz
        hi_f = self.core.max_frequency_ghz
        scale = self._leakage_scale(temperature_c)
        if np.ndim(watts) == 0 and np.ndim(activity) == 0 and np.ndim(scale) == 0:
            watts, activity, scale = float(watts), float(activity), float(scale)
            select = _select
        else:
            watts, activity, scale = np.broadcast_arrays(
                np.asarray(watts, dtype=float), np.asarray(activity, dtype=float), scale
            )
            select = np.where
        lo, hi = lo_f, hi_f
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fits = self._power_in_envelope(mid, activity, scale) <= watts
            lo, hi = select(fits, mid, lo), select(fits, hi, mid)
        return select(
            watts <= self._power_in_envelope(lo_f, activity, scale),
            lo_f,
            select(watts >= self._power_in_envelope(hi_f, activity, scale), hi_f, lo),
        )

    def _power_in_envelope(
        self,
        frequency_ghz: float | np.ndarray,
        activity: float | np.ndarray,
        leakage_scale: float | np.ndarray,
    ) -> float | np.ndarray:
        """Total power of frequencies inside the envelope, arrays welcome.

        ``activity * C_eff * V^2 * f`` plus ``leakage * V * scale``: the
        one power formula, shared by :meth:`total_power` and the
        bisection so both do the same operations in the same order.
        """
        span = self.core.max_frequency_ghz - self.core.min_frequency_ghz
        t = (frequency_ghz - self.core.min_frequency_ghz) / span
        v = self.core.min_voltage + t * (self.core.max_voltage - self.core.min_voltage)
        dynamic = activity * self.effective_capacitance * v * v * frequency_ghz
        return dynamic + self.leakage_coefficient * v * leakage_scale

    def _leakage_scale(self, temperature_c: float | np.ndarray | None) -> float | np.ndarray:
        """Leakage multiplier per temperature, one ``math.exp`` per element."""
        if temperature_c is None:
            temperature_c = self.reference_temperature_c
        if np.ndim(temperature_c) == 0:
            return _exp_clamped(
                (temperature_c - self.reference_temperature_c) / self.leakage_temp_slope_k
            )
        exponent = (
            np.asarray(temperature_c, dtype=float) - self.reference_temperature_c
        ) / self.leakage_temp_slope_k
        return np.array([_exp_clamped(x) for x in exponent.ravel()]).reshape(exponent.shape)

    def _clamp_frequency(self, frequency_ghz: float) -> float:
        return min(max(frequency_ghz, self.core.min_frequency_ghz), self.core.max_frequency_ghz)


def _select(condition: bool, if_true: float, if_false: float) -> float:
    """``np.where`` for one Python scalar."""
    return if_true if condition else if_false


def _exp_clamped(x: float) -> float:
    """``exp(x)`` with the argument clamped to keep thermals numerically sane."""
    return math.exp(min(max(x, -20.0), 20.0))
