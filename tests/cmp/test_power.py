"""The DVFS power model and its inverse."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmp import DVFSPowerModel, RAPL_QUANTUM_WATTS

_freqs = st.floats(min_value=0.8, max_value=4.0)


class TestVoltage:
    def test_envelope_endpoints(self):
        m = DVFSPowerModel()
        assert m.voltage(0.8) == pytest.approx(0.8)
        assert m.voltage(4.0) == pytest.approx(1.2)

    def test_clamped_outside_envelope(self):
        m = DVFSPowerModel()
        assert m.voltage(0.1) == pytest.approx(0.8)
        assert m.voltage(9.0) == pytest.approx(1.2)

    @given(_freqs, _freqs)
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, a, b):
        m = DVFSPowerModel()
        lo, hi = sorted((a, b))
        assert m.voltage(lo) <= m.voltage(hi) + 1e-12


class TestPower:
    def test_dynamic_formula(self):
        m = DVFSPowerModel(effective_capacitance=2.0)
        # activity * C * V^2 * f at the top of the envelope.
        assert m.dynamic_power(4.0, activity=0.5) == pytest.approx(0.5 * 2.0 * 1.44 * 4.0)

    def test_peak_power_exceeds_tdp_share(self):
        # The 65 nm calibration: a fully active 4 GHz core draws well
        # over the 10 W TDP share, making power a contended resource.
        m = DVFSPowerModel()
        assert m.max_power(activity=1.0) > 15.0

    def test_activity_scales_dynamic_only(self):
        m = DVFSPowerModel()
        lo = m.total_power(2.0, activity=0.5)
        hi = m.total_power(2.0, activity=1.0)
        assert hi - lo == pytest.approx(m.dynamic_power(2.0, 0.5))

    @given(_freqs, _freqs)
    @settings(max_examples=60, deadline=None)
    def test_total_power_monotone_in_frequency(self, a, b):
        m = DVFSPowerModel()
        lo, hi = sorted((a, b))
        assert m.total_power(lo) <= m.total_power(hi) + 1e-12

    def test_static_power_grows_with_temperature(self):
        m = DVFSPowerModel()
        assert m.static_power(2.0, 100.0) > m.static_power(2.0, 60.0)

    def test_static_power_reference_point(self):
        m = DVFSPowerModel()
        assert m.static_power(4.0, m.reference_temperature_c) == pytest.approx(
            m.leakage_coefficient * 1.2
        )


class TestInverse:
    @given(_freqs)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, f):
        m = DVFSPowerModel()
        watts = m.total_power(f, activity=0.9)
        assert m.frequency_for_power(watts, activity=0.9) == pytest.approx(f, abs=1e-6)

    def test_underpowered_returns_min_frequency(self):
        m = DVFSPowerModel()
        assert m.frequency_for_power(0.0) == 0.8

    def test_overpowered_returns_max_frequency(self):
        m = DVFSPowerModel()
        assert m.frequency_for_power(1e6) == 4.0

    def test_more_watts_more_frequency(self):
        m = DVFSPowerModel()
        f1 = m.frequency_for_power(5.0)
        f2 = m.frequency_for_power(10.0)
        assert f2 > f1


def _scalar_bisection(m, watts, activity=1.0, temperature_c=None):
    """Oracle: the one-point bisection on dynamic + static power."""

    def power(f):
        return m.dynamic_power(f, activity) + m.static_power(f, temperature_c)

    lo, hi = m.core.min_frequency_ghz, m.core.max_frequency_ghz
    if watts <= power(lo):
        return lo
    if watts >= power(hi):
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if power(mid) <= watts:
            lo = mid
        else:
            hi = mid
    return lo


class TestArrayInverse:
    """Array calls equal the elementwise scalar bisection bit for bit."""

    def test_total_power_is_dynamic_plus_static(self):
        m = DVFSPowerModel()
        for f in (0.1, 0.8, 1.7, 3.33, 4.0, 7.0):
            for temp in (None, 25.0, 95.0):
                assert m.total_power(f, 0.7, temp) == (
                    m.dynamic_power(f, 0.7) + m.static_power(f, temp)
                )

    @pytest.mark.parametrize("temperature_c", [None, 20.0, 45.0, 80.0, 95.0])
    def test_matches_scalar_bisection(self, temperature_c):
        m = DVFSPowerModel()
        rng = np.random.default_rng(3)
        activity = rng.uniform(0.3, 1.2, 300)
        low = np.array([m.min_power(a, temperature_c) for a in activity])
        high = np.array([m.max_power(a, temperature_c) for a in activity])
        watts = np.concatenate(
            [
                rng.uniform(low, high),  # inside the envelope
                low, high,  # exactly at the ends
                low - rng.uniform(0.0, 3.0, low.size),  # below the minimum
                high + rng.uniform(0.0, 3.0, high.size),  # above the maximum
            ]
        )
        activity = np.tile(activity, 5)
        got = m.frequency_for_power(watts, activity, temperature_c)
        want = np.array(
            [_scalar_bisection(m, w, a, temperature_c) for w, a in zip(watts, activity)]
        )
        assert got.shape == watts.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_per_element_temperatures_broadcast(self):
        m = DVFSPowerModel()
        temps = np.linspace(20.0, 95.0, 16)
        watts = np.linspace(3.0, 30.0, 7)[:, None]
        got = m.frequency_for_power(watts, 0.9, temps)
        assert got.shape == (7, 16)
        for i, w in enumerate(watts[:, 0]):
            for j, t in enumerate(temps):
                assert got[i, j] == _scalar_bisection(m, w, 0.9, t)

    def test_scalar_input_returns_a_float(self):
        m = DVFSPowerModel()
        for watts in (0.0, 6.5, 1e6, np.float64(6.5)):
            f = m.frequency_for_power(watts, 0.8, 60.0)
            assert type(f) is float
            assert f == _scalar_bisection(m, float(watts), 0.8, 60.0)


def test_rapl_quantum_matches_intel():
    assert RAPL_QUANTUM_WATTS == 0.125
