"""The per-core runtime utility monitor."""

import dataclasses

import numpy as np
import pytest

from repro.cmp import (
    KB,
    CliffMRC,
    CoreModel,
    FlatMRC,
    MixtureMRC,
    PowerLawMRC,
    RuntimeMonitor,
    cmp_8core,
)
from repro.cmp.application import MissRateCurve
from repro.cmp.monitor import MAX_EPOCH_ACCESSES
from repro.cmp.spec_suite import app_by_name
from repro.exceptions import MarketConfigurationError


@pytest.fixture(scope="module")
def cfg():
    return cmp_8core()


def _monitor(cfg, name="vpr", seed=3, **kwargs):
    core = CoreModel(app_by_name(name), cfg)
    return RuntimeMonitor(core, cfg, rng=np.random.default_rng(seed), **kwargs)


class TestMissCurveEstimation:
    def test_prior_is_pessimistic(self, cfg):
        monitor = _monitor(cfg)
        assert np.all(monitor.miss_curve == 1.0)

    def test_estimate_close_to_true_after_observation(self, cfg):
        monitor = _monitor(cfg)
        for _ in range(6):
            monitor.observe_epoch(2e6)
        true = np.array(
            [
                monitor.core.app.mrc.miss_fraction((k + 1) * cfg.cache_region_bytes)
                for k in range(cfg.umon_max_regions)
            ]
        )
        np.testing.assert_allclose(monitor.miss_curve, true, atol=0.06)

    def test_smoothing_across_epochs(self, cfg):
        monitor = _monitor(cfg, history_weight=0.9)
        monitor.observe_epoch(2e6)
        first = monitor.miss_curve
        monitor.observe_epoch(2e6)
        second = monitor.miss_curve
        # Heavy history weight: the estimate moves slowly.
        assert np.max(np.abs(second - first)) < 0.2

    def test_zero_instruction_epoch_keeps_estimate(self, cfg):
        monitor = _monitor(cfg)
        monitor.observe_epoch(2e6)
        before = monitor.miss_curve
        monitor.observe_epoch(0.0)
        np.testing.assert_allclose(monitor.miss_curve, before)


class TestCpiEstimate:
    def test_noisy_but_near_truth(self, cfg):
        monitor = _monitor(cfg, cpi_noise_std=0.05)
        estimates = []
        for _ in range(30):
            monitor.observe_epoch(1e6)
            estimates.append(monitor.cpi_estimate)
        true = monitor.core.app.cpi_exe
        assert np.mean(estimates) == pytest.approx(true, rel=0.05)
        assert np.std(estimates) > 0.0


class TestEstimatedUtility:
    def test_concave_along_axes(self, cfg):
        monitor = _monitor(cfg, name="mcf")
        for _ in range(3):
            monitor.observe_epoch(2e6)
        u = monitor.estimated_utility()
        assert np.all(np.diff(u.values, n=2, axis=0) <= 1e-9)
        assert np.all(np.diff(u.values, n=2, axis=1) <= 1e-9)

    def test_cached_within_epoch(self, cfg):
        monitor = _monitor(cfg)
        monitor.observe_epoch(2e6)
        assert monitor.estimated_utility() is monitor.estimated_utility()

    def test_invalidated_by_new_epoch(self, cfg):
        monitor = _monitor(cfg)
        monitor.observe_epoch(2e6)
        u1 = monitor.estimated_utility()
        monitor.observe_epoch(2e6)
        assert monitor.estimated_utility() is not u1

    def test_estimate_tracks_true_utility(self, cfg):
        monitor = _monitor(cfg, name="vpr")
        for _ in range(6):
            monitor.observe_epoch(2e6)
        from repro.cmp.utility_builder import build_true_utility, extra_capacity_for

        true = build_true_utility(monitor.core, cfg)
        est = monitor.estimated_utility()
        cache_cap, power_cap = extra_capacity_for(monitor.core, cfg)
        for c in (0.0, cache_cap / 2, cache_cap):
            for p in (0.0, power_cap / 2, power_cap):
                assert est.value((c, p)) == pytest.approx(
                    true.value((c, p)), abs=0.12
                )


class TestValidation:
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -0.1, 3.0])
    def test_rejects_bad_history_weight(self, cfg, weight):
        with pytest.raises(MarketConfigurationError, match="history_weight"):
            _monitor(cfg, history_weight=weight)

    @pytest.mark.parametrize("std", [float("nan"), float("inf"), -0.01])
    def test_rejects_bad_cpi_noise(self, cfg, std):
        with pytest.raises(MarketConfigurationError, match="cpi_noise_std"):
            _monitor(cfg, cpi_noise_std=std)

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_history_weight_bounds_accepted(self, cfg, weight):
        monitor = _monitor(cfg, history_weight=weight, cpi_noise_std=0.0)
        monitor.observe_epoch(2e5)
        assert np.all(np.isfinite(monitor.miss_curve))

    @pytest.mark.parametrize("instructions", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_instructions(self, cfg, instructions):
        monitor = _monitor(cfg)
        with pytest.raises(MarketConfigurationError, match="finite"):
            monitor.observe_epoch(instructions)


# One MRC per family, plus a curve that never misses (ceiling <= 0).
_FAMILIES = {
    "power_law": PowerLawMRC(0.8, 0.1, 256 * KB, 1.2),
    "cliff": CliffMRC(0.9, 0.05, 1536 * KB, 15.0),
    "mixture": MixtureMRC(
        components=(PowerLawMRC(0.7, 0.1, 128 * KB), CliffMRC(0.6, 0.0, 768 * KB)),
        weights=(0.5, 0.5),
    ),
    "flat": FlatMRC(0.4),
    "never_misses": FlatMRC(0.0),
}

# With apki = 1000 an epoch's access count is its instruction count;
# none is a multiple of the sampling rate, so the stride phase carries.
_EPOCH_ACCESSES = (4001, 3333, 777, 12345, 5000, 31)


def _family_monitor(cfg, mrc: MissRateCurve, seed: int = 11) -> RuntimeMonitor:
    app = dataclasses.replace(app_by_name("vpr"), apki=1000.0, mrc=mrc)
    return RuntimeMonitor(CoreModel(app, cfg), cfg, rng=np.random.default_rng(seed))


def _full_stream_observe_epoch(monitor: RuntimeMonitor, instructions: float) -> None:
    """The pre-stride observe_epoch: every access mapped, then 1 in rate kept."""
    accesses = int(instructions * monitor.core.app.apki / 1000.0)
    accesses = min(max(accesses, 0), MAX_EPOCH_ACCESSES)
    if accesses > 0:
        distances = monitor.core.app.mrc.sample_stack_distances(
            monitor.rng, accesses, table=monitor._survival_table
        )
        monitor.umon.reset()
        monitor.umon.observe(distances)
        fresh = monitor.umon.miss_curve()
        if monitor._smoothed_curve is None:
            monitor._smoothed_curve = fresh
        else:
            w = monitor.history_weight
            monitor._smoothed_curve = w * monitor._smoothed_curve + (1.0 - w) * fresh
    noise = 1.0 + monitor.cpi_noise_std * monitor.rng.standard_normal()
    monitor._cpi_estimate = monitor.core.app.cpi_exe * max(noise, 0.5)
    monitor._utility_cache = None


class TestStrideFirstSampling:
    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_bitwise_equal_to_full_stream(self, cfg, family):
        mrc = _FAMILIES[family]
        fast, oracle = _family_monitor(cfg, mrc), _family_monitor(cfg, mrc)
        for instructions in _EPOCH_ACCESSES:
            fast.observe_epoch(float(instructions))
            _full_stream_observe_epoch(oracle, float(instructions))
            np.testing.assert_array_equal(fast.umon.hit_histogram, oracle.umon.hit_histogram)
            for counter in ("overflow", "sampled_accesses", "total_accesses", "_phase"):
                assert getattr(fast.umon, counter) == getattr(oracle.umon, counter), counter
            assert fast.rng.bit_generator.state == oracle.rng.bit_generator.state
            assert fast.miss_curve.tobytes() == oracle.miss_curve.tobytes()
            assert fast.cpi_estimate == oracle.cpi_estimate
        assert fast.umon.sampled_accesses > 0

    def test_maps_only_the_recorded_draws(self, cfg, monkeypatch):
        handed = []
        original = PowerLawMRC.stack_distances

        def spy(self, uniforms, table):
            handed.append(len(uniforms))
            return original(self, uniforms, table)

        monkeypatch.setattr(PowerLawMRC, "stack_distances", spy)
        monitor = _family_monitor(cfg, _FAMILIES["power_law"])
        rate = monitor.umon.sampling_rate
        expected = []
        for accesses in _EPOCH_ACCESSES:
            start = (-monitor.umon._phase) % rate
            expected.append(len(range(start, accesses, rate)))
            monitor.observe_epoch(float(accesses))
        assert handed == expected

    def test_never_missing_curve_draws_only_cpi_noise(self, cfg):
        monitor = _family_monitor(cfg, _FAMILIES["never_misses"], seed=5)
        reference = np.random.default_rng(5)
        monitor.observe_epoch(4001.0)
        reference.standard_normal()
        assert monitor.rng.bit_generator.state == reference.bit_generator.state
        np.testing.assert_array_equal(monitor.miss_curve, 0.0)
