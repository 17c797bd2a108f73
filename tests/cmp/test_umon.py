"""UMON shadow tags."""

import numpy as np
import pytest

from repro.cmp import KB, UMONShadowTags
from repro.cmp.config import CACHE_REGION_BYTES


class TestObserve:
    def test_exact_curve_from_known_distances(self):
        umon = UMONShadowTags(max_regions=4, sampling_rate=1)
        region = CACHE_REGION_BYTES
        # Four accesses with distances in buckets 0, 1, 2 and overflow.
        umon.observe(np.array([0.5 * region, 1.5 * region, 2.5 * region, np.inf]))
        curve = umon.miss_curve()
        # With 1 region: only the first access hits -> 3/4 miss.
        np.testing.assert_allclose(curve, [0.75, 0.5, 0.25, 0.25])

    def test_sampling_rate_thins_observations(self):
        umon = UMONShadowTags(max_regions=2, sampling_rate=32)
        umon.observe(np.zeros(3200))
        assert umon.total_accesses == 3200
        assert umon.sampled_accesses == 100

    def test_sampling_rate_spans_batches(self):
        umon = UMONShadowTags(max_regions=2, sampling_rate=32)
        for _ in range(100):
            umon.observe(np.zeros(16))  # batches smaller than the rate
        assert umon.sampled_accesses == 50

    def test_overflow_accounting(self):
        umon = UMONShadowTags(max_regions=2, sampling_rate=1)
        umon.observe(np.array([np.inf, 10 * CACHE_REGION_BYTES, 0.0]))
        assert umon.overflow == 2
        np.testing.assert_allclose(umon.miss_curve(), [2 / 3, 2 / 3])

    def test_reset(self):
        umon = UMONShadowTags(sampling_rate=1)
        umon.observe(np.zeros(10))
        umon.reset()
        assert umon.sampled_accesses == 0
        np.testing.assert_allclose(umon.miss_curve(), 1.0)

    def test_empty_observation(self):
        umon = UMONShadowTags()
        umon.observe(np.array([]))
        assert umon.total_accesses == 0


def _add_at_histogram(distances, max_regions, region_bytes, rate):
    """The np.add.at histogram of every ``rate``-th distance (from index 0)."""
    sampled = np.asarray(distances, dtype=float)[::rate]
    finite = sampled[np.isfinite(sampled)]
    buckets = (finite // region_bytes).astype(np.int64)
    histogram = np.zeros(max_regions, dtype=np.int64)
    np.add.at(histogram, buckets[buckets < max_regions], 1)
    return histogram, sampled.size - int(np.count_nonzero(buckets < max_regions))


def _random_distances(rng, n):
    distances = rng.uniform(0.0, 24 * CACHE_REGION_BYTES, size=n)  # past 16 regions too
    distances[rng.random(n) < 0.1] = np.inf
    return distances


class TestStrideAndRecord:
    def test_observe_is_stride_then_record(self, rng):
        direct = UMONShadowTags(max_regions=16, sampling_rate=32)
        composed = UMONShadowTags(max_regions=16, sampling_rate=32)
        for n in (45, 1, 0, 32, 1000, 77, 31):
            distances = _random_distances(rng, n)
            direct.observe(distances)
            composed.record(distances[composed.stride(n)])
            np.testing.assert_array_equal(direct.hit_histogram, composed.hit_histogram)
            for counter in ("overflow", "sampled_accesses", "total_accesses", "_phase"):
                assert getattr(direct, counter) == getattr(composed, counter), counter

    def test_stride_carries_phase(self):
        umon = UMONShadowTags(sampling_rate=32)
        assert umon.stride(40) == slice(0, 40, 32)
        assert umon.stride(40) == slice(24, 40, 32)
        assert umon.total_accesses == 80
        assert umon.sampled_accesses == 0  # stride only accounts

    @pytest.mark.parametrize("rate", [1, 7, 32])
    def test_bincount_matches_add_at(self, rng, rate):
        distances = _random_distances(rng, 20000)
        umon = UMONShadowTags(max_regions=16, sampling_rate=rate)
        umon.observe(distances)
        histogram, overflow = _add_at_histogram(distances, 16, CACHE_REGION_BYTES, rate)
        assert umon.hit_histogram.dtype == np.int64
        np.testing.assert_array_equal(umon.hit_histogram, histogram)
        assert umon.overflow == overflow


class TestMissCurve:
    def test_monotone_non_increasing(self, rng):
        umon = UMONShadowTags(sampling_rate=1)
        umon.observe(rng.uniform(0, 4 * 1024 * 1024, size=5000))
        curve = umon.miss_curve()
        assert np.all(np.diff(curve) <= 1e-12)

    def test_no_observations_pessimistic(self):
        assert np.all(UMONShadowTags().miss_curve() == 1.0)

    def test_misses_at(self):
        umon = UMONShadowTags(max_regions=4, sampling_rate=1)
        umon.observe(np.array([0.0, np.inf]))
        assert umon.misses_at(1) == pytest.approx(0.5)
        assert umon.misses_at(0) == 1.0
        assert umon.misses_at(99) == pytest.approx(0.5)


class TestOverheads:
    def test_storage_near_paper_figure(self):
        # Section 5: 3.6 kB per core with stack distance 16 and rate 32.
        umon = UMONShadowTags(max_regions=16, sampling_rate=32)
        assert umon.storage_overhead_bytes == pytest.approx(3.6 * 1024, rel=0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            UMONShadowTags(max_regions=0)
        with pytest.raises(ValueError):
            UMONShadowTags(sampling_rate=0)
