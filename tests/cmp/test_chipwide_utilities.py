"""Chip-wide utility construction: stacked Talus hulls, cached frequency
axes and the builders that use them, each against a per-core oracle."""

import numpy as np
import pytest

from repro.cmp import ChipModel, CoreModel, cmp_8core, cmp_64core
from repro.cmp.monitor import RuntimeMonitor, estimated_utilities
from repro.cmp.spec_suite import app_by_name
from repro.cmp.utility_builder import (
    POWER_GRID_POINTS,
    build_true_utility,
    build_utility_from_miss_curve,
    convexify_grid,
    convexify_utilities,
)
from repro.cmp.groups import build_grouped_problem
from repro.sim import ContextSwitch, ExecutionDrivenSimulator, SimulationConfig
from repro.core import EqualBudget
from repro.utility import GridUtility2D
from repro.workloads import generate_bundles, paper_bbpc_bundle


def _scalar_hull(xs, ys):
    """The one-curve monotone chain, as a plain Python loop."""
    stack = []
    for k in range(xs.size):
        while len(stack) >= 2:
            a, b = stack[-2], stack[-1]
            cross = (xs[b] - xs[a]) * (ys[k] - ys[a]) - (ys[b] - ys[a]) * (xs[k] - xs[a])
            if cross < 0.0:
                break
            stack.pop()
        stack.append(k)
    return xs[stack], ys[stack]


def _scalar_convexify(cache_axis, power_axis, values, max_passes=6):
    """The per-line hull loop: one hull and one np.interp per column/row.

    Returns the grid and the number of passes it ran.
    """
    out = values.copy()
    for passes in range(1, max_passes + 1):
        before = out.copy()
        for j in range(power_axis.size):
            out[:, j] = np.interp(cache_axis, *_scalar_hull(cache_axis, out[:, j]))
        for i in range(cache_axis.size):
            out[i, :] = np.interp(power_axis, *_scalar_hull(power_axis, out[i, :]))
        if np.allclose(before, out, rtol=0.0, atol=1e-12):
            break
    return out, passes


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


@pytest.fixture(scope="module")
def cfg():
    return cmp_8core()


def _grid_zoo(cfg, rng):
    """Grids over one cache axis with per-grid power axes, of every shape
    the hull meets: random, tied/collinear, flat, cliffy, monotone."""
    raw = [
        build_true_utility(CoreModel(app_by_name(name), cfg), cfg, convexify=False)
        for name in ("mcf", "libquantum", "vpr", "hmmer")
    ]
    cache_axis = raw[0].xs
    nx, ny = raw[0].values.shape
    power_axes = [u.ys for u in raw]
    grids = [u.values for u in raw]  # mcf is the cliffy one
    grids.append(rng.random((nx, ny)))
    grids.append(np.round(rng.random((nx, ny)) * 3.0) / 3.0)  # ties
    grids.append(np.add.outer(np.arange(nx), np.arange(ny)) * 0.25)  # collinear
    grids.append(np.full((nx, ny), 0.7))  # flat
    grids.append(np.add.outer(np.sqrt(np.arange(nx)), np.log1p(np.arange(ny))))
    grids.append(np.where(np.arange(nx)[:, None] >= nx // 2, 1.0, 0.2) + 0 * np.arange(ny))
    for k in range(len(power_axes), len(grids)):
        power_axes.append(np.cumsum(rng.random(ny) + 0.05) - 0.05)
    return cache_axis, np.array(power_axes), np.array(grids)


class TestStackedConvexifyGrid:
    def test_stack_equals_the_per_line_oracle_bitwise(self, cfg):
        cache_axis, power_axes, grids = _grid_zoo(cfg, np.random.default_rng(7))
        stacked = convexify_grid(cache_axis, power_axes, grids)
        passes = set()
        for g in range(grids.shape[0]):
            want, ran = _scalar_convexify(cache_axis, power_axes[g], grids[g])
            passes.add(ran)
            _assert_bitwise(stacked[g], want)
            _assert_bitwise(convexify_grid(cache_axis, power_axes[g], grids[g]), want)
        # Grids that settle on different passes share the call.
        assert len(passes) >= 2

    def test_random_stacks_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            num, nx, ny = rng.integers(1, 6), rng.integers(1, 9), rng.integers(1, 9)
            cache_axis = np.cumsum(rng.random(nx) + 0.01)
            power_axes = np.cumsum(rng.random((num, ny)) + 0.01, axis=1)
            grids = rng.random((num, nx, ny))
            grids[rng.random(grids.shape) < 0.3] = 0.5  # plateaus and ties
            stacked = convexify_grid(cache_axis, power_axes, grids)
            for g in range(num):
                want, _ = _scalar_convexify(cache_axis, power_axes[g], grids[g])
                _assert_bitwise(stacked[g], want)

    def test_one_sample_power_axis(self, cfg):
        # analysis.experiments hulls 1-D cache curves as (n, 1) grids.
        core = CoreModel(app_by_name("mcf"), cfg)
        regions = np.arange(1, cfg.umon_max_regions + 1, dtype=float)
        raw = np.array([core.utility(r * cfg.cache_region_bytes, 4.0) for r in regions])
        got = convexify_grid(regions, np.array([0.0]), raw[:, None])
        want, _ = _scalar_convexify(regions, np.array([0.0]), raw[:, None])
        _assert_bitwise(got, want)
        assert np.all(got[:, 0] >= raw)

    def test_input_is_not_modified(self, cfg):
        cache_axis, power_axes, grids = _grid_zoo(cfg, np.random.default_rng(3))
        before = grids.copy()
        convexify_grid(cache_axis, power_axes, grids)
        _assert_bitwise(grids, before)

    def test_rejects_non_increasing_axes(self):
        with pytest.raises(ValueError):
            convexify_grid(np.array([0.0, 0.0]), np.arange(2.0), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            convexify_grid(np.arange(2.0), np.array([[0.0, 1.0], [1.0, 0.5]]), np.zeros((2, 2, 2)))

    def test_convexify_utilities_matches_per_grid_builds(self, cfg):
        cores = [CoreModel(app, cfg) for app in paper_bbpc_bundle().apps]
        raw = [build_true_utility(c, cfg, convexify=False) for c in cores]
        for got, core in zip(convexify_utilities(raw), cores):
            want = build_true_utility(core, cfg)
            _assert_bitwise(got.values, want.values)
            _assert_bitwise(got.ys, want.ys)

    def test_convexify_utilities_needs_one_cache_axis(self, cfg):
        u = build_true_utility(CoreModel(app_by_name("vpr"), cfg), cfg, convexify=False)
        other = GridUtility2D(u.xs * 2.0, u.ys, u.values)
        with pytest.raises(ValueError):
            convexify_utilities([u, other])


def _scalar_axis(core, power_points=POWER_GRID_POINTS):
    """The per-point scalar inversion the frequency axis replaces."""
    watts = core.min_power_watts() + core.extra_power_axis(power_points)
    return np.array([core.frequency_for_power(w) for w in watts])


class TestFrequencyAxisCache:
    def test_cached_axis_equals_an_uncached_rebuild(self, cfg):
        core = CoreModel(app_by_name("hmmer"), cfg)
        first = core.frequency_axis(POWER_GRID_POINTS)
        again = core.frequency_axis(POWER_GRID_POINTS)
        _assert_bitwise(first, again)
        _assert_bitwise(first, _scalar_axis(core))
        _assert_bitwise(first, CoreModel(app_by_name("hmmer"), cfg).frequency_axis(17))
        _assert_bitwise(core.frequency_axis(5), _scalar_axis(core, 5))

    def test_callers_cannot_corrupt_the_cache(self, cfg):
        core = CoreModel(app_by_name("hmmer"), cfg)
        core.frequency_axis(POWER_GRID_POINTS)[:] = 0.0
        _assert_bitwise(core.frequency_axis(POWER_GRID_POINTS), _scalar_axis(core))

    def test_temperature_calls_are_never_served_from_the_cache(self, cfg):
        core = CoreModel(app_by_name("hmmer"), cfg)
        axis = core.frequency_axis(POWER_GRID_POINTS)
        watts = core.min_power_watts() + core.extra_power_axis(POWER_GRID_POINTS)
        hot = np.array([core.frequency_for_power(w, temperature_c=95.0) for w in watts])
        model = core.power_model
        want = np.array(
            [model.frequency_for_power(w, core.app.activity, 95.0) for w in watts]
        )
        _assert_bitwise(hot, want)
        # Hotter silicon leaks more, so the same watts buy less frequency.
        assert np.all(hot[1:] < axis[1:])

    def test_chip_resolution_equals_per_core(self):
        bundle = generate_bundles("CPBN", 64, count=1, seed=2)[0]
        chip = ChipModel(cmp_64core(), bundle.apps)
        chip.build_problem()
        for core in chip.cores:
            _assert_bitwise(core.frequency_axis(POWER_GRID_POINTS), _scalar_axis(core))

    def test_context_switch_gets_its_own_axis(self, cfg):
        chip = ChipModel(cfg, paper_bbpc_bundle().apps)
        incoming = app_by_name("povray")
        assert incoming.activity != chip.cores[0].app.activity
        sim = ExecutionDrivenSimulator(
            chip,
            EqualBudget(),
            SimulationConfig(
                duration_ms=3.0, seed=5, context_switches=(ContextSwitch(1.0, 0, incoming),)
            ),
        )
        sim.run()
        old, new = chip.cores[0], sim._cores[0]
        assert new is not old and new.app is incoming
        _assert_bitwise(new.frequency_axis(POWER_GRID_POINTS), _scalar_axis(new))
        assert not np.array_equal(
            new.frequency_axis(POWER_GRID_POINTS), old.frequency_axis(POWER_GRID_POINTS)
        )


class TestChipWideBuilders:
    def test_build_problem_equals_per_core_builds(self, cfg):
        chip = ChipModel(cfg, paper_bbpc_bundle().apps)
        for convexify in (True, False):
            problem = chip.build_problem(convexify=convexify)
            for got, core in zip(problem.utilities, chip.cores):
                want = build_true_utility(core, cfg, convexify=convexify)
                _assert_bitwise(got.values, want.values)

    def test_grouped_problem_members_equal_per_core_builds(self, cfg):
        chip = ChipModel(cfg, paper_bbpc_bundle().apps)
        problem = build_grouped_problem(chip, [0, 0, 1, 1, 2, 2, 3, 3])
        members = [m for group in problem.utilities for m in group.members]
        for got, core in zip(members, chip.cores):
            _assert_bitwise(got.values, build_true_utility(core, cfg).values)

    def test_monitors_fill_their_caches_with_per_core_builds(self, cfg):
        chip = ChipModel(cfg, paper_bbpc_bundle().apps)
        monitors = [
            RuntimeMonitor(core, cfg, rng=np.random.default_rng(i))
            for i, core in enumerate(chip.cores)
        ]
        for monitor in monitors:
            monitor.observe_epoch(2e6)
        utilities = estimated_utilities(monitors)
        for monitor, got in zip(monitors, utilities):
            want = build_utility_from_miss_curve(
                monitor.core, cfg, monitor.miss_curve, cpi_estimate=monitor.cpi_estimate
            )
            _assert_bitwise(got.values, want.values)
            assert monitor.estimated_utility() is got
        # Only the monitors that observed a new epoch are rebuilt.
        monitors[3].observe_epoch(2e6)
        again = estimated_utilities(monitors)
        assert [a is b for a, b in zip(again, utilities)] == [
            i != 3 for i in range(len(monitors))
        ]
