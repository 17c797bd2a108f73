"""Building market utilities from the multicore performance models.

The market operates on *extra* resources beyond each core's free
minimum (one 128 kB cache region, and the power to run at 800 MHz).
This module turns a :class:`~repro.cmp.core_model.CoreModel` — or a
runtime-monitored estimate of one — into a concave, continuous
2-resource utility over ``(extra cache bytes, extra power watts)``:

1. sample normalized performance on a (cache x power) grid;
2. convexify along the cache axis (Talus) and, if the sampled power
   response ever dips from concavity, along the power axis as well;
3. wrap the result in bilinear interpolation.

The convexification passes are iterated until the grid is concave along
both axes, mirroring the paper's "derive the convex hull of cache and
power" step in Section 6.

Whole-chip call sites (the chip, core groups, the monitors and the
simulator) resolve every core's frequency axis in one bisection
(:func:`~repro.cmp.core_model.resolve_frequency_axes`), sample each
core's raw grid (``convexify=False``) and hull all of them with one
stacked :func:`convexify_utilities` call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..utility.convex_hull import upper_hull_values
from ..utility.tabular import GridUtility2D
from .config import CMPConfig
from .core_model import CoreModel

__all__ = [
    "POWER_GRID_POINTS",
    "convexify_grid",
    "convexify_utilities",
    "build_true_utility",
    "build_utility_from_miss_curve",
    "extra_capacity_for",
]

#: Grid resolution along the power axis (cache is sampled per region).
POWER_GRID_POINTS = 17


def extra_capacity_for(core: CoreModel, config: CMPConfig) -> tuple:
    """Per-core caps on purchasable extras: cache bytes and power watts.

    Cache beyond 2 MB total (UMON's limit, footnote 3) and power beyond
    the 4 GHz draw yield no utility, so these are the natural caps.
    """
    cache_cap = float(config.umon_max_bytes - config.cache_region_bytes)
    power_cap = core.max_power_watts() - core.min_power_watts()
    return cache_cap, power_cap


def _cache_axis(config: CMPConfig) -> np.ndarray:
    """Extra cache sampled at whole-region boundaries, 0 to the cap."""
    region = config.cache_region_bytes
    cache_cap = float(config.umon_max_bytes - region)
    return np.arange(int(round(cache_cap / region)) + 1, dtype=float) * region


def convexify_grid(
    cache_axis: np.ndarray,
    power_axis: np.ndarray,
    values: np.ndarray,
    max_passes: int = 6,
) -> np.ndarray:
    """Hull the grid(s) along both axes until concave along each.

    ``values`` is one ``(nx, ny)`` grid over ``power_axis`` ``(ny,)``, or
    a stack of ``G`` grids ``(G, nx, ny)`` with per-grid power axes
    ``(G, ny)``; ``cache_axis`` ``(nx,)`` is shared.  Each pass replaces
    every cache column (power fixed) and then every power row (cache
    fixed) with its upper convex hull evaluated back on the grid — the
    columns and rows of every grid in one lockstep hull each.  Hulling
    can only raise values, and values are bounded by the global maximum,
    so the iteration converges; in practice two passes suffice.  Each
    grid stops after the first pass that moves none of its values by
    more than 1e-12, so a grid's result does not depend on the grids
    stacked with it.
    """
    cache_axis = np.asarray(cache_axis, dtype=float)
    single = np.ndim(values) == 2
    out = np.array(values, dtype=float, ndmin=3)
    num_grids, nx, ny = out.shape
    power_axes = np.broadcast_to(np.asarray(power_axis, dtype=float), (num_grids, ny))
    if np.any(np.diff(cache_axis) <= 0) or np.any(np.diff(power_axes, axis=1) <= 0):
        raise ValueError("grid axes must be strictly increasing")
    live = np.arange(num_grids)
    for _ in range(max_passes):
        before = out[live]
        columns = before.transpose(0, 2, 1).reshape(-1, nx)
        grids = upper_hull_values(cache_axis, columns).reshape(-1, ny, nx)
        rows = grids.transpose(0, 2, 1).reshape(-1, ny)
        row_axes = np.repeat(power_axes[live], nx, axis=0)
        grids = upper_hull_values(row_axes, rows).reshape(-1, nx, ny)
        out[live] = grids
        settled = np.isclose(before, grids, rtol=0.0, atol=1e-12).all(axis=(1, 2))
        live = live[~settled]
        if live.size == 0:
            break
    return out[0] if single else out


def convexify_utilities(grids: Sequence[GridUtility2D]) -> List[GridUtility2D]:
    """Talus-convexify sampled grid utilities with one stacked hull call.

    The grids must share their cache axis (every core of one chip does);
    their power axes may differ.  Equal to calling
    :func:`convexify_grid` on each grid alone.
    """
    if not grids:
        return []
    cache_axis = grids[0].xs
    if any(not np.array_equal(g.xs, cache_axis) for g in grids):
        raise ValueError("stacked grids must share the cache axis")
    hulled = convexify_grid(
        cache_axis,
        np.stack([g.ys for g in grids]),
        np.stack([g.values for g in grids]),
    )
    return [GridUtility2D(g.xs, g.ys, v) for g, v in zip(grids, hulled)]


def build_true_utility(
    core: CoreModel,
    config: CMPConfig,
    convexify: bool = True,
    power_points: int = POWER_GRID_POINTS,
) -> GridUtility2D:
    """The "perfectly modeled" utility of phase-1 (Section 6).

    Evaluates the analytic core model exactly and (by default) applies
    the Talus-style convexification, producing the concave continuous
    utility over extras that the theory requires.

    The grid is evaluated in vectorized form: the frequencies come from
    the core's cached frequency axis and the compute/memory
    decomposition is separable, so the (cache x power) surface is an
    outer combination of two 1-D arrays.
    """
    min_cache = float(config.cache_region_bytes)
    cache_axis = _cache_axis(config)
    power_axis = core.extra_power_axis(power_points)
    frequencies = core.frequency_axis(power_points)
    monitor_cap = float(config.umon_max_bytes)
    memory_ns = np.array(
        [
            core.app.misses_per_instruction(min(min_cache + c, monitor_cap))
            * core.memory_latency_ns
            for c in cache_axis
        ]
    )
    compute_ns = core.app.cpi_exe / frequencies
    # perf[i, j] = 1 / (compute(f_j) + memory(s_i)); utility normalizes.
    values = 1.0 / (compute_ns[None, :] + memory_ns[:, None])
    values /= core.alone_performance_gips

    if convexify:
        values = convexify_grid(cache_axis, power_axis, values)
    return GridUtility2D(cache_axis, power_axis, values)


def build_utility_from_miss_curve(
    core: CoreModel,
    config: CMPConfig,
    miss_curve: np.ndarray,
    cpi_estimate: Optional[float] = None,
    convexify: bool = True,
    power_points: int = POWER_GRID_POINTS,
) -> GridUtility2D:
    """Phase-2 utility from a *monitored* miss curve (UMON output).

    ``miss_curve[k]`` is the estimated miss fraction with ``k+1``
    regions.  The compute-phase CPI may also be an estimate; the power
    model and DRAM latency are shared with the true model (the paper
    estimates them with Isci-style counters, whose error is small
    relative to MRC sampling noise).
    """
    cpi = core.app.cpi_exe if cpi_estimate is None else cpi_estimate
    apki = core.app.apki
    latency = core.memory_latency_ns
    region = config.cache_region_bytes
    max_regions = miss_curve.size
    cache_axis = _cache_axis(config)
    power_axis = core.extra_power_axis(power_points)

    region_indices = np.clip((region + cache_axis) / region, 1.0, float(max_regions))
    miss = np.interp(region_indices, np.arange(1, max_regions + 1), miss_curve)
    memory_ns = apki / 1000.0 * miss * latency
    frequencies = core.frequency_axis(power_points)
    compute_ns = cpi / frequencies
    values = 1.0 / (compute_ns[None, :] + memory_ns[:, None])

    # Normalize by the *estimated* standalone performance (the paper's
    # monitors never see the true one).
    alone = 1.0 / (
        cpi / config.core.max_frequency_ghz
        + apki / 1000.0 * miss_curve[-1] * latency
    )
    values /= alone

    if convexify:
        values = convexify_grid(cache_axis, power_axis, values)
    return GridUtility2D(cache_axis, power_axis, values)
