"""Serial-vs-parallel benchmark of the Fig-4 sweep executor.

:func:`run_sweep_bench` runs the same analytic (phase-1) reference
sweep twice — once serially (``workers=1``) and once sharded over a
worker pool — wall-clocks both, and verifies the executor's determinism
contract: the parallel scores must be *identical* to the serial ones
(same seed, same submission order, same per-cell entropy).

The headline numbers land in ``BENCH_sweep_parallel.json`` at the
repository root (written by ``scripts/bench_sweep.py`` and
``benchmarks/test_sweep_parallel.py``).  The speedup is a property of
the host: it approaches the worker count on an otherwise-idle multicore
machine and degrades to ~1x when the cells are time-sliced onto a
single CPU, so the JSON records the machine context
(``cpu_count``/``usable_cpus``) alongside the measurement.
"""

from __future__ import annotations

import math
import os
import time
from typing import Callable, Optional, Sequence

import numpy as np

from ..cmp.config import CMPConfig, cmp_8core
from ..exec import usable_cpus
from .experiments import SweepResult, run_analytic_sweep

__all__ = [
    "DEFAULT_CATEGORIES",
    "run_sweep_bench",
    "sweep_fingerprint",
    "sweeps_identical",
]

#: Reference sweep shape: Fig-4 structure at a size a CI smoke can afford.
DEFAULT_CATEGORIES = ("CPBN", "BBPN")


def sweep_fingerprint(sweep: SweepResult) -> dict:
    """Every score of a sweep, flattened to comparable floats.

    Keys are ``bundle/mechanism``; values carry the metrics that define
    a :class:`~repro.analysis.BundleScore` plus the full allocation
    matrix, so two fingerprints are equal iff the sweeps agree exactly.
    """
    out = {}
    for score in sweep.scores:
        for mech, result in score.results.items():
            out[f"{score.bundle}/{mech}"] = {
                "efficiency": float(result.efficiency),
                "envy_freeness": float(result.envy_freeness),
                "iterations": int(result.iterations),
                "allocations": np.asarray(result.allocations),
            }
    return out


def sweeps_identical(a: SweepResult, b: SweepResult) -> tuple:
    """``(identical, max_abs_divergence)`` between two sweeps' scores."""
    fa, fb = sweep_fingerprint(a), sweep_fingerprint(b)
    if set(fa) != set(fb):
        return False, float("inf")
    worst = 0.0
    identical = True
    for key, cell in fa.items():
        other = fb[key]
        for metric in ("efficiency", "envy_freeness", "iterations"):
            a_val, b_val = float(cell[metric]), float(other[metric])
            worst = max(worst, abs(a_val - b_val))
            # The executor's determinism contract is *bitwise* score
            # identity between workers=1 and workers=N, so the identity
            # test is exact on purpose: isclose with zero tolerances is
            # `a == b` spelled so the zero tolerance is explicit (and
            # REPRO101-clean), not an accidental fp comparison.
            if not math.isclose(a_val, b_val, rel_tol=0.0, abs_tol=0.0):
                identical = False
        if not np.array_equal(cell["allocations"], other["allocations"]):
            identical = False
            worst = max(
                worst,
                float(np.max(np.abs(cell["allocations"] - other["allocations"]))),
            )
    return identical, worst


def run_sweep_bench(
    config: Optional[CMPConfig] = None,
    bundles_per_category: int = 3,
    categories: Sequence[str] = DEFAULT_CATEGORIES,
    workers: int = 4,
    seed: int = 2016,
    mechanisms_factory: Optional[Callable] = None,
) -> dict:
    """Measure the reference Fig-4-style sweep serially and in parallel.

    Returns a JSON-ready dict: per-arm wall-clocks, the speedup, the
    determinism verdict (``identical`` must always be True), failure
    counts, and the host context the speedup was measured under.
    """
    config = config or cmp_8core()

    t0 = time.perf_counter()
    serial = run_analytic_sweep(
        config=config,
        bundles_per_category=bundles_per_category,
        categories=categories,
        mechanisms_factory=mechanisms_factory,
        seed=seed,
        workers=1,
    )
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_analytic_sweep(
        config=config,
        bundles_per_category=bundles_per_category,
        categories=categories,
        mechanisms_factory=mechanisms_factory,
        seed=seed,
        workers=workers,
    )
    parallel_s = time.perf_counter() - t0

    identical, divergence = sweeps_identical(serial, parallel)
    mechanisms = serial.mechanisms
    return {
        "sweep": {
            "num_cores": config.num_cores,
            "bundles_per_category": bundles_per_category,
            "categories": list(categories),
            "mechanisms": mechanisms,
            "cells": len(serial.scores) * len(mechanisms),
            "seed": seed,
        },
        "serial": {"workers": 1, "wall_s": serial_s},
        "parallel": {"workers": workers, "wall_s": parallel_s},
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
        "identical": bool(identical),
        "max_abs_divergence": float(divergence),
        "failures": len(serial.failures) + len(parallel.failures),
        "machine": {
            "cpu_count": os.cpu_count() or 1,
            "usable_cpus": usable_cpus(),
        },
    }
