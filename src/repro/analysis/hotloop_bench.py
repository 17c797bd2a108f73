"""Scalar-vs-batched hot-loop benchmark (the vectorization's receipts).

Every equilibrium search spends its time in per-player hill climbs, and
every climb step used to pay a chain of scalar Python calls into the
utility layer.  This module measures what the batched evaluation path
(:class:`~repro.core.bidding.VectorHillClimbBidder` over a
:class:`~repro.utility.batch.BatchedUtilitySet`) buys on Fig-4-sized
problems: per-equilibrium wall time and — via the
:class:`~repro.utility.base.EvalCounters` tallies every
:class:`~repro.core.equilibrium.EquilibriumResult` now carries —
Python-level utility-call counts for the scalar and lockstep paths.

Equivalence is checked alongside speed: the lockstep climb mirrors the
scalar arithmetic operation for operation, so bids, allocations,
iteration counts, and price-convergence flags must agree (allocations to
:data:`~repro.core.bidding.LOCKSTEP_TOLERANCE` of capacity; flags
exactly).

``run_hotloop_bench`` returns a JSON-ready dict;
``scripts/bench_hotloop.py`` and ``benchmarks/test_hotloop.py`` both
feed from it.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cmp import ChipModel, CMPConfig, cmp_8core
from repro.core.bidding import LOCKSTEP_TOLERANCE, HillClimbBidder, VectorHillClimbBidder
from repro.core.equilibrium import find_equilibrium
from repro.core.rebudget import ReBudgetConfig, run_rebudget
from repro.exec import usable_cpus
from repro.workloads import generate_bundles, paper_bbpc_bundle

__all__ = ["DEFAULT_CATEGORIES", "run_hotloop_bench"]

#: Fig-4 workload categories benchmarked beside the paper's headline
#: bbpc mix (letters: Cache-, Power-sensitive, Both, Neither).
DEFAULT_CATEGORIES = ("CCCC", "PPPP", "BBNN", "CPBN")


def _timed_equilibria(market, bidder, repeats: int):
    """Best-of-``repeats`` cold equilibrium solve with the given bidder."""
    best = np.inf
    total = 0.0
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = find_equilibrium(market, bidder=bidder)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        total += elapsed
    return result, best, total / repeats


def _side_record(result, best: float, mean: float) -> Dict:
    counts = result.eval_counts
    return {
        "wall_ms_best": best * 1e3,
        "wall_ms_mean": mean * 1e3,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "utility_calls": counts["total_calls"],
        "eval_counts": counts,
    }


def run_hotloop_bench(
    config: Optional[CMPConfig] = None,
    categories: Sequence[str] = DEFAULT_CATEGORIES,
    repeats: int = 5,
    rebudget_rounds: int = 32,
    seed: int = 2016,
) -> Dict:
    """Benchmark scalar vs. lockstep equilibrium solves per Fig-4 bundle.

    For every bundle the same cold market is solved ``repeats`` times
    with the scalar :class:`HillClimbBidder` and with the lockstep
    :class:`VectorHillClimbBidder`; we record best/mean wall time, the
    utility-call tallies from ``EquilibriumResult.eval_counts``, and the
    divergence between the two solutions.  The dominant cell (the bbpc
    reference bundle) additionally times a full ReBudget run — the
    mechanism the epoch simulator spends its time in — under both
    bidders.
    """
    config = config or cmp_8core()
    problems = [("bbpc", paper_bbpc_bundle())]
    for index, category in enumerate(categories):
        bundle = generate_bundles(category, config.num_cores, count=1, seed=seed + index)[0]
        problems.append((category, bundle))

    scalar_bidder = HillClimbBidder()
    vector_bidder = VectorHillClimbBidder()
    per_problem: Dict[str, Dict] = {}
    scalar_calls_total = 0
    vector_calls_total = 0
    scalar_wall_total = 0.0
    vector_wall_total = 0.0
    worst_divergence = 0.0
    all_flags_match = True

    for name, bundle in problems:
        problem = ChipModel(config, bundle.apps).build_problem()
        market = problem.build_market(np.full(problem.num_players, 1.0))

        scalar_result, scalar_best, scalar_mean = _timed_equilibria(
            market, scalar_bidder, repeats
        )
        vector_result, vector_best, vector_mean = _timed_equilibria(
            market, vector_bidder, repeats
        )

        divergence = float(
            np.max(
                np.abs(vector_result.state.allocations - scalar_result.state.allocations)
                / market.capacities
            )
        )
        flags_match = (
            vector_result.converged == scalar_result.converged
            and vector_result.iterations == scalar_result.iterations
        )
        scalar_side = _side_record(scalar_result, scalar_best, scalar_mean)
        vector_side = _side_record(vector_result, vector_best, vector_mean)
        per_problem[name] = {
            "bundle": bundle.name,
            "num_players": problem.num_players,
            "num_resources": problem.num_resources,
            "scalar": scalar_side,
            "vector": vector_side,
            "call_reduction": scalar_side["utility_calls"]
            / max(vector_side["utility_calls"], 1),
            "wallclock_speedup": scalar_best / vector_best,
            "max_allocation_divergence": divergence,
            "bids_bitwise_equal": bool(
                np.array_equal(vector_result.state.bids, scalar_result.state.bids)
            ),
            "flags_match": bool(flags_match),
        }
        scalar_calls_total += scalar_side["utility_calls"]
        vector_calls_total += vector_side["utility_calls"]
        scalar_wall_total += scalar_best
        vector_wall_total += vector_best
        worst_divergence = max(worst_divergence, divergence)
        all_flags_match = all_flags_match and flags_match

    # ReBudget on a dominant multi-round cell: a cache-heavy/insensitive
    # split whose lambda spread forces several cut rounds (the bbpc mix
    # is balanced enough that ReBudget-40 accepts the first equilibrium),
    # ReBudget-40 config, warm-started round to round, under each bidder.
    rebudget_bundle = generate_bundles("CCNN", config.num_cores, count=1, seed=seed)[0]
    problem = ChipModel(config, rebudget_bundle.apps).build_problem()
    rebudget_config = ReBudgetConfig(step=40.0, max_rounds=rebudget_rounds)
    rebudget = {}
    for label, bidder in (("scalar", HillClimbBidder()), ("vector", VectorHillClimbBidder())):
        market = problem.build_market(
            np.full(problem.num_players, rebudget_config.initial_budget)
        )
        start = time.perf_counter()
        result = run_rebudget(market, config=rebudget_config, bidder=bidder)
        elapsed = time.perf_counter() - start
        rebudget[label] = {
            "wall_ms": elapsed * 1e3,
            "rounds": len(result.rounds),
            "final_budgets": [float(b) for b in result.final_budgets],
        }
    rebudget["wallclock_speedup"] = rebudget["scalar"]["wall_ms"] / rebudget["vector"]["wall_ms"]
    rebudget["budgets_match"] = bool(
        np.allclose(
            rebudget["scalar"]["final_budgets"],
            rebudget["vector"]["final_budgets"],
            rtol=0.0,
            atol=1e-9 * rebudget_config.initial_budget,
        )
    )

    return {
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "usable_cpus": usable_cpus(),
        },
        "config": {
            "num_cores": config.num_cores,
            "repeats": repeats,
            "categories": list(categories),
            "allocation_tolerance": LOCKSTEP_TOLERANCE,
        },
        "problems": per_problem,
        "rebudget": rebudget,
        "overall": {
            "scalar_utility_calls": scalar_calls_total,
            "vector_utility_calls": vector_calls_total,
            "call_reduction": scalar_calls_total / max(vector_calls_total, 1),
            "scalar_wall_ms": scalar_wall_total * 1e3,
            "vector_wall_ms": vector_wall_total * 1e3,
            "wallclock_speedup": scalar_wall_total / max(vector_wall_total, 1e-12),
            "max_allocation_divergence": worst_divergence,
            "all_flags_match": bool(all_flags_match),
        },
    }
