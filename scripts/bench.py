"""Side benchmarks of three layers, one registered scenario each.

* ``warmstart`` — cold vs. warm equilibrium cost on a Fig-5-style run
  (the Section 6.4 warm starts).
* ``hotloop`` — scalar vs. lockstep equilibrium solves on Fig-4-sized
  problems (the Section 4.1.2 hill climb).
* ``sweep`` — the Fig-4 sweep executor, serial vs. a worker pool.

Each scenario is three functions: ``run(full, check)`` measures and
returns the JSON record, ``gates(record)`` names every failed gate and
``summary(record)`` returns the printed lines.  Every record starts
with the same header: ``scenario``, ``host`` (``cpu_count``,
``usable_cpus``) and ``config``.

Usage::

    python scripts/bench.py warmstart            # default 8-core shape
    python scripts/bench.py hotloop --full       # 64-core chips
    python scripts/bench.py sweep --check        # CI smoke: exit 1 when
                                                 # any gate fails

The record goes to ``BENCH_<file>.json`` at the repository root
(``--output`` overrides).  ``--check`` runs each scenario's CI shape,
which is its default shape except for the sweep's 1-bundle, 2-worker
one.  ``benchmarks/test_bench.py`` runs the same scenarios under
pytest-benchmark.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.analysis.experiments import run_analytic_sweep, sweeps_identical  # noqa: E402
from repro.cmp import ChipModel, cmp_8core, cmp_64core  # noqa: E402
from repro.core.bidding import (  # noqa: E402
    LOCKSTEP_TOLERANCE,
    HillClimbBidder,
    VectorHillClimbBidder,
)
from repro.core.equilibrium import find_equilibrium  # noqa: E402
from repro.core.mechanisms import EqualBudget, ReBudgetMechanism  # noqa: E402
from repro.core.rebudget import ReBudgetConfig, run_rebudget  # noqa: E402
from repro.exec import usable_cpus  # noqa: E402
from repro.sim import ExecutionDrivenSimulator, SimulationConfig  # noqa: E402
from repro.workloads import (  # noqa: E402
    BUNDLE_CATEGORIES,
    Bundle,
    generate_bundles,
    paper_bbpc_bundle,
)

__all__ = ["SCENARIOS", "Scenario", "ColdVsWarmProbe", "main"]

_SEED = 2016


class Scenario(NamedTuple):
    """One benchmark: its ``BENCH_<file>.json`` name and three functions."""

    file: str
    run: Callable[[bool, bool], Dict]
    gates: Callable[[Dict], List[str]]
    summary: Callable[[Dict], List[str]]


def _record(scenario: str, config: Dict, **body) -> Dict:
    """The shared header, then the scenario's own sections."""
    host = {"cpu_count": os.cpu_count() or 1, "usable_cpus": usable_cpus()}
    return {"scenario": scenario, "host": host, "config": config, **body}


def _failed(checks: Dict[str, bool]) -> List[str]:
    return [name for name, ok in checks.items() if not ok]


def _savings(side: Dict) -> float:
    return 1.0 - side["warm_iterations"] / side["cold_iterations"]


def _bbpc_bundle(config) -> Bundle:
    """The paper's 8-app bbpc mix, repeated to fill the chip."""
    bundle = paper_bbpc_bundle()
    copies = config.num_cores // bundle.num_cores
    return dataclasses.replace(bundle, apps=bundle.apps * copies)


def _capacity_divergence(a: np.ndarray, b: np.ndarray, capacities) -> float:
    """max_ij |a - b| / capacity_j over two allocation matrices."""
    return float((np.abs(a - b) / capacities).max())


def _price_divergence(warm, cold) -> float:
    """max_j |p_warm - p_cold| / p_cold, the paper's convergence metric.

    NaN for price-less mechanisms.
    """
    warm_prices, cold_prices = warm.details.get("prices"), cold.details.get("prices")
    if warm_prices is None or cold_prices is None:
        return float("nan")
    return float((np.abs(warm_prices - cold_prices) / cold_prices).max())


# ----------------------------------------------------------------------
# warmstart: cold vs. warm equilibrium cost
# ----------------------------------------------------------------------


class ColdVsWarmProbe:
    """Mechanism wrapper that shadows every allocate with a cold solve.

    Quacks like an :class:`AllocationMechanism` as far as the simulator
    is concerned (``name``, ``allocate``, ``reset_warm_state``).  The
    warm mechanism's result is returned, so the simulated trajectory is
    the warm one; the cold mechanism is rebuilt from ``factory`` on
    every call so it can never carry state, and solves a copy of the
    problem so the warm mechanism's cold first epoch cannot take its
    search from the problem's cold-equilibrium memo.

    ``records`` holds one row per reallocation: cold and warm
    iterations, cold and warm seconds, the allocation divergence as a
    fraction of capacity, and the relative price divergence.
    """

    def __init__(self, factory: Callable):
        self.factory = factory
        self.warm_mechanism = factory()
        self.name = self.warm_mechanism.name
        self.records: List[tuple] = []

    def reset_warm_state(self) -> None:
        self.warm_mechanism.reset_warm_state()

    def allocate(self, problem):
        cold_mechanism = self.factory()
        t0 = time.perf_counter()
        cold = cold_mechanism.allocate(dataclasses.replace(problem))
        t1 = time.perf_counter()
        warm = self.warm_mechanism.allocate(problem)
        t2 = time.perf_counter()
        self.records.append(
            (
                cold.iterations,
                warm.iterations,
                t1 - t0,
                t2 - t1,
                _capacity_divergence(
                    warm.allocations, cold.allocations, problem.capacities
                ),
                _price_divergence(warm, cold),
            )
        )
        return warm


def _probe_summary(records: List[tuple]) -> Dict:
    cold_it, warm_it, cold_s, warm_s, divergence, price = (
        list(column) for column in zip(*records)
    )
    side = {
        "epochs": len(records),
        "cold_iterations": sum(cold_it),
        "warm_iterations": sum(warm_it),
    }
    side["iteration_savings"] = _savings(side)
    side["cold_seconds"] = sum(cold_s)
    side["warm_seconds"] = sum(warm_s)
    side["wallclock_speedup"] = side["cold_seconds"] / side["warm_seconds"]
    side["max_divergence"] = max(divergence)
    side["mean_divergence"] = float(np.mean(divergence))
    side["max_price_divergence"] = float(np.nanmax(price))
    side["mean_price_divergence"] = float(np.nanmean(price))
    return side


def _reference_invariance(config) -> Dict:
    """Warm-vs-cold on the paper's Figure-5 reference problem.

    The same static problem (the bbpc example bundle, true utilities —
    no monitoring drift) is solved cold and then warm from the cold
    result.  This isolates the invariance claim from workload dynamics:
    the warm restart must terminate in fewer rounds and land on the same
    equilibrium within the paper's 1% price tolerance.
    """
    bundle = _bbpc_bundle(config)
    problem = ChipModel(config, bundle.apps).build_problem()
    mechanism = EqualBudget()
    cold = mechanism.allocate(problem)
    warm = mechanism.allocate(problem)
    return {
        "bundle": bundle.name,
        "cold_iterations": cold.iterations,
        "warm_iterations": warm.iterations,
        "iteration_savings": 1.0 - warm.iterations / cold.iterations,
        "max_divergence": _capacity_divergence(
            warm.allocations, cold.allocations, problem.capacities
        ),
        "max_price_divergence": _price_divergence(warm, cold),
    }


def _run_warmstart(full: bool, check: bool = False) -> Dict:
    """Reference invariance plus a cold-vs-warm probe per simulated epoch.

    One bundle per category is simulated under each mechanism with a
    :class:`ColdVsWarmProbe`.  In the simulation the divergence is
    bounded by one epoch of genuine utility drift, not by the price
    tolerance: a warm chain lags the moving equilibrium by at most one
    re-search while monitored utilities move several percent per epoch.
    The CI shape (``check``) is the default one.
    """
    config = cmp_64core() if full else cmp_8core()
    categories = BUNDLE_CATEGORIES if full else ("CPBN", "CCPP")
    sim_config = SimulationConfig(duration_ms=15.0 if full else 8.0, seed=_SEED)
    factories = {
        "EqualBudget": EqualBudget,
        "ReBudget-40": lambda: ReBudgetMechanism(step=40.0),
    }
    records: Dict[str, List[tuple]] = {name: [] for name in factories}
    for category in categories:
        bundle = generate_bundles(category, config.num_cores, count=1, seed=_SEED)[0]
        chip = ChipModel(config, bundle.apps)
        for name, factory in factories.items():
            probe = ColdVsWarmProbe(factory)
            ExecutionDrivenSimulator(chip, probe, sim_config).run()
            records[name].extend(probe.records)

    mechanisms = {name: _probe_summary(rows) for name, rows in records.items()}
    sides = mechanisms.values()
    overall = {
        "cold_iterations": sum(m["cold_iterations"] for m in sides),
        "warm_iterations": sum(m["warm_iterations"] for m in sides),
    }
    overall["iteration_savings"] = _savings(overall)
    overall["cold_seconds"] = sum(m["cold_seconds"] for m in sides)
    overall["warm_seconds"] = sum(m["warm_seconds"] for m in sides)
    overall["max_divergence"] = max(m["max_divergence"] for m in sides)
    overall["max_price_divergence"] = max(m["max_price_divergence"] for m in sides)
    return _record(
        "warmstart",
        {
            "cores": config.num_cores,
            "categories": list(categories),
            "duration_ms": sim_config.duration_ms,
            "epoch_ms": sim_config.epoch_ms,
            "seed": _SEED,
        },
        reference=_reference_invariance(config),
        mechanisms=mechanisms,
        overall=overall,
    )


def _warmstart_gates(record: Dict) -> List[str]:
    """EqualBudget's per-epoch divergence is one epoch of monitored drift.

    ReBudget's discrete budget cuts can amplify sub-tolerance equilibrium
    differences into different cut decisions, so only its iteration
    savings count, through the overall total.
    """
    ref, overall = record["reference"], record["overall"]
    eb = record["mechanisms"]["EqualBudget"]
    return _failed(
        {
            "reference warm iterations < cold": ref["warm_iterations"]
            < ref["cold_iterations"],
            "reference max_divergence <= 0.01": ref["max_divergence"] <= 0.01,
            "reference max_price_divergence <= 0.01": ref["max_price_divergence"]
            <= 0.01,
            "overall iteration savings >= 0.30": _savings(overall) >= 0.30,
            "EqualBudget iteration savings >= 0.30": _savings(eb) >= 0.30,
            "EqualBudget max_divergence <= 0.03": eb["max_divergence"] <= 0.03,
            "EqualBudget mean_price_divergence <= 0.02": eb["mean_price_divergence"]
            <= 0.02,
        }
    )


def _warmstart_summary(record: Dict) -> List[str]:
    reference, overall = record["reference"], record["overall"]
    lines = [
        f"reference {reference['bundle']}: cold {reference['cold_iterations']} it, "
        f"warm {reference['warm_iterations']} it, "
        f"price divergence {reference['max_price_divergence']:.4f}"
    ]
    for name, m in record["mechanisms"].items():
        lines.append(
            f"  {name:12s} epochs {m['epochs']:3d}  "
            f"iterations {m['cold_iterations']:4d} -> {m['warm_iterations']:4d} "
            f"({m['iteration_savings']:.0%} saved)  "
            f"speedup x{m['wallclock_speedup']:.2f}  "
            f"alloc div max {m['max_divergence']:.4f} mean {m['mean_divergence']:.4f}"
        )
    lines.append(
        f"overall: {overall['cold_iterations']} -> {overall['warm_iterations']} "
        f"iterations ({overall['iteration_savings']:.0%} saved)"
    )
    return lines


# ----------------------------------------------------------------------
# hotloop: scalar vs. lockstep hill climb
# ----------------------------------------------------------------------

#: Cold solves per bidder and bundle; the best one is the wall time.
_REPEATS = 5


def _timed_equilibrium(market, bidder):
    """Best-of-``_REPEATS`` cold equilibrium solve with ``bidder``."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        result = find_equilibrium(market, bidder=bidder)
        times.append(time.perf_counter() - start)
    counts = result.eval_counts
    return result.state, {
        "wall_ms_best": min(times) * 1e3,
        "wall_ms_mean": sum(times) / _REPEATS * 1e3,
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "utility_calls": counts["total_calls"],
        "eval_counts": counts,
    }


def _run_hotloop(full: bool, check: bool = False) -> Dict:
    """Scalar vs. lockstep equilibrium solves per Fig-4 bundle.

    Every bundle's cold market is solved ``_REPEATS`` times with the
    scalar :class:`HillClimbBidder` and with the lockstep
    :class:`VectorHillClimbBidder`.  The lockstep climb mirrors the
    scalar arithmetic operation for operation, so bids, iteration counts
    and convergence flags must agree, and allocations within
    :data:`LOCKSTEP_TOLERANCE` of capacity.  A CCNN cell, whose lambda
    spread forces several cut rounds, also times a full ReBudget-40 run
    under both bidders.  The CI shape (``check``) is the default one.
    """
    config = cmp_64core() if full else cmp_8core()
    categories = ("CCCC", "PPPP", "BBNN", "CPBN")
    bundles = [("bbpc", _bbpc_bundle(config))] + [
        (name, generate_bundles(name, config.num_cores, count=1, seed=_SEED + i)[0])
        for i, name in enumerate(categories)
    ]
    problems = {}
    for name, bundle in bundles:
        problem = ChipModel(config, bundle.apps).build_problem()
        market = problem.build_market(np.full(problem.num_players, 1.0))
        scalar_state, scalar = _timed_equilibrium(market, HillClimbBidder())
        vector_state, vector = _timed_equilibrium(market, VectorHillClimbBidder())
        problems[name] = {
            "bundle": bundle.name,
            "num_players": problem.num_players,
            "num_resources": problem.num_resources,
            "scalar": scalar,
            "vector": vector,
            "call_reduction": scalar["utility_calls"] / max(vector["utility_calls"], 1),
            "wallclock_speedup": scalar["wall_ms_best"] / vector["wall_ms_best"],
            "max_allocation_divergence": _capacity_divergence(
                vector_state.allocations, scalar_state.allocations, market.capacities
            ),
            "bids_bitwise_equal": bool(
                np.array_equal(vector_state.bids, scalar_state.bids)
            ),
            "flags_match": scalar["converged"] == vector["converged"]
            and scalar["iterations"] == vector["iterations"],
        }

    bundle = generate_bundles("CCNN", config.num_cores, count=1, seed=_SEED)[0]
    problem = ChipModel(config, bundle.apps).build_problem()
    rebudget_config = ReBudgetConfig(step=40.0)
    rebudget = {}
    for label, bidder in (("scalar", HillClimbBidder()), ("vector", VectorHillClimbBidder())):
        market = problem.build_market(
            np.full(problem.num_players, rebudget_config.initial_budget)
        )
        start = time.perf_counter()
        result = run_rebudget(market, config=rebudget_config, bidder=bidder)
        rebudget[label] = {
            "wall_ms": (time.perf_counter() - start) * 1e3,
            "rounds": len(result.rounds),
            "final_budgets": [float(b) for b in result.final_budgets],
        }
    scalar_ms, vector_ms = rebudget["scalar"]["wall_ms"], rebudget["vector"]["wall_ms"]
    rebudget["wallclock_speedup"] = scalar_ms / vector_ms
    rebudget["budgets_match"] = bool(
        np.allclose(
            rebudget["scalar"]["final_budgets"],
            rebudget["vector"]["final_budgets"],
            rtol=0.0,
            atol=1e-9 * rebudget_config.initial_budget,
        )
    )

    cells = problems.values()
    scalar_calls = sum(c["scalar"]["utility_calls"] for c in cells)
    vector_calls = sum(c["vector"]["utility_calls"] for c in cells)
    scalar_ms = sum(c["scalar"]["wall_ms_best"] for c in cells)
    vector_ms = sum(c["vector"]["wall_ms_best"] for c in cells)
    overall = {
        "scalar_utility_calls": scalar_calls,
        "vector_utility_calls": vector_calls,
        "call_reduction": scalar_calls / max(vector_calls, 1),
        "scalar_wall_ms": scalar_ms,
        "vector_wall_ms": vector_ms,
        "wallclock_speedup": scalar_ms / vector_ms,
        "max_allocation_divergence": max(c["max_allocation_divergence"] for c in cells),
        "all_flags_match": all(c["flags_match"] for c in cells),
    }
    return _record(
        "hotloop",
        {
            "num_cores": config.num_cores,
            "repeats": _REPEATS,
            "categories": list(categories),
            "allocation_tolerance": LOCKSTEP_TOLERANCE,
        },
        problems=problems,
        rebudget=rebudget,
        overall=overall,
    )


def _hotloop_gates(record: Dict) -> List[str]:
    """Per cell: equivalence and >=3x fewer calls; faster on wall-clock.

    The per-cell gates bound the overall call reduction, divergence and
    flags as well, so those are not gated twice.
    """
    tolerance = record["config"]["allocation_tolerance"]
    checks = {}
    for name, cell in record["problems"].items():
        checks[f"{name} call_reduction >= 3"] = cell["call_reduction"] >= 3.0
        checks[f"{name} max_allocation_divergence <= {tolerance:.0e}"] = (
            cell["max_allocation_divergence"] <= tolerance
        )
        checks[f"{name} flags_match"] = cell["flags_match"]
    rebudget, overall = record["rebudget"], record["overall"]
    checks["overall wallclock_speedup > 1"] = overall["wallclock_speedup"] > 1.0
    checks["rebudget budgets_match"] = rebudget["budgets_match"]
    checks["rebudget wallclock_speedup > 1"] = rebudget["wallclock_speedup"] > 1.0
    return _failed(checks)


def _hotloop_summary(record: Dict) -> List[str]:
    overall, rebudget = record["overall"], record["rebudget"]
    lines = [
        f"  {name:6s} calls {cell['scalar']['utility_calls']:5d} -> "
        f"{cell['vector']['utility_calls']:4d} ({cell['call_reduction']:5.1f}x), "
        f"wall {cell['scalar']['wall_ms_best']:6.1f} -> "
        f"{cell['vector']['wall_ms_best']:5.1f} ms "
        f"(x{cell['wallclock_speedup']:.2f}), "
        f"bitwise={cell['bids_bitwise_equal']}"
        for name, cell in record["problems"].items()
    ]
    lines.append(
        f"overall: {overall['scalar_utility_calls']} -> "
        f"{overall['vector_utility_calls']} utility calls "
        f"({overall['call_reduction']:.1f}x fewer), "
        f"wall-clock x{overall['wallclock_speedup']:.2f}, "
        f"max allocation divergence {overall['max_allocation_divergence']:.2e}"
    )
    lines.append(
        f"rebudget (CCNN, {rebudget['vector']['rounds']} rounds): "
        f"{rebudget['scalar']['wall_ms']:.1f} -> {rebudget['vector']['wall_ms']:.1f} ms "
        f"(x{rebudget['wallclock_speedup']:.2f}), "
        f"budgets match: {rebudget['budgets_match']}"
    )
    return lines


# ----------------------------------------------------------------------
# sweep: serial vs. parallel sweep executor
# ----------------------------------------------------------------------


def _run_sweep(full: bool, check: bool = False) -> Dict:
    """The same Fig-4-style analytic sweep, serially and over a pool.

    The parallel scores must be identical to the serial ones (same
    seed, same submission order, same per-cell entropy).  The speedup
    is a property of the host: it approaches the worker count on an
    idle multicore machine and degrades to ~1x when the cells are
    time-sliced onto one CPU, hence the host CPU counts in the header.
    ``check`` runs the CI shape: 1 bundle per category on 2 workers.
    """
    config = cmp_64core() if full else cmp_8core()
    categories = BUNDLE_CATEGORIES if full else ("CPBN", "BBPN")
    bundles, workers = (1, 2) if check else (3, 4)
    sweeps, walls = [], []
    for pool in (1, workers):
        t0 = time.perf_counter()
        sweeps.append(
            run_analytic_sweep(
                config=config,
                bundles_per_category=bundles,
                categories=categories,
                workers=pool,
            )
        )
        walls.append(time.perf_counter() - t0)
    serial, parallel = sweeps
    identical, divergence = sweeps_identical(serial, parallel)
    return _record(
        "sweep",
        {
            "num_cores": config.num_cores,
            "bundles_per_category": bundles,
            "categories": list(categories),
            "mechanisms": serial.mechanisms,
            "cells": len(serial.scores) * len(serial.mechanisms),
            "seed": _SEED,
        },
        serial={"workers": 1, "wall_s": walls[0]},
        parallel={"workers": workers, "wall_s": walls[1]},
        speedup=walls[0] / walls[1],
        identical=bool(identical),
        max_abs_divergence=float(divergence),
        failures=len(serial.failures) + len(parallel.failures),
    )


def _sweep_gates(record: Dict) -> List[str]:
    """Identity holds on any host; the speedup needs free CPUs.

    A pool time-sliced onto fewer CPUs than workers cannot beat serial,
    so the speedup gate applies only to a record of >= 4 workers on
    >= 4 usable CPUs.
    """
    checks = {
        "identical": record["identical"],
        "max_abs_divergence == 0": record["max_abs_divergence"] <= 0.0,
        "failures == 0": record["failures"] == 0,
    }
    if record["parallel"]["workers"] >= 4 and record["host"]["usable_cpus"] >= 4:
        checks["speedup >= 2"] = record["speedup"] >= 2.0
    return _failed(checks)


def _sweep_summary(record: Dict) -> List[str]:
    config, host = record["config"], record["host"]
    return [
        f"sweep: {config['cells']} cells "
        f"({len(config['categories'])} categories x {config['bundles_per_category']} "
        f"bundles x {len(config['mechanisms'])} mechanisms, "
        f"{config['num_cores']}-core)",
        f"serial {record['serial']['wall_s']:.2f}s, "
        f"parallel({record['parallel']['workers']}) {record['parallel']['wall_s']:.2f}s, "
        f"speedup x{record['speedup']:.2f} "
        f"(host: {host['usable_cpus']}/{host['cpu_count']} usable CPUs)",
        f"identical: {record['identical']}, "
        f"max divergence {record['max_abs_divergence']:.3g}, "
        f"failures {record['failures']}",
    ]


SCENARIOS: Dict[str, Scenario] = {
    "warmstart": Scenario(
        "warmstart", _run_warmstart, _warmstart_gates, _warmstart_summary
    ),
    "hotloop": Scenario("hotloop", _run_hotloop, _hotloop_gates, _hotloop_summary),
    "sweep": Scenario("sweep_parallel", _run_sweep, _sweep_gates, _sweep_summary),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument(
        "--full", action="store_true", help="64-core chip, all six categories"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the CI shape and exit 1 when any gate fails",
    )
    parser.add_argument(
        "--output",
        type=Path,
        help="where to write the JSON (default: BENCH_<file>.json at the repo root)",
    )
    args = parser.parse_args(argv)
    scenario = SCENARIOS[args.scenario]

    t0 = time.perf_counter()
    record = scenario.run(args.full, args.check)
    elapsed = time.perf_counter() - t0
    output = args.output or _REPO_ROOT / f"BENCH_{scenario.file}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{args.scenario} bench finished in {elapsed:.1f}s -> {output}")
    for line in scenario.summary(record):
        print(line)

    if not args.check:
        return 0
    failed = scenario.gates(record)
    for name in failed:
        print(f"CHECK FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
