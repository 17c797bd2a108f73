"""Hot-loop vectorization: scalar vs. lockstep equilibrium solves.

Two claims, measured by :func:`repro.analysis.run_hotloop_bench` on
Fig-4-sized problems (8 players x 2 resources; one chip per workload
category plus the paper's bbpc reference mix):

* **Equivalence** — the lockstep :class:`VectorHillClimbBidder` mirrors
  the scalar hill climb's arithmetic operation for operation, so the
  bid matrices come out bitwise identical, allocations agree within
  ``LOCKSTEP_TOLERANCE`` of capacity, and iteration counts /
  price-convergence flags match exactly.
* **Savings** — the batched path makes at least 3x fewer Python-level
  utility evaluations (``EquilibriumResult.eval_counts``) and is faster
  on wall-clock, both per-equilibrium and across a multi-round ReBudget
  run on the dominant cell.

The measured numbers are archived to ``BENCH_hotloop.json`` at the
repository root.
"""

import json
from pathlib import Path

from conftest import FULL_SCALE
from repro.analysis import run_hotloop_bench
from repro.cmp import cmp_8core, cmp_64core

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_hotloop.json"


def test_hotloop_scalar_vs_vector(benchmark, report):
    data = benchmark.pedantic(
        run_hotloop_bench,
        kwargs={
            "config": cmp_64core() if FULL_SCALE else cmp_8core(),
            "repeats": 5,
        },
        rounds=1,
        iterations=1,
    )
    BENCH_JSON.write_text(json.dumps(data, indent=2) + "\n")

    overall = data["overall"]
    tolerance = data["config"]["allocation_tolerance"]
    assert overall["all_flags_match"]
    assert overall["max_allocation_divergence"] <= tolerance
    assert overall["call_reduction"] >= 3.0
    assert overall["wallclock_speedup"] > 1.0
    for name, cell in data["problems"].items():
        assert cell["flags_match"], name
        assert cell["max_allocation_divergence"] <= tolerance, name
        assert cell["call_reduction"] >= 3.0, name
    assert data["rebudget"]["budgets_match"]
    assert data["rebudget"]["wallclock_speedup"] > 1.0

    lines = [
        "Hot-loop vectorization (scalar vs. lockstep bidder)",
        f"  utility calls: {overall['scalar_utility_calls']} -> "
        f"{overall['vector_utility_calls']} "
        f"({overall['call_reduction']:.1f}x fewer)",
        f"  wall-clock:    {overall['scalar_wall_ms']:.1f} ms -> "
        f"{overall['vector_wall_ms']:.1f} ms "
        f"(x{overall['wallclock_speedup']:.2f})",
        f"  max allocation divergence: {overall['max_allocation_divergence']:.2e}",
    ]
    for name, cell in data["problems"].items():
        lines.append(
            f"  {name:6s} calls {cell['scalar']['utility_calls']:5d} -> "
            f"{cell['vector']['utility_calls']:4d} "
            f"({cell['call_reduction']:5.1f}x), wall x{cell['wallclock_speedup']:.2f}, "
            f"bitwise={cell['bids_bitwise_equal']}"
        )
    lines.append(
        f"  ReBudget-40 ({data['rebudget']['vector']['rounds']} rounds): "
        f"x{data['rebudget']['wallclock_speedup']:.2f} wall-clock"
    )
    report("\n".join(lines))
