"""The side benchmarks of ``scripts/bench.py``, one entry per scenario.

Each entry runs its scenario once at the conftest scale, reports the
summary and asserts that no gate fails.  The gates and their bounds
live in the harness; the JSON records are written by its CLI.
"""

import pytest

from conftest import FULL_SCALE, SCENARIOS


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bench_scenario(name, benchmark, report):
    scenario = SCENARIOS[name]
    record = benchmark.pedantic(
        scenario.run, args=(FULL_SCALE,), rounds=1, iterations=1
    )
    report("\n".join([f"{name} bench", *scenario.summary(record)]))
    assert scenario.gates(record) == []
