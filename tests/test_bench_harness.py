"""The side-benchmark harness ``scripts/bench.py``, without running a bench.

Each scenario's gates pass on its committed ``BENCH_*.json`` record and
name the gate that a doctored copy breaks.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench", REPO_ROOT / "scripts" / "bench.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _committed(name):
    path = REPO_ROOT / f"BENCH_{bench.SCENARIOS[name].file}.json"
    return json.loads(path.read_text())


def _warm_not_below_cold(record):
    overall = record["overall"]
    overall["warm_iterations"] = overall["cold_iterations"]


def _reference_warm_not_below_cold(record):
    reference = record["reference"]
    reference["warm_iterations"] = reference["cold_iterations"]


def _fewer_calls_saved(record):
    record["problems"]["bbpc"]["call_reduction"] = 2.9


def _not_identical(record):
    record["identical"] = False


def _slow_pool_on_four_cpus(record):
    record["parallel"]["workers"] = 4
    record["host"]["usable_cpus"] = 4
    record["speedup"] = 1.5


@pytest.mark.parametrize("name", sorted(bench.SCENARIOS))
def test_committed_record_passes_every_gate(name):
    record = _committed(name)
    assert record["scenario"] == name
    assert record["host"]["cpu_count"] >= 1
    assert "config" in record
    assert bench.SCENARIOS[name].gates(record) == []


@pytest.mark.parametrize(
    "name, doctor, gate",
    [
        ("warmstart", _warm_not_below_cold, "overall iteration savings >= 0.30"),
        (
            "warmstart",
            _reference_warm_not_below_cold,
            "reference warm iterations < cold",
        ),
        ("hotloop", _fewer_calls_saved, "bbpc call_reduction >= 3"),
        ("sweep", _not_identical, "identical"),
        ("sweep", _slow_pool_on_four_cpus, "speedup >= 2"),
    ],
)
def test_doctored_record_names_the_broken_gate(name, doctor, gate):
    record = _committed(name)
    doctor(record)
    assert bench.SCENARIOS[name].gates(record) == [gate]


def test_speedup_is_not_gated_on_fewer_than_four_cpus():
    record = _committed("sweep")
    _slow_pool_on_four_cpus(record)
    record["host"]["usable_cpus"] = 2
    assert bench.SCENARIOS["sweep"].gates(record) == []


def test_cli_rejects_unknown_scenario(capsys):
    with pytest.raises(SystemExit) as excinfo:
        bench.main(["nope"])
    assert excinfo.value.code != 0
    assert "invalid choice" in capsys.readouterr().err
