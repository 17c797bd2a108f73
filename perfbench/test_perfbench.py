"""Tests of the benchmark's own code: spans, wrappers, identity check, inputs.

    python3 -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import reference, run, spans
from perfbench.workloads import POOL, WORKLOADS, SolveLog, bundle_seed, cell_record

from repro.analysis import run_analytic_sweep, run_simulation_experiment
from repro.cmp import cmp_8core
from repro.core.mechanisms import standard_mechanism_suite
from repro.sim import SimulationConfig

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_the_union_of_child_intervals():
    spans_ = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: [1, 6] is covered once
        ("leaf", 1.5, 2.0, 1),
        ("root", 11.0, 12.0, -1),
    ]
    table = spans.layer_table(spans_)
    assert table["root"] == {"s": 11.0, "self_s": 6.0, "calls": 2}
    assert table["a"] == {"s": 3.0, "self_s": 2.5, "calls": 1}
    assert table["b"] == {"s": 3.0, "self_s": 3.0, "calls": 1}
    assert table["leaf"] == {"s": 0.5, "self_s": 0.5, "calls": 1}


def test_same_name_nesting_counts_inclusive_time_once():
    table = spans.layer_table([("x", 0.0, 4.0, -1), ("x", 1.0, 2.0, 0)])
    assert table["x"] == {"s": 4.0, "self_s": 4.0, "calls": 2}


def test_recorder_nests_spans_and_counts_results():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda x: x + 1, lambda counts, r: counts.update(n=r))
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert recorder.spans == [("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]
    assert recorder.counts["n"] == 2
    table = spans.layer_table(recorder.spans)
    assert table["outer"]["self_s"] == 2.0
    # Properly nested spans: the self times add up to the root spans.
    assert sum(row["self_s"] for row in table.values()) == 3.0


def _originals():
    return [
        vars(spans.resolve(owner))[attr] for owner, attr, _, _ in spans.TARGETS
    ]


def test_wrappers_are_restored_even_when_the_pass_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.SpanRecorder()):
            inside = _originals()
            raise RuntimeError("boom")
    assert all(a is not b for a, b in zip(before, inside))
    assert all(a is b for a, b in zip(before, _originals()))


def test_every_target_exists_and_every_layer_is_targeted():
    assert {span for _, _, span, _ in spans.TARGETS} == set(spans.LAYERS)
    for owner, attr, _, _ in spans.TARGETS:
        assert callable(vars(spans.resolve(owner))[attr])


def _tiny_analytic(log):
    sweep = run_analytic_sweep(
        config=cmp_8core(),
        bundles_per_category=1,
        categories=("CPBN",),
        mechanisms_factory=lambda: log.timed(standard_mechanism_suite()),
        seed=3,
    )
    return {
        f"{s.bundle}/{name}": cell_record(result)
        for s in sweep.scores
        for name, result in s.results.items()
    }


def test_traced_outputs_equal_untraced_outputs_on_8_cores():
    plain = _tiny_analytic(SolveLog())
    recorder = spans.SpanRecorder()
    log = SolveLog()
    with spans.installed(recorder):
        traced = _tiny_analytic(log)
    assert traced == plain
    assert len(log.entries) == len(log.slices) == 6
    assert 0.0 < log.calibration_s and 0.0 < log.factor
    table = spans.layer_table(recorder.spans)
    assert table["core.allocate"]["calls"] == 6
    assert table["core.optimum"]["calls"] == 1
    assert table["core.envy"]["calls"] == 6
    assert table["cmp.true_utility"]["calls"] == 8
    assert recorder.counts["core.rebudget.rounds"] >= 2
    # Every span lies inside the executor's root span.
    roots = [i for i, parent in enumerate(recorder.parents) if parent < 0]
    assert [recorder.names[i] for i in roots] == ["exec"]


def test_traced_simulation_equals_untraced_on_8_cores():
    def simulate():
        scores = run_simulation_experiment(
            config=cmp_8core(),
            categories=("CPBN",),
            sim_config=SimulationConfig(duration_ms=1.0, seed=2),
            mechanisms_factory=lambda: standard_mechanism_suite()[1:3],
        )
        return [(s.efficiency, s.envy_freeness, s.mean_iterations) for s in scores]

    plain = simulate()
    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        traced = simulate()
    assert traced == plain
    assert recorder.counts["sim.epochs"] == 2
    table = spans.layer_table(recorder.spans)
    assert table["cmp.monitor_observe"]["calls"] == 2 * 8 * 2  # warm-up + 1 epoch
    assert table["cmp.monitor_utility"]["calls"] == 2 * 8


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_selects_the_bundles(name):
    workload = WORKLOADS[name]

    def apps(seed):
        return [b.app_names() for b in workload.setup(seed)[1]]

    assert apps(1) == apps(1)
    assert apps(1) != apps(2)
    assert apps(1) == apps(1 + POOL)
    assert bundle_seed(1 + POOL) == 1


def _reference_cells(name="market-8", seed=0):
    return reference.load(reference.reference_path(name))["seeds"][str(seed)]


def test_reference_check_tolerates_rounding_and_rejects_a_perturbation():
    want = _reference_cells()
    key = sorted(want)[0]
    got = copy.deepcopy(want)
    assert reference.compare_cells(got, want) == ({}, len(want))

    got[key]["digest"] = "0" * 16
    got[key]["eff"] *= 1 + 1e-12
    failures, bitwise = reference.compare_cells(got, want)
    assert failures == {} and bitwise == len(want) - 1

    got[key]["fp"][0] *= 1 + 1e-6
    got[key]["iters"] += 1
    failures, _ = reference.compare_cells(got, want)
    assert list(failures) == [key] and len(failures[key]) == 2

    del got[key]
    got["extra/cell"] = {}
    failures, _ = reference.compare_cells(got, want)
    assert set(failures) == {key, "extra/cell"}


def test_cell_record_pins_allocations_within_tolerance():
    class Result:
        allocations = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        efficiency, envy_freeness, iterations, converged = 1.0, 0.5, 3, True

    record = cell_record(Result)
    Result.allocations = Result.allocations.copy()
    Result.allocations[2, 1] += 1e-6
    moved = cell_record(Result)
    assert moved["digest"] != record["digest"]
    failures, _ = reference.compare_cells({"c": moved}, {"c": record})
    assert failures["c"][0].startswith("c.fp[")


@pytest.mark.parametrize("n", [11, 24, 72, 96, 500, 1152])
def test_tail_percentile_leaves_ten_solves_above_it(n):
    samples = np.arange(n, dtype=float)
    p = run.tail_percentile(n)
    assert np.sum(samples > np.percentile(samples, p)) >= run.TAIL_SAMPLES
    if p < 100:
        assert np.sum(samples > np.percentile(samples, p + 1)) < run.TAIL_SAMPLES


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_perturbed_reference_makes_the_run_exit_nonzero(tmp_path, monkeypatch, capsys):
    document = reference.load(reference.reference_path("market-8"))
    cells = document["seeds"]["5"]
    first = sorted(cells)[0]
    cells[first]["ef"] += 1e-3
    perturbed = tmp_path / "market-8.json"
    perturbed.write_text(json.dumps(document))
    monkeypatch.setattr(reference, "reference_path", lambda workload: perturbed)
    # main() clears REPRO_SANITIZE; monkeypatch puts it back afterwards.
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    args = ["--workload", "market-8", "--seed", "5", "--seconds", "1", "--trace", "0"]
    assert run.main(args) == 1
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert f"MISMATCH pass 0: {first}: {first}.ef:" in out


def test_run_without_the_program_exits_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "market-8", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = _run(args, tmp_path)
    assert done.returncode == 2
    assert done.stdout == ""
