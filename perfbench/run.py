"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload {fig4-64,fig5-64,market-8} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` sets the workload up ``SETUP_PROBES`` times in fresh
interpreters, then runs ``Workload.passes(S)`` untraced passes of its
fixed work and reports the end-to-end metrics:

* ``wall_s`` — median seconds of one pass;
* ``setup_s`` — median seconds of one set-up (imports, chip config and
  bundle generation), each probe rescaled by the import probe paired
  with it;
* ``solve_ms_p50`` / ``solve_ms_tail`` — median and tail latency of one
  ``AllocationMechanism.allocate`` call.  Each solve's latency is its
  median over the passes; the tail is the highest whole percentile with
  at least ten solves ranked above it (the percentile and the number of
  solves are printed beside it);
* ``peak_rss_mb`` — peak resident memory of the process.

Times are in reference seconds (:mod:`perfbench.hostspeed`): host
seconds rescaled by calibration slices taken alongside, or for set-ups
by the paired import probes; the host seconds are printed too.

``--trace 1`` runs one untraced and one traced pass of the same inputs
and reports per-layer inclusive seconds, self seconds and calls for
every layer of :data:`perfbench.spans.LAYERS`, the layers' own counts,
the utility evaluation counters, and the tracing overhead.  The traced
pass must give the untraced pass's outputs and counters exactly.

Every pass is checked cell by cell against the recorded reference
(:mod:`perfbench.reference`); ``attempted``/``failed`` count the cells
(their ratio is ``cell_fail_frac``).  The exit code is 0 when every cell
matches, 1 on a mismatch and 2 when the benchmark cannot run at all
(no program source in the checkout, unknown workload, no reference).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

#: Fresh-interpreter set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_PROBES = 10
#: Solves that must lie above the reported tail percentile.
TAIL_SAMPLES = 10


class BenchmarkError(Exception):
    """The benchmark cannot run here (exit code 2, no result printed)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _import_program():
    """Import ``repro`` from this checkout's ``src``, or fail."""
    import perfbench

    try:
        import repro
    except ImportError as exc:
        raise BenchmarkError(f"cannot import the program from {perfbench.SOURCE}: {exc}")
    location = Path(repro.__file__).resolve()
    if perfbench.SOURCE not in location.parents:
        raise BenchmarkError(f"repro imported from {location}, not {perfbench.SOURCE}")


def host_record() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile of ``n`` sorted samples (linear
    interpolation) with at least ``TAIL_SAMPLES`` samples ranked above it."""
    if n <= TAIL_SAMPLES:
        raise ValueError(f"{n} solves leave no tail of {TAIL_SAMPLES}")
    return max(p for p in range(101) if p * (n - 1) // 100 <= n - 1 - TAIL_SAMPLES)


def _setup_seconds(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _timed_pass(workload, seed, log):
    gc.collect()
    start = time.perf_counter()
    cells = workload.run_pass(seed, log)
    return cells, time.perf_counter() - start


class CellCheck:
    """Running tally of cells checked against the reference."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.bitwise = 0
        self.problems = []

    def check(self, label, cells):
        from perfbench.reference import compare_cells

        failures, bitwise = compare_cells(cells, self.reference)
        self.attempted += len(set(cells) | set(self.reference))
        self.bitwise += bitwise
        self.fail(label, failures)

    def fail(self, label, failures):
        self.failed += len(failures)
        for key, problems in sorted(failures.items()):
            self.problems.append(f"{label}: {key}: {'; '.join(problems[:3])}")


def run_untraced(workload, seed, seconds, check):
    from perfbench import hostspeed
    from perfbench.workloads import SolveLog

    setup, imports = [], []
    for _ in range(SETUP_PROBES):
        setup.append(_setup_seconds(workload.name, seed))
        imports.append(hostspeed.import_probe())
    setup_s = statistics.median(
        s * hostspeed.REFERENCE_IMPORT_S / i for s, i in zip(setup, imports)
    )
    walls, host_walls, factors, solves = [], [], [], []
    for index in range(workload.passes(seconds)):
        log = SolveLog()
        cells, wall = _timed_pass(workload, seed, log)
        host_walls.append(wall - log.calibration_s)
        factors.append(log.factor)
        walls.append(host_walls[-1] * log.factor)
        solves.append([s * log.factor for s in log.seconds])
        check.check(f"pass {index}", cells)
    if len({len(s) for s in solves}) != 1:
        check.fail("solves", {"passes": ["passes made different numbers of solves"]})
        solves = [solves[0]]
    # A solve's latency is its median over the passes, which repeat the
    # same solves in the same order; the percentiles range over solves.
    solves_ms = np.median(np.array(solves), axis=0) * 1e3
    tail = tail_percentile(solves_ms.size)
    notes = {
        "passes": len(walls),
        "solves per pass": int(solves_ms.size),
        "solve_ms_tail percentile": f"p{tail}",
        "host factor of each pass (reference s per host s)": factors,
        "host wall_s of each pass": host_walls,
        "host setup_s of each probe": setup,
        "host seconds of each paired import probe": imports,
    }
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (setup_s, "s"),
        "solve_ms_p50": (float(np.median(solves_ms)), "ms"),
        "solve_ms_tail": (float(np.percentile(solves_ms, tail)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, notes


def run_traced(workload, seed, check):
    from repro.utility.base import EVAL_COUNTERS
    from perfbench import hostspeed
    from perfbench.spans import LAYERS, SpanRecorder, installed, layer_table
    from perfbench.workloads import SolveLog

    log = SolveLog()
    before = EVAL_COUNTERS.snapshot()
    plain, host_s = _timed_pass(workload, seed, log)
    plain_counts = EVAL_COUNTERS.since(before)
    untraced_s = (host_s - log.calibration_s) * log.factor
    check.check("untraced pass", plain)

    recorder = SpanRecorder()
    # The traced pass's calibration slices get spans of their own, so
    # no layer's self time includes them.
    log = SolveLog(calibrate=recorder.wrap("calibration", hostspeed.calibration_slice))
    before = EVAL_COUNTERS.snapshot()
    with installed(recorder):
        traced, host_s = _timed_pass(workload, seed, log)
    traced_counts = EVAL_COUNTERS.since(before)
    scale = log.factor
    traced_host_s = host_s - log.calibration_s
    check.check("traced pass", traced)
    # Tracing must not change a single output bit or utility evaluation.
    changed = {
        key: ["traced output differs from the untraced one"]
        for key in set(plain) | set(traced)
        if plain.get(key) != traced.get(key)
    }
    if traced_counts != plain_counts:
        changed["utility counters"] = [f"{traced_counts} != {plain_counts}"]
    check.fail("traced vs untraced", changed)

    table = layer_table(recorder.spans)
    table.pop("calibration", None)
    metrics = {}
    for layer in LAYERS:
        row = table.get(layer, {"s": 0.0, "self_s": 0.0, "calls": 0})
        metrics[f"{layer}.s"] = (row["s"] * scale, "s")
        metrics[f"{layer}.self_s"] = (row["self_s"] * scale, "s")
        metrics[f"{layer}.calls"] = (row["calls"], "count")
    counts = recorder.counts
    eq_calls = table.get("core.equilibrium", {}).get("calls", 0)
    metrics["core.optimum.steps"] = (counts["core.optimum.steps"], "count")
    metrics["core.equilibrium.iterations"] = (counts["core.equilibrium.iterations"], "count")
    metrics["core.equilibrium.converged_frac"] = (
        counts["core.equilibrium.converged"] / eq_calls if eq_calls else 1.0,
        "fraction",
    )
    metrics["core.equilibrium.warm_started"] = (counts["core.equilibrium.warm_started"], "count")
    metrics["core.rebudget.rounds"] = (counts["core.rebudget.rounds"], "count")
    metrics["sim.epochs"] = (counts["sim.epochs"], "count")
    for name in ("scalar_calls", "batch_calls", "batch_points"):
        metrics[f"utility.{name}"] = (traced_counts[name], "count")
    attributed = sum(row["self_s"] for row in table.values())
    traced_s = traced_host_s * scale
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.unattributed_frac"] = (1.0 - attributed / traced_host_s, "fraction")
    notes = {
        "spans": len(recorder.names),
        "traced outputs identical": not changed,
        "host factor of the traced pass (reference s per host s)": scale,
        "layer self time + unattributed = traced wall_s (host s)": f"{attributed:.4f} + "
        f"{traced_host_s - attributed:.4f} = {traced_host_s:.4f}",
    }
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    # The sanitizer reads REPRO_SANITIZE once, at import: measure without it.
    os.environ.pop("REPRO_SANITIZE", None)
    try:
        _import_program()
        from perfbench.reference import load, reference_path
        from perfbench.workloads import WORKLOADS, bundle_seed

        if args.workload not in WORKLOADS:
            raise BenchmarkError(
                f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
            )
        workload = WORKLOADS[args.workload]
        path = reference_path(workload.name)
        try:
            reference = load(path)["seeds"][str(bundle_seed(args.seed))]
        except (OSError, KeyError, ValueError) as exc:
            raise BenchmarkError(f"no usable reference in {path}: {exc!r}")
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(f"host: {json.dumps(host_record(), sort_keys=True)}")
    print(
        f"workload: {workload.name} seed={args.seed} "
        f"bundle_seed={bundle_seed(args.seed)} trace={args.trace}"
    )
    check = CellCheck(reference)
    if args.trace:
        metrics, notes = run_traced(workload, args.seed, check)
    else:
        metrics, notes = run_untraced(workload, args.seed, args.seconds, check)
    correct = check.failed == 0

    for line in check.problems[:20]:
        print(f"MISMATCH {line}")
    for key, value in notes.items():
        print(f"{key}: {value}")
    print(f"cell_fail_frac = {check.failed / max(check.attempted, 1)!r} "
          f"({check.failed} of {check.attempted} cells)")
    print(f"bitwise_cells = {check.bitwise} of {check.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": check.attempted,
                "failed": check.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
