"""Run workloads over several seeds and report each metric's spread.

    python3 -m perfbench.spread --workload fig4-64 --seeds 1-10
    python3 -m perfbench.spread --workload fig4-64 fig5-64 market-8 \\
        --seeds 1-10 --baseline perfbench/baseline.json

For every end-to-end metric it prints the median of the runs, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as
a share of the median, beside the metric's bound from
``BENCHMARK.json``.  ``--baseline`` also makes one traced run per
workload (the first seed) and writes both, with the host and the
layer map, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from .spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """One benchmark run; the parsed result line plus the printed notes."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace}: exit {done.returncode}\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]
    return result


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    baseline: Dict[str, object] = {"workloads": {}}
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            runs.append(run_once(workload, seed, seconds, trace=0))
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s run, "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            stats = summarize([run["metrics"][name]["value"] for run in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            summary[name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {workload} {name}: median {stats['median']:.6g} {stats['unit']}, "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}", flush=True)
        entry = {"seeds": args.seeds, "end_to_end": summary}
        if args.baseline:
            traced = run_once(workload, args.seeds[0], seconds, trace=1)
            entry["per_layer_seed"] = args.seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
        baseline["host"] = json.loads(runs[0]["notes"][0].partition(": ")[2])

    if args.baseline:
        baseline["measured"] = time.strftime("%Y-%m-%d")
        baseline["run_seconds"] = seconds
        baseline["layers"] = {
            name: {"covers": covers, "should_move": moves}
            for name, (covers, moves) in LAYERS.items()
        }
        args.baseline.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
