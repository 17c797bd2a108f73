"""Recorded reference outputs and the cell-by-cell identity check.

A reference file ``reference/<workload>.json`` holds, for every bundle
seed of the pool, the record of every (bundle, mechanism) cell.  A cell
deviates when any integer, flag or key differs, or when a float is
further than ``FLOAT_RTOL`` (relative, with an absolute floor of the
same size) from its reference.  Allocation digests are bitwise and
only counted: a cell whose digest changed but whose values stay within
tolerance still passes, and the run reports how many cells stayed
bitwise identical.

Record a reference (every pool seed, one pass each)::

    python3 -m perfbench.reference --record fig4-64
"""

from __future__ import annotations

import argparse
import json
import math
import os
from pathlib import Path
from typing import Dict, List, Tuple

__all__ = [
    "FLOAT_RTOL",
    "REFERENCE_DIR",
    "compare_cells",
    "load",
    "main",
    "reference_path",
]

#: Tolerance on every float of a cell record (efficiency, envy-freeness,
#: allocation projections, fig5 aggregates); the precedent is the 1e-9
#: allocation tolerance of the hot-loop bench.
FLOAT_RTOL = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(path: Path) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def _diff(path: str, got, want, out: List[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            found = sorted(got) if isinstance(got, dict) else got
            out.append(f"{path}: keys {found!r} != {sorted(want)}")
            return
        for key in want:
            if key != "digest":
                _diff(f"{path}.{key}", got[key], want[key], out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: length differs")
            return
        for k, (g, w) in enumerate(zip(got, want)):
            _diff(f"{path}[{k}]", g, w, out)
    elif isinstance(want, float):
        ok = isinstance(got, float) and (
            math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_RTOL)
        )
        if not ok:
            out.append(f"{path}: {got!r} != {want!r}")
    elif type(got) is not type(want) or got != want:
        out.append(f"{path}: {got!r} != {want!r}")


def _digests(record) -> List[str]:
    if isinstance(record, dict):
        found = [record["digest"]] if "digest" in record else []
        for value in record.values():
            found += _digests(value)
        return found
    if isinstance(record, list):
        return [d for item in record for d in _digests(item)]
    return []


def compare_cells(
    cells: Dict[str, Dict[str, object]], reference: Dict[str, Dict[str, object]]
) -> Tuple[Dict[str, List[str]], int]:
    """Deviations per failed cell, and the number of bitwise-identical cells.

    Every reference cell is attempted: one that is missing, raised, or
    deviates fails; so does any cell the reference does not know.
    """
    failures: Dict[str, List[str]] = {}
    bitwise = 0
    for key, want in reference.items():
        got = cells.get(key)
        if got is None:
            failures[key] = ["missing from the output"]
            continue
        problems: List[str] = []
        _diff(key, got, want, problems)
        if problems:
            failures[key] = problems
        elif _digests(got) == _digests(want):
            bitwise += 1
    for key in set(cells) - set(reference):
        failures[key] = ["not in the reference"]
    return failures, bitwise


def _record(workload_name: str) -> None:
    from .workloads import POOL, WORKLOADS, SolveLog

    workload = WORKLOADS[workload_name]
    seeds = {}
    for seed in range(POOL):
        cells = workload.run_pass(seed, SolveLog())
        raised = [key for key, cell in cells.items() if "error" in cell]
        if raised:
            raise SystemExit(f"{workload_name} seed {seed}: cells raised: {raised}")
        seeds[str(seed)] = cells
        print(f"{workload_name}: bundle seed {seed}: {len(cells)} cells", flush=True)
    document = {
        "workload": workload_name,
        "pool": POOL,
        "float_rtol": FLOAT_RTOL,
        "seeds": seeds,
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(workload_name), "w") as handle:
        handle.write(_dump(document))


def _dump(document: Dict[str, object]) -> str:
    """JSON with one line per cell, so a re-record diffs cell by cell."""
    compact = dict(separators=(",", ":"), sort_keys=True)
    header = {k: v for k, v in document.items() if k != "seeds"}
    lines = ["{" + json.dumps(header, **compact)[1:-1] + ',"seeds":{']
    for n, (seed, cells) in enumerate(document["seeds"].items()):
        lines.append(("," if n else "") + json.dumps(seed) + ":{")
        rows = sorted(cells.items())
        lines += [
            json.dumps(key) + ":" + json.dumps(cell, **compact) + ("," if k < len(rows) - 1 else "")
            for k, (key, cell) in enumerate(rows)
        ]
        lines.append("}")
    lines.append("}}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", nargs="+", required=True, metavar="WORKLOAD")
    args = parser.parse_args(argv)
    for name in args.record:
        _record(name)


if __name__ == "__main__":
    os.environ.pop("REPRO_SANITIZE", None)
    main()
