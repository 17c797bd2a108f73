"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables or figures and
prints its rows/series straight to the terminal (bypassing capture), so
``pytest benchmarks/ --benchmark-only`` produces both the timing table
and the figure data.  The same text is archived under
``benchmarks/_results/``.

Scale knobs
-----------
The full paper-scale sweep (240 bundles, 64 cores) takes the better part
of an hour; the default runs a smaller but structurally identical subset
(the bundle lists are prefix-stable, so the default is a strict subset
of the full run).  Set ``REPRO_FULL=1`` for the paper-scale version.

The side benchmarks of ``scripts/bench.py`` are imported from there as
``SCENARIOS``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from bench import SCENARIOS  # noqa: E402,F401

RESULTS_DIR = Path(__file__).parent / "_results"

#: REPRO_FULL=1 switches every benchmark to the paper-scale setup.
FULL_SCALE = os.environ.get("REPRO_FULL", "0") not in ("0", "", "false")

#: Figure 4 sweep: bundles per category (paper: 40).
FIG4_BUNDLES = 40 if FULL_SCALE else 3

#: Figure 5 simulation: categories simulated and epochs per run.
FIG5_CATEGORIES = (
    ("CPBN", "CCPP", "CPBB", "BBNN", "BBPN", "BBCN")
    if FULL_SCALE
    else ("CPBN", "BBPN", "CCPP")
)
FIG5_EPOCHS_MS = 15.0 if FULL_SCALE else 8.0


@pytest.fixture
def report(capsys, request):
    """Print text through capture AND archive it per benchmark."""
    chunks = []

    def emit(text: str) -> None:
        chunks.append(text)
        with capsys.disabled():
            print(f"\n{text}")

    yield emit

    if chunks:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{request.node.name}.txt"
        path.write_text("\n".join(chunks) + "\n")
