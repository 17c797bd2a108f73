"""End-to-end, per-layer benchmark of the ReBudget reproduction.

Run one workload (the command ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload fig4-64 --seed 1 --seconds 12 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` repeats one pass with spans around every layer
and prints the per-layer metrics.  Both check every cell against the
recorded reference and exit 1 on a mismatch.  Other entry points:

* ``python3 -m perfbench.reference --record WORKLOAD`` re-records a
  reference;
* ``python3 -m perfbench.spread --workload WORKLOAD --seeds 1-10`` runs
  ten seeds and prints each metric's median and quartile spread;
* ``python3 -m pytest perfbench`` tests the benchmark's own code.

Importing this package puts the checkout's ``src`` first on
``sys.path``: the benchmark measures the program in its own checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

if str(SOURCE) not in sys.path:
    sys.path.insert(0, str(SOURCE))
