"""Time one workload's set-up in a fresh interpreter: imports, chip config
and bundle generation, up to the first cell.  Prints the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main(argv) -> None:
    from perfbench.workloads import WORKLOADS

    WORKLOADS[argv[0]].setup(int(argv[1]))
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main(sys.argv[1:])
