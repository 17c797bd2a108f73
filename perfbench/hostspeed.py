"""Rescale host seconds to reference seconds.

The machines this benchmark runs on are shared, and their speed drifts:
the same pass of the same inputs has measured 10 s and 17 s within half
an hour.  So every timed pass is interleaved with calibration slices —
a fixed kernel that shares no code with the program, made of small
NumPy calls and interpreter arithmetic like the program's own work —
one after every solve, outside the solve's timing.  A pass's time
minus its slices' time, multiplied by ``REFERENCE_SLICE_S`` over the
slices' mean, is its time in reference seconds: the seconds it would
take on a host where one slice takes ``REFERENCE_SLICE_S``.

Measured on a 2-CPU VM while its speed swung by 30 %, the rescaled
time of a repeated pass spread by 3 % where the host time spread by
12-30 %.  Every run prints the host seconds and the factor too.

Set-up time is mostly module imports, which the slices track poorly.
So each set-up probe is paired with an :func:`import_probe`, a fresh
interpreter that imports NumPy and some of the standard library and
none of the program; ``REFERENCE_IMPORT_S`` over its seconds is that
set-up's factor.  On the same VM, the median of ten paired ratios
spread by 2-8 % from run to run, where the median of ten host set-ups
spread by 20-34 %.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import Sequence

import numpy as np

__all__ = [
    "REFERENCE_IMPORT_S",
    "REFERENCE_SLICE_S",
    "calibration_slice",
    "factor",
    "import_probe",
]

#: Mean calibration-slice seconds of the reference host (a 2-CPU x86-64
#: VM, Python 3.11, NumPy 2.4, at its fastest).
REFERENCE_SLICE_S = 0.0025
#: Seconds of one :func:`import_probe` on the same host (24.6 slices, the
#: median ratio of 80 interleaved probes).
REFERENCE_IMPORT_S = 0.06

_IMPORTS = (
    "import time; start = time.perf_counter(); "
    "import numpy, argparse, dataclasses, hashlib, json, statistics, typing; "
    "print(repr(time.perf_counter() - start))"
)


def calibration_slice() -> float:
    """Seconds for one fixed slice of interpreter and small-array work."""
    start = time.perf_counter()
    axis = np.linspace(0.0, 1.0, 17)
    total = 0.0
    for i in range(1000):
        row = np.maximum(axis * (i % 7), 0.25)
        total += float(row.sum()) + (i * 3) % 11
    if total <= 0.0:  # consumes the result; never true
        raise AssertionError(total)
    return time.perf_counter() - start


def factor(slices: Sequence[float]) -> float:
    """Reference seconds per host second, from slices taken alongside."""
    return REFERENCE_SLICE_S / statistics.fmean(slices)


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import the reference modules."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTS], capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout)
