"""Fixed reference kernel used to express workload time in machine-independent units.

The kernel mixes the two kinds of work edgestab spends its time on: a
pure-Python integer loop (interpreter overhead) and many small numpy calls
(companion-matrix ``eigvals`` and complex ``polyval`` on short arrays).  The
benchmark runs it in short slices between workload steps, in the same
process, and divides each step's time by the kernel's time per unit measured
in the same pass.  Drift in the machine's speed then cancels out of the ratio.

Do not change anything in this file.  ``wall_ref`` figures are comparable
across commits only while the kernel stays exactly the same: a faster or
slower kernel would shift every ratio and read as a program change.
"""

from __future__ import annotations

import time

import numpy as np


_rng = np.random.default_rng(12345)
_COEFFS = [_rng.uniform(0.5, 2.0, 7) for _ in range(16)]
_COMPANIONS = []
for _c in _COEFFS:
    _d = _c.size - 1
    _m = np.zeros((_d, _d))
    _m[1:, :-1] = np.eye(_d - 1)
    _m[:, -1] = -_c[:-1] / _c[-1]
    _COMPANIONS.append(_m)
_POINTS = np.exp(1j * np.linspace(0.1, 3.0, 64))


def unit() -> int:
    """One kernel unit: about a millisecond on a 2020s x86 core."""
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) % 1000003
    for comp, coeffs in zip(_COMPANIONS, _COEFFS):
        np.linalg.eigvals(comp)
        np.polyval(coeffs, _POINTS)
    return acc


def run(units: int) -> float:
    """Run ``units`` kernel units back to back; seconds taken."""
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return time.perf_counter() - start
