"""Machine-speed normalization.

On a shared 2-vCPU virtual machine the same exact-arithmetic work runs at
two speeds that alternate every few tens of milliseconds (the kernel below
takes about 2.0 ms in one state and 3.5 ms in the other), and process CPU
time drifts with wall time because steal time is not reported.  The
benchmark therefore runs a fixed calibration kernel between short stretches
of work and rescales each measured time to what it would have been on a
machine where the kernel takes `REFERENCE_S`:

    normalized = raw * REFERENCE_S / mean(kernel time before, kernel time after)

The kernel imports nothing from `crmoser` (a change to the program cannot
move it) and runs with the cyclic garbage collector paused.  It does what
the program spends its time on: a product of sparse polynomials held as
dicts of exponent tuples with `Fraction` coefficients.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# One kernel run on the reference machine (2-vCPU x86-64 VM, CPython 3.11.7),
# a typical figure while the benchmark runs.  Normalized figures are seconds there.
REFERENCE_S = 0.0030


def _operand(seed: int, nterms: int):
    terms = {}
    x = seed
    for _ in range(nterms):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x % 5, (x >> 3) % 5, (x >> 6) % 3, (x >> 9) % 3)
        terms[key] = Fraction((x >> 12) % 17 - 8, 1 + (x >> 17) % 6)
    return terms


_A = _operand(7, 28)
_B = _operand(11, 28)


def kernel() -> int:
    """One fixed product of two ~28-term sparse polynomials; returns a checksum."""
    acc = {}
    for ka, ca in _A.items():
        for kb, cb in _B.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            prev = acc.get(key)
            acc[key] = ca * cb if prev is None else prev + ca * cb
    return sum(c.numerator for c in acc.values() if c)


def sample() -> float:
    """Wall time of one kernel run, GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Scale from raw seconds to reference seconds for a stretch between two samples."""
    return REFERENCE_S / ((before + after) / 2)


class Calibrator:
    """Keeps the latest sample and the list of all samples taken in a run."""

    def __init__(self):
        self.samples = []
        self.last = self.take()

    def take(self) -> float:
        s = sample()
        self.samples.append(s)
        self.last = s
        return s

    def close_stretch(self) -> float:
        """Sample now and return the factor for the stretch since the previous sample."""
        before = self.last
        return factor(before, self.take())
