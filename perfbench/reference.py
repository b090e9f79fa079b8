"""Reference kernel that tracks the speed of the machine.

On a shared machine the same round can take 0.16 s in one minute and 0.30 s
in the next, while the ratio of the round to this kernel, timed right after
it, stays within a few percent.  Timings are therefore reported in reference
seconds: raw seconds x (NOMINAL_S / measured kernel time).

The kernel has two fixed halves: a pure-Python loop of integer, dict and
list work, and numpy LAPACK/BLAS work on one fixed 64x64 matrix.  With the
pure-Python half alone, a slow phase of the machine slowed the kernel more
than the BLAS-bound rounds, and normalised round times fell by up to 8% in
such phases; the second half evens that out.  Neither half imports anything
from the program under test or uses its data, so a change to the program
cannot make the kernel faster or slower; work the program moves into other
threads or into the background still shows in the process CPU time.
"""

from __future__ import annotations

import time

# Kernel time, in seconds, that defines one reference second: close to the
# kernel's median on a quiet 2-core x86-64 machine with one BLAS thread.
NOMINAL_S = 0.018
PYTHON_ITERATIONS = 60000
BLAS_REPEATS = 36  # the BLAS half takes ~1.3x the Python half: the steadiest blend tried


def python_loop() -> int:
    """Integer, dict and list work typical of interpreter-bound code."""
    acc = 0
    table = {}
    scratch = []
    for i in range(PYTHON_ITERATIONS):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        scratch.append(acc & 7)
        if len(scratch) > 64:
            scratch.clear()
    return acc + len(table)


class Reference:
    """The kernel and its fixed operand; create it after BLAS threads are pinned."""

    def __init__(self):
        import numpy

        # bound now, so that a trace installed later never sees these calls
        self._eigvalsh = numpy.linalg.eigvalsh
        rng = numpy.random.default_rng(1)
        g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._hermitian = g @ g.conj().T

    def _blas_loop(self) -> float:
        h, eigvalsh = self._hermitian, self._eigvalsh
        acc = 0.0
        for _ in range(BLAS_REPEATS):
            acc += eigvalsh(h)[0] + (h @ h)[0, 0].real
        return acc

    def measure(self) -> float:
        """Seconds taken by one run of the kernel."""
        start = time.perf_counter()
        python_loop()
        self._blas_loop()
        return time.perf_counter() - start
