"""Host reference loop: the unit every benchmark timing is divided by.

Raw wall clock on a shared host drifts by tens of percent between
processes, and most of that drift moves a reference loop and the
measured op together.  Timing both back to back and reporting op/loop
("cal") cancels it.  The loop mixes the two kinds of work the CKKS
engine and the analytic model spend their time on: interpreter work
(list/dict building, sorting, small integer arithmetic) and small NumPy
ufunc calls on an (L, N) = (19, 128) int64 limb plane, one mod-mul per
four interpreter rounds.  Of the mixes tried on a 2-core VM, this one
tracked the bootstrap and hoisted-transform ops best across processes
(pure NumPy mod-mul loops and pure interpreter loops tracked worse).

It imports nothing from ``repro``, so no change to the program under
test can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Rounds per loop; one loop takes ~20 ms on a 2-core x86 VM.
ROUNDS = 3000
#: Seconds of one loop on the reference host: a time in cal times this
#: is seconds on a host whose loop takes exactly that long.
NOMINAL_SECONDS = 0.020

#: 28-bit odd moduli, one per limb row.
_MODULI = np.array([268369921 - 2 * i for i in range(19)],
                   dtype=np.int64).reshape(-1, 1)


def reference_loop() -> int:
    """Run the fixed mixed workload once; returns a checksum."""
    rng = np.random.default_rng(1234)
    a = rng.integers(0, 1 << 28, size=(19, 128), dtype=np.int64)
    b = rng.integers(0, 1 << 28, size=(19, 128), dtype=np.int64)
    out = np.empty_like(a)
    total = 0
    table: dict = {}
    for i in range(ROUNDS):
        items = [(i * 31 + j) % 97 for j in range(12)]
        table[i % 64] = sorted(items)
        total += sum(table[i % 64][:4])
        if i % 4 == 0:
            np.multiply(a, b, out=out)
            np.remainder(out, _MODULI, out=out)
            total += int(out[i % 19, i % 128] & 7)
    return total


def reference_seconds() -> float:
    """Seconds one :func:`reference_loop` takes right now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
