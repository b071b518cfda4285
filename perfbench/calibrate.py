"""Machine-speed probes that share no code with laxdual.

The benchmark was tuned on a shared 2-vCPU guest (Intel Xeon at 2.1 GHz,
Python 3.11.7) whose speed swings by up to 1.8x within seconds and stays
slow for tens of seconds, because of other tenants; process CPU time swings
with the wall time, so no steal time can be subtracted.  run.py therefore
scales every time by the mean probe speed measured around it:

  * `kernel_s()`: a fixed sparse-polynomial product with Fraction
    coefficients, written the way the engine's ring multiply is, but frozen
    here, so no change to laxdual can move it.  Library workloads use it.
  * a bare interpreter start (`python -c pass`), which cli_batch and
    setup_s use; run.py measures it.

The reference times are the probes' times on that guest when it ran at full
speed.  They only fix the unit: scaled times equal raw times at that speed.
"""

from __future__ import annotations

import time
from fractions import Fraction

KERNEL_REF_S = 0.00082
BARE_START_REF_S = 0.042


def _poly(n, shift):
    terms = {}
    for i in range(n):
        factors = {
            ("b", 1 + (i + shift) % 3, i % 5): 1 + i % 3,
            ("c", 1 + i % 2, (i // 3 + shift) % 4): 1 + (i + shift) % 2,
        }
        mono = tuple(sorted(factors.items()))
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction((-1) ** i * (i + 1), 2 ** (i % 5))
    return terms


_A = _poly(17, 0)
_B = _poly(17, 1)


def kernel_s():
    """Seconds one fixed polynomial product takes now."""
    t0 = time.perf_counter()
    out = {}
    for m1, c1 in _A.items():
        for m2, c2 in _B.items():
            acc = dict(m1)
            for v, e in m2:
                acc[v] = acc.get(v, 0) + e
            mono = tuple(sorted(acc.items()))
            c = out.get(mono)
            c = c1 * c2 if c is None else c + c1 * c2
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return time.perf_counter() - t0
