"""A fixed reference kernel that measures how fast the host runs Python right now.

The host this benchmark was tuned on (a 2-vCPU virtual machine on a
shared machine) switches between a fast and a slow speed, up to 2x apart,
for seconds to minutes at a time, so the same request list can take 1.6x
longer in one run than in the next.  ``reference_time`` times a small
kernel that is independent of ``gxstplc`` and never changes; a request's
time divided by the reference time around it is nearly independent of
the host's speed.

The kernel does the kinds of work the product does, in pure Python:
arithmetic on small slotted residue objects (like ``ff.FieldElement``),
exact ``Fraction`` elimination (like ``exactlp``) and frozenset keys
over k-subsets (like the audits).
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

#: Nominal ``reference_time()`` in seconds, about its median on the host the
#: benchmark was tuned on (4.1-4.9 ms in the baseline runs); calibrated times are
#: reported at this speed.
REFERENCE_S = 0.0045


class _Residue:
    __slots__ = ("v", "q")

    def __init__(self, v: int, q: int):
        self.v = v % q
        self.q = q

    def __add__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.v + other.v, self.q)

    def __mul__(self, other: "_Residue") -> "_Residue":
        return _Residue(self.v * other.v, self.q)


def reference_kernel() -> int:
    """About a millisecond of fixed work; returns a checksum so nothing is skipped."""
    q = 191
    acc = _Residue(1, q)
    for i in range(1, 300):
        acc = acc * _Residue(i, q) + _Residue(i * i, q)
    m = [[Fraction((i * 7 + j * 3) % 11 + (i == j) * 13, 1 + (i + j) % 4) for j in range(6)]
         for i in range(6)]
    for c in range(6):
        inv = 1 / m[c][c]
        for r in range(c + 1, 6):
            f = m[r][c] * inv
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    seen = {}
    for s in itertools.combinations(range(11), 3):
        seen[frozenset(s)] = sum(s) % q
    return acc.v + len(seen) + m[5][5].numerator


def reference_time() -> float:
    """Seconds four kernel runs take, after one untimed run that re-warms the caches."""
    reference_kernel()
    start = time.perf_counter()
    for _ in range(4):
        reference_kernel()
    return time.perf_counter() - start
