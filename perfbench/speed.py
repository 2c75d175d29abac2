"""The machine's current speed, read from a fixed reference loop.

The shared virtual machine this benchmark was tuned on changes speed by up
to 60 % within minutes, and CPU time drifts with wall time, so neither
repeats between runs. Timing this fixed loop next to the measured work and
scaling by REF_S / (its time) gives seconds at one fixed reference speed,
which the drift moves much less (README.md, "Noise"). The loop does the
kind of work partalg does: sparse integer rows in dicts, gcds, tuple keys
and Fraction sums. It calls nothing in partalg, so no change to partalg
moves it.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

# Scaled times are seconds on a machine where reference() takes REF_S, about
# its median on the 2.0 GHz Xeon the benchmark was tuned on.
REF_S = 0.05


def reference() -> tuple[int, Fraction]:
    acc: dict[tuple, int] = {}
    for a in range(1, 3200):
        row = {i: (a * i * 7919) % 101 - 50 for i in range(40)}
        g = 0
        for v in row.values():
            g = gcd(g, v)
        key = (a % 17, tuple(sorted(row)[:5]))
        acc[key] = acc.get(key, 0) + g
    f = Fraction(0)
    for i in range(1, 3000):
        f += Fraction(i % 13, i % 7 + 1)
    return len(acc), f


def reference_s() -> float:
    """Seconds one reference() call takes now."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scaled(seconds: float, ref_s: float) -> float:
    """A time measured while reference() took ref_s, at the reference speed."""
    return seconds * REF_S / ref_s
