"""A fixed reference computation that tracks the host's speed.

The benchmark's host is a shared VM whose speed drifts by 1.5-2x over
seconds to minutes: neighbours contend for the physical core and its
caches, the slowdown shows in CPU time as well, and steal time stays near
zero.  Each timed unit runs between two calls of :func:`slowness`, and
its times are divided by the mean of the two readings: the result is the
time the unit would have taken on a host where the probe runs at its
nominal speed.  The contention slows different code by different
amounts, so the probe has three parts, equally weighted, one per kind of
work the program does: an interpreted loop (the scalar engine, the
server), numpy passes over 1024-element arrays (the vector kernel), and a
pointer chase through a list larger than the caches (object-heavy code).

The probe is benchmark code, not program code, so a change under
``src/`` moves the units' times but not the probe's.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

_A = np.random.default_rng(0).random(1024)
_B = _A[::-1].copy()
_order = list(range(200_000))
random.Random(1).shuffle(_order)
_CHAIN = _order


def _loop() -> int:
    total = 0
    for i in range(150_000):
        total += i * i
    return total


def _numpy() -> float:
    total = 0.0
    for _ in range(1200):
        c = _A * _B + _A
        total += np.where(c > 0.7, c, _B).sum()
    return total


def _chase() -> int:
    j = 0
    for _ in range(50_000):
        j = _CHAIN[j]
    return j


#: Each part and its time on the reference host (2-vCPU Xeon at 2.1 GHz,
#: Python 3.11, numpy 2.4) in its fast state.  Only a scale: the
#: readings are ratios to these.
PARTS = ((_loop, 0.0093), (_numpy, 0.0084), (_chase, 0.0090))


def slowness() -> float:
    """Mean over the parts of measured time / nominal time; 1.0 is nominal."""
    enabled = gc.isenabled()
    gc.disable()  # a collection of the workload's garbage is not host speed
    try:
        ratios = []
        for part, nominal in PARTS:
            start = time.perf_counter()
            part()
            ratios.append((time.perf_counter() - start) / nominal)
    finally:
        if enabled:
            gc.enable()
    return sum(ratios) / len(ratios)
