"""Fixed reference work that measures how fast the host runs at the moment.

The host is shared: over minutes its speed drifts by 40% or more, and the
solves and every statistic taken over them drift with it. `kernel()` is a
fixed amount of work that does not touch `drpe`. Timings are divided by
its time measured between the solves of the same run, and multiplied by
`REF_KERNEL_S`, so they read as seconds on a host where the kernel takes
`REF_KERNEL_S`.

Most of the kernel is many numpy calls on 2048-element arrays, with a
short Python loop over dict and tuple operations and one gather from an
8 MB array. Timed after every solve for minutes on the shared host, the
solves slowed by 0.8-1.2 times as much (in log ratio) as the numpy part,
but only 0.4-0.7 times as much as the dict loop or the gather, which
therefore get little weight.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# the kernel's typical time on the 2-vCPU host that recorded the
# baseline; scaled timings read as seconds at that speed
REF_KERNEL_S = 0.014
# kernel calls after each solve of a pass, and after each set-up
CALLS_PER_SOLVE = 8
CALLS_PER_SETUP = 12

_rng = np.random.default_rng(20221231)
_SMALL = _rng.random(4096)
_BIG = _rng.random(1 << 20)
_IDX = _rng.integers(0, _BIG.size, 1 << 17)
_GATHERED = np.empty(_IDX.size)  # no allocation inside the kernel
_CHECK = None


def _work() -> float:
    table = {}
    for i in range(6000):
        key = ((i * 7919) % 613, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    total = sum(v for (a, b), v in table.items() if a > b)
    for shift in range(0, 2000, 6):
        part = np.sort(_SMALL[shift:shift + 2048])
        total += float(np.cumsum(part)[-1]) + float(part.argmax())
    total += float(np.take(_BIG, _IDX, out=_GATHERED).sum())
    return total


def kernel() -> float:
    """Run the reference work once; returns its seconds. The garbage
    collector is off meanwhile, so that the kernel's time does not depend
    on how many objects the solvers keep alive."""
    global _CHECK
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        value = _work()
        seconds = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if _CHECK is None:
        _CHECK = value
    elif value != _CHECK:
        raise RuntimeError("reference kernel result changed")
    return seconds


def speed(samples: list) -> float:
    """How many times slower than the reference speed the host ran while
    `samples` (kernel seconds) were taken."""
    return sum(samples) / len(samples) / REF_KERNEL_S
