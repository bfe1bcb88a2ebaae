"""Sample timing that factors out how fast a shared machine runs right now.

On a machine shared with other tenants the same code runs up to ~1.7x
slower for stretches of seconds to tens of seconds, and both wall and
process time show it. A median over a 20 s run then moves between runs by
0.1 to 0.4 of itself (quartile spread over ten seeds). Every timed sample
is therefore bracketed by a fixed calibration kernel, and reported as

    scaled = raw * CAL_REF_S / mean(kernel time before, kernel time after)

that is, in seconds at the speed at which the kernel takes CAL_REF_S.
The kernel mixes the two costs that dominate evacnet: small-array NumPy
calls and interpreter work. It is benchmark code, so a change to the
program moves the samples and not the kernel. It tracks the machine less
well over samples of several seconds and over large-array work, as on
corridors100. Raw times are kept too.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

# The kernel time reported samples are scaled to: about its median on the
# 2-core x86-64 VM (Python 3.11, NumPy 2.4) the benchmark was built on.
CAL_REF_S = 0.0145

_A = np.random.default_rng(0).random((6, 32))
_B = np.random.default_rng(1).random((32, 32))


def calibrate():
    """Seconds taken by the fixed calibration kernel."""
    t0 = time.perf_counter()
    x = _A
    for _ in range(2000):
        x = np.tanh(x @ _B) * 0.5
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Clock:
    """Collects raw and scaled samples by kind; begin() then end(kind)."""

    def __init__(self):
        self.raw = defaultdict(list)
        self.scaled = defaultdict(list)
        self.kernel = [calibrate()]
        self._t0 = None

    def begin(self):
        self._t0 = time.perf_counter()

    def end(self, kind):
        raw = time.perf_counter() - self._t0
        self.kernel.append(calibrate())
        self.raw[kind].append(raw)
        self.scaled[kind].append(
            raw * 2 * CAL_REF_S / (self.kernel[-2] + self.kernel[-1]))
        self._t0 = None
