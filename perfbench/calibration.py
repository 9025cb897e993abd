"""Host-speed calibration for the end-to-end times.

The machines this benchmark runs on are shared: the same request's host
time moves by up to 1.6x over tens of seconds as neighbours load the
CPU, and a whole 30 s run can sit in a slow period.  :func:`calibrate`
times fixed loops that are independent of the program under test and
returns how much slower than reference speed the host runs right now.

Two loops, because busy neighbours slow interpreted code more than NumPy
kernels:

- an interpreted loop shaped like the simulator's hot path (heap pops
  and pushes, ``__slots__`` attribute updates, dict stores, generator
  ``send``).  Over four minutes of one transcode request bracketed by
  calibrations, the request time's quartile spread was 51% of its median,
  this loop tracked it with correlation 0.83, and the ratio spread 13%;
- a NumPy loop shaped like the analyser's spectrum (cos/sin over an
  outer product, then row sums).  Over four minutes of one closed-loop
  video request, 30-request medians ranged over 23% raw, 18% against the
  interpreted loop alone and 4% against a 0.2/0.8 blend of the two.

A workload's ``native_share`` is the weight of the NumPy loop in that
blend (a weighted geometric mean of the two slowdowns).
"""

from __future__ import annotations

import heapq
import time

#: seconds each loop takes at reference speed; they only set the unit of
#: the reported times and cancel when two runs are compared
REF_INTERPRETED_S = 0.025
REF_NATIVE_S = 0.012


class _Node:
    __slots__ = ("count", "seen")

    def __init__(self) -> None:
        self.count = 0
        self.seen: dict[int, int] = {}


def _echo():
    x = 0
    while True:
        x = yield x + 1


def _interpreted(n: int = 30_000) -> int:
    gen = _echo()
    next(gen)
    heap = [(i, i, _Node()) for i in range(64)]
    heapq.heapify(heap)
    acc = 0
    for i in range(n):
        t, k, node = heapq.heappop(heap)
        node.count += 1
        node.seen[i & 15] = acc
        acc += gen.send(node.count) + len(node.seen)
        heapq.heappush(heap, (t + i % 7 + 1, k, node))
    return acc


def _native() -> float:
    import numpy as np

    freqs = np.linspace(20.0, 100.0, 801)
    times = np.linspace(0.0, 2.0, 400)
    phase = (2.0 * np.pi) * np.outer(freqs, times)
    return float(np.hypot(np.cos(phase).sum(axis=1), np.sin(phase).sum(axis=1)).sum())


def _seconds(loop) -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def calibrate(native_share: float) -> float:
    """How many times slower than reference speed the host runs now."""
    slowdown = (_seconds(_interpreted) / REF_INTERPRETED_S) ** (1.0 - native_share)
    if native_share:
        slowdown *= (_seconds(_native) / REF_NATIVE_S) ** native_share
    return slowdown
