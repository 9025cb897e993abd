"""Virtual-time units and helpers.

All simulation times are integer nanoseconds.  Integer arithmetic keeps the
simulator exactly deterministic (no floating-point drift in the event
calendar) and matches the precision of the kernel timestamps the paper's
tracer records ("events ... are recorded with a very high precision in the
kernel").
"""

from __future__ import annotations

import math
from collections.abc import Iterable

#: One nanosecond (the base unit).
NS = 1
#: One microsecond in nanoseconds.
US = 1_000
#: One millisecond in nanoseconds.
MS = 1_000_000
#: One second in nanoseconds.
SEC = 1_000_000_000


def seconds(t_ns: int) -> float:
    """Convert integer nanoseconds to float seconds."""
    return t_ns / SEC


def from_seconds(t_s: float) -> int:
    """Convert float seconds to integer nanoseconds (rounded)."""
    return round(t_s * SEC)


def from_millis(t_ms: float) -> int:
    """Convert float milliseconds to integer nanoseconds (rounded)."""
    return round(t_ms * MS)


def from_micros(t_us: float) -> int:
    """Convert float microseconds to integer nanoseconds (rounded)."""
    return round(t_us * US)


def hyperperiod(periods: Iterable[int]) -> int:
    """LCM of task periods: the interval after which a periodic schedule
    can repeat (Grolleau/Goossens/Cucu-Grosjean cyclicity).

    >>> hyperperiod([8 * MS, 16 * MS, 32 * MS]) == 32 * MS
    True
    >>> hyperperiod([])
    1
    """
    result = 1
    for period in periods:
        if period <= 0:
            raise ValueError(f"periods must be positive, got {period}")
        result = math.lcm(result, period)
    return result


def fmt_time(t_ns: int) -> str:
    """Render a nanosecond timestamp with a human-friendly unit.

    >>> fmt_time(1_500)
    '1.500us'
    >>> fmt_time(2_000_000_000)
    '2.000s'
    """
    if abs(t_ns) >= SEC:
        return f"{t_ns / SEC:.3f}s"
    if abs(t_ns) >= MS:
        return f"{t_ns / MS:.3f}ms"
    if abs(t_ns) >= US:
        return f"{t_ns / US:.3f}us"
    return f"{t_ns}ns"
