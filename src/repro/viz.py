"""Terminal visualisation helpers.

Everything the examples print beyond plain tables: an ASCII rendering
of an amplitude spectrum.  Deliberately free of
plotting-library dependencies so the repository stays runnable offline.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def ascii_spectrum(
    freqs: Sequence[float],
    amplitude: Sequence[float],
    *,
    rows: int = 12,
    cols: int = 70,
    marker: str = "#",
) -> str:
    """Render an amplitude spectrum as a column chart.

    Frequencies are binned into ``cols`` columns (each column shows its
    bin's maximum); the tallest column spans ``rows`` lines.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    amp = np.asarray(amplitude, dtype=np.float64)
    if freqs.size == 0 or freqs.size != amp.size:
        raise ValueError("freqs and amplitude must be equal-length and non-empty")
    cols = min(cols, freqs.size)
    bins = np.array_split(np.arange(freqs.size), cols)
    heights = np.array([amp[b].max() for b in bins])
    peak = heights.max()
    if peak > 0:
        heights = heights / peak
    lines = []
    for level in range(rows, 0, -1):
        threshold = level / rows
        lines.append("".join(marker if h >= threshold else " " for h in heights))
    axis_lo = f"{freqs[0]:.0f} Hz"
    axis_hi = f"{freqs[-1]:.0f} Hz"
    pad = max(1, cols - len(axis_lo) - len(axis_hi))
    return "\n".join(lines) + "\n" + "-" * cols + "\n" + axis_lo + " " * pad + axis_hi

