"""Regenerate the golden-trace digest table.

Usage::

    PYTHONPATH=src python scripts/record_golden.py

Prints the open-loop ``GOLDEN_DIGESTS`` and the closed-loop
``CLOSED_LOOP_DIGESTS`` dict literals to paste into
``src/repro/bench/golden.py``.  Only do this for a change that
*intentionally* alters simulation results — the whole point of the table
is that optimisation PRs reproduce it bit-for-bit.
"""

from __future__ import annotations

import sys
import time

from repro.bench.golden import CLOSED_LOOP_SCENARIOS, closed_loop_digest, golden_digest
from repro.bench.scenarios import GOLDEN_SCENARIOS


def _table(title: str, names, digest) -> None:
    print(f"{title}: dict[str, str] = {{")
    for name in names:
        t0 = time.perf_counter()
        value = digest(name)
        elapsed = time.perf_counter() - t0
        print(f'    "{name}": "{value}",')
        print(f"    # ^ {elapsed:.2f}s", file=sys.stderr)
    print("}")


def main() -> int:
    _table("GOLDEN_DIGESTS", GOLDEN_SCENARIOS, golden_digest)
    _table("CLOSED_LOOP_DIGESTS", CLOSED_LOOP_SCENARIOS, closed_loop_digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
