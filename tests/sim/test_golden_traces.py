"""Golden-trace digests: the simulator's bit-identity contract.

Each scenario in :data:`repro.bench.golden.GOLDEN_DIGESTS` pins the
SHA-256 of the full ``(pid, time)`` context-switch trace plus the final
kernel state, recorded on the pre-optimisation simulator.  A hot-path
change that perturbs a single context switch by one nanosecond — a
different tie-break, a reordered event, a float where an int belongs —
changes the digest and fails here.

The seven scenarios cover every scheduler: CBS under all three
exhaustion policies, EDF, fixed-priority (RM), stride and round-robin,
each driving the canonical mplayer + periodic + best-effort mix.

:data:`repro.bench.golden.CLOSED_LOOP_DIGESTS` pins the closed loop the
paper is about — tracer → analyser → controller → supervisor — on short
playbacks of Figure 13 (LFS++ and LFS), one Table 3 point, the
events-vs-periodic decode cliff, the saturation fault scenario and the
adoption daemon: every period estimate, granted budget and supervisor
compression on top of the kernel fingerprint, with telemetry on and off.

Regenerate the pinned tables with ``scripts/record_golden.py`` ONLY for a
change that intentionally alters simulation results, and say so loudly
in the PR description.
"""

import pytest

from repro.bench.golden import (
    CLOSED_LOOP_DIGESTS,
    GOLDEN_DIGESTS,
    closed_loop_digest,
    golden_digest,
)


@pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS))
def test_golden_digest_unchanged(scenario):
    assert golden_digest(scenario) == GOLDEN_DIGESTS[scenario], (
        f"simulation results of {scenario!r} changed: either an optimisation "
        "broke bit-identity, or an intentional semantic change needs the "
        "digest table regenerated (scripts/record_golden.py)"
    )


def test_digest_is_deterministic():
    assert golden_digest("rr") == golden_digest("rr")


@pytest.mark.parametrize("scenario", sorted(GOLDEN_DIGESTS))
def test_golden_digest_unchanged_under_telemetry(scenario):
    """The repro.obs layer is read-only: attaching a hub must not move a
    single context switch (the observability bit-identity contract)."""
    assert golden_digest(scenario, telemetry=True) == GOLDEN_DIGESTS[scenario], (
        f"attaching telemetry changed the simulation results of {scenario!r}: "
        "an instrumentation hook is mutating simulator state (it must be "
        "strictly read-only — see docs/observability.md)"
    )


@pytest.mark.parametrize("telemetry", [False, True], ids=["bare", "telemetry"])
@pytest.mark.parametrize("scenario", sorted(CLOSED_LOOP_DIGESTS))
def test_closed_loop_digest_unchanged(scenario, telemetry):
    assert closed_loop_digest(scenario, telemetry=telemetry) == CLOSED_LOOP_DIGESTS[scenario], (
        f"the closed loop of {scenario!r} decided differently: an analyser, "
        "controller or supervisor change moved a period estimate, a grant or "
        "a compression (or telemetry is mutating state)"
    )
