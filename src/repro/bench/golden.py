"""Golden-trace digests: the simulator's bit-identity contract.

A digest is the SHA-256 over everything an optimisation PR must not
change about a run of a :mod:`repro.bench.scenarios` scenario:

- the full ``(pid, time)`` context-switch trace (via
  :attr:`repro.sim.kernel.Kernel.switch_hook`),
- the final virtual clock,
- per-process ``cpu_time`` / ``exit_time`` / ``syscall_count`` / state,
- the aggregate :class:`~repro.sim.kernel.KernelStats` counters.

:data:`GOLDEN_DIGESTS` pins the values produced by the pre-optimisation
simulator; ``tests/sim/test_golden_traces.py`` asserts them on every CI
run, so a hot-path change that perturbs even one context switch by one
nanosecond fails the build.

:data:`CLOSED_LOOP_DIGESTS` does the same for the feedback loop those
open-loop scenarios leave out: :func:`closed_loop_digest` runs short
playbacks of the paper's experiments and folds every period estimate,
grant and supervisor compression into the kernel fingerprint.
"""

from __future__ import annotations

import hashlib
from functools import partial

from repro.bench.scenarios import GOLDEN_DURATION_NS, build_scenario


def attach_digest(kernel):
    """Install a switch-trace digest recorder on ``kernel``.

    Returns a ``finalize()`` callable: run the kernel (directly or
    through any wrapper such as ``SelfTuningRuntime.run``), then call it
    to fold the final clock, per-process state, and aggregate stats into
    the SHA-256 and get the hex digest.  This is the digest machinery
    behind :func:`golden_digest`, exposed so other bit-identity contracts
    (e.g. :mod:`repro.faults` zero-intensity transparency) can assert
    against the exact same fingerprint.
    """
    sha = hashlib.sha256()
    update = sha.update

    def record(proc, now: int) -> None:
        update(b"%d:%d;" % (proc.pid, now))

    kernel.switch_hook = record

    def finalize() -> str:
        update(b"|clock=%d" % kernel.clock)
        for pid in sorted(kernel.processes):
            p = kernel.processes[pid]
            exit_time = -1 if p.exit_time is None else p.exit_time
            update(
                b"|%d:%d:%d:%d:%s"
                % (pid, p.cpu_time, exit_time, p.syscall_count, p.state.value.encode())
            )
        s = kernel.stats
        update(
            b"|cs=%d,idle=%d,busy=%d,sys=%d,ev=%d"
            % (s.context_switches, s.idle_time, s.busy_time, s.syscalls, s.dispatched_events)
        )
        return sha.hexdigest()

    return finalize


def equivalence_digest(
    name: str, duration_ns: int = GOLDEN_DURATION_NS, *, fast_forward: bool = False
):
    """Run scenario ``name`` and digest trace + final state + metrics.

    Extends :func:`attach_digest` with per-process latency accumulators
    (count, total, max, and the exact float mean/std reprs) and the
    scheduler's monotone cycle counters (CBS consumed/exhaustions), so the
    fast-forward extrapolation of :mod:`repro.sim.cycles` is held to the
    same bit-identity bar as the stepped simulation.

    Returns ``(digest, report)``; ``report`` is the
    :class:`repro.sim.cycles.FastForwardReport` when ``fast_forward`` is
    set, else ``None``.
    """
    kernel = build_scenario(name)
    finalize = attach_digest(kernel)
    report = None
    if fast_forward:
        from repro.sim.cycles import run_fast_forward

        report = run_fast_forward(kernel, duration_ns)
    else:
        kernel.run(duration_ns)
    sha = hashlib.sha256(finalize().encode())
    for pid in sorted(kernel.processes):
        lat = kernel.processes[pid].sched_latency
        sha.update(
            f"|lat:{pid}:{lat.n}:{lat.total}:{lat.max}:{lat.mean!r}:{lat.std!r}".encode()
        )
    counters = kernel.scheduler.cycle_counters()
    for key in sorted(counters):
        sha.update(f"|ctr:{key}={counters[key]}".encode())
    return sha.hexdigest(), report


def golden_digest(
    name: str, duration_ns: int = GOLDEN_DURATION_NS, *, telemetry: bool = False
) -> str:
    """Run scenario ``name`` and digest its trace and final state.

    ``telemetry=True`` attaches a :mod:`repro.obs` hub before the run;
    the digest must come out identical either way (the observability
    layer's read-only contract — asserted by the golden-trace tests).
    """
    kernel = build_scenario(name)
    if telemetry:
        from repro.obs.instrument import instrument_kernel

        instrument_kernel(kernel)
    finalize = attach_digest(kernel)
    kernel.run(duration_ns)
    return finalize()


#: digests recorded on the pre-optimisation simulator (the PR 1 tree);
#: regenerate ONLY for a change that intentionally alters simulation
#: results, and say so loudly in the PR description
GOLDEN_DIGESTS: dict[str, str] = {
    "cbs-hard": "0e37411658d0b696d0f93592a69a8b9577340e0b9ec43a978271a332ea047620",
    "cbs-soft": "7af1f4e809663cba37ba026dc9839384e3a70a6d38ac2c51885363e5dd6f8647",
    "cbs-background": "2a9500f40c0f0bd8c62ebe003cf6bd140d5e727b3ba333af9e2ba4434864457a",
    "edf": "64a64363f9ec2583678ae1ab38e1c11da4209f0aac6ef339fcea0a2d839883bb",
    "fp": "483abf53714f0d4ba4d74f8e2b51037ece3860746c13c4fca6345ac2de7b4faa",
    "stride": "0fdaa9967c60d47a5c41fcd11f4ce671dccb3e760e834d2c76dd0b33df7b656a",
    "rr": "f922c81fda9fe90a5435f3cd3cff19901dfacd322470bed2fc3b8ee80c7c4989",
}


# ----------------------------------------------------------------------
# closed-loop pins: tracer -> analyser -> controller -> supervisor
# ----------------------------------------------------------------------
def _runtime(telemetry: bool):
    """A fresh runtime, instrumented before any spawn when asked."""
    from repro.core import SelfTuningRuntime
    from repro.obs.instrument import instrument_runtime

    rt = SelfTuningRuntime()
    if telemetry:
        instrument_runtime(rt)
    return rt


def _horizon(n_frames: int) -> int:
    from repro.sim.time import MS

    return (n_frames * 40 + 2000) * MS


def _fig13(law: str, telemetry: bool):
    """Figure 13's playback under ``law``, 150 frames."""
    from repro.experiments.fig13 import build_playback, law_config

    rt = _runtime(telemetry)
    build_playback(rt, n_frames=150, seed=13, **law_config(law))
    return rt, _horizon(150)


def _tab03_load50(telemetry: bool):
    """One Table 3 point: the playback beside 50% static RT load."""
    from repro.experiments.fig13 import build_playback
    from repro.experiments.tab03 import spawn_rt_load

    rt = _runtime(telemetry)
    build_playback(rt, n_frames=150, seed=3000)
    spawn_rt_load(rt, 0.5, seed=3000)
    return rt, _horizon(150)


def _events_cliff(telemetry: bool):
    """events-vs-periodic in event mode, run 4 s past the decode cliff."""
    from repro.experiments.events import build_cliff_playback

    rt = _runtime(telemetry)
    build_cliff_playback(rt, "event", 0.8, n_frames=200, seed=9100)
    return rt, _horizon(200)


def _faults_saturation(telemetry: bool):
    """The hardened saturation fault scenario: Eq. 1 compression + watchdog."""
    from repro.experiments.fig13 import build_playback
    from repro.faults.harness import FaultHarness
    from repro.faults.injectors import SupervisorSaturation
    from repro.faults.plan import FaultPlan
    from repro.faults.scenarios import FAULT_END, FAULT_START, _hardened_configs
    from repro.sim.time import MS

    seed = 13
    rt = _runtime(telemetry)
    controller_config, analyser_config = _hardened_configs(True)
    build_playback(
        rt,
        n_frames=200,
        seed=seed,
        controller_config=controller_config,
        analyser_config=analyser_config,
        u_min=0.15,
    )
    harness = FaultHarness()
    harness.add(
        SupervisorSaturation(FaultPlan.burst(FAULT_START, FAULT_END, 1.0), bandwidth=1.0, seed=seed)
    ).arm(rt.supervisor, rt.kernel)
    rt.kernel.fault_plan = harness
    rt.supervisor.start_watchdog(rt.kernel, 500 * MS)
    return rt, _horizon(200)


def _daemon(telemetry: bool):
    """``repro-exp trace daemon``: probe, reject ffmpeg, adopt mplayer."""
    from repro.obs.instrument import instrument_daemon
    from repro.obs.scenarios import build_daemon
    from repro.sim.time import SEC

    rt = _runtime(False)
    daemon = build_daemon(rt, seed=21, n_frames=280)
    if telemetry:
        instrument_daemon(daemon)
    daemon.start()
    return rt, 8 * SEC


#: closed-loop scenario name -> ``build(telemetry) -> (runtime, horizon)``;
#: short horizons of the experiments' own configurations and seeds
CLOSED_LOOP_SCENARIOS = {
    "fig13-lfspp": partial(_fig13, "lfs++"),
    "fig13-lfs": partial(_fig13, "lfs"),
    "tab03-load50": _tab03_load50,
    "events-cliff": _events_cliff,
    "faults-saturation": _faults_saturation,
    "daemon": _daemon,
}


def closed_loop_digest(name: str, *, telemetry: bool = False) -> str:
    """Run closed-loop scenario ``name`` and digest the whole feedback loop.

    On top of the :func:`attach_digest` fingerprint of the kernel, the
    digest folds in what the tracer -> analyser -> controller ->
    supervisor chain decided, for every adopted task in pid order:

    - every analyser activation: its virtual time and the estimate
      (period, grid frequency, window size) or ``None``;
    - every granted ``(budget, period)`` pair the controller actuated;

    and the virtual time of every supervisor compression (Eq. 1).
    ``telemetry=True`` instruments the runtime where the scenario's own
    code does (before the playback spawns, after the daemon's workload
    does); the digest must not move.
    """
    rt, horizon = CLOSED_LOOP_SCENARIOS[name](telemetry)
    kernel = rt.kernel
    finalize = attach_digest(kernel)
    compressions: list[int] = []
    previous = rt.supervisor.trigger_hook

    def on_trigger(signal: str) -> None:
        if signal == "compression":
            compressions.append(kernel.clock)
        if previous is not None:
            previous(signal)

    rt.supervisor.trigger_hook = on_trigger
    rt.run(horizon)

    sha = hashlib.sha256(finalize().encode())
    for pid in sorted(rt.tasks):
        task = rt.tasks[pid]
        sha.update(b"|task:%d" % pid)
        for stamp, est in task.analyser.history if task.analyser is not None else ():
            fields = "-" if est is None else f"{est.period_ns}:{est.frequency!r}:{est.n_events}"
            sha.update(f"|est:{stamp}:{fields}".encode())
        for now, granted in task.controller.granted_history:
            sha.update(b"|grant:%d:%d:%d" % (now, granted.budget, granted.period))
    sha.update(b"|compressions:" + b",".join(b"%d" % t for t in compressions))
    return sha.hexdigest()


#: closed-loop digests recorded on the hand-built playbacks the
#: experiments used before they shared
#: :func:`repro.experiments.fig13.build_playback`; regenerate under the
#: same rule as :data:`GOLDEN_DIGESTS`
CLOSED_LOOP_DIGESTS: dict[str, str] = {
    "fig13-lfspp": "35a9cd359b42a0063026135d5341a693cf8e3acb235cecf9858048c134e3baaf",
    "fig13-lfs": "5690072c55ab68be7ea3098af96bd2248ae19f21080f47e865457678ab0290d1",
    "tab03-load50": "9f5e5099145405f8a76b395e27c8e3fd1ea54864201f9cf85a03c12a63765c61",
    "events-cliff": "bd0f140958b9905d13a7deb2e70e06b04009402aadff8fc86f4ab749bc115225",
    "faults-saturation": "1bf2687ea41dc1b8b794b0c9a7f47794a8d268db7e4b463f515d8007c93a8c8c",
    "daemon": "adbc925e3b2ba334f78d4e3b3e73b96fa0c41c9013ecf11b01fd4313b3ee7d16",
}
