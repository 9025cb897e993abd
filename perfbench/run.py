"""End-to-end benchmark of the self-tuning scheduler reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload closed-loop-video --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` times the untouched program and reports the end-to-end
metrics; ``--trace 1`` replays the same requests twice each, untraced and
with every layer wrapped (:mod:`spans`), checks that both give the same
simulated outputs, and reports the per-layer metrics.  Metric names,
units and bounds are declared in ``BENCHMARK.json``; which layer metric
should move which end-to-end metric is in ``perfbench/predictions.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits 0
when it printed a result, and 1 without one when the program under
``src/`` is missing or set-up fails.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from calibration import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh-process set-ups per run besides the run's own; setup_s is their median
SETUP_PROBES = 8
WORKLOAD_NAMES = ("closed-loop-video", "traced-transcode", "fleet-mixed")


def _setup(name: str, seed: int, scale: str) -> tuple[Any, list[Any], float]:
    """Import the program, make one cycle of inputs; returns (workload, cycle, seconds).

    The seconds run from this script's first line, so they cover the
    interpreter's imports of the benchmark, the program and numpy, and the
    input generation (template expansion included).
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    cycle = workload.setup(seed, scale)
    return workload, cycle, time.perf_counter() - _T0


def _probe_setups(args: argparse.Namespace) -> list[float]:
    """Set-up seconds of ``SETUP_PROBES`` fresh processes.

    Not scaled to reference speed: set-up time is imports and page faults,
    and in fresh processes it did not follow the calibration loop.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--scale",
        args.scale,
        "--setup-probe",
    ]
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def _call(fn: Any) -> Any:
    """``fn()``, with an exception turned into a failed outcome."""
    from workloads import Outcome

    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - a raising request is a failed request
        return Outcome(0, ("raised", repr(exc)), f"raised {exc!r}")


class _Tally:
    """Failures per request, from the request's own check and the cycle's."""

    def __init__(self, workload: Any, seed: int, scale: str) -> None:
        self.workload, self.seed, self.scale = workload, seed, scale
        self.attempted = 0
        self.failed = 0
        #: every failed check, per request or run-wide; any one makes the run incorrect
        self.problems: list[str] = []
        self._first: list[tuple] | None = None

    def cycle(self, outcomes: list[Any], extra: dict[int, str] | None = None) -> None:
        values = [o.value for o in outcomes]
        found = dict(extra or {})
        found.update(self.workload.check_cycle(self.seed, self.scale, values))
        if self._first is None:
            self._first = values
        for i, out in enumerate(outcomes):
            if out.problem:
                found.setdefault(i, out.problem)
            elif values[i] != self._first[i]:
                found.setdefault(i, "output differs from the cycle's first repeat")
        self.attempted += len(outcomes)
        self.failed += len(found)
        self.problems += [f"request {i}: {found[i]}" for i in sorted(found)]


def _tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 requests above it.

    With fewer than 11 requests no percentile qualifies; the maximum is
    reported and its percentile reads 100.
    """
    ordered = sorted(walls)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _another_cycle(start: float, cycle_start: float, seconds: float) -> bool:
    """Traced run: whether one more replay, as long as the last, ends within ``seconds``."""
    now = time.perf_counter()
    return (now - start) + (now - cycle_start) <= seconds


def run_untraced(args: argparse.Namespace, workload: Any, cycle: list[Any], setup_s: float):
    """Replay the cycle for ``--seconds``; returns (tally, metrics, notes).

    The run is a fixed number of whole replays, ``--seconds`` over the
    workload's nominal replay time at reference speed, so two commits
    compared on a shared host do the same work and every percentile sits
    on the same request whatever the host's speed.

    A calibration runs before the first request and after each one, and a
    request's host time is divided by the median slowdown of the six
    calibrations around it (:mod:`calibration`): the host's speed moves by
    up to 1.6x over a run while the program's work does not, and the median
    keeps a single disturbed calibration from moving a request.
    """
    tally = _Tally(workload, args.seed, args.scale)
    walls: list[float] = []
    cals = [calibrate(workload.native_share)]
    sim_ns = 0
    for _ in range(max(1, round(args.seconds / workload.replay_s))):
        outcomes = []
        for inp in cycle:
            t0 = time.perf_counter()
            out = _call(lambda: workload.request(inp))
            walls.append(time.perf_counter() - t0)
            cals.append(calibrate(workload.native_share))
            sim_ns += out.sim_ns
            outcomes.append(out)
        tally.cycle(outcomes)
    # read before the set-up probes, which are children too
    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    setups = [setup_s] + _probe_setups(args)
    times = [
        wall / statistics.median(cals[max(j - 2, 0) : j + 4])
        for j, wall in enumerate(walls)
    ]
    tail, pct = _tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_rate": sim_ns / 1e9 / sum(times),
        "req_p50_ms": statistics.median(times) * 1e3,
        "req_tail_ms": tail * 1e3,
        "peak_rss_mb": rss_kib / 1024,
    }
    raw_tail, _ = _tail(walls)
    notes = [
        f"{len(times)} requests: {len(times) // len(cycle)} replays of {len(cycle)} inputs",
        f"fail_ratio {tally.failed}/{tally.attempted}",
        f"req_tail_ms is p{pct:.1f} of {len(times)} requests",
        f"times at reference speed; raw host p50 {statistics.median(walls) * 1e3:.1f} ms, "
        f"tail {raw_tail * 1e3:.1f} ms, sim_rate {sim_ns / 1e9 / sum(walls):.4f} s/s",
        f"setup_s is the median of {len(setups)} set-ups: "
        + " ".join(f"{s:.3f}" for s in setups),
        "peak_rss_mb is this process's peak RSS plus its largest child's (fleet workers)",
    ]
    return tally, metrics, notes


def run_traced(args: argparse.Namespace, workload: Any, cycle: list[Any]):
    """Untraced, then traced, pass of every request for ``--seconds``.

    Returns (tally, metrics, notes).
    """
    from spans import ROOT as ROOT_SPAN
    from spans import Recorder

    rec = Recorder(args.spans)
    tally = _Tally(workload, args.seed, args.scale)
    untraced = traced = 0.0
    req_id = 0
    start = time.perf_counter()
    try:
        while True:
            cycle_start = time.perf_counter()
            outcomes, mismatch = [], {}
            for i, inp in enumerate(cycle):
                passes = workload.traced_passes(inp)
                reference = []
                for _, call in passes:
                    t0 = time.perf_counter()
                    reference.append(_call(call))
                    untraced += time.perf_counter() - t0
                got = []
                for groups, call in passes:
                    rec.install(groups)
                    try:
                        out, wall = rec.run_request(req_id, lambda: _call(call))
                    finally:
                        rec.uninstall()
                    traced += wall
                    got.append(out)
                req_id += 1
                values = {o.value for o in reference + got}
                if len(values) > 1:
                    mismatch[i] = f"traced and untraced passes disagree: {sorted(map(str, values))}"
                outcomes.append(next((o for o in reference + got if o.problem), got[0]))
            tally.cycle(outcomes, mismatch)
            if not _another_cycle(start, cycle_start, args.seconds):
                break
    finally:
        rec.close()
    n = req_id
    layer_self: dict[str, float] = defaultdict(float)
    for span, secs in rec.self_s.items():
        layer_self[span.split(".")[0]] += secs
    calls, counts, self_s = rec.calls, rec.counts, rec.self_s
    analyses = calls["analyser"]
    events = counts["sim.events"]
    fleet_sims = calls["fleet.fold"]
    metrics = {
        "sim.events": events / n,
        "sim.switches": counts["sim.switches"] / n,
        "sim.syscalls": counts["sim.syscalls"] / n,
        "sim.self_s": layer_self["sim"] / n,
        "sim.ns_per_event": layer_self["sim"] * 1e9 / events if events else 0.0,
        "sched.calls": calls["sched"] / n,
        "sched.self_s": layer_self["sched"] / n,
        "workloads.sends": calls["workloads"] / n,
        "workloads.self_s": layer_self["workloads"] / n,
        "tracer.events": counts["tracer.events"] / n,
        "tracer.downloads": calls["tracer.download"] / n,
        "tracer.overruns": counts["tracer.overruns"] / n,
        "tracer.self_s": layer_self["tracer"] / n,
        "analyser.calls": analyses / n,
        "analyser.self_s": layer_self["analyser"] / n,
        "analyser.spectrum_s": self_s["analyser.spectrum"] / n,
        "analyser.peaks_s": self_s["analyser.peaks"] / n,
        "analyser.events_per_call": counts["analyser.events"] / analyses if analyses else 0.0,
        "analyser.hit_ratio": counts["analyser.estimates"] / analyses if analyses else 0.0,
        "controller.activations": calls["controller"] / n,
        "controller.supervisor_calls": calls["controller.supervisor"] / n,
        "controller.self_s": layer_self["controller"] / n,
        "fleet.sims": fleet_sims / n,
        "fleet.ff_ratio": counts["fleet.fast_forwarded"] / fleet_sims if fleet_sims else 0.0,
        "fleet.fold_s": self_s["fleet.fold"] / n,
        "fleet.wait_s": self_s["fleet.wait"] / n,
        "fleet.self_s": layer_self["fleet"] / n,
        "trace.overhead_ratio": traced / untraced,
        "trace.unattributed_share": self_s[ROOT_SPAN] / traced,
    }
    attributed = sum(layer_self.values())
    closure = abs(attributed - traced) / traced
    extra = []
    if closure > 0.01:
        extra.append(f"layer self times sum to {attributed:.4f} s of {traced:.4f} s traced")
    extra += _check_predictions(workload.name, metrics)
    notes = [
        f"{n} traced requests; traced {traced:.3f} s, untraced {untraced:.3f} s",
        f"attribution closure: layers + unattributed = {attributed:.4f} s "
        f"= {100 * attributed / traced:.3f}% of traced wall",
        "layer self seconds: "
        + ", ".join(f"{k} {v:.3f}" for k, v in sorted(layer_self.items())),
    ]
    if workload.trace_note:
        notes.append(workload.trace_note)
    tally.problems += extra
    return tally, metrics, notes


def _check_predictions(name: str, metrics: dict[str, float]) -> list[str]:
    """The zero-work and non-zero predictions of ``predictions.json`` for ``name``."""
    pred = json.loads((HERE / "predictions.json").read_text())
    problems = []
    for metric in pred["zero"].get(name, []):
        if metrics[metric] != 0:
            problems.append(f"predicted zero {metric} on {name}, got {metrics[metric]}")
    for metric in pred["nonzero"].get(name, []):
        if metrics[metric] == 0:
            problems.append(f"predicted non-zero {metric} on {name}, got 0")
    return problems


def _units(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one combined result."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        cmd += ["--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="request size; 'tiny' is for the benchmark's own tests",
    )
    parser.add_argument("--spans", help="traced run: write every span to this file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    workload, cycle, setup_s = _setup(args.workload, args.seed, args.scale)
    if args.setup_probe:
        print(setup_s)
        return 0
    if args.trace:
        tally, metrics, notes = run_traced(args, workload, cycle)
    else:
        tally, metrics, notes = run_untraced(args, workload, cycle, setup_s)
    units = _units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(f"workload {workload.name}, seed {args.seed}, scale {args.scale}, trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    for note in notes:
        print(f"  # {note}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
