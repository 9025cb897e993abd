"""Scenario spec DSL: frozen dataclasses loadable from TOML.

A :class:`ScenarioSpec` is a complete, self-contained description of one
simulation — workload mix, scheduler (with CBS reservation parameters),
fault plan, horizon and seed — expressed entirely in integers (ns) and
small strings so it hashes stably, pickles cheaply to worker processes
and round-trips through JSON byte-identically.  The TOML surface uses
milliseconds (floats allowed) for every duration; parsing converts to
integer nanoseconds once, so nothing downstream ever touches float time.

Validation is strict: unknown keys, unknown scheduler/workload kinds and
out-of-range values all raise :class:`SpecError` naming the offending
key and the accepted alternatives.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.fleet._toml import load_toml
from repro.sim.time import MS

#: scheduler kinds the DSL accepts (see :mod:`repro.sched`)
SCHEDULER_KINDS = ("cbs", "edf", "fp", "stride", "rr")

#: workload kinds the DSL accepts (see :mod:`repro.workloads`)
WORKLOAD_KINDS = ("periodic", "mplayer", "video", "vlc")

#: fault kinds the DSL accepts (both wrap workload programs)
FAULT_KINDS = ("overload", "mode-switch")


class SpecError(ValueError):
    """A scenario document that cannot be turned into a valid spec."""


def _ms_to_ns(value: Any, key: str, where: str) -> int:
    """Convert a TOML millisecond value (int or float) to integer ns."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where}: {key!r} must be a number of milliseconds, got {value!r}")
    if not math.isfinite(value):
        raise SpecError(f"{where}: {key!r} must be a finite number of milliseconds, got {value!r}")
    if value < 0:
        raise SpecError(f"{where}: {key!r} must be >= 0 ms, got {value!r}")
    return round(value * MS)


def _require(table: dict[str, Any], key: str, where: str) -> Any:
    if key not in table:
        raise SpecError(f"{where}: missing required key {key!r}")
    return table[key]


def _reject_unknown(table: dict[str, Any], allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        raise SpecError(
            f"{where}: unknown key(s) {unknown}; accepted keys are {sorted(allowed)}"
        )


def _int_field(table: dict[str, Any], key: str, default: int, where: str) -> int:
    value = table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{where}: {key!r} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class SchedulerSpec:
    """Which scheduler dispatches the node, plus CBS exhaustion policy."""

    #: one of :data:`SCHEDULER_KINDS`
    kind: str = "cbs"
    #: CBS exhaustion policy ("hard" / "soft" / "background"); cbs only
    policy: str = "hard"

    def __post_init__(self) -> None:
        """Validate the kind/policy combination."""
        if self.kind not in SCHEDULER_KINDS:
            raise SpecError(
                f"scheduler: unknown kind {self.kind!r}; accepted kinds are "
                f"{list(SCHEDULER_KINDS)}"
            )
        if self.policy not in ("hard", "soft", "background"):
            raise SpecError(
                f"scheduler: unknown policy {self.policy!r}; accepted policies are "
                "['hard', 'soft', 'background']"
            )

    @staticmethod
    def from_dict(table: dict[str, Any]) -> SchedulerSpec:
        """Build from a parsed ``[scheduler]`` table."""
        _reject_unknown(table, ("kind", "policy"), "scheduler")
        return SchedulerSpec(
            kind=table.get("kind", "cbs"), policy=table.get("policy", "hard")
        )

    def to_jsonable(self) -> dict[str, Any]:
        """Stable JSON form (feeds :meth:`ScenarioSpec.spec_hash`)."""
        return {"kind": self.kind, "policy": self.policy}


_WORKLOAD_KEYS = (
    "kind",
    "name",
    "count",
    "seed",
    "jobs",
    "period_ms",
    "cost_ms",
    "jitter",
    "phase_ms",
    "budget_ms",
    "server_period_ms",
    "deadline_ms",
    "priority",
    "tickets",
    "adaptive",
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload entry: ``count`` seeded instances of a generative model.

    All durations are integer ns (the TOML surface takes milliseconds).
    Scheduler-attachment fields are interpreted by the active scheduler
    kind: ``budget_ns``/``server_period_ns`` size a CBS server shared by
    every instance (``budget_ns == 0`` leaves the instances best-effort),
    ``deadline_ns`` feeds EDF (0 = the workload period), ``priority``
    feeds fixed-priority (-1 = declaration order) and ``tickets`` feeds
    the stride scheduler.
    """

    kind: str
    name: str
    count: int = 1
    seed: int = 0
    #: periodic jobs / player frames per instance; 0 = run the whole horizon
    jobs: int = 0
    period_ns: int = 0
    cost_ns: int = 0
    #: relative cost jitter in [0, 1) (0 keeps periodic tasks fast-forwardable)
    jitter: float = 0.0
    phase_ns: int = 0
    budget_ns: int = 0
    server_period_ns: int = 0
    deadline_ns: int = 0
    priority: int = -1
    tickets: int = 1
    #: put every instance under an adaptive reservation driven by the
    #: scenario's [controller] table (requires one; cbs only)
    adaptive: bool = False

    def __post_init__(self) -> None:
        """Validate kind, count and the jitter range."""
        where = f"workload {self.name!r}"
        if self.kind not in WORKLOAD_KINDS:
            raise SpecError(
                f"{where}: unknown kind {self.kind!r}; accepted kinds are "
                f"{list(WORKLOAD_KINDS)}"
            )
        if not self.name:
            raise SpecError("workload: 'name' must be a non-empty string")
        if self.count < 1:
            raise SpecError(f"{where}: 'count' must be >= 1, got {self.count}")
        if not 0.0 <= self.jitter < 1.0:
            raise SpecError(f"{where}: 'jitter' must be in [0, 1), got {self.jitter}")
        if self.kind == "periodic" and self.cost_ns <= 0:
            raise SpecError(f"{where}: periodic workloads need 'cost_ms' > 0")
        if self.kind == "periodic" and self.period_ns <= 0:
            raise SpecError(f"{where}: periodic workloads need 'period_ms' > 0")

    @staticmethod
    def from_dict(table: dict[str, Any]) -> WorkloadSpec:
        """Build from one parsed ``[[workload]]`` entry."""
        name = str(table.get("name", ""))
        where = f"workload {name!r}" if name else "workload"
        _reject_unknown(table, _WORKLOAD_KEYS, where)
        jitter = table.get("jitter", 0.0)
        if isinstance(jitter, bool) or not isinstance(jitter, (int, float)):
            raise SpecError(f"{where}: 'jitter' must be a number, got {jitter!r}")
        adaptive = table.get("adaptive", False)
        if not isinstance(adaptive, bool):
            raise SpecError(f"{where}: 'adaptive' must be a boolean, got {adaptive!r}")
        return WorkloadSpec(
            kind=str(_require(table, "kind", where)),
            name=str(_require(table, "name", where)),
            count=_int_field(table, "count", 1, where),
            seed=_int_field(table, "seed", 0, where),
            jobs=_int_field(table, "jobs", 0, where),
            period_ns=_ms_to_ns(table.get("period_ms", 0), "period_ms", where),
            cost_ns=_ms_to_ns(table.get("cost_ms", 0), "cost_ms", where),
            jitter=float(jitter),
            phase_ns=_ms_to_ns(table.get("phase_ms", 0), "phase_ms", where),
            budget_ns=_ms_to_ns(table.get("budget_ms", 0), "budget_ms", where),
            server_period_ns=_ms_to_ns(
                table.get("server_period_ms", 0), "server_period_ms", where
            ),
            deadline_ns=_ms_to_ns(table.get("deadline_ms", 0), "deadline_ms", where),
            priority=_int_field(table, "priority", -1, where),
            tickets=_int_field(table, "tickets", 1, where),
            adaptive=adaptive,
        )

    def to_jsonable(self) -> dict[str, Any]:
        """Stable JSON form (feeds :meth:`ScenarioSpec.spec_hash`)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "count": self.count,
            "seed": self.seed,
            "jobs": self.jobs,
            "period_ns": self.period_ns,
            "cost_ns": self.cost_ns,
            "jitter": self.jitter,
            "phase_ns": self.phase_ns,
            "budget_ns": self.budget_ns,
            "server_period_ns": self.server_period_ns,
            "deadline_ns": self.deadline_ns,
            "priority": self.priority,
            "tickets": self.tickets,
            "adaptive": self.adaptive,
        }


@dataclass(frozen=True)
class FaultSpec:
    """A named :mod:`repro.faults` plan applied to the workload programs.

    ``plan`` names an entry of :data:`repro.faults.NAMED_PLANS`; ``scale``
    multiplies its intensities (0 disables it entirely, preserving the
    zero-intensity transparency contract).  ``kind`` selects the
    :class:`~repro.faults.injectors.WorkloadFaults` sub-plan: ``overload``
    inflates compute, ``mode-switch`` stretches activation periods.
    ``target`` restricts injection to workloads whose name starts with it
    (empty = all workloads).
    """

    plan: str = "zero"
    scale: float = 1.0
    kind: str = "overload"
    target: str = ""
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate the plan name, kind and scale."""
        from repro.faults import NAMED_PLANS

        if self.plan not in NAMED_PLANS:
            raise SpecError(
                f"fault: unknown plan {self.plan!r}; accepted plans are "
                f"{sorted(NAMED_PLANS)}"
            )
        if self.kind not in FAULT_KINDS:
            raise SpecError(
                f"fault: unknown kind {self.kind!r}; accepted kinds are {list(FAULT_KINDS)}"
            )
        if self.scale < 0:
            raise SpecError(f"fault: 'scale' must be >= 0, got {self.scale}")

    @staticmethod
    def from_dict(table: dict[str, Any]) -> FaultSpec:
        """Build from a parsed ``[fault]`` table."""
        _reject_unknown(table, ("plan", "scale", "kind", "target", "seed"), "fault")
        scale = table.get("scale", 1.0)
        if isinstance(scale, bool) or not isinstance(scale, (int, float)):
            raise SpecError(f"fault: 'scale' must be a number, got {scale!r}")
        return FaultSpec(
            plan=str(table.get("plan", "zero")),
            scale=float(scale),
            kind=str(table.get("kind", "overload")),
            target=str(table.get("target", "")),
            seed=_int_field(table, "seed", 0, "fault"),
        )

    @property
    def is_zero(self) -> bool:
        """True when the spec can never inject anything."""
        from repro.faults import plan_from_name

        return plan_from_name(self.plan, scale=self.scale).is_zero

    def to_jsonable(self) -> dict[str, Any]:
        """Stable JSON form (feeds :meth:`ScenarioSpec.spec_hash`)."""
        return {
            "plan": self.plan,
            "scale": self.scale,
            "kind": self.kind,
            "target": self.target,
            "seed": self.seed,
        }


#: feedback laws the [controller] table accepts
CONTROLLER_LAWS = ("lfspp", "lfs")

_CONTROLLER_KEYS = (
    "law",
    "spread",
    "window",
    "quantile",
    "sampling_period_ms",
    "boost",
    "boost_threshold",
    "rate_detection",
    "u_lub",
    "trigger",
    "burst_threshold",
    "burst_window_ms",
    "refractory_ms",
    "fallback_floor_ms",
)


@dataclass(frozen=True)
class ControllerSpec:
    """Adaptive-reservation parameters for the scenario's ``adaptive``
    workloads (the knobs of the paper's ``lfs++`` tool).

    Present, it routes the build through
    :class:`repro.core.runtime.SelfTuningRuntime`: every ``adaptive``
    workload gets a per-instance CBS server driven by the selected
    feedback law; fixed-``budget_ms`` workloads become static
    reservations admitted through the same supervisor.  Hard ranges are
    validated against :data:`repro.core.knobs.CONTROLLER_KNOBS`, the
    same registry the runtime constructors enforce.

    ``boost_threshold < 0`` disables the §4.4-remark-1 exhaustion boost
    (the paper's baseline).  ``rate_detection`` enables the period
    analyser; off (the default), the reservation period is pinned to the
    workload's declared period — the cheap, fully deterministic setting
    fleet-scale tuning sweeps run at.

    ``trigger = "event"`` switches every adaptive controller from the
    paper's clocked loop to the event-driven mode of
    :mod:`repro.core.events` — recompute on exhaustion bursts
    (``burst_threshold`` within ``burst_window_ms``) and deadline misses
    (the scenario's ``miss_threshold_ms``), spaced by ``refractory_ms``
    and floored by ``fallback_floor_ms``.
    """

    law: str = "lfspp"
    spread: float = 0.15
    window: int = 16
    quantile: float = 0.9375
    sampling_period_ns: int = 100 * MS
    boost: float = 0.25
    boost_threshold: float = -1.0
    rate_detection: bool = False
    u_lub: float = 0.95
    #: activation mode: "periodic" (every sampling_period) or "event"
    trigger: str = "periodic"
    burst_threshold: int = 3
    burst_window_ns: int = 250 * MS
    refractory_ns: int = 50 * MS
    fallback_floor_ns: int = 400 * MS

    def __post_init__(self) -> None:
        """Validate the law and every knob against the registry."""
        from repro.core.knobs import CONTROLLER_KNOBS

        if self.law not in CONTROLLER_LAWS:
            raise SpecError(
                f"controller: unknown law {self.law!r}; accepted laws are "
                f"{list(CONTROLLER_LAWS)}"
            )
        try:
            CONTROLLER_KNOBS["spread"].validate(self.spread)
            CONTROLLER_KNOBS["window"].validate(self.window)
            CONTROLLER_KNOBS["quantile"].validate(self.quantile)
            CONTROLLER_KNOBS["sampling_period"].validate(
                self.sampling_period_ns, name="sampling_period_ms"
            )
            CONTROLLER_KNOBS["boost"].validate(self.boost)
            CONTROLLER_KNOBS["burst_threshold"].validate(self.burst_threshold)
            CONTROLLER_KNOBS["burst_window"].validate(
                self.burst_window_ns, name="burst_window_ms"
            )
            CONTROLLER_KNOBS["refractory"].validate(self.refractory_ns, name="refractory_ms")
            CONTROLLER_KNOBS["fallback_floor"].validate(
                self.fallback_floor_ns, name="fallback_floor_ms"
            )
        except ValueError as exc:
            raise SpecError(f"controller: {exc}") from None
        if not 0.0 < self.u_lub <= 1.0:
            raise SpecError(f"controller: 'u_lub' must be in (0, 1], got {self.u_lub}")
        if self.trigger not in ("periodic", "event"):
            raise SpecError(
                f"controller: unknown trigger {self.trigger!r}; accepted triggers are "
                "['periodic', 'event']"
            )
        if self.refractory_ns > self.fallback_floor_ns:
            raise SpecError(
                f"controller: 'refractory_ms' ({self.refractory_ns} ns) must not exceed "
                f"'fallback_floor_ms' ({self.fallback_floor_ns} ns)"
            )

    @staticmethod
    def from_dict(table: dict[str, Any]) -> ControllerSpec:
        """Build from a parsed ``[controller]`` table."""
        _reject_unknown(table, _CONTROLLER_KEYS, "controller")

        def _float(key: str, default: float) -> float:
            value = table.get(key, default)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SpecError(f"controller: {key!r} must be a number, got {value!r}")
            return float(value)

        rate = table.get("rate_detection", False)
        if not isinstance(rate, bool):
            raise SpecError(f"controller: 'rate_detection' must be a boolean, got {rate!r}")
        return ControllerSpec(
            law=str(table.get("law", "lfspp")),
            spread=_float("spread", 0.15),
            window=_int_field(table, "window", 16, "controller"),
            quantile=_float("quantile", 0.9375),
            sampling_period_ns=_ms_to_ns(
                table.get("sampling_period_ms", 100.0), "sampling_period_ms", "controller"
            ),
            boost=_float("boost", 0.25),
            boost_threshold=_float("boost_threshold", -1.0),
            rate_detection=rate,
            u_lub=_float("u_lub", 0.95),
            trigger=str(table.get("trigger", "periodic")),
            burst_threshold=_int_field(table, "burst_threshold", 3, "controller"),
            burst_window_ns=_ms_to_ns(
                table.get("burst_window_ms", 250.0), "burst_window_ms", "controller"
            ),
            refractory_ns=_ms_to_ns(
                table.get("refractory_ms", 50.0), "refractory_ms", "controller"
            ),
            fallback_floor_ns=_ms_to_ns(
                table.get("fallback_floor_ms", 400.0), "fallback_floor_ms", "controller"
            ),
        )

    def to_jsonable(self) -> dict[str, Any]:
        """Stable JSON form (feeds :meth:`ScenarioSpec.spec_hash`)."""
        return {
            "law": self.law,
            "spread": self.spread,
            "window": self.window,
            "quantile": self.quantile,
            "sampling_period_ns": self.sampling_period_ns,
            "boost": self.boost,
            "boost_threshold": self.boost_threshold,
            "rate_detection": self.rate_detection,
            "u_lub": self.u_lub,
            "trigger": self.trigger,
            "burst_threshold": self.burst_threshold,
            "burst_window_ns": self.burst_window_ns,
            "refractory_ns": self.refractory_ns,
            "fallback_floor_ns": self.fallback_floor_ns,
        }


_SCENARIO_KEYS = ("name", "seed", "horizon_ms", "miss_threshold_ms")
_TOP_KEYS = ("scenario", "scheduler", "workload", "fault", "controller")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully concrete simulation: everything a worker needs to run it."""

    name: str
    seed: int
    horizon_ns: int
    #: wake-up→dispatch latency above this counts as a deadline miss
    miss_threshold_ns: int
    scheduler: SchedulerSpec
    workloads: tuple[WorkloadSpec, ...]
    fault: FaultSpec = field(default_factory=FaultSpec)
    #: adaptive-reservation parameters; None = no [controller] table
    controller: ControllerSpec | None = None
    #: template expansion group (one grid combo), "" for hand-written specs
    group: str = ""

    def __post_init__(self) -> None:
        """Validate the horizon and the workload list."""
        if not self.name:
            raise SpecError("scenario: 'name' must be a non-empty string")
        if self.horizon_ns <= 0:
            raise SpecError(f"scenario: 'horizon_ms' must be > 0, got {self.horizon_ns} ns")
        if self.miss_threshold_ns <= 0:
            raise SpecError(
                f"scenario: 'miss_threshold_ms' must be > 0, got {self.miss_threshold_ns} ns"
            )
        if not self.workloads:
            raise SpecError("scenario: at least one [[workload]] entry is required")
        names = [w.name for w in self.workloads]
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise SpecError(f"scenario: duplicate workload name(s) {dupes}")
        adaptive = [w.name for w in self.workloads if w.adaptive]
        if adaptive and self.controller is None:
            raise SpecError(
                f"scenario: adaptive workload(s) {adaptive} need a [controller] table"
            )
        if self.controller is not None and not adaptive:
            raise SpecError(
                "scenario: [controller] present but no workload is marked "
                "adaptive = true"
            )
        if self.controller is not None and self.scheduler.kind != "cbs":
            raise SpecError(
                "scenario: [controller] requires scheduler kind 'cbs', got "
                f"{self.scheduler.kind!r}"
            )

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical JSON form: stable across processes and Python versions."""
        return {
            "name": self.name,
            "seed": self.seed,
            "horizon_ns": self.horizon_ns,
            "miss_threshold_ns": self.miss_threshold_ns,
            "scheduler": self.scheduler.to_jsonable(),
            "workloads": [w.to_jsonable() for w in self.workloads],
            "fault": self.fault.to_jsonable(),
            "controller": self.controller.to_jsonable() if self.controller else None,
            "group": self.group,
        }

    def spec_hash(self) -> str:
        """SHA-256 over the canonical JSON form (worker memo / stream key)."""
        blob = json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def scenario_from_dict(doc: dict[str, Any]) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a parsed scenario document."""
    _reject_unknown(doc, _TOP_KEYS, "document")
    scenario = doc.get("scenario", {})
    if not isinstance(scenario, dict):
        raise SpecError("document: [scenario] must be a table")
    _reject_unknown(scenario, _SCENARIO_KEYS, "scenario")
    workloads_raw = doc.get("workload", [])
    if not isinstance(workloads_raw, list):
        raise SpecError("document: 'workload' must be an array of tables ([[workload]])")
    fault_raw = doc.get("fault", {})
    if not isinstance(fault_raw, dict):
        raise SpecError("document: [fault] must be a table")
    controller_raw = doc.get("controller")
    if controller_raw is not None and not isinstance(controller_raw, dict):
        raise SpecError("document: [controller] must be a table")
    return ScenarioSpec(
        name=str(_require(scenario, "name", "scenario")),
        seed=_int_field(scenario, "seed", 0, "scenario"),
        horizon_ns=_ms_to_ns(_require(scenario, "horizon_ms", "scenario"), "horizon_ms", "scenario"),
        miss_threshold_ns=_ms_to_ns(
            scenario.get("miss_threshold_ms", 10.0), "miss_threshold_ms", "scenario"
        ),
        scheduler=SchedulerSpec.from_dict(doc.get("scheduler", {})),
        workloads=tuple(WorkloadSpec.from_dict(w) for w in workloads_raw),
        fault=FaultSpec.from_dict(fault_raw),
        controller=(
            ControllerSpec.from_dict(controller_raw) if controller_raw is not None else None
        ),
    )


def scenario_from_toml(text: str) -> ScenarioSpec:
    """Parse a scenario TOML document into a :class:`ScenarioSpec`."""
    return scenario_from_dict(load_toml(text))


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load one concrete scenario from a ``.toml`` file."""
    return scenario_from_toml(Path(path).read_text())
