"""Per-layer attribution for the traced run.

:class:`Recorder` wraps the public entry points of each layer of the
program (``repro.sim``, ``repro.sched``, the workload generators,
``repro.tracer``, the analyser, the controller/supervisor and
``repro.fleet``) from outside, by patching the class or module attribute
for the duration of one traced pass and restoring it afterwards.  Nothing
under ``src/`` knows it is being watched; the untraced run executes the
program untouched.

Every wrapped call records one span: name, start, end, parent span and
request id.  A layer's self time is its spans' time minus the time
covered by their child spans; a span name ``layer.part`` belongs to
``layer``.  Each request is a root span named ``request``, so the root's
self time is the wall time no layer claimed (benchmark glue and object
construction): the unattributed share.

Spans stay in memory while their request runs and are folded into
per-name totals when it returns, outside the request's timing.  One
traced transcode makes ~760 k spans, so holding a whole run's spans would
cost hundreds of megabytes; ``spans_path`` appends every request's spans
to a binary file instead (see :meth:`Recorder.close` for the format).
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from typing import Any, Callable

import numpy as np

ROOT = "request"

#: one row of the spans file: name (an index into the names list), request
#: id, parent (a row index in the file, or -1), start and end (seconds of
#: ``time.perf_counter``)
SPAN_DTYPE = [("name", "u1"), ("req", "u4"), ("parent", "i8"), ("start", "f8"), ("end", "f8")]

#: every group a traced pass can install; see :meth:`Recorder.install`
ALL_GROUPS = ("sim", "sched", "workloads", "tracer", "analyser", "controller", "fleet")


class _TracedProgram:
    """A program generator whose ``send`` is a recorded span.

    The kernel drives programs through ``next`` and ``send`` only; the
    fast-forward engine finds a program's cycle adapter by identity, so the
    wrapper is registered under the generator's adapter.
    """

    __slots__ = ("send", "__weakref__")

    def __init__(self, send: Callable[[Any], Any]) -> None:
        self.send = send

    def __iter__(self) -> _TracedProgram:
        return self

    def __next__(self) -> Any:
        return self.send(None)


class Recorder:
    """Span store, per-request fold and the layer patches."""

    def __init__(self, spans_path: str | None = None) -> None:
        self.names: list[str] = [ROOT]
        self._ids = {ROOT: 0}
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._name = array("B")
        self._req = array("I")
        self._stack = [-1]
        self.req_id = 0
        #: per span name, summed over folded requests
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        #: counts taken from call arguments and results, and kernel stats
        self.counts: Counter[str] = Counter()
        self._kernels: dict[int, Any] = {}
        self._tracers: dict[int, Any] = {}
        self._patches: list[tuple[Any, str, Any]] = []
        self.spawn_layer = "workloads"
        self._spans_path = spans_path
        self._spans_out = open(spans_path, "wb") if spans_path else None
        self._written = 0

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self, fn: Callable[..., Any], span: str, after: Callable[[tuple, Any], None] | None = None
    ) -> Callable[..., Any]:
        """``fn`` recording one ``span`` per call; ``after(args, result)`` counts."""
        nid = self._id(span)
        start, end, parent, name, req, stack = (
            self._start,
            self._end,
            self._parent,
            self._name,
            self._req,
            self._stack,
        )
        clock = time.perf_counter
        rec = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            req.append(rec.req_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def run_request(self, req_id: int, fn: Callable[[], Any]) -> tuple[Any, float]:
        """Run ``fn`` as the root span of request ``req_id``; returns (result, wall s)."""
        self.req_id = req_id
        root = self.wrap(fn, ROOT)
        t0 = time.perf_counter()
        try:
            result = root()
            wall = time.perf_counter() - t0
        finally:
            self._fold()
        return result, wall

    def _fold(self) -> None:
        """Fold the finished request's spans into the totals and clear them."""
        self._fold_arrays()
        for kernel in self._kernels.values():
            stats = kernel.stats
            # a kernel event: a calendar event dispatched, a context switch
            # or a system call completed
            self.counts["sim.events"] += (
                stats.dispatched_events + stats.context_switches + stats.syscalls
            )
            self.counts["sim.switches"] += stats.context_switches
            self.counts["sim.syscalls"] += stats.syscalls
        self._kernels.clear()
        for tracer in self._tracers.values():
            overruns = getattr(tracer, "overruns", None)
            if overruns is not None:
                self.counts["tracer.overruns"] += overruns()
        self._tracers.clear()
        for arr in (self._start, self._end, self._parent, self._name, self._req):
            del arr[:]

    def _fold_arrays(self) -> None:
        n = len(self._start)
        if n == 0:
            return
        start = np.frombuffer(self._start, dtype=np.float64)
        dur = np.frombuffer(self._end, dtype=np.float64) - start
        parent = np.frombuffer(self._parent, dtype=np.int32)
        name = np.frombuffer(self._name, dtype=np.uint8)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        k = len(self.names)
        self_by_name = np.bincount(name, weights=dur - covered, minlength=k)
        calls_by_name = np.bincount(name, minlength=k)
        for nid, span in enumerate(self.names):
            if calls_by_name[nid]:
                self.self_s[span] += float(self_by_name[nid])
                self.calls[span] += int(calls_by_name[nid])
        if self._spans_out is not None:
            rows = np.empty(n, dtype=SPAN_DTYPE)
            rows["name"] = name
            rows["req"] = np.frombuffer(self._req, dtype=np.uint32)
            rows["parent"] = np.where(child, parent.astype(np.int64) + self._written, -1)
            rows["start"] = start
            rows["end"] = np.frombuffer(self._end, dtype=np.float64)
            rows.tofile(self._spans_out)
            self._written += n

    def close(self) -> None:
        """Restore the patches; finish the spans file (``SPAN_DTYPE`` rows, names in ``.json``)."""
        self.uninstall()
        if self._spans_out is None:
            return
        self._spans_out.close()
        self._spans_out = None
        with open(f"{self._spans_path}.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "dtype": SPAN_DTYPE,
                    "rows": self._written,
                },
                fh,
            )

    # ------------------------------------------------------------------
    # layer patches
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def _wrap_attr(
        self, owner: Any, attr: str, span: str, after: Callable[[tuple, Any], None] | None = None
    ) -> None:
        self._patch(owner, attr, self.wrap(getattr(owner, attr), span, after))

    def _count(self, key: str, amount: Callable[[tuple, Any], int]) -> Callable[[tuple, Any], None]:
        counts = self.counts

        def after(args: tuple, result: Any) -> None:
            counts[key] += amount(args, result)

        return after

    def install(self, groups: tuple[str, ...] = ALL_GROUPS) -> None:
        """Patch the entry points of every layer in ``groups``."""
        if "sim" in groups:
            import repro.fleet.build as fleet_build
            from repro.sim.kernel import Kernel

            kernels = self._kernels

            def seen(args: tuple, result: Any) -> None:
                kernels[id(args[0])] = args[0]

            self._wrap_attr(Kernel, "run", "sim", seen)
            self._wrap_attr(Kernel, "run_until_exit", "sim", seen)
            self._wrap_attr(fleet_build, "run_fast_forward", "sim")
        if "sched" in groups:
            from repro.sched.base import Scheduler

            classes, todo = [], [Scheduler]
            while todo:
                cls = todo.pop()
                classes.append(cls)
                todo.extend(cls.__subclasses__())
            methods = ("pick", "charge", "time_until_internal_event")
            # resolve every original before patching any, so a subclass
            # never wraps its base's wrapper
            originals = [(cls, m, getattr(cls, m)) for cls in classes for m in methods]
            for cls, m, fn in originals:
                self._patch(cls, m, self.wrap(fn, "sched"))
        if "workloads" in groups:
            self._install_spawn()
        if "tracer" in groups:
            from repro.tracer.ptrace_tracers import PtraceTracer
            from repro.tracer.qtrace import QTracer

            from repro.sim.kernel import Kernel

            tracers = self._tracers

            def added(args: tuple, result: Any) -> None:
                tracers[id(args[1])] = args[1]

            # ring overruns are tracer state, read from every installed
            # tracer when its request ends
            self._wrap_attr(Kernel, "add_tracer", "tracer", added)
            logged = self._count("tracer.events", lambda args, cost: cost > 0)
            for cls in (QTracer, PtraceTracer):
                self._wrap_attr(cls, "on_syscall_entry", "tracer", logged)
                self._wrap_attr(cls, "on_syscall_exit", "tracer", logged)
            self._wrap_attr(QTracer, "drain", "tracer.download")
            self._wrap_attr(QTracer, "download_cost", "tracer.download")
            orig_agent = QTracer.spawn_download_agent
            rec = self

            def spawn_download_agent(tracer: Any, *args: Any, **kwargs: Any) -> Any:
                rec.spawn_layer = "tracer"
                try:
                    return orig_agent(tracer, *args, **kwargs)
                finally:
                    rec.spawn_layer = "workloads"

            self._patch(QTracer, "spawn_download_agent", spawn_download_agent)
        if "analyser" in groups:
            import repro.core.analyser as analyser_mod
            from repro.core.peaks import PeakDetector

            self._wrap_attr(
                analyser_mod.PeriodAnalyser,
                "analyse",
                "analyser",
                self._count("analyser.estimates", lambda args, est: est is not None),
            )
            self._wrap_attr(
                analyser_mod,
                "sparse_amplitude_spectrum",
                "analyser.spectrum",
                self._count("analyser.events", lambda args, amp: len(args[0])),
            )
            self._wrap_attr(PeakDetector, "detect", "analyser.peaks")
        if "controller" in groups:
            from repro.core.controller import TaskController
            from repro.core.supervisor import Supervisor

            self._wrap_attr(TaskController, "activate", "controller")
            self._wrap_attr(Supervisor, "submit", "controller.supervisor")
            self._wrap_attr(Supervisor, "watchdog", "controller.supervisor")
        if "fleet" in groups:
            import repro.fleet.engine as engine
            from repro.fleet.summary import FleetAggregate

            self._wrap_attr(engine, "run_fleet", "fleet")
            self._wrap_attr(
                FleetAggregate,
                "fold",
                "fleet.fold",
                self._count("fleet.fast_forwarded", lambda args, _: int(args[1].ff_detected)),
            )
            wait = self.wrap

            class TracedPool(engine.ProcessPoolExecutor):  # type: ignore[name-defined,misc]
                """The engine's pool, with the parent's blocking waits recorded."""

                def submit(self, *args: Any, **kwargs: Any) -> Any:
                    future = super().submit(*args, **kwargs)
                    future.result = wait(future.result, "fleet.wait")
                    return future

            self._patch(engine, "ProcessPoolExecutor", TracedPool)

    def _install_spawn(self) -> None:
        from repro.sim.cycles import cycle_adapter_of, register_cycle_adapter
        from repro.sim.kernel import Kernel

        orig_spawn = Kernel.spawn
        rec = self

        def spawn(kernel: Any, name: str, program: Any, **kwargs: Any) -> Any:
            traced = _TracedProgram(rec.wrap(program.send, rec.spawn_layer))
            info = cycle_adapter_of(program)
            if info is not None:
                register_cycle_adapter(traced, info)
            return orig_spawn(kernel, name, traced, **kwargs)

        self._patch(Kernel, "spawn", spawn)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
