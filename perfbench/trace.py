"""Span recording around the program's public functions and methods.

The benchmark wraps calls into each layer from its own files; nothing in
``src/`` knows it is being traced.  A :class:`Recorder` patches a set of
functions for the length of a ``with`` block and restores them after.

Each wrapped call is a span with a name, start, end and parent.  Its
*self time* is its duration minus the time of the wrapped calls it made.
Every span's self time is tallied per name.  The full span (name,
start, end, parent) is also kept in memory, for the Chrome trace written
when the benchmark ends, except at the per-cycle and per-decision sites
(``TALLY_ONLY``): those run about a million times per operation, so only
their call count and self time are kept.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

#: Names whose spans are tallied but not kept one by one.
TALLY_ONLY = frozenset({
    "sim.comb", "sim.tick", "sim.step", "device.decide", "device.parse",
    "device.generation",
})

#: The most spans kept for the Chrome trace; later ones are only tallied.
MAX_SPANS = 200_000


class Recorder:
    """Collects spans from the functions it has patched."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        # Open spans, innermost last:
        # [child seconds, own span index, parent span index].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _enter(self, name: str) -> tuple[list, float]:
        parent = self._stack[-1][1] if self._stack else -1
        own = parent  # a span not kept lends its parent to its children
        if name not in TALLY_ONLY:
            if len(self.spans) < MAX_SPANS:
                own = len(self.spans)
                self.spans.append(None)  # filled in on exit
            else:
                self.dropped += 1
        frame = [0.0, own, parent]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name: str, frame: list, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[0]
        if frame[1] != frame[2]:
            self.spans[frame[1]] = (name, start, end, frame[2])

    @contextmanager
    def span(self, name: str):
        frame, start = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, frame, start)

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            frame, start = recorder._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._exit(name, frame, start)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching --------------------------------------------------------
    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_method(self, cls: type, attr: str, name: str) -> None:
        self.patch(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def patch_overrides(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass defining it."""
        todo, seen, patched = [base], set(), 0
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in cls.__dict__:
                self.patch_method(cls, attr, name)
                patched += 1
        if not patched:
            raise LookupError(f"{name}: no class below {base.__name__} "
                              f"defines {attr}")

    def patch_function(self, fn: Callable, name: str) -> None:
        """Wrap ``fn`` in every ``repro`` module that binds it by name.

        Raises if no module binds it, so a layer that stops being
        measured fails loudly instead of reading 0.
        """
        wrapped = self.wrap(name, fn)
        patched = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapped)
                    patched += 1
        if not patched:
            raise LookupError(f"{name}: no repro module binds "
                              f"{getattr(fn, '__qualname__', fn)}")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def kept(self, name: str) -> list[tuple[float, float]]:
        """``(start, end)`` of every kept span called ``name``, in order."""
        return [(s, e) for n, s, e, _ in self.spans if n == name]

    def chrome_trace(self, path: Path, meta: dict) -> None:
        """Write the kept spans as a Chrome trace (``chrome://tracing``)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X",
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "pid": 0, "tid": 0, "args": {"id": index, "parent": parent}}
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]
        tallies = {name: {"calls": self.calls[name],
                          "total_s": self.total_s[name],
                          "self_s": self.self_s[name]}
                   for name in sorted(self.calls)}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "otherData": {**meta, "tallies": tallies,
                          "spans_dropped": self.dropped},
        }))


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def instrument_light(rec: Recorder) -> None:
    """Shard-level boundaries only: a handful of spans per operation,
    cheap enough to stand in for an untraced in-process run."""
    from repro.core.simulator import Simulator
    from repro.fabric import shard
    from repro.fabric.scheduler import FabricReport
    from repro.fabric.topo import FabricSpec

    rec.patch_method(FabricSpec, "build", "topo.build")
    rec.patch_function(shard.run_flows, "fabric.run_flows")
    rec.patch_function(shard.merge_reports, "shard.merge")
    rec.patch_method(FabricReport, "fingerprint", "report.fingerprint")
    rec.patch_method(Simulator, "step", "sim.step")


def instrument_full(rec: Recorder, engines: list) -> None:
    """Every layer boundary in the per-layer ledger.

    ``FlowEngine.report`` drains the event heap and then builds the
    report.  To time the two apart its wrapper calls the public
    ``FlowEngine.run`` first, which drains the heap with the same
    dispatch calls in the same order; ``report`` then finds it empty.
    The engines it drained are appended to ``engines``.
    """
    from repro.core.module import Module
    from repro.core.simulator import Simulator
    from repro.cores import header_parser
    from repro.cores.output_port_lookup import OutputPortLookup
    from repro.fabric import scheduler, shard, workload
    from repro.fabric.scheduler import FabricReport, FlowEngine
    from repro.fabric.topo import FabricSpec, FabricTopology
    from repro.faults.plan import FaultPlan
    from repro.int.collector import IntCollector
    from repro.projects.base import ReferencePipeline
    from repro.testenv import harness
    from repro.testenv.topology import Network

    rec.patch_method(FabricSpec, "build", "topo.build")
    rec.patch_method(FabricTopology, "learn", "topo.learn")
    rec.patch_method(FabricTopology, "install_backups", "frr.backups")
    rec.patch_function(workload.generate_flows, "workload.generate")
    rec.patch_method(FaultPlan, "derived", "faults.derived")
    rec.patch_method(FaultPlan, "session", "faults.session")

    rec.patch_method(FlowEngine, "__init__", "engine.setup")
    run = rec.wrap("engine.dispatch", FlowEngine.__dict__["run"])
    report = rec.wrap("engine.report", FlowEngine.__dict__["report"])

    def drain_then_report(engine):
        if not engine.finished:
            engines.append(engine)
            run(engine)
        return report(engine)

    rec.patch(FlowEngine, "report", drain_then_report)
    rec.patch_method(FabricReport, "fingerprint", "report.fingerprint")
    rec.patch_function(scheduler.run_flows, "fabric.run_flows")
    rec.patch_function(shard.merge_reports, "shard.merge")

    rec.patch_method(Network, "warm_paths", "net.warm")
    rec.patch_method(Network, "inject", "net.inject")
    rec.patch_method(Network, "inject_batch", "net.inject_batch")
    rec.patch_method(Network, "set_link_state", "net.link_state")

    rec.patch_overrides(ReferencePipeline, "forward_behavioural",
                        "device.forward")
    rec.patch_overrides(ReferencePipeline, "state_generation",
                        "device.generation")
    rec.patch_overrides(OutputPortLookup, "decide", "device.decide")
    rec.patch_function(header_parser.parse_headers, "device.parse")

    for method in ("sent", "sent_batch", "deliver", "deliver_batch",
                   "summary"):
        rec.patch_method(IntCollector, method, "int.collect")

    rec.patch_function(harness.run_sim, "sim.run_sim")
    rec.patch_function(harness.run_hw, "hw.forward")
    rec.patch_method(Simulator, "step", "sim.step")
    rec.patch_overrides(Module, "comb", "sim.comb")
    rec.patch_overrides(Module, "tick", "sim.tick")


@contextmanager
def instrumented(install: Callable[[Recorder], None]):
    rec = Recorder()
    install(rec)
    try:
        yield rec
    finally:
        rec.restore()
