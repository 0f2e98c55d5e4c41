"""The benchmark's three workloads and the reference each is checked against.

Every workload turns a seed into inputs (the program receives only the
generated inputs) and exposes one *operation*: a long batch job through
a public entry point.  Fabric workloads call ``run_sharded`` from spec
to merged, fingerprinted report; ``cycle-sim`` builds a reference
switch and drains 400 frames through ``run_sim``.

Each operation is checked against the repository's own reference path:

* fabric: the per-packet, uncached, 1-shard run (``batch=False,
  fastpath=False``) must fingerprint identically.  That run costs a few
  seconds, so fingerprints for the seeds in ``reference_fingerprints.json``
  are pinned and only other seeds compute it live.
* ``cycle-sim``: the behavioural model (``run_hw``) must emit the same
  frames on every port, in the same order per source host.  The kernel
  interleaves different ingress ports differently from the one-shot
  model, which the harness leaves unspecified.

A mismatch names the first differing flow record, device counter or
port (:func:`first_difference`).
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from hashlib import sha256
from pathlib import Path
from typing import Optional

from repro.fabric import FabricReport, WorkloadSpec, get_topology, run_sharded
from repro.faults import get_plan
from repro.packet.addresses import Ipv4Addr, MacAddr
from repro.packet.generator import make_udp_frame
from repro.projects.base import ALL_PORTS, PortRef
from repro.projects.reference_switch import ReferenceSwitch
from repro.testenv import Stimulus, harness

#: ``{workload: {seed: fingerprint}}`` of the reference runs.
PINNED_PATH = Path(__file__).with_name("reference_fingerprints.json")


@dataclass
class Outcome:
    """One operation: its output digest and the timings taken around it."""

    fingerprint: str
    packets: int
    wall_s: float
    setup_s: float
    report: object = None  # FabricReport, or the run_sim HarnessResult
    retries: int = 0       # supervised worker relaunches
    probe_s: float = 0.0   # host-speed probe timed around the operation


# ----------------------------------------------------------------------
# Fabric workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FabricWorkload:
    name: str
    topology: str
    spec: WorkloadSpec
    plan: Optional[str] = None
    shards: int = 1
    frr: bool = False

    def case(self, seed: int, scale: float = 1.0) -> "FabricCase":
        flows = max(self.shards, round(self.spec.flows * scale))
        return FabricCase(
            self,
            seed,
            replace(self.spec, flows=flows, seed=seed),
            get_plan(self.plan, seed=seed) if self.plan else None,
            pinned_ok=scale == 1.0,
        )


class FabricCase:
    def __init__(self, workload: FabricWorkload, seed: int,
                 spec: WorkloadSpec, plan, pinned_ok: bool):
        self.workload = workload
        self.seed = seed
        self.spec = spec
        self.plan = plan
        self._pinned_ok = pinned_ok
        self._reference: Optional[FabricReport] = None

    @property
    def size(self) -> dict:
        w = self.workload
        return {
            "topology": w.topology, "workload": self.spec.key,
            "plan": w.plan, "frr": w.frr, "shards": w.shards,
            "flows": self.spec.flows,
        }

    def _call(self, **overrides) -> FabricReport:
        w = self.workload
        kwargs = dict(shards=w.shards, frr=w.frr)
        kwargs.update(overrides)
        return run_sharded(get_topology(w.topology), self.spec, self.plan,
                           **kwargs)

    def run(self, parallel: bool = True) -> Outcome:
        """The timed operation: spec to merged, fingerprinted report."""
        started = time.perf_counter()
        report = self._call(parallel=parallel)
        fingerprint = report.fingerprint()
        wall = time.perf_counter() - started
        return Outcome(fingerprint, report.attempted, wall,
                       wall - report.elapsed_s, report,
                       report.supervision.get("retries", 0))

    def traced_op(self) -> Outcome:
        # Shards run in-process so every span lands in one recorder;
        # the partition and merge code is the same as the process path.
        return self.run(parallel=False)

    def reference_report(self) -> FabricReport:
        if self._reference is None:
            self._reference = self._call(shards=1, batch=False,
                                         fastpath=False)
        return self._reference

    def reference_fingerprint(self) -> str:
        if self._pinned_ok:
            pinned = json.loads(PINNED_PATH.read_text()).get(
                self.workload.name, {})
            if str(self.seed) in pinned:
                return pinned[str(self.seed)]
        return self.reference_report().fingerprint()

    def explain(self, outcome: Outcome, expected: str) -> str:
        reference = self.reference_report()
        if reference.fingerprint() != expected:
            return (f"expected {expected[:12]} is not the reference "
                    f"run's fingerprint {reference.fingerprint()[:12]}; "
                    + (first_difference(reference.signature(),
                                        outcome.report.signature())
                       or "output equals the live reference"))
        return first_difference(reference.signature(),
                                outcome.report.signature()) or "no difference"

    def properties(self, outcome: Outcome) -> dict:
        """The measured shares that define each fabric workload."""
        report = outcome.report
        return {
            "packets": report.attempted,
            "batch_replay_share": round(
                report.batch.get("replayed_packets", 0) / report.attempted, 4),
            "setup_share_of_wall": round(outcome.setup_s / outcome.wall_s, 4),
            "path_invalidations": report.fastpath.get("path_invalidations", 0),
            "device_cache_hits": report.fastpath.get("device_hits", 0),
            "slow_walks": report.fastpath.get("path_misses", 0),
            "blackholed": sum(r.blackholed for r in report.records),
        }


# ----------------------------------------------------------------------
# Cycle-kernel workload
# ----------------------------------------------------------------------
_PHYS_PORTS = 4
_HOSTS_PER_PORT = 2
_FRAME_SIZES = (64, 256, 1518)


def _hosts() -> list[tuple[MacAddr, Ipv4Addr, int]]:
    return [
        (MacAddr.parse(f"02:00:00:00:00:{i + 1:02x}"),
         Ipv4Addr.parse(f"10.0.0.{i + 1}"), i % _PHYS_PORTS)
        for i in range(_PHYS_PORTS * _HOSTS_PER_PORT)
    ]


def build_switch() -> ReferenceSwitch:
    """The device under test, its FDB pinned to the hosts' ports.

    Pinned entries make every forwarding decision independent of the
    order frames reach the lookup, so the cycle kernel and the
    behavioural model must agree frame for frame.
    """
    switch = ReferenceSwitch()
    for mac, _, port in _hosts():
        switch.install_static_mac(mac, port)
    return switch


def _per_source(outputs: dict) -> dict:
    """Per egress port, each source MAC's frames in arrival order."""
    grouped = {}
    for port in ALL_PORTS:
        by_src: dict[str, list[bytes]] = {}
        for frame in outputs.get(port, []):
            by_src.setdefault(frame[6:12].hex(), []).append(frame)
        grouped[str(port)] = {src: [f.hex() for f in frames]
                              for src, frames in sorted(by_src.items())}
    return grouped


def cycle_digest(outputs: dict) -> str:
    return sha256(json.dumps(_per_source(outputs), sort_keys=True)
                  .encode()).hexdigest()


@dataclass(frozen=True)
class CycleWorkload:
    name: str
    frames: int = 400

    def case(self, seed: int, scale: float = 1.0) -> "CycleCase":
        rng = random.Random(seed)
        hosts = _hosts()
        # Every seed carries the same mix of source hosts and frame
        # sizes; the seed orders it and draws destinations.  So the
        # cycles one operation takes, and with them its frames per
        # second, barely depend on the seed.
        mix = [(i % len(hosts),
                _FRAME_SIZES[i // len(hosts) % len(_FRAME_SIZES)])
               for i in range(max(1, round(self.frames * scale)))]
        rng.shuffle(mix)
        stimuli = []
        for i, (src, size) in enumerate(mix):
            dst = rng.choice([h for h in range(len(hosts))
                              if hosts[h][2] != hosts[src][2]])
            frame = make_udp_frame(
                hosts[src][0], hosts[dst][0], hosts[src][1], hosts[dst][1],
                1024 + i, 2048, size=size,
            ).pack()
            stimuli.append(Stimulus(PortRef("phys", hosts[src][2]), frame))
        return CycleCase(self, seed, stimuli)


class CycleCase:
    def __init__(self, workload: CycleWorkload, seed: int,
                 stimuli: list[Stimulus]):
        self.workload = workload
        self.seed = seed
        self.stimuli = stimuli
        self._reference = None

    @property
    def size(self) -> dict:
        return {"project": "reference_switch", "frames": len(self.stimuli),
                "frame_sizes": list(_FRAME_SIZES), "phys_ports": _PHYS_PORTS}

    def run(self) -> Outcome:
        """The timed operation: project build to drained outputs."""
        started = time.perf_counter()
        switch = build_switch()
        built = time.perf_counter()
        result = harness.run_sim(switch, self.stimuli)
        digest = cycle_digest(result.outputs)
        wall = time.perf_counter() - started
        return Outcome(digest, len(self.stimuli), wall, built - started,
                       result)

    def reference_outputs(self) -> dict:
        if self._reference is None:
            self._reference = harness.run_hw(build_switch(),
                                             self.stimuli).outputs
        return self._reference

    def traced_op(self) -> Outcome:
        # The traced pass also runs the behavioural reference, so the
        # ledger covers hw.forward_s.
        outcome = self.run()
        self._reference = None
        self.reference_outputs()
        return outcome

    def reference_fingerprint(self) -> str:
        return cycle_digest(self.reference_outputs())

    def explain(self, outcome: Outcome, expected: str) -> str:
        return first_difference(_per_source(self.reference_outputs()),
                                _per_source(outcome.report.outputs)) or (
            "no difference")

    def properties(self, outcome: Outcome) -> dict:
        return {"frames": len(self.stimuli), "cycles": outcome.report.cycles}


# ----------------------------------------------------------------------
# First difference between two signatures
# ----------------------------------------------------------------------
_FLOW_FIELDS = ("flow_id", "src", "dst", "attempted", "delivered",
                "lost_wire", "lost_flap", "lost_link", "blackholed",
                "dropped_hop_limit", "misdelivered", "retransmits",
                "bytes_delivered", "hops_total", "hops_max")


def first_difference(want, got, path: str = "") -> Optional[str]:
    """Name the first place ``got`` departs from ``want``, or ``None``.

    Walks a report ``signature()`` (or any nest of dicts and lists).
    Flow records are matched by flow id and named by field, so a
    mismatch reads ``flows[17].delivered: 4 != 3``.
    """
    if path == "flows" and isinstance(want, list):
        got_by_id = {rec[0]: rec for rec in got}
        for rec in want:
            other = got_by_id.get(rec[0])
            if other is None:
                return f"flows[{rec[0]}]: missing"
            for name, a, b in zip(_FLOW_FIELDS, rec, other):
                if a != b:
                    return f"flows[{rec[0]}].{name}: {a!r} != {b!r}"
        extra = sorted(set(got_by_id) - {rec[0] for rec in want})
        return f"flows[{extra[0]}]: unexpected" if extra else None
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got), key=str):
            sub = f"{path}[{key}]" if path else str(key)
            if key not in got:
                return f"{sub}: missing"
            if key not in want:
                return f"{sub}: unexpected"
            found = first_difference(want[key], got[key], sub)
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        for index, (a, b) in enumerate(zip(want, got)):
            found = first_difference(a, b, f"{path}[{index}]")
            if found:
                return found
        if len(want) != len(got):
            return f"{path}: length {len(want)} != {len(got)}"
        return None
    if want != got:
        shown = [v if len(repr(v)) <= 40 else repr(v)[:37] + "..."
                 for v in (want, got)]
        return f"{path}: {shown[0]!r} != {shown[1]!r}"
    return None


WORKLOADS = {
    w.name: w for w in (
        FabricWorkload(
            "short-flows-sharded", "fat-tree-4",
            WorkloadSpec("uniform", flows=2400, packets_per_flow=4,
                         window_ticks=1024),
            shards=2,
        ),
        FabricWorkload(
            "frr-churn", "abilene",
            WorkloadSpec("uniform", flows=600, packets_per_flow=32,
                         window_ticks=2048, int_ratio=1.0),
            plan="frr-chaos", frr=True,
        ),
        CycleWorkload("cycle-sim"),
    )
}
