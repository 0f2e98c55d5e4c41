"""Flow-cache fast path at the network layer: path cache, batched
injection, fabric fingerprint identity, telemetry and the CLI face."""

from __future__ import annotations

import json

import pytest

from repro.fabric import get_topology, get_workload, run_sharded
from repro.fabric.scheduler import flow_frame, run_flows
from repro.fabric.workload import WorkloadSpec, generate_flows
from repro.faults import get_plan, inject
from repro.host.nfmon import main as nfmon_main
from repro.packet.generator import make_udp_frame
from repro.projects.reference_switch import ReferenceSwitch
from repro.telemetry import TelemetrySession, probe_fastpath
from repro.testenv.topology import Network

from .conftest import udp_frame

pytestmark = pytest.mark.fastpath

_SPORT_BASE = 40000
_DPORT_BASE = 50000


def two_switch_fabric() -> Network:
    net = Network()
    net.add_device("s1", ReferenceSwitch())
    net.add_device("s2", ReferenceSwitch())
    net.link("s1", 3, "s2", 0)
    return net


def delivery_log(net: Network) -> list[tuple]:
    return [(d.at.device, d.at.port.index, d.frame, d.hops)
            for d in net.deliveries]


# ----------------------------------------------------------------------
# Path cache: replay equivalence and stats
# ----------------------------------------------------------------------
class TestPathCache:
    def test_cached_walks_replay_identically(self):
        fast, slow = two_switch_fabric(), two_switch_fabric()
        slow.set_fastpath(False)
        traffic = [("s1", 0, udp_frame(1, 2)), ("s2", 1, udp_frame(2, 1)),
                   ("s1", 0, udp_frame(1, 2)), ("s1", 0, udp_frame(1, 2))]
        for device, port, frame in traffic:
            fast.inject(device, port, frame)
            slow.inject(device, port, frame)
        assert delivery_log(fast) == delivery_log(slow)
        assert fast.dropped_hop_limit == slow.dropped_hop_limit
        assert fast.forwarded_hops == slow.forwarded_hops
        for name in ("s1", "s2"):
            assert (fast.device(name).opl.counters
                    == slow.device(name).opl.counters)
        assert fast.path_hits == 1  # the third A→B repeats the second

    def test_table_mutation_invalidates_the_path_cache(self):
        net = two_switch_fabric()
        frame = udp_frame(1, 2)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        hits_before = net.path_hits
        assert hits_before >= 1
        net.device("s2").install_static_mac("02:00:00:00:00:09", 2)
        net.inject("s1", 0, frame)
        assert net.path_invalidations == 1
        assert net.path_hits == hits_before  # that walk was a miss

    def test_armed_datapath_faults_make_walks_uncacheable(self):
        net = two_switch_fabric()
        frame = udp_frame(1, 2)
        net.inject("s1", 0, frame)  # learn
        with inject(get_plan("oq-pressure"), project=net.device("s2")):
            net.inject("s1", 0, frame)
            net.inject("s1", 0, frame)
            assert net.path_hits == 0
            assert net.path_bypasses >= 2
        stats = net.fastpath_stats()
        assert stats["device_bypasses"] >= 2  # s2 stepped aside per packet

    def test_set_fastpath_off_clears_and_stops_counting(self):
        net = two_switch_fabric()
        frame = udp_frame(1, 2)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        assert net.path_entries > 0
        net.set_fastpath(False)
        assert net.path_entries == 0
        misses_before = net.path_misses
        net.inject("s1", 0, frame)
        assert net.path_misses == misses_before
        assert net.fastpath_stats()["device_entries"] == 0


# ----------------------------------------------------------------------
# Fabric: fingerprints are cache-invariant, under faults and shards
# ----------------------------------------------------------------------
class TestFabricFingerprintInvariance:
    WORKLOAD = WorkloadSpec(flows=60, packets_per_flow=6, seed=11)

    def _pair(self, plan=None):
        spec = get_topology("leaf-spine")
        on = run_flows(spec.build(), self.WORKLOAD, plan)
        off = run_flows(spec.build(), self.WORKLOAD, plan, fastpath=False)
        return on, off

    def test_clean_run(self):
        on, off = self._pair()
        assert on.fingerprint() == off.fingerprint()
        assert [r.signature() for r in on.records] == \
               [r.signature() for r in off.records]
        assert on.fastpath["path_hits"] > 0
        assert sum(off.fastpath.values()) == 0

    def test_under_flaky_fabric_plan(self):
        on, off = self._pair(get_plan("flaky-fabric", seed=3))
        assert on.fingerprint() == off.fingerprint()
        assert on.fault_counters == off.fault_counters

    def test_under_ctrl_chaos_plan(self):
        on, off = self._pair(get_plan("ctrl-chaos", seed=3))
        assert on.fingerprint() == off.fingerprint()
        assert on.fault_counters == off.fault_counters

    def test_shard_invariance_with_and_without_cache(self):
        spec = get_topology("leaf-spine")
        one = run_sharded(spec, self.WORKLOAD, shards=1)
        four = run_sharded(spec, self.WORKLOAD, shards=4, parallel=False)
        four_off = run_sharded(spec, self.WORKLOAD, shards=4,
                               parallel=False, fastpath=False)
        assert one.fingerprint() == four.fingerprint()
        assert one.fingerprint() == four_off.fingerprint()
        # Shard reports carry their summed cache stats along.
        assert four.fastpath["path_misses"] > 0
        assert sum(four_off.fastpath.values()) == 0

    def test_flow_frame_matches_fresh_build(self):
        topology = get_topology("leaf-spine").build()
        flows = generate_flows(topology.host_names(),
                               WorkloadSpec(flows=8, seed=2))
        for flow in flows:
            for is_response in (False, True):
                src = topology.hosts[flow.dst if is_response else flow.src]
                dst = topology.hosts[flow.src if is_response else flow.dst]
                fresh = make_udp_frame(
                    src.mac, dst.mac, src.ip, dst.ip,
                    _SPORT_BASE + (flow.flow_id % 10000),
                    _DPORT_BASE + (flow.flow_id % 10000),
                    size=flow.frame_size,
                ).pack()
                assert flow_frame(topology, flow, is_response) == fresh


# ----------------------------------------------------------------------
# Telemetry: probe_fastpath mirrors the counters, parity-safe
# ----------------------------------------------------------------------
class TestProbeFastpath:
    def test_series_track_cache_activity(self):
        net = two_switch_fabric()
        session = TelemetrySession("sim")
        probe_fastpath(net, session)
        frame = udp_frame(1, 2)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        net.inject("s1", 0, frame)
        snap = session.registry.snapshot()
        assert snap['fastpath_events_total{device="net",event="hit"}'] == \
            net.path_hits
        assert snap['fastpath_events_total{device="net",event="miss"}'] == \
            net.path_misses
        assert snap['fastpath_entries{device="net"}'] == net.path_entries
        s1 = net.device("s1").fastpath
        assert snap['fastpath_events_total{device="s1",event="miss"}'] == \
            s1.misses
        assert snap['fastpath_entries{device="s1"}'] == len(s1.entries)

    def test_series_are_in_the_parity_set(self):
        """Cache behaviour is mode-independent, so the series must
        survive a cycle-independent-only snapshot."""
        net = two_switch_fabric()
        session = TelemetrySession("sim")
        probe_fastpath(net, session)
        net.inject("s1", 0, udp_frame(1, 2))
        parity = session.registry.snapshot(cycle_independent_only=True)
        assert any(name.startswith("fastpath_events_total") for name in parity)
        assert any(name.startswith("fastpath_entries") for name in parity)


# ----------------------------------------------------------------------
# nf-mon: the operator's A/B switch
# ----------------------------------------------------------------------
class TestNfmonFastpath:
    def test_fabric_prints_flow_cache_stats(self, capsys):
        assert nfmon_main(["fabric", "--topo", "leaf-spine",
                           "--workload", "uniform-small"]) == 0
        out = capsys.readouterr().out
        assert "flow-cache stats:" in out
        assert "path_hits" in out

    def test_no_fastpath_flag_same_fingerprint(self, capsys):
        args = ["fabric", "--topo", "leaf-spine",
                "--workload", "uniform-small", "--format", "json"]
        assert nfmon_main(args) == 0
        with_cache = json.loads(capsys.readouterr().out)
        assert nfmon_main(args + ["--no-fastpath"]) == 0
        without = json.loads(capsys.readouterr().out)
        assert with_cache["fingerprint"] == without["fingerprint"]
        assert with_cache["fastpath"]["path_misses"] > 0
        assert sum(without["fastpath"].values()) == 0
