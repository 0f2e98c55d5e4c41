"""Fast reroute at the device and network layer: port liveness, the
backup CAM column in ``decide()``, ``Network.set_link_state`` and the
generation bump that keeps the flow caches honest across a link kill."""

from __future__ import annotations

import pytest

from repro.projects.reference_switch import ReferenceSwitch
from repro.testenv.topology import Network, TopologyError

from .conftest import mac, udp_frame

pytestmark = pytest.mark.frr


def one_switch() -> Network:
    net = Network()
    net.add_device("s1", ReferenceSwitch())
    return net


def two_switch_fabric() -> Network:
    net = Network()
    net.add_device("s1", ReferenceSwitch())
    net.add_device("s2", ReferenceSwitch())
    net.link("s1", 3, "s2", 0)
    return net


def learn_hosts(net: Network) -> None:
    """Pin host 1 at s1:0 and host 2 at s2:1 in both FDBs."""
    net.inject("s2", 1, udp_frame(2, 1))
    net.inject("s1", 0, udp_frame(1, 2))


def delivery_log(net: Network) -> list[tuple]:
    return [(d.at.device, d.at.port.index, d.frame, d.hops)
            for d in net.deliveries]


# ----------------------------------------------------------------------
# Port liveness on the lookup core
# ----------------------------------------------------------------------
class TestPortLiveness:
    def test_ports_start_up(self):
        switch = ReferenceSwitch()
        assert all(switch.port_is_up(i) for i in range(4))

    def test_down_and_up_round_trip(self):
        switch = ReferenceSwitch()
        assert switch.set_port_state(2, up=False)
        assert not switch.port_is_up(2)
        assert switch.port_is_up(1)
        assert switch.set_port_state(2, up=True)
        assert switch.port_is_up(2)

    def test_no_change_is_reported_and_free(self):
        switch = ReferenceSwitch()
        before = switch.opl.state_generation()
        assert not switch.set_port_state(1, up=True)  # already up
        assert switch.opl.state_generation() == before

    def test_state_change_bumps_generation(self):
        switch = ReferenceSwitch()
        before = switch.opl.state_generation()
        switch.set_port_state(1, up=False)
        after = switch.opl.state_generation()
        assert after > before
        switch.set_port_state(1, up=True)
        assert switch.opl.state_generation() > after

    def test_out_of_range_rejected(self):
        switch = ReferenceSwitch()
        with pytest.raises(ValueError):
            switch.set_port_state(4, up=False)
        with pytest.raises(ValueError):
            switch.set_port_state(-1, up=True)


# ----------------------------------------------------------------------
# The backup column in decide()
# ----------------------------------------------------------------------
class TestBackupColumn:
    def _learned(self) -> Network:
        net = one_switch()
        net.inject("s1", 2, udp_frame(2, 1))  # learn host 2 at port 2
        net.inject("s1", 1, udp_frame(1, 2))  # learn host 1; hit to port 2
        return net

    def test_live_primary_wins_over_backup(self):
        net = self._learned()
        net.device("s1").install_backup_mac(mac(2), 3)
        net.inject("s1", 1, udp_frame(1, 2))
        assert delivery_log(net)[-1][:2] == ("s1", 2)
        assert "frr_reroute" not in net.device("s1").opl.counters

    def test_dead_primary_falls_over_to_backup(self):
        net = self._learned()
        switch = net.device("s1")
        switch.install_backup_mac(mac(2), 3)
        switch.set_port_state(2, up=False)
        net.inject("s1", 1, udp_frame(1, 2))
        assert delivery_log(net)[-1][:2] == ("s1", 3)
        assert switch.opl.counters["frr_reroute"] == 1

    def test_dead_primary_without_backup_blackholes(self):
        net = self._learned()
        switch = net.device("s1")
        before = len(net.deliveries)
        switch.set_port_state(2, up=False)
        net.inject("s1", 1, udp_frame(1, 2))
        assert len(net.deliveries) == before
        assert switch.opl.counters["frr_blackhole"] == 1

    def test_dead_backup_blackholes_too(self):
        net = self._learned()
        switch = net.device("s1")
        switch.install_backup_mac(mac(2), 3)
        switch.set_port_state(2, up=False)
        switch.set_port_state(3, up=False)
        before = len(net.deliveries)
        net.inject("s1", 1, udp_frame(1, 2))
        assert len(net.deliveries) == before
        assert switch.opl.counters["frr_blackhole"] == 1

    def test_backup_equal_to_ingress_blackholes(self):
        # The backup may never bounce the packet out its ingress port.
        net = self._learned()
        switch = net.device("s1")
        switch.install_backup_mac(mac(2), 1)
        switch.set_port_state(2, up=False)
        before = len(net.deliveries)
        net.inject("s1", 1, udp_frame(1, 2))
        assert len(net.deliveries) == before
        assert switch.opl.counters["frr_blackhole"] == 1

    def test_flood_respects_liveness(self):
        net = one_switch()
        net.device("s1").set_port_state(3, up=False)
        net.inject("s1", 0, udp_frame(1, 9))  # unknown dst: flood
        exits = {entry[1] for entry in delivery_log(net)}
        assert exits == {1, 2}

    def test_backup_range_checked(self):
        switch = ReferenceSwitch()
        with pytest.raises(ValueError):
            switch.install_backup_mac(mac(2), 4)

    def test_wipe_volatile_clears_backups(self):
        net = self._learned()
        switch = net.device("s1")
        switch.install_backup_mac(mac(2), 3)
        assert len(switch.backup_table) > 0
        switch.soft_reset()
        assert len(switch.backup_table) == 0


# ----------------------------------------------------------------------
# Network.set_link_state
# ----------------------------------------------------------------------
class TestLinkState:
    def test_kill_marks_both_ends_down(self):
        net = two_switch_fabric()
        assert net.link_is_up("s1", "s2")
        assert net.set_link_state("s1", "s2", up=False)
        assert not net.link_is_up("s1", "s2")
        assert not net.device("s1").port_is_up(3)
        assert not net.device("s2").port_is_up(0)

    def test_restore_brings_both_ends_up(self):
        net = two_switch_fabric()
        net.set_link_state("s1", "s2", up=False)
        assert net.set_link_state("s1", "s2", up=True)
        assert net.link_is_up("s1", "s2")
        assert net.device("s1").port_is_up(3)
        assert net.device("s2").port_is_up(0)

    def test_idempotent_and_order_insensitive(self):
        net = two_switch_fabric()
        assert net.set_link_state("s2", "s1", up=False)
        assert not net.set_link_state("s1", "s2", up=False)
        assert not net.link_is_up("s2", "s1")

    def test_unlinked_pair_rejected(self):
        net = one_switch()
        net.add_device("s2", ReferenceSwitch())
        with pytest.raises(TopologyError):
            net.set_link_state("s1", "s2", up=False)

    def test_traffic_stops_while_down_and_resumes(self):
        net = two_switch_fabric()
        learn_hosts(net)
        baseline = len(net.deliveries)
        net.set_link_state("s1", "s2", up=False)
        net.inject("s1", 0, udp_frame(1, 2))
        assert len(net.deliveries) == baseline  # blackholed at s1
        net.set_link_state("s1", "s2", up=True)
        net.inject("s1", 0, udp_frame(1, 2))
        assert delivery_log(net)[-1][:2] == ("s2", 1)

    def test_wire_drop_when_device_has_not_noticed(self):
        # Detection lag: the cable is cut but s1 still believes its port
        # is up (e.g. a core that does not consult liveness).  The wire
        # itself must eat the packet and account for it.
        net = two_switch_fabric()
        learn_hosts(net)
        net.set_link_state("s1", "s2", up=False)
        net.device("s1").set_port_state(3, up=True)  # stale local view
        before = net.dropped_link_down
        result = net.inject("s1", 0, udp_frame(1, 2))
        assert result.dropped_link_down == 1
        assert net.dropped_link_down == before + 1


# ----------------------------------------------------------------------
# Satellite: link kills invalidate the flow caches (the bugfix)
# ----------------------------------------------------------------------
class TestLinkKillInvalidatesCaches:
    def test_cached_walk_not_replayed_across_dead_link(self):
        net = two_switch_fabric()
        learn_hosts(net)
        net.inject("s1", 0, udp_frame(1, 2))
        net.inject("s1", 0, udp_frame(1, 2))
        assert net.path_hits >= 1  # the walk is cached
        delivered = len(net.deliveries)
        net.set_link_state("s1", "s2", up=False)
        net.inject("s1", 0, udp_frame(1, 2))
        # A stale replay would deliver at s2:1; the re-walk blackholes.
        assert len(net.deliveries) == delivered
        assert net.device("s1").opl.counters["frr_blackhole"] == 1

    def test_fast_and_slow_agree_across_kill_and_restore(self):
        fast, slow = two_switch_fabric(), two_switch_fabric()
        slow.set_fastpath(False)
        for net in (fast, slow):
            learn_hosts(net)
            net.inject("s1", 0, udp_frame(1, 2))
            net.inject("s1", 0, udp_frame(1, 2))
            net.set_link_state("s1", "s2", up=False)
            net.inject("s1", 0, udp_frame(1, 2))
            net.set_link_state("s1", "s2", up=True)
            net.inject("s1", 0, udp_frame(1, 2))
        assert delivery_log(fast) == delivery_log(slow)
        assert fast.dropped_link_down == slow.dropped_link_down
        for name in ("s1", "s2"):
            assert (fast.device(name).opl.counters
                    == slow.device(name).opl.counters)

    def test_repeated_injects_respect_link_state_changes(self):
        net = two_switch_fabric()
        learn_hosts(net)
        frame = udp_frame(1, 2)

        def send_three():
            for _ in range(3):
                net.inject("s1", 0, frame)

        send_three()
        delivered = len(net.deliveries)
        net.set_link_state("s1", "s2", up=False)
        send_three()
        assert len(net.deliveries) == delivered
        net.set_link_state("s1", "s2", up=True)
        send_three()
        assert len(net.deliveries) == delivered + 3
