"""The fault layer itself: seeded determinism, burst bounds, the registry."""

import importlib
import random
import types

import pytest

from repro.faults import (
    CtrlFaultSpec,
    DmaFaultSpec,
    FaultInjector,
    FaultPlan,
    LinkFaultSpec,
    LinkStateSpec,
    MmioFaultSpec,
    OqFaultSpec,
    ShardFaultSpec,
    available_plans,
    get_plan,
)
from repro.faults.plan import SITES

plan_module = importlib.import_module("repro.faults.plan")

pytestmark = pytest.mark.faults


class TestDeterminism:
    def test_same_seed_identical_schedule(self):
        plan = get_plan("lossy-link", seed=42)
        first = [plan.session().link_attempt() for _ in range(1)]  # warm check
        a, b = plan.session(), plan.session()
        schedule_a = [a.link_attempt() for _ in range(200)]
        schedule_b = [b.link_attempt() for _ in range(200)]
        assert schedule_a == schedule_b
        assert a.counters == b.counters
        assert first[0] == schedule_a[0]

    def test_same_seed_identical_counters_across_runs(self):
        def run():
            session = get_plan("chaos", seed=7).session()
            for _ in range(50):
                session.link_transfer()
                session.dma_fault("rx_completion")
                session.dma_fault("doorbell")
                session.mmio_read_faults()
                session.oq_pressure()
            return session.report()

        assert run() == run()

    def test_different_seeds_differ(self):
        a = get_plan("lossy-link", seed=0).session()
        b = get_plan("lossy-link", seed=1).session()
        assert [a.link_attempt() for _ in range(200)] != [
            b.link_attempt() for _ in range(200)
        ]

    def test_sites_independent(self):
        """Consulting one site must not perturb another's stream."""
        plan = get_plan("chaos", seed=3)
        pure = plan.session()
        link_only = [pure.link_attempt() for _ in range(50)]
        mixed = plan.session()
        interleaved = []
        for _ in range(50):
            interleaved.append(mixed.link_attempt())
            mixed.mmio_read_faults()
            mixed.dma_fault("rx_completion")
        assert link_only == interleaved


class TestLazySiteSeeding:
    """A session seeds each site's RNG on that site's first draw."""

    EVERY_SITE = FaultPlan(
        "every-site", seed=21,
        link=LinkFaultSpec(drop_rate=0.2, corrupt_rate=0.1, lose_rate=0.05,
                           max_burst=2, max_attempts=6),
        dma=DmaFaultSpec(stall_rate=0.2, drop_completion_rate=0.2,
                         drop_doorbell_rate=0.3, max_burst=2),
        mmio=MmioFaultSpec(timeout_rate=0.3),
        oq=OqFaultSpec(spike_rate=0.3),
        ctrl=CtrlFaultSpec(write_drop_rate=0.2, write_corrupt_rate=0.1,
                           reset_rate=0.3, flap_rate=0.3),
        link_state=LinkStateSpec(down_rate=0.3),
        shard=ShardFaultSpec(crash_rate=0.2, hang_rate=0.2,
                             corrupt_rate=0.2),
    )

    CALLS = (
        lambda s: s.link_attempt(),
        lambda s: s.link_transfer(),
        lambda s: s.mangle_wire(bytes(range(64))),
        lambda s: s.dma_fault("rx_completion"),
        lambda s: s.dma_fault("tx_fetch"),
        lambda s: s.dma_fault("doorbell"),
        lambda s: s.mmio_read_faults(),
        lambda s: s.oq_pressure(),
        lambda s: s.ctrl_write(),
        lambda s: s.device_reset_faults(),
        lambda s: s.link_flap_faults(),
        lambda s: s.link_down_faults(),
        lambda s: s.link_down_epochs(),
        lambda s: s.shard_fault(),
    )

    @pytest.fixture
    def constructions(self, monkeypatch):
        """Count ``random.Random`` constructions inside the plan module."""
        built = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(plan_module, "random",
                            types.SimpleNamespace(Random=CountingRandom))
        return built

    def test_lazy_seeding_changes_no_draw(self):
        calls = list(self.CALLS) * 25
        random.Random(4).shuffle(calls)
        lazy = self.EVERY_SITE.session()
        eager = self.EVERY_SITE.session()
        for site in SITES:
            eager._rng[site]  # force every RNG to exist before any draw
        assert list(eager._rng) == list(SITES)
        assert [call(lazy) for call in calls] == [call(eager) for call in calls]
        assert lazy.counters == eager.counters
        # The plan really armed every site, in a different seeding order.
        assert set(lazy._rng) == set(SITES)
        assert list(lazy._rng) != list(SITES)

    def test_clean_session_builds_no_rng(self, constructions):
        session = FaultPlan("none").session()
        assert session.link_transfer()
        assert session.shard_fault() is None
        assert constructions == []

    def test_link_only_plan_builds_one_rng_on_first_transfer(
            self, constructions):
        session = get_plan("lossy-link", seed=9).session()
        assert constructions == []
        session.link_transfer()
        assert constructions == [(plan_module._site_seed(9, "link"),)]
        for _ in range(20):
            session.link_transfer()
            session.mmio_read_faults()  # unarmed site: no draw, no RNG
        assert len(constructions) == 1


class TestBurstBounds:
    def test_link_burst_cap_forces_delivery(self):
        plan = FaultPlan(
            "all-drop", seed=0,
            link=LinkFaultSpec(drop_rate=1.0, max_burst=3, max_attempts=8),
        )
        session = plan.session()
        outcomes = [session.link_attempt() for _ in range(8)]
        # With certainty-drop, the burst cap yields 3 drops then delivery.
        assert outcomes == ["drop"] * 3 + ["deliver"] + ["drop"] * 3 + ["deliver"]

    def test_link_transfer_always_delivers_without_lose(self):
        plan = FaultPlan(
            "all-drop", seed=0,
            link=LinkFaultSpec(drop_rate=1.0, max_burst=3, max_attempts=8),
        )
        session = plan.session()
        assert all(session.link_transfer() for _ in range(50))
        assert session.counters["link_retransmits"] > 0
        assert session.counters["link_lost"] == 0

    def test_lose_is_permanent(self):
        plan = FaultPlan(
            "void", seed=0, link=LinkFaultSpec(lose_rate=1.0, max_attempts=4)
        )
        session = plan.session()
        assert not session.link_transfer()
        assert session.counters["link_lost"] == 1

    def test_mmio_burst_bounded(self):
        plan = FaultPlan("mmio", seed=0, mmio=MmioFaultSpec(timeout_rate=1.0, max_burst=2))
        session = plan.session()
        draws = [session.mmio_read_faults() for _ in range(6)]
        assert draws == [True, True, False, True, True, False]

    def test_wedged_ring_alternates(self):
        session = get_plan("wedged-ring").session()
        outcomes = [session.dma_fault("rx_completion")[0] for _ in range(4)]
        assert outcomes == ["drop", "ok", "drop", "ok"]


class TestSpecs:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            LinkFaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            LinkFaultSpec(drop_rate=0.6, corrupt_rate=0.6)
        with pytest.raises(ValueError):
            LinkFaultSpec(max_burst=0)
        with pytest.raises(ValueError):
            LinkFaultSpec(max_burst=4, max_attempts=4)
        with pytest.raises(ValueError):
            DmaFaultSpec(stall_ns=-1.0)
        with pytest.raises(ValueError):
            OqFaultSpec(spike_bytes=0)

    def test_with_seed(self):
        plan = get_plan("lossy-link")
        assert plan.with_seed(9).seed == 9
        assert plan.with_seed(9).link == plan.link


class TestRegistry:
    def test_known_plans(self):
        names = available_plans()
        for expected in ("lossy-link", "black-hole", "wedged-ring", "flaky-mmio", "chaos"):
            assert expected in names

    def test_unknown_plan(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            get_plan("does-not-exist")


class TestInjectorDisarm:
    def test_hooks_restored(self):
        from repro.board.sume import NetFpgaSume

        board = NetFpgaSume()
        with FaultInjector(get_plan("chaos").session()) as injector:
            injector.arm_board(board)
            assert board.dma.fault_hook is not None
            assert all(mac.corrupt is not None for mac in board.macs)
        assert board.dma.fault_hook is None
        assert all(mac.corrupt is None for mac in board.macs)


class TestLinkStateSite:
    """The data-plane link_down/link_up sites fast reroute draws from."""

    def _plan(self, seed=0):
        from repro.faults import LinkStateSpec

        return FaultPlan(
            "cable-cuts", seed=seed,
            link_state=LinkStateSpec(down_rate=0.2, min_down_epochs=1,
                                     max_down_epochs=3),
        )

    def test_same_seed_identical_stream(self):
        a, b = self._plan().session(), self._plan().session()
        draws_a = [(a.link_down_faults(), a.link_down_epochs())
                   for _ in range(200)]
        draws_b = [(b.link_down_faults(), b.link_down_epochs())
                   for _ in range(200)]
        assert draws_a == draws_b
        assert a.counters == b.counters
        assert a.counters["link_down_events"] > 0

    def test_different_seeds_differ(self):
        a = self._plan(seed=0).session()
        b = self._plan(seed=1).session()
        assert [a.link_down_faults() for _ in range(200)] != \
            [b.link_down_faults() for _ in range(200)]

    def test_derived_per_link_streams_are_stable_and_independent(self):
        """The sweep keys a sub-plan on ("fabric-link", a, b, epoch):
        the draw for one link must be reproducible across runs and
        never perturbed by draws for other links — the property that
        keeps sharded fabric runs fingerprint-identical."""
        plan = self._plan(seed=7)

        def draw(a, b, epoch):
            session = plan.derived("fabric-link", a, b, epoch).session()
            return session.link_down_faults(), session.link_down_epochs()

        solo = draw("sea", "svl", 3)
        for _ in range(3):
            draw("chi", "ny", 3)   # unrelated links
            draw("sea", "svl", 9)  # same link, other epoch
            assert draw("sea", "svl", 3) == solo

    def test_derived_seed_depends_on_every_part(self):
        plan = self._plan(seed=7)
        seeds = {
            plan.derived("fabric-link", a, b, e).seed
            for a, b, e in (("sea", "svl", 3), ("svl", "sea", 3),
                            ("sea", "svl", 4), ("sea", "den", 3))
        }
        assert len(seeds) == 4

    def test_durations_honor_bounds(self):
        session = self._plan().session()
        durations = [session.link_down_epochs() for _ in range(200)]
        assert all(1 <= d <= 3 for d in durations)
        assert len(set(durations)) > 1

    def test_no_spec_means_no_faults(self):
        session = FaultPlan("quiet", seed=0).session()
        assert not session.link_down_faults()
        assert session.link_down_epochs() == 0

    def test_spec_validated(self):
        from repro.faults import LinkStateSpec

        with pytest.raises(ValueError):
            LinkStateSpec(down_rate=1.5)
        with pytest.raises(ValueError):
            LinkStateSpec(down_rate=0.1, min_down_epochs=0)
        with pytest.raises(ValueError):
            LinkStateSpec(down_rate=0.1, min_down_epochs=3,
                          max_down_epochs=2)

    def test_frr_chaos_plan_registered(self):
        plan = get_plan("frr-chaos", seed=11)
        assert plan.link_state is not None
        assert plan.link_state.down_rate > 0
        assert plan.seed == 11
