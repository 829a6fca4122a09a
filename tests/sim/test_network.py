"""Tests for the broadcast network fabric and traffic accounting."""

from __future__ import annotations

import pytest

from repro.faults import FaultInjector, LinkFault, Scenario
from repro.sim.delays import FixedDelay
from repro.sim.metrics import Metrics
from repro.sim.network import Network, message_kind, wire_size
from repro.sim.simulator import Simulation


class Recorder:
    """Minimal party: records (time, message) deliveries."""

    def __init__(self, index: int, sim: Simulation) -> None:
        self.index = index
        self.sim = sim
        self.received: list[tuple[float, object]] = []

    def on_receive(self, message: object) -> None:
        self.received.append((self.sim.now, message))


class SizedMessage:
    kind = "sized"

    def __init__(self, size: int) -> None:
        self._size = size

    def wire_size(self) -> int:
        return self._size


def make_net(n: int = 3, delay: float = 0.1):
    sim = Simulation(seed=1)
    net = Network(sim, n, FixedDelay(delay), Metrics(n=n))
    parties = [Recorder(i, sim) for i in range(1, n + 1)]
    for p in parties:
        net.attach(p)
    return sim, net, parties


class TestDelivery:
    def test_broadcast_reaches_everyone(self):
        sim, net, parties = make_net()
        net.broadcast(1, b"hello")
        sim.run()
        assert all(len(p.received) == 1 for p in parties)

    def test_self_delivery_immediate_others_delayed(self):
        sim, net, parties = make_net(delay=0.5)
        net.broadcast(1, b"hello")
        sim.run()
        assert parties[0].received[0][0] == 0.0
        assert parties[1].received[0][0] == 0.5

    def test_point_to_point(self):
        sim, net, parties = make_net()
        net.send(1, 3, b"direct")
        sim.run()
        assert len(parties[0].received) == 0
        assert len(parties[2].received) == 1

    def test_multicast(self):
        sim, net, parties = make_net()
        net.multicast(1, [2, 3], b"m")
        sim.run()
        assert len(parties[0].received) == 0
        assert len(parties[1].received) == 1
        assert len(parties[2].received) == 1

    def test_out_of_range_receiver_rejected_before_accounting(self):
        # Counting the copy and dropping it on arrival would hide the caller's bug.
        sim, net, parties = make_net(n=3)
        with pytest.raises(ValueError, match="outside 1..3"):
            net.send(1, 99, b"x")
        with pytest.raises(ValueError, match="outside 1..3"):
            net.multicast(1, [0, 2], b"y")
        sim.run()
        assert net.metrics.msgs_sent[1] == 0
        assert net.delivered_count == 0
        assert all(not p.received for p in parties)

    def test_attach_validation(self):
        sim, net, parties = make_net()
        with pytest.raises(ValueError):
            net.attach(Recorder(1, sim))  # duplicate
        with pytest.raises(ValueError):
            net.attach(Recorder(99, sim))  # out of range


class TestCrash:
    def test_crashed_sender_sends_nothing(self):
        sim, net, parties = make_net()
        net.crash(1)
        net.broadcast(1, b"x")
        sim.run()
        assert all(not p.received for p in parties)

    def test_crashed_receiver_gets_nothing(self):
        sim, net, parties = make_net()
        net.crash(3)
        net.broadcast(1, b"x")
        sim.run()
        assert len(parties[2].received) == 0
        assert len(parties[1].received) == 1

    def test_crash_drops_in_flight(self):
        sim, net, parties = make_net(delay=1.0)
        net.broadcast(1, b"x")
        sim.schedule(0.5, lambda: net.crash(3))
        sim.run()
        assert len(parties[2].received) == 0

    def test_crash_is_idempotent(self):
        sim, net, parties = make_net()
        net.crash(3)
        net.crash(3)
        net.revive(3)
        net.broadcast(1, b"x")
        sim.run()
        assert len(parties[2].received) == 1

    def test_crash_rejects_out_of_range_index(self):
        sim, net, _ = make_net(n=3)
        with pytest.raises(ValueError, match="outside 1..3"):
            net.crash(0)
        with pytest.raises(ValueError, match="outside 1..3"):
            net.crash(4)

    def test_revive_of_never_crashed_party_rejected(self):
        # Silently accepting this used to emit a phantom net.revive event
        # for a node that never went down — a mis-specified fault schedule
        # must be loud.
        sim, net, _ = make_net()
        with pytest.raises(ValueError, match="not crashed"):
            net.revive(2)

    def test_revive_rejects_out_of_range_index(self):
        sim, net, _ = make_net(n=3)
        with pytest.raises(ValueError, match="outside 1..3"):
            net.revive(7)

    def test_revive_after_crash_restores_delivery(self):
        sim, net, parties = make_net()
        net.crash(3)
        net.revive(3)
        with pytest.raises(ValueError, match="not crashed"):
            net.revive(3)  # a second revive is the same mis-specification
        net.broadcast(1, b"x")
        sim.run()
        assert len(parties[2].received) == 1


class TestPartition:
    def test_messages_held_until_heal(self):
        sim, net, parties = make_net(delay=0.1)
        net.add_partition({1}, heal_time=5.0)
        net.broadcast(1, b"x")
        sim.run(until=4.0)
        assert len(parties[1].received) == 0
        sim.run()
        # Eventual delivery after heal.
        assert len(parties[1].received) == 1
        assert parties[1].received[0][0] >= 5.0

    def test_intra_partition_unaffected(self):
        sim, net, parties = make_net(delay=0.1)
        net.add_partition({1, 2}, heal_time=5.0)
        net.send(1, 2, b"x")
        sim.run(until=1.0)
        assert len(parties[1].received) == 1

    def test_expired_partition_noop(self):
        sim, net, parties = make_net(delay=0.1)
        net.add_partition({1}, heal_time=0.0)
        net.broadcast(1, b"x")
        sim.run()
        assert parties[1].received[0][0] == pytest.approx(0.1)
        assert net.active_partitions() == []

    def test_partition_rejects_out_of_range_index(self):
        sim, net, _ = make_net(n=3)
        with pytest.raises(ValueError, match="outside 1..3"):
            net.add_partition({1, 9}, heal_time=5.0)

    def test_overlapping_partitions_hold_until_last_heal(self):
        # Two partitions both separate 1 from 3 with different heal
        # times: the message must wait for the *last* separating cut.
        sim, net, parties = make_net(delay=0.1)
        net.add_partition({1}, heal_time=2.0)
        net.add_partition({1, 2}, heal_time=5.0)
        net.send(1, 3, b"x")
        sim.run(until=4.0)
        assert parties[2].received == []
        sim.run()
        assert parties[2].received[0][0] >= 5.0

    def test_partitioning_a_crashed_party_crash_wins(self):
        # While crashed, messages to the party are dropped (not held);
        # after revive the partition applies like anyone else.
        sim, net, parties = make_net(delay=0.1)
        net.crash(3)
        net.add_partition({3}, heal_time=5.0)
        net.broadcast(1, b"lost")          # dropped: 3 is down
        sim.schedule(1.0, lambda: net.revive(3))
        sim.schedule(2.0, lambda: net.broadcast(1, b"held"))
        sim.run()
        assert [m for _, m in parties[2].received] == [b"held"]
        assert parties[2].received[0][0] >= 5.0

    def test_healed_partitions_are_pruned(self):
        sim, net, _ = make_net()
        net.add_partition({1}, heal_time=1.0)
        net.add_partition({2}, heal_time=2.0)
        sim.schedule(3.0, lambda: None)  # advance the clock past both heals
        sim.run()
        net.add_partition({3}, heal_time=9.0)  # prunes the healed ones
        assert net.active_partitions() == [(frozenset({3}), 9.0)]
        assert net._partitions == [(frozenset({3}), 9.0)]
        sim.schedule(7.0, lambda: net.broadcast(1, b"x"))  # after 9.0 heals
        sim.run()
        assert net._partitions == []  # a transmission prunes too


class TestFaultInterceptor:
    class Tap:
        def __init__(self, plan=None):
            self.plan = plan
            self.seen = []

        def intercept(self, sender, receiver, message, delay):
            self.seen.append((sender, receiver, message, delay))
            return self.plan

    def test_none_keeps_delivery_unchanged(self):
        sim, net, parties = make_net(delay=0.1)
        tap = self.Tap(plan=None)
        net.install_faults(tap)
        net.send(1, 3, b"x")
        sim.run()
        assert parties[2].received == [(0.1, b"x")]
        assert tap.seen == [(1, 3, b"x", 0.1)]

    def test_self_delivery_never_intercepted(self):
        sim, net, parties = make_net()
        tap = self.Tap(plan=[])  # would drop everything remote
        net.install_faults(tap)
        net.broadcast(1, b"x")
        sim.run()
        assert parties[0].received == [(0.0, b"x")]
        assert all(s != r for s, r, _, _ in tap.seen)

    def test_empty_plan_drops(self):
        sim, net, parties = make_net()
        net.install_faults(self.Tap(plan=[]))
        net.send(1, 3, b"x")
        sim.run()
        assert parties[2].received == []

    def test_plan_replaces_delivery(self):
        sim, net, parties = make_net(delay=0.1)
        net.install_faults(self.Tap(plan=[(0.5, b"a"), (0.7, b"a")]))
        net.send(1, 3, b"x")
        sim.run()
        assert parties[2].received == [(0.5, b"a"), (0.7, b"a")]

    def test_single_interceptor_slot(self):
        sim, net, _ = make_net()
        net.install_faults(self.Tap())
        with pytest.raises(ValueError, match="already installed"):
            net.install_faults(self.Tap())
        net.clear_faults()
        net.install_faults(self.Tap())  # free again after clearing


class TestAccounting:
    def test_broadcast_counts_n_messages(self):
        """Paper convention: one broadcast contributes n to message count."""
        sim, net, parties = make_net(n=3)
        net.broadcast(1, SizedMessage(100))
        assert net.metrics.msgs_sent[1] == 3
        assert net.metrics.bytes_sent[1] == 200  # (n-1) transmissions

    def test_send_counts_one(self):
        sim, net, parties = make_net(n=3)
        net.send(1, 2, SizedMessage(100))
        assert net.metrics.msgs_sent[1] == 1
        assert net.metrics.bytes_sent[1] == 100

    def test_kind_labels(self):
        sim, net, parties = make_net(n=3)
        net.broadcast(1, SizedMessage(10))
        assert net.metrics.msgs_by_kind["sized"] == 3

    def test_round_attribution(self):
        sim, net, parties = make_net(n=3)
        net.broadcast(1, SizedMessage(10), round=4)
        assert net.metrics.messages_in_round(4) == 3


def duplicate_everything(net: Network) -> None:
    """Duplicate every remote delivery, the way a fault scenario does."""
    scenario = Scenario(
        name="dup", seed=0, events=(LinkFault(start=0.0, end=10.0, duplicate_prob=1.0),)
    )
    FaultInjector(scenario, net).install()


class TestDuplication:
    def test_duplicates_delivered(self):
        sim, net, parties = make_net()
        duplicate_everything(net)
        net.send(1, 2, b"dup")
        sim.run()
        assert len(parties[1].received) == 2

    def test_no_duplicates_by_default(self):
        sim, net, parties = make_net()
        net.broadcast(1, b"x")
        sim.run()
        assert all(len(p.received) <= 1 for p in parties)

    def test_self_delivery_never_duplicated(self):
        sim, net, parties = make_net()
        duplicate_everything(net)
        net.broadcast(1, b"x")
        sim.run()
        assert len(parties[0].received) == 1

    def test_duplicate_trails_original(self):
        sim, net, parties = make_net(delay=0.1)
        duplicate_everything(net)
        net.send(1, 2, b"x")
        sim.run()
        first, second = (t for t, _ in parties[1].received)
        assert second > first


class TestWireSizeHelpers:
    def test_bytes_fallback(self):
        assert wire_size(b"abcd") == 4

    def test_method_preferred(self):
        assert wire_size(SizedMessage(77)) == 77

    def test_unsizable_rejected(self):
        with pytest.raises(TypeError):
            wire_size(42)

    def test_kind_fallback_to_classname(self):
        class Anon:
            def wire_size(self):
                return 1

        assert message_kind(Anon()) == "Anon"
        assert message_kind(SizedMessage(1)) == "sized"
