"""The fault injector: interception mechanics, corruption, determinism."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import ClusterConfig, build_cluster
from repro.core.messages import BeaconShare
from repro.faults import (
    BEHAVIORS,
    ByzantineFault,
    CrashFault,
    FaultInjector,
    LinkFault,
    OutageFault,
    PartitionFault,
    RecoverFault,
    Scenario,
    ScenarioError,
    corrupt_message,
    install_scenario,
    register_behavior,
    scenario_corrupt,
)
from repro.sim.delays import FixedDelay
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.simulator import Simulation


@dataclasses.dataclass(frozen=True)
class Authenticated:
    kind = "auth"
    block_hash: bytes
    body: str

    def wire_size(self) -> int:
        return len(self.block_hash) + len(self.body)


@dataclasses.dataclass(frozen=True)
class Unsignable:
    kind = "plain"
    value: int

    def wire_size(self) -> int:
        return 8


class Recorder:
    def __init__(self, index: int, sim: Simulation) -> None:
        self.index = index
        self.sim = sim
        self.received: list[tuple[float, object]] = []

    def on_receive(self, message: object) -> None:
        self.received.append((self.sim.now, message))


def make_net(n: int = 3, delay: float = 0.1):
    sim = Simulation(seed=1)
    net = Network(sim, n, FixedDelay(delay), Metrics(n=n))
    parties = [Recorder(i, sim) for i in range(1, n + 1)]
    for p in parties:
        net.attach(p)
    return sim, net, parties


def install(net: Network, *events, seed: int = 0) -> FaultInjector:
    scenario = Scenario(name="t", seed=seed, events=tuple(events))
    return FaultInjector(scenario, net).install()


class TestCorruptMessage:
    def test_never_mutates_the_original(self):
        msg = Authenticated(block_hash=b"\x01\x02", body="x")
        tampered = corrupt_message(msg)
        assert msg.block_hash == b"\x01\x02"
        assert tampered is not msg
        assert tampered.block_hash != msg.block_hash
        assert tampered.body == msg.body

    def test_prefers_authenticated_fields(self):
        tampered = corrupt_message(Authenticated(block_hash=b"\xaa", body="x"))
        assert tampered.block_hash == b"\x55"  # first byte xor 0xFF

    def test_bytes_messages_flip(self):
        assert corrupt_message(b"\x00abc") == b"\xffabc"
        assert corrupt_message(b"") is None

    def test_untamperable_returns_none(self):
        assert corrupt_message(Unsignable(value=3)) is None
        assert corrupt_message(42) is None

    def test_real_protocol_message_is_rejected_by_receiver(self):
        # A tampered notarization (hash flipped in flight) must fail the
        # receiving pool's signature verification, not enter the pool.
        from repro.core.cluster import ClusterConfig, build_cluster
        from repro.core.messages import Notarization, Payload

        class Wiretap:
            """Records every in-flight message, delivers unchanged."""

            captured: list[object] = []

            def intercept(self, sender, receiver, message, delay):
                self.captured.append(message)
                return None

        config = ClusterConfig(
            n=4, t=1, delta_bound=0.3, epsilon=0.01,
            delay_model=FixedDelay(0.05), seed=5, max_rounds=3,
            payload_source=lambda p, r, c: Payload(commands=(b"x",)),
        )
        cluster = build_cluster(config)
        tap = Wiretap()
        cluster.network.install_faults(tap)
        cluster.start()
        cluster.run_for(2.0)
        notarization = next(
            m for m in tap.captured if isinstance(m, Notarization)
        )
        tampered = corrupt_message(notarization)
        assert tampered.block_hash != notarization.block_hash
        pool = cluster.party(2).pool
        invalid_before = pool.stats.invalid_dropped
        assert pool.add(tampered) is False
        assert pool.stats.invalid_dropped == invalid_before + 1


class TestBehaviorRegistry:
    def test_known_behaviors_registered(self):
        for name in ("silent", "slow-proposer", "lazy-leader", "equivocate",
                     "withhold-finalization", "withhold-notarization",
                     "aggressive", "consistent-failure"):
            assert name in BEHAVIORS

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault behavior"):
            register_behavior("silent", lambda base, params: base)

    def test_unknown_behavior_rejected(self):
        from repro.core.icc0 import ICC0Party

        scenario = Scenario(name="x", events=(
            ByzantineFault(party=1, behavior="no-such-behavior"),
        ))
        with pytest.raises(ScenarioError, match="unknown fault behavior"):
            scenario_corrupt(scenario, ICC0Party)

    def test_unknown_param_rejected(self):
        from repro.core.icc0 import ICC0Party

        scenario = Scenario(name="x", events=(
            ByzantineFault(party=1, behavior="slow-proposer",
                           params=(("warp_factor", 9),)),
        ))
        with pytest.raises(ScenarioError, match="not an attribute"):
            scenario_corrupt(scenario, ICC0Party)

    def test_identical_declarations_share_one_class(self):
        from repro.core.icc0 import ICC0Party

        scenario = Scenario(name="x", events=(
            ByzantineFault(party=1, behavior="slow-proposer",
                           params=(("propose_lag", 2.0),)),
            ByzantineFault(party=2, behavior="slow-proposer",
                           params=(("propose_lag", 2.0),)),
            ByzantineFault(party=3, behavior="slow-proposer",
                           params=(("propose_lag", 9.0),)),
        ))
        corrupt = scenario_corrupt(scenario, ICC0Party)
        assert corrupt[1] is corrupt[2]
        assert corrupt[1] is not corrupt[3]
        assert corrupt[1].propose_lag == 2.0
        assert corrupt[3].propose_lag == 9.0


class TestTimedFaults:
    def test_crash_and_recover_fire_on_schedule(self):
        sim, net, parties = make_net()
        install(net, CrashFault(at=1.0, party=3), RecoverFault(at=2.0, party=3))
        sim.schedule(0.5, lambda: net.broadcast(1, b"early"))   # dropped at 3
        sim.schedule(1.5, lambda: net.broadcast(1, b"during"))  # dropped at 3
        sim.schedule(2.5, lambda: net.broadcast(1, b"after"))   # delivered
        sim.run()
        assert [m for _, m in parties[2].received] == [b"early", b"after"]
        # "early" arrives at 0.6 < 1.0, before the crash.

    def test_partition_fires_on_schedule(self):
        sim, net, parties = make_net()
        install(net, PartitionFault(at=1.0, group=(3,), heal_at=4.0))
        sim.schedule(2.0, lambda: net.broadcast(1, b"held"))
        sim.run()
        # Held until the heal at 4.0, plus the base 0.1 delay.
        assert parties[2].received == [(4.1, b"held")]

    def test_partition_is_an_interceptor_decision(self):
        sim, net, _ = make_net()
        injector = install(net, PartitionFault(at=1.0, group=(1, 2), heal_at=4.0))
        assert net._faults is injector
        sim.run(until=1.5)
        # Inside one group, and on the far side together: unchanged.
        assert injector.intercept(1, 2, b"x", 0.1) is None
        assert injector.intercept(3, 3, b"x", 0.1) is None
        # Across the cut: held for the rest of the cut, both directions.
        assert injector.intercept(1, 3, b"x", 0.1) == [(2.5 + 0.1, b"x")]
        assert injector.intercept(3, 2, b"x", 0.1) == [(2.5 + 0.1, b"x")]
        sim.run(until=4.0)
        assert injector.intercept(1, 3, b"x", 0.1) is None  # healed

    def test_a_hold_is_not_a_delay_fault(self):
        from repro.obs import Tracer

        sim, net, parties = make_net()
        sim.tracer = Tracer()
        injector = install(net, PartitionFault(at=0.0, group=(3,), heal_at=4.0))
        sim.schedule(1.0, lambda: net.send(1, 3, b"held"))
        sim.run()
        assert parties[2].received == [(4.1, b"held")]
        assert injector.counters["delay"] == 0
        kinds = [e.kind for e in sim.tracer.events()]
        assert "fault.partition" in kinds and "fault.delay" not in kinds

    def test_partition_at_a_negative_time_is_a_scenario_error(self):
        """Validated like a crash's time, not left to fail as a raw
        ``ValueError`` when the injector schedules it."""
        sim, net, _ = make_net()
        with pytest.raises(ScenarioError, match="partition: negative time -1.0"):
            install(net, PartitionFault(at=-1.0, group=(1,), heal_at=2.0))

    def test_no_interceptor_for_timed_only_scenarios(self):
        sim, net, parties = make_net()
        install(net, CrashFault(at=1.0, party=3), RecoverFault(at=2.0, party=3))
        assert net._faults is None  # zero per-delivery overhead

    def test_double_install_rejected(self):
        sim, net, _ = make_net()
        injector = install(net, LinkFault(start=0.0, end=1.0, drop_prob=1.0))
        with pytest.raises(ValueError, match="already installed"):
            injector.install()
        with pytest.raises(ValueError, match="already installed"):
            install(net, LinkFault(start=0.0, end=1.0, drop_prob=1.0))

    def test_validates_against_cluster_size(self):
        sim, net, _ = make_net(n=3)
        with pytest.raises(ScenarioError):
            install(net, CrashFault(at=1.0, party=9))


class TestLinkFaults:
    def test_drop_all(self):
        sim, net, parties = make_net()
        injector = install(net, LinkFault(start=0.0, end=10.0, drop_prob=1.0))
        net.broadcast(1, b"m")
        sim.run()
        assert parties[0].received == [(0.0, b"m")]  # self-delivery untouched
        assert parties[1].received == []
        assert parties[2].received == []
        assert injector.counters["drop"] == 2

    def test_window_respected(self):
        sim, net, parties = make_net()
        install(net, LinkFault(start=5.0, end=10.0, drop_prob=1.0))
        net.broadcast(1, b"before")
        sim.schedule(12.0, lambda: net.broadcast(1, b"after"))
        sim.run()
        assert [m for _, m in parties[2].received] == [b"before", b"after"]

    def test_sender_scoping(self):
        sim, net, parties = make_net()
        install(net, LinkFault(start=0.0, end=10.0, sender=1, drop_prob=1.0))
        net.send(1, 3, b"from-1")
        net.send(2, 3, b"from-2")
        sim.run()
        assert [m for _, m in parties[2].received] == [b"from-2"]

    def test_receiver_scoping(self):
        sim, net, parties = make_net()
        install(net, LinkFault(start=0.0, end=10.0, receiver=3, drop_prob=1.0))
        net.broadcast(1, b"m")
        sim.run()
        assert parties[1].received != []
        assert parties[2].received == []

    def test_duplicate_all(self):
        sim, net, parties = make_net()
        injector = install(
            net, LinkFault(start=0.0, end=10.0, duplicate_prob=1.0)
        )
        net.send(1, 3, b"m")
        sim.run()
        assert [m for _, m in parties[2].received] == [b"m", b"m"]
        times = [t for t, _ in parties[2].received]
        assert times[1] >= times[0]
        assert injector.counters["duplicate"] == 1

    def test_extra_delay(self):
        sim, net, parties = make_net(delay=0.1)
        install(net, LinkFault(start=0.0, end=10.0, extra_delay=0.5))
        net.send(1, 3, b"m")
        sim.run()
        assert parties[2].received == [(0.6, b"m")]

    def test_corrupt_copy_reaches_receiver(self):
        sim, net, parties = make_net()
        msg = Authenticated(block_hash=b"\x01", body="x")
        injector = install(net, LinkFault(start=0.0, end=10.0, corrupt_prob=1.0))
        net.send(1, 3, msg)
        sim.run()
        (_, delivered), = parties[2].received
        assert delivered.block_hash != msg.block_hash
        assert msg.block_hash == b"\x01"  # original untouched
        assert injector.counters["corrupt"] == 1

    def test_untamperable_corruption_becomes_drop(self):
        sim, net, parties = make_net()
        install(net, LinkFault(start=0.0, end=10.0, corrupt_prob=1.0))
        net.send(1, 3, Unsignable(value=1))
        sim.run()
        assert parties[2].received == []


class TestSkewAndOutage:
    def test_skew_delays_outbound_only(self):
        # A late clock is a link fault on everything its party sends.
        sim, net, parties = make_net(delay=0.1)
        install(net, LinkFault(start=0.0, end=10.0, sender=1, extra_delay=0.3))
        net.send(1, 3, b"out")   # skewed sender
        net.send(2, 3, b"ref")   # unaffected
        net.send(3, 1, b"in")    # inbound to the skewed party: unaffected
        sim.run()
        # Arrival order: the unaffected message lands first.
        assert parties[2].received == [(0.1, b"ref"), (0.4, b"out")]
        assert parties[0].received == [(0.1, b"in")]

    def test_outage_stretches_to_window_end(self):
        sim, net, parties = make_net(delay=0.1)
        install(net, OutageFault(start=1.0, end=3.0))
        sim.schedule(2.0, lambda: net.send(1, 3, b"m"))
        sim.run()
        # Sent at 2.0 inside the outage: lands one base delay after 3.0.
        assert parties[2].received == [(3.1, b"m")]

    def test_delivery_landing_in_outage_is_stretched(self):
        sim, net, parties = make_net(delay=0.5)
        install(net, OutageFault(start=1.0, end=3.0))
        sim.schedule(0.8, lambda: net.send(1, 3, b"m"))  # would land at 1.3
        sim.run()
        assert parties[2].received == [(3.5, b"m")]

    def test_outside_outage_unaffected(self):
        sim, net, parties = make_net(delay=0.1)
        install(net, OutageFault(start=1.0, end=3.0))
        net.send(1, 3, b"m")
        sim.run()
        assert parties[2].received == [(0.1, b"m")]


class TestDeterminism:
    def run_once(self, seed: int = 4) -> list[tuple[float, object]]:
        sim, net, parties = make_net()
        install(
            net,
            LinkFault(start=0.0, end=10.0, drop_prob=0.3,
                      duplicate_prob=0.3, extra_delay=0.05, jitter=0.1),
            seed=seed,
        )
        for k in range(20):
            sim.schedule(0.1 * k, lambda k=k: net.broadcast(1 + k % 3, bytes([k])))
        sim.run()
        return [(p.index, t, m) for p in parties for t, m in p.received]

    def test_same_seed_same_faults(self):
        assert self.run_once() == self.run_once()

    def test_fault_rng_independent_of_simulation_rng(self):
        # The injector must never touch sim.rng: a no-fault run and a
        # faulted run consume identical simulation RNG streams.
        def sim_rng_state(with_faults: bool):
            sim, net, parties = make_net()
            if with_faults:
                install(net, LinkFault(start=0.0, end=10.0, drop_prob=0.5))
            net.broadcast(1, b"m")
            sim.run()
            return sim.rng.random()

        assert sim_rng_state(False) == sim_rng_state(True)


class TestDueAtInstall:
    """A timed fault already due when the scenario is installed fires inside
    ``install``: one at t = 0 installed before ``cluster.start()`` precedes
    the parties' start-time sends (round 1's beacon shares)."""

    @staticmethod
    def cluster():
        return build_cluster(ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.02, seed=6,
            delay_model=FixedDelay(0.05), max_rounds=4,
        ))

    def test_crash_at_zero_silences_the_start_time_sends(self):
        cluster = self.cluster()
        install_scenario(cluster, Scenario(name="t0", events=(CrashFault(at=0.0, party=4),)))
        assert cluster.network.is_crashed(4)
        cluster.start()
        cluster.run_for(1.0)
        assert cluster.metrics.msgs_sent[4] == 0
        assert cluster.party(1).k_max > 0

    def test_partition_at_zero_holds_the_start_time_sends(self):
        cluster = self.cluster()
        cut_off = cluster.party(4)
        arrivals = []

        def on_receive(message, receive=cut_off.on_receive):
            if isinstance(message, BeaconShare) and message.signer != 4:
                arrivals.append(cluster.sim.now)
            receive(message)

        cut_off.on_receive = on_receive
        install_scenario(cluster, Scenario(name="t0", events=(
            PartitionFault(at=0.0, group=(4,), heal_at=2.0),
        )))
        cluster.start()
        cluster.run_for(3.0)
        assert arrivals and min(arrivals) >= 2.0

    def test_due_faults_fire_in_scenario_order(self):
        sim, net, _ = make_net()
        sim.run(until=1.0)
        install(net, CrashFault(at=0.5, party=3), RecoverFault(at=1.0, party=3),
                CrashFault(at=2.0, party=3))
        assert not net.is_crashed(3)
        sim.run(until=2.0)
        assert net.is_crashed(3)
