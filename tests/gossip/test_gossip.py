"""Tests for the gossip overlay and advertise/request protocol."""

from __future__ import annotations

import pytest

from repro.core import ClusterConfig, build_cluster
from repro.core.cluster import protocol_party
from repro.core.icc0 import fixed_size_source
from repro.core import messages as msg
from repro.core.messages import Block, Payload, ROOT_HASH
from repro.faults import FaultInjector, LinkFault, Scenario
from repro.gossip import protocol
from repro.gossip.overlay import build_overlay, overlay_diameter
from repro.gossip.protocol import (
    Advert,
    ArtifactDelivery,
    ArtifactRequest,
    GossipNode,
    Push,
    artifact_id,
)
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.metrics import Metrics
from repro.sim.network import Network
from repro.sim.simulator import Simulation


class TestOverlay:
    def test_regular_degree(self):
        adj = build_overlay(10, 4, seed=1)
        assert all(len(neigh) == 4 for neigh in adj.values())

    def test_symmetric(self):
        adj = build_overlay(10, 4, seed=1)
        for node, neighbors in adj.items():
            for other in neighbors:
                assert node in adj[other]

    def test_connected(self):
        assert overlay_diameter(build_overlay(20, 3, seed=2)) < 20

    def test_small_n_complete_graph(self):
        adj = build_overlay(3, 10, seed=1)
        assert adj == {1: [2, 3], 2: [1, 3], 3: [1, 2]}

    def test_odd_degree_sum_fixed_up(self):
        adj = build_overlay(5, 3, seed=1)  # 5*3 odd -> degree bumped to 4
        assert all(len(neigh) == 4 for neigh in adj.values())

    def test_single_node(self):
        assert build_overlay(1, 4) == {1: []}


def make_block(filler=0):
    return Block(round=1, proposer=1, parent_hash=ROOT_HASH, payload=Payload(filler_bytes=filler))


class TestArtifactId:
    def test_blocks_identified_by_hash(self):
        assert artifact_id(make_block()) == artifact_id(make_block())
        assert artifact_id(make_block()) != artifact_id(make_block(filler=1))

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            artifact_id("not an artifact")

    def test_ids_pinned_per_kind(self):
        # One artifact of each of the seven kinds, ids as the isinstance
        # ladder computed them before dispatch became a dict lookup.
        block = make_block()
        h = block.hash
        pinned = [
            (block, "edbd517ad3a7e03efab9f807514b9e0bc15555c5926b946018f54aae296fcbc4"),
            (msg.Authenticator(1, 1, h, None),
             "a4e5ec0b49f1b56cc72a575f2e016f0f0b3e113f4af2f8246eee426dffcd2e9e"),
            (msg.NotarizationShare(1, 1, h, 2, None),
             "727095af32978383e2d586b5e557600bddb739c83081c76ff743439ede49d095"),
            (msg.Notarization(1, 1, h, None),
             "118482184d72302ae091c2188302f9a13d49721ca857e5356d02b5aab009430c"),
            (msg.FinalizationShare(1, 1, h, 3, None),
             "b5dc9974000771db6e7abde297b37cb9521f303e5bba854d578b64c94f356185"),
            (msg.Finalization(1, 1, h, None),
             "b3151ea554ababdfe34f19d338e61918ae82254c4e6887e92a9590f6931b5e4e"),
            (msg.BeaconShare(1, 4, None),
             "7eab8c596e3a2af1441cdbda72a92051260047502a17d0c4121946ff2ff0f294"),
        ]
        assert len({type(a) for a, _ in pinned}) == 7
        for artifact, expected in pinned:
            assert artifact_id(artifact).hex() == expected, type(artifact).__name__


class GossipHarness:
    """n gossip nodes over a given overlay, recording deliveries."""

    def __init__(self, n, degree, seed=0):
        self.sim = Simulation(seed=seed)
        self.network = Network(self.sim, n, FixedDelay(0.05), Metrics(n=n))
        self.delivered: dict[int, list[object]] = {i: [] for i in range(1, n + 1)}
        self.overlay = build_overlay(n, degree, seed=seed)
        self.nodes = {}
        for i in range(1, n + 1):
            node = GossipNode(
                index=i,
                network=self.network,
                neighbors=self.overlay[i],
                deliver=lambda a, i=i: self.delivered[i].append(a),
            )
            self.nodes[i] = node
            endpoint = type(
                "Endpoint", (), {"index": i, "on_receive": lambda self_, m, node=node: node.on_network(m)}
            )()
            self.network.attach(endpoint)


class TestPushPath:
    def test_small_artifact_floods_everywhere(self):
        h = GossipHarness(n=10, degree=4)
        h.nodes[1].publish(make_block())
        h.sim.run()
        assert all(len(h.delivered[i]) == 1 for i in range(2, 11))

    def test_publisher_not_self_delivered(self):
        """The publisher already has its artifact; gossip must not echo it back."""
        h = GossipHarness(n=4, degree=3)
        h.nodes[1].publish(make_block())
        h.sim.run()
        assert h.delivered[1] == []

    def test_no_duplicate_deliveries(self):
        h = GossipHarness(n=10, degree=5)
        h.nodes[1].publish(make_block())
        h.sim.run()
        assert all(len(v) <= 1 for v in h.delivered.values())

    def test_republish_is_noop(self):
        h = GossipHarness(n=4, degree=3)
        block = make_block()
        h.nodes[1].publish(block)
        h.nodes[1].publish(block)
        h.sim.run()
        assert all(len(h.delivered[i]) == 1 for i in range(2, 5))


class TestAdvertPath:
    def test_large_artifact_advertised_and_pulled(self):
        h = GossipHarness(n=6, degree=3)
        big = make_block(filler=100_000)
        h.nodes[1].publish(big)
        h.sim.run()
        assert all(h.delivered[i] == [big] for i in range(2, 7))
        kinds = h.network.metrics.msgs_by_kind
        assert kinds["gossip-advert"] > 0
        assert kinds["gossip-request"] > 0

    def test_body_downloaded_once_per_node(self):
        h = GossipHarness(n=8, degree=4)
        h.nodes[1].publish(make_block(filler=50_000))
        h.sim.run()
        bodies = sum(
            count
            for kind, count in h.network.metrics.msgs_by_kind.items()
            if kind.startswith("gossip-body")
        )
        assert bodies == 7  # exactly one body transfer per other node

    def test_retry_on_unresponsive_advertiser(self):
        """If the first advertiser crashes, the requester retries another."""
        h = GossipHarness(n=4, degree=3)
        big = make_block(filler=10_000)
        aid = artifact_id(big)
        # Node 2 and 3 advertise to node 4; node 2 is crashed so its
        # delivery never comes; node 4 must fall back to node 3.
        h.nodes[3]._have[aid] = big
        h.network.crash(2)
        h.network.send(2, 4, Advert(artifact_id=aid, size=10_000, sender=2))
        # crash(2) blocks the send; instead inject adverts directly:
        h.nodes[4].on_network(Advert(artifact_id=aid, size=10_000, sender=2))
        h.nodes[4].on_network(Advert(artifact_id=aid, size=10_000, sender=3))
        h.sim.run(until=5.0)
        assert h.delivered[4] == [big]

    def test_gives_up_after_retry_budget(self, monkeypatch):
        monkeypatch.setattr(protocol, "REQUEST_TIMEOUT", 0.1)
        monkeypatch.setattr(protocol, "MAX_REQUEST_CYCLES", 3)
        h = GossipHarness(n=4, degree=3)
        big = make_block(filler=10_000)
        aid = artifact_id(big)
        h.network.crash(2)
        h.nodes[4].on_network(Advert(artifact_id=aid, size=10_000, sender=2))
        h.sim.run(until=30.0)
        assert h.delivered[4] == []
        assert not h.sim.events  # retry loop terminated

    def test_mismatched_body_ignored(self):
        h = GossipHarness(n=4, degree=3)
        real = make_block(filler=10_000)
        fake = make_block(filler=10_001)
        h.nodes[4].on_network(
            ArtifactDelivery(artifact_id=artifact_id(real), artifact=fake, sender=3)
        )
        assert h.delivered[4] == []

    def test_mislabelled_push_does_not_shadow_the_real_artifact(self):
        """A push is checked like a requested body: a fake under the real
        artifact's id is dropped unforwarded, so the real one still arrives."""
        h = GossipHarness(n=4, degree=3)
        real, fake = make_block(), make_block(filler=1)
        h.nodes[4].on_network(Push(artifact_id=artifact_id(real), artifact=fake, sender=2))
        h.sim.run()
        assert h.delivered[4] == [] and not h.network.metrics.msgs_sent
        h.nodes[4].on_network(Push(artifact_id=artifact_id(real), artifact=real, sender=3))
        h.sim.run()
        assert h.delivered[4] == [real]

    def test_no_entry_survives_delivery(self):
        """Once a body is held, its advertisers, asked set and retry count
        are dead weight: every later advert stops at the held check."""
        h = GossipHarness(n=8, degree=4)
        h.nodes[1].publish(make_block(filler=50_000))
        h.sim.run()
        assert all(len(h.delivered[i]) == 1 for i in range(2, 9))
        for node in h.nodes.values():
            assert node._advertisers == node._requested == node._retry_cycles == {}


class TestNoEcho:
    def test_push_skips_its_sender(self):
        """The publisher sends d copies, every other node d - 1."""
        h = GossipHarness(n=10, degree=4)
        h.nodes[1].publish(make_block())
        h.sim.run()
        pushes = sum(
            count
            for kind, count in h.network.metrics.msgs_by_kind.items()
            if kind.startswith("gossip-push")
        )
        assert pushes == 4 + 9 * 3

    def test_pulled_body_skips_sender_and_advertisers(self):
        h = GossipHarness(n=4, degree=3)
        big = make_block(filler=10_000)
        aid = artifact_id(big)
        sent = []
        h.network.multicast = lambda sender, targets, message: sent.append(
            (sender, tuple(targets), type(message))
        )
        h.nodes[4].on_network(Advert(aid, 10_000, sender=2))
        h.nodes[4].on_network(ArtifactDelivery(aid, big, sender=3))
        assert h.delivered[4] == [big]
        assert sent == [(4, (1,), Advert)]


def _foreign(kind, sender, aid, big):
    return {
        "push": Push(aid, big, sender),
        "delivery": ArtifactDelivery(aid, big, sender),
        "advert": Advert(aid, 10_000, sender),
        "request": ArtifactRequest(aid, sender),
    }[kind]


class TestForeignSender:
    """A gossip message must come from an overlay neighbour: anything else
    is dropped and counted, and never answered."""

    @pytest.mark.parametrize("kind", ["push", "delivery", "advert", "request"])
    @pytest.mark.parametrize("stranger", ["non-neighbour", "no party"])
    def test_dropped_and_counted(self, kind, stranger):
        h = GossipHarness(n=10, degree=4)
        node = h.nodes[1]
        sender = 999 if stranger == "no party" else next(
            i for i in range(2, 11) if i not in h.overlay[1]
        )
        big = make_block(filler=10_000)
        aid = artifact_id(big)
        if kind == "request":
            node.publish(big)  # it holds the body a stranger asks for
            h.sim.run()
        sends = dict(h.network.metrics.msgs_sent)
        assert node.on_network(_foreign(kind, sender, aid, big)) is True
        h.sim.run()
        assert h.network.metrics.counters["gossip-foreign-sender"] == 1
        assert dict(h.network.metrics.msgs_sent) == sends
        assert h.delivered[1] == []
        if kind != "request":
            assert aid not in node._have and not node._advertisers

    def test_non_gossip_message_is_not_handled(self):
        h = GossipHarness(n=4, degree=3)
        assert h.nodes[1].on_network(make_block()) is False
        assert not h.network.metrics.counters


@pytest.mark.parametrize("n", [7, 13])
@pytest.mark.parametrize("duplicate", [False, True], ids=["plain", "duplicating"])
def test_icc1_never_echoes(n, duplicate):
    """An ICC1 run over a degree-4 overlay, with 4 KB blocks (advertised
    and pulled) and small shares (pushed): no party sends an artifact's
    Push or Advert to a neighbour that pushed, delivered or advertised
    that artifact to it before."""
    party_class, extra = protocol_party("icc1", n, seed=n, gossip_degree=4)
    cluster = build_cluster(ClusterConfig(
        n=n, t=(n - 1) // 3, delta_bound=0.3, epsilon=0.01, seed=n,
        delay_model=UniformDelay(0.01, 0.05), payload_source=fixed_size_source(4096),
        party_class=party_class, extra_party_kwargs=extra,
    ))
    if duplicate:
        scenario = Scenario(name="dup", seed=n, events=(
            LinkFault(start=0.0, end=3.0, duplicate_prob=0.3),
        ))
        FaultInjector(scenario, cluster.network).install()
    holders: dict[tuple[int, bytes], set[int]] = {}

    def recording(party):
        on_receive = party.on_receive

        def record(message):
            if isinstance(message, (Push, ArtifactDelivery, Advert)):
                holders.setdefault((party.index, message.artifact_id), set()).add(message.sender)
            on_receive(message)

        return record

    for party in cluster.parties:
        party.on_receive = recording(party)
    multicast, send = cluster.network.multicast, cluster.network.send

    def check(sender, receivers, message):
        if isinstance(message, (Push, Advert)):
            known = holders.get((sender, message.artifact_id), set())
            assert not known & set(receivers), (sender, receivers, message)

    def checked_multicast(sender, receivers, message, round=None):
        check(sender, receivers, message)
        multicast(sender, receivers, message, round)

    def checked_send(sender, receiver, message, round=None):
        check(sender, (receiver,), message)
        send(sender, receiver, message, round)

    cluster.network.multicast = checked_multicast
    cluster.network.send = checked_send
    cluster.start()
    cluster.run_for(3.0)
    cluster.check_safety()
    kinds = cluster.metrics.msgs_by_kind
    assert kinds["gossip-advert"] > 0 and kinds["gossip-push:notarization-share"] > 0
    assert min(p.k_max for p in cluster.parties) >= 5
