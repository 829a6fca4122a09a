"""Delivery order, pinned per network feature.

Each case runs a short n = 4 cluster and hashes every hand-over the
network makes — ``(sim.now, receiver, message kind, round)`` in the order
parties see them.  The digests were recorded before the simulator's
delivery path was rewritten into one loop per transmission, so any change
to *when*, *to whom* or *in which order* a copy lands (or to the RNG draws
that decide it) shows up here, feature by feature, instead of only as a
moved golden chain digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import ClusterConfig, build_cluster
from repro.core.cluster import protocol_party
from repro.faults import CrashFault, FaultInjector, LinkFault, PartitionFault, Scenario
from repro.sim.delays import FixedDelay, MessageAwareDelay, UniformDelay, WanDelay
from repro.sim.network import message_kind


def _config(delay_model, *, t: int = 0, protocol: str = "icc0", seed: int = 3) -> ClusterConfig:
    party_class, extra = protocol_party(protocol, 4, seed=seed, gossip_degree=2)
    return ClusterConfig(
        n=4, t=t, delta_bound=0.3, epsilon=0.01, seed=seed,
        delay_model=delay_model, party_class=party_class, extra_party_kwargs=extra,
    )


def _hand_over_log(config: ClusterConfig, duration: float, setup=None) -> tuple[int, str]:
    """Run ``config`` for ``duration`` simulated seconds; return the number
    of hand-overs and a sha256 over them."""
    cluster = build_cluster(config)
    digest = hashlib.sha256()
    count = [0]

    def recording(party):
        on_receive = party.on_receive

        def record(message):
            count[0] += 1
            row = (cluster.sim.now, party.index, message_kind(message),
                   getattr(message, "round", None))
            digest.update(repr(row).encode())
            on_receive(message)

        return record

    for party in cluster.parties:
        party.on_receive = recording(party)
    if setup is not None:
        setup(cluster)
    cluster.start()
    cluster.run_for(duration)
    return count[0], digest.hexdigest()


def _uplink_with_a_crash(cluster) -> None:
    cluster.network.uplink_bps = 1_000_000.0
    cluster.network.crash(4)


def _healing_partition_with_a_crash(cluster) -> None:
    scenario = Scenario(name="pins", events=(
        PartitionFault(at=0.0, group=(1, 2), heal_at=0.7),
        CrashFault(at=0.3, party=2),
    ))
    FaultInjector(scenario, cluster.network).install()


def _link_faults(cluster) -> None:
    scenario = Scenario(name="pins", seed=5, events=(
        LinkFault(start=0.0, end=1.0, sender=1, drop_prob=0.3),
        LinkFault(start=0.2, end=1.5, receiver=3, extra_delay=0.02, jitter=0.01),
        LinkFault(start=0.0, end=2.0, duplicate_prob=0.25),
    ))
    FaultInjector(scenario, cluster.network).install()


def _by_kind(sender, receiver, now, message):
    # Content-aware: blocks crawl, shares race, and the pair sets the spread.
    base = 0.05 if message_kind(message) == "block" else 0.01
    return base + 0.003 * ((sender * 7 + receiver) % 5)


CASES = {
    "fixed": (lambda: _config(FixedDelay(0.05)), 1.0, None),
    "uniform": (lambda: _config(UniformDelay(0.01, 0.08)), 1.0, None),
    "wan": (lambda: _config(WanDelay()), 1.0, None),
    "uplink_crash": (lambda: _config(FixedDelay(0.02), t=1), 3.0, _uplink_with_a_crash),
    "partition_crash": (
        lambda: _config(UniformDelay(0.01, 0.04), t=1), 2.0, _healing_partition_with_a_crash,
    ),
    "link_faults": (lambda: _config(UniformDelay(0.01, 0.05), t=1), 2.0, _link_faults),
    "message_aware": (lambda: _config(MessageAwareDelay(_by_kind)), 1.0, None),
    "icc1_multicast": (lambda: _config(UniformDelay(0.01, 0.05), protocol="icc1"), 1.0, None),
    "icc2_send": (lambda: _config(UniformDelay(0.01, 0.05), protocol="icc2"), 1.0, None),
}

#: (hand-overs, sha256) per case.
PINS = {
    "fixed": (1184, "c64298e111761836cffb21324e45121d56aa1ddfe4563b0875ace52f92effe4b"),
    # Re-pinned when gossip stopped echoing a copy back to its sender.
    "icc1_multicast": (864, "7bbb6326dcd7bee141ba1fe5463a38ee89b78bdacd2db8b295630ab36071d674"),
    "icc2_send": (1747, "19e47cea15c737d7429462eefda4fcacb610ed49928ab171358bccc7149ef516"),
    "link_faults": (2805, "f20e406dda020a527a698ba7d0c0cd6688b924c7db8711727d7f044b13d52601"),
    "message_aware": (1663, "557216c9cf27b594ae8d7881ccbee61505f80426669d541d1226e3fd4919736d"),
    "partition_crash": (1528, "4827d9f3db1ef7d37a964a830655ade61edf53b22673cd1cb78b295845fc8fa2"),
    "uniform": (1087, "c394df966b45afc78db87875e6fea075d8b7fbaf08e8c5e85f238c6cb19177a8"),
    "uplink_crash": (873, "f47fde38e7e9833ffebc47df4304f87f84909d67d69608adb154bdea8941b99c"),
    "wan": (1541, "6a18a08b138ce468e7fffba768a31e7a52a9eb297db2badda52098b2c252cd20"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_delivery_order_pinned(case):
    make_config, duration, setup = CASES[case]
    count, digest = _hand_over_log(make_config(), duration, setup)
    assert (count, digest) == PINS[case]
