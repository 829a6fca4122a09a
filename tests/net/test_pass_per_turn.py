"""One protocol pass per event-loop turn on a live party.

``ICC0Party._admit`` asks for a pass through ``sim.defer``: a
:class:`~repro.sim.simulator.Simulation` runs it inside the delivery, a
:class:`~repro.net.clock.WallClock` once at the end of the loop turn, for
every artifact that turn handed over.  The party is the unmodified one;
its network is a :class:`~repro.net.transport.TcpNetwork` that is never
started, so nothing leaves the process and the test decides what each turn
delivers.
"""

from __future__ import annotations

import asyncio
import time

from repro.core import ClusterConfig, build_cluster
from repro.core.cluster import build_party, derive_material
from repro.core.messages import Authenticator, BeaconShare, Block, NotarizationShare
from repro.net.clock import WallClock
from repro.net.transport import TcpNetwork
from repro.sim.delays import FixedDelay

PEERS = {i: ("127.0.0.1", 0) for i in range(1, 5)}


def sim_inbox(config: ClusterConfig, index: int, until: float) -> list:
    """Every message party ``index`` is handed in the simulated run of
    ``config`` up to ``until``, in delivery order."""
    cluster = build_cluster(config)
    party = cluster.parties[index - 1]
    inbox: list = []
    on_receive = party.on_receive

    def recording(message):
        inbox.append(message)
        on_receive(message)

    party.on_receive = recording
    cluster.start()
    cluster.sim.run(until=until)
    return inbox


def count_calls(party, name: str) -> list[int]:
    """Wrap the party's method ``name``; the list's one entry counts calls."""
    calls = [0]
    method = getattr(party, name)

    def counted():
        calls[0] += 1
        method()

    setattr(party, name, counted)
    return calls


def live_party(config: ClusterConfig, index: int):
    """Party ``index`` of ``config`` on a wall clock and an unstarted
    transport (call inside a running loop)."""
    clock = WallClock(loop=asyncio.get_running_loop(), seed=index)
    network = TcpNetwork(clock, index, PEERS)
    keyrings, params = derive_material(config)
    party = build_party(config, index, keyrings[index - 1], params, clock, network)
    network.attach(party)
    return party


class TestOnePassPerTurn:
    CONFIG = ClusterConfig(
        n=4, t=1, delta_bound=0.5, epsilon=0.0, seed=3, delay_model=FixedDelay(0.01),
    )

    def test_k_enabling_artifacts_in_one_turn_run_one_pass(self):
        inbox = sim_inbox(self.CONFIG, 2, until=0.2)
        cluster = build_cluster(self.CONFIG)
        cluster.start()
        cluster.sim.run(until=0.2)
        expected = cluster.parties[1].committed_hashes

        async def scenario():
            party = live_party(self.CONFIG, 2)
            party.start()
            passes = count_calls(party, "_progress")
            requests = count_calls(party, "_request_pass")
            for message in inbox:  # one turn: nothing yields in between
                party.on_receive(message)
            during = passes[0]
            await asyncio.sleep(0)
            return requests[0], during, passes[0], party.committed_hashes

        requested, during, after, committed = asyncio.run(scenario())
        assert requested >= 10  # blocks, quorums of shares, across rounds
        assert (during, after) == (0, 1)
        # The one pass fires everything the per-artifact passes would have.
        assert len(expected) >= 5 and committed[: len(expected)] == expected

    def test_simulated_pass_runs_inside_the_delivery(self):
        inbox = sim_inbox(self.CONFIG, 2, until=0.2)
        cluster = build_cluster(self.CONFIG)
        party = cluster.parties[1]
        party.start()
        passes = count_calls(party, "_progress")
        requests = count_calls(party, "_request_pass")
        for message in inbox:
            before = (requests[0], passes[0])
            party.on_receive(message)
            assert requests[0] - before[0] == passes[0] - before[1]
            assert not party._pass_pending
        assert passes[0] >= 10


class TestWakeInTheSameTurn:
    CONFIG = ClusterConfig(
        n=4, t=1, delta_bound=1.0, epsilon=0.05, seed=3, delay_model=FixedDelay(0.001),
    )

    def test_due_wake_still_fires_its_clause(self):
        """A Δntry wake falls due while the loop is busy; the next turn hands
        over an artifact that enables nothing by itself.  Its deferred pass
        (or the timer's own) still sends the notarization share."""
        inbox = sim_inbox(self.CONFIG, 1, until=0.005)
        leaders = {m.proposer for m in inbox if type(m) is Block and m.round == 1}
        [leader] = leaders
        index = next(i for i in range(1, 5) if i != leader)
        inbox = sim_inbox(self.CONFIG, index, until=0.005)
        beacon = [m for m in inbox if type(m) is BeaconShare and m.round == 1]
        block = next(m for m in inbox if type(m) is Block and m.round == 1)
        auth = next(m for m in inbox if type(m) is Authenticator and m.round == 1)

        async def scenario():
            party = live_party(self.CONFIG, index)
            party.start()
            for share in beacon:
                party.on_receive(share)
            await asyncio.sleep(0)
            assert party.round == 1 and not party.waiting_beacon
            party.on_receive(block)
            party.on_receive(auth)
            await asyncio.sleep(0)
            wake_at = party.round_start + party.delays.ntry(0)
            assert block.hash not in party.notar_shared and party._next_wake == wake_at
            time.sleep(max(0.0, wake_at - party.sim.now) + 0.005)  # the loop is busy
            keyrings, _ = derive_material(self.CONFIG)
            other = next(i for i in range(1, 5) if i not in (index, leader))
            signed = party.pool.notarization_statement(1, block.proposer, block.hash)
            share = NotarizationShare(
                round=1, proposer=block.proposer, block_hash=block.hash, signer=other,
                share=keyrings[other - 1].sign_notary_share(signed),
            )
            party.on_receive(share)  # below quorum: enables nothing by itself
            for _ in range(3):
                await asyncio.sleep(0)
            return party.notar_shared, party.sim.now >= wake_at

        notar_shared, due = asyncio.run(scenario())
        assert due and block.hash in notar_shared
