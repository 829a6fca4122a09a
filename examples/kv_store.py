#!/usr/bin/env python3
"""A Byzantine fault-tolerant replicated key-value store on ICC1.

The paper's motivating application (Section 1): state machine replication.
A client population issues signed PUTs at 50 req/s through the batched
ingress (``repro.workloads``); every replica applies the committed
requests' bodies to a deterministic KV machine; checkpoints prove
all replicas walk through identical states — even with a crashed node and
an equivocating proposer in the mix.

Run:  python examples/kv_store.py
"""

from __future__ import annotations

from repro.adversary import EquivocatingProposerMixin, corrupt_class
from repro.core import ClusterConfig, build_cluster
from repro.core.icc1 import ICC1Party
from repro.gossip import build_overlay
from repro.sim import WanDelay
from repro.smr import attach_replicas, check_replica_agreement
from repro.workloads import BatchSpec, ClientPopulation, PopulationSpec, RequestBatcher

N = 10
T = 3
DURATION = 30.0


def main() -> None:
    # 100 clients PUT to 25 Zipf-popular keys; payload_bytes=0 leaves the
    # values unpadded.
    batcher = RequestBatcher(BatchSpec(batch_max=100), seed=7)
    population = ClientPopulation(
        PopulationSpec(clients=100, rate_per_second=50.0, key_space=25, payload_bytes=0),
        batcher,
        seed=7,
    )
    equivocator = corrupt_class(ICC1Party, EquivocatingProposerMixin)
    config = ClusterConfig(
        n=N,
        t=T,
        delta_bound=0.5,
        epsilon=0.05,
        delay_model=WanDelay(),  # the paper's 6-110ms RTT WAN
        seed=7,
        payload_source=batcher.payload_source,
        payload_verifier=batcher.verify_block,
        party_class=ICC1Party,
        corrupt={1: None, 2: equivocator},  # one crash + one equivocator
        extra_party_kwargs=dict(overlay=build_overlay(N, 4, seed=7)),
    )
    cluster = build_cluster(config)
    batcher.bind(cluster)
    replicas = attach_replicas(cluster, checkpoint_interval=25)
    population.install(cluster, duration=DURATION)
    cluster.start()
    cluster.run_for(DURATION + 10.0)

    cluster.check_safety()
    check_replica_agreement(replicas)

    live = [r for r in replicas if r.party.index not in (1, 2)]
    machine = live[0].machine
    print(f"simulated duration : {cluster.sim.now:.1f}s on a WAN "
          f"(crash + equivocator among {N} nodes)")
    print(f"rounds committed   : {live[0].party.k_max}")
    print(f"commands applied   : {live[0].commands_applied} "
          f"({machine.rejected} rejected deterministically)")
    print(f"replica state size : {len(machine.state)} keys")
    print(f"state digest       : {machine.digest().hex()[:24]}… "
          f"(identical on all {len(live)} live replicas)")
    sample = sorted(machine.state.items())[:4]
    print("sample entries     :")
    for key, value in sample:
        print(f"  {key.decode()} = {value.decode()}")
    print()
    print("replica agreement verified across",
          sum(len(r.checkpoints) for r in live), "checkpoints")


if __name__ == "__main__":
    main()
