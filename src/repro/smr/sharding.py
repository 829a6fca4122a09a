"""Multi-subnet sharding: K embedded clusters behind one certified fabric.

The "millions of users" composition (ROADMAP): a :class:`ShardedDeployment`
instantiates K :class:`~repro.core.cluster.Cluster`s — each with its own
party set, keyrings, namespaced trace/metric streams and private
delay-RNG stream (:func:`~repro.core.cluster.embed_cluster`) — inside one
coordinating :class:`~repro.sim.simulator.Simulation`, and couples them
through :class:`~repro.smr.xnet.XNet` certified streams:

* each shard runs the full PR-6 load pipeline (per-shard
  :class:`~repro.workloads.batching.RequestBatcher` ingress, batch
  authentication, block packing, per-block re-authentication);
* a :class:`~repro.workloads.sharding.ShardPopulation` offers every shard
  its own open-loop request stream, a fraction of which addresses remote
  shards (xnet-enveloped bodies);
* cross-shard bodies finalize on their origin shard, cross the fabric as
  versioned, sequence-numbered, certified stream messages, and are
  re-admitted at the destination by a **gateway**: a reserved ingress
  client that re-signs the inner body under the destination's client-auth
  keys, carrying the *origin* arrival time so the destination's
  completion hook measures true end-to-end cross-shard latency.

Everything is deterministic — fixed delays, hash-MAC auth, per-shard
seeded populations, no ``sim.rng`` draws — so one deployment run is
bit-identical in any process, which is what lets the experiment layer fan
whole deployments across the parallel runner's process pool with
identical results at any ``--jobs``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..core.cluster import Cluster, ClusterConfig, embed_cluster
from ..crypto.hashing import tagged_hash
from ..sim.delays import FixedDelay
from ..sim.simulator import Simulation
from ..workloads.batching import BatchSpec, RequestBatcher, SignedRequest
from ..workloads.sharding import ShardLoadSpec, ShardPopulation
from .xnet import StreamCertifier, StreamMessage, XNet, make_envelope

__all__ = [
    "GATEWAY_CLIENT_BASE",
    "ShardResult",
    "ShardSpec",
    "ShardedDeployment",
]

#: Gateway ingress client ids: GATEWAY_CLIENT_BASE + source-shard index.
#: Far above any population client id, so streams never collide.
GATEWAY_CLIENT_BASE = 0xFFFF0000


@dataclass(frozen=True)
class ShardSpec:
    """Declarative description of one sharded deployment run (picklable)."""

    shards: int = 2
    n: int = 4
    t: int = 1
    seed: int = 0
    duration: float = 2.0
    drain: float = 1.0
    #: Network / protocol timing (FixedDelay keeps runs deterministic).
    delta: float = 0.05
    delta_bound: float = 0.3
    epsilon: float = 0.005
    transfer_delay: float = 0.1
    #: Per-shard load shape (see ShardLoadSpec).
    offered: float = 200.0
    xfrac: float = 0.0
    clients: int = 100
    payload_bytes: int = 64
    #: Ingress batching.
    batch_max: int = 64
    queue_cap: int = 100_000
    auth: str = "fast"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")


@dataclass(frozen=True)
class ShardResult:
    """Aggregate outcome of one deployment run (picklable)."""

    shards: int
    n: int
    offered: float
    xfrac: float
    duration: float
    #: Requests finalized where they were addressed: locally-addressed
    #: requests on their shard + cross-shard requests on the destination.
    committed: int
    committed_local: int
    committed_cross: int
    #: Aggregate finalized-request throughput, requests/second.
    goodput: float
    mean_local_latency: float | None
    mean_cross_latency: float | None
    #: mean_cross / mean_local (None until both sides have samples).
    latency_penalty: float | None
    transfers: int
    rejected: int
    undeliverable: int
    min_committed_round: int
    #: Order-insensitive digest over every shard's committed request set.
    digest: str


class ShardedDeployment:
    """K embedded clusters, one Simulation, one certified xnet fabric."""

    def __init__(
        self,
        spec: ShardSpec,
        sim: Simulation | None = None,
        tracer=None,
    ) -> None:
        self.spec = spec
        self.sim = sim if sim is not None else Simulation(seed=spec.seed)
        if tracer is not None:
            self.sim.tracer = tracer
        secret = tagged_hash("ICC/xnet/topology-secret", spec.seed.to_bytes(8, "big"))
        self.xnet = XNet(
            self.sim,
            transfer_delay=spec.transfer_delay,
            certifier=StreamCertifier(secret),
        )
        self.names = [f"shard{k}" for k in range(spec.shards)]
        self.clusters: dict[str, Cluster] = {}
        self.batchers: dict[str, RequestBatcher] = {}
        self.population = ShardPopulation(
            ShardLoadSpec(
                offered=spec.offered,
                xfrac=spec.xfrac,
                clients=spec.clients,
                payload_bytes=spec.payload_bytes,
            ),
            seed=spec.seed,
        )
        # Latency / completion accounting (fed by batcher completion hooks).
        self.local_latencies: dict[str, list[float]] = {n: [] for n in self.names}
        self.cross_latencies: list[float] = []
        self._gateway_rids: dict[str, dict[bytes, float]] = {n: {} for n in self.names}
        self._gateway_seq: dict[str, dict[str, int]] = {n: {} for n in self.names}
        for k, name in enumerate(self.names):
            self._build_shard(k, name)

    # -- construction ------------------------------------------------------

    def _build_shard(self, k: int, name: str) -> None:
        spec = self.spec
        batcher = RequestBatcher(
            BatchSpec(
                batch_max=spec.batch_max,
                queue_cap=spec.queue_cap,
                auth=spec.auth,
            ),
            seed=spec.seed + k,
        )
        config = ClusterConfig(
            n=spec.n,
            t=spec.t,
            delta_bound=spec.delta_bound,
            epsilon=spec.epsilon,
            seed=spec.seed + k,
            delay_model=FixedDelay(spec.delta),
            payload_source=batcher.payload_source,
            payload_verifier=batcher.verify_block,
        )
        cluster = embed_cluster(name, config, self.sim)
        batcher.bind(cluster, tracer=cluster.tracer)
        batcher.on_complete(
            lambda rid, latency, name=name: self._on_complete(name, rid, latency)
        )
        self.xnet.register(
            name,
            cluster,
            submit=lambda message, name=name: self._gateway(name, message),
        )
        self.clusters[name] = cluster
        self.batchers[name] = batcher

    # -- the gateway: certified stream -> destination ingress --------------

    def _gateway(self, name: str, message: StreamMessage) -> None:
        """Re-admit a validated cross-shard body into shard ``name``.

        The gateway is a reserved ingress client per source stream: it
        re-signs the inner body under this shard's client-auth keys (the
        batcher's per-block re-authentication then covers it like any
        other request) and carries the *origin* arrival time, so the
        completion hook's latency is end-to-end across both shards."""
        batcher = self.batchers[name]
        source_index = self.names.index(message.source) if message.source in self.names else 0
        client = GATEWAY_CLIENT_BASE + source_index
        seqs = self._gateway_seq[name]
        seq = seqs.get(message.source, 0)
        seqs[message.source] = seq + 1
        body = message.body
        auth = batcher.auth.sign(client, seq, 0, body)
        request = SignedRequest(client=client, seq=seq, key=0, auth=auth, body=body)
        origin = self.population.origin.get(body)
        arrival = origin[1] if origin is not None else self.sim.now
        accepted = batcher.admit_batch([(request, arrival)])
        if accepted:
            self._gateway_rids[name][request.request_id] = arrival

    def _on_complete(self, name: str, rid: bytes, latency: float) -> None:
        if rid in self._gateway_rids[name]:
            self.cross_latencies.append(latency)
        elif rid in self.population.cross_rids.get(name, ()):
            # Origin-side hop of a cross-shard request: the commit that
            # feeds the stream, not a user-visible completion.
            pass
        else:
            self.local_latencies[name].append(latency)

    # -- running -----------------------------------------------------------

    def run(self) -> ShardResult:
        """Install the load, run every shard, return the aggregate result."""
        spec = self.spec
        self.population.install(
            self.sim,
            [(name, self.batchers[name]) for name in self.names],
            duration=spec.duration,
            envelope=make_envelope,
        )
        for cluster in self.clusters.values():
            cluster.start()
        self.sim.run(until=spec.duration + spec.drain, max_events=50_000_000)
        for cluster in self.clusters.values():
            cluster.check_safety()
        result = self.result()
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(
                time=self.sim.now, party=0, protocol="sharding", round=None,
                kind="shard.run",
                payload={"shards": spec.shards, "committed": result.committed,
                         "transfers": result.transfers,
                         "rejected": result.rejected},
            )
        return result

    def result(self) -> ShardResult:
        spec = self.spec
        committed_local = sum(len(v) for v in self.local_latencies.values())
        committed_cross = len(self.cross_latencies)
        committed = committed_local + committed_cross
        mean_local = _mean(
            [s for latencies in self.local_latencies.values() for s in latencies]
        )
        mean_cross = _mean(self.cross_latencies)
        penalty = (
            mean_cross / mean_local
            if mean_local is not None and mean_cross is not None and mean_local > 0
            else None
        )
        digest = hashlib.sha256(
            b"".join(
                self.batchers[name].committed_digest().encode() for name in self.names
            )
        ).hexdigest()
        return ShardResult(
            shards=spec.shards,
            n=spec.n,
            offered=spec.offered,
            xfrac=spec.xfrac,
            duration=spec.duration,
            committed=committed,
            committed_local=committed_local,
            committed_cross=committed_cross,
            goodput=committed / spec.duration,
            mean_local_latency=mean_local,
            mean_cross_latency=mean_cross,
            latency_penalty=penalty,
            transfers=self.xnet.transfers,
            rejected=self.xnet.rejected,
            undeliverable=self.xnet.undeliverable,
            min_committed_round=min(
                (self.clusters[n].min_committed_round() for n in self.names),
                default=0,
            ),
            digest=digest,
        )


def _mean(samples: list[float]) -> float | None:
    return sum(samples) / len(samples) if samples else None
