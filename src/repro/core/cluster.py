"""Cluster assembly: wire parties, keys, network and clock together.

This module is the only place a party is assembled.  A
:class:`ClusterConfig` names the protocol (any of the three ICC variants,
a baseline, an adversarial subclass), :func:`derive_material` turns it
into the cluster-wide keyrings and :class:`ProtocolParams`, and
:func:`build_party` constructs one party on whatever clock and network it
is handed.  :func:`build_cluster` loops that over a simulated
:class:`~repro.sim.network.Network`; a :class:`~repro.net.party.LiveParty`
calls it once with a wall clock and a TCP transport
(:meth:`repro.net.config.LiveConfig.cluster_config` maps the JSON file to
the same config), so simulator, baselines and sockets run one wiring.

A cluster is an **embeddable component**, not a process-wide singleton:
nothing here touches module-level state, and several clusters can coexist
in one process — or in one :class:`~repro.sim.simulator.Simulation` — at
once.  :func:`embed_cluster` builds a cluster inside an existing
Simulation: the cluster gets its own namespace prefix on every
trace stream (``"<name>/..."``, via :func:`repro.obs.namespaced_tracer`),
its own :class:`~repro.sim.metrics.Metrics` and its own seeded
delay-sampling RNG stream, so K embedded clusters are observably
separable and bit-identical to K standalone runs with the same seeds
(pinned by ``tests/core/test_embedded_cluster.py``).  This is the
substrate :mod:`repro.smr.sharding` composes into multi-subnet
deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from random import Random
from typing import Callable, Sequence

from ..crypto.keyring import Keyring, generate_keyrings
from ..gossip import GossipParams, build_overlay
from ..obs.tracer import TraceEvent, TracerLike, namespaced_tracer
from ..sim.delays import DelayModel, FixedDelay
from ..sim.metrics import Metrics
from ..sim.network import Network
from ..sim.simulator import Simulation
from .icc0 import ICC0Party, PayloadSource, empty_payload_source
from .icc1 import ICC1Party
from .icc2 import ICC2Party
from .params import DelayPolicy, ProtocolParams, StandardDelays

#: Builds one party; adversarial behaviours and the baselines provide
#: alternatives.
PartyFactory = Callable[..., ICC0Party]

#: The paper's three protocols by name: the one table every name → class
#: lookup (experiments, chaos, live configs, ``live --protocol``) reads.
PROTOCOLS: dict[str, PartyFactory] = {
    "icc0": ICC0Party,
    "icc1": ICC1Party,
    "icc2": ICC2Party,
}


def protocol_party(
    protocol: str,
    n: int,
    seed: int = 0,
    gossip_degree: int = 4,
    gossip_params: GossipParams | None = None,
) -> tuple[PartyFactory, dict]:
    """``(party_class, extra_party_kwargs)`` for a protocol name (any case).

    ICC1 additionally needs the seeded overlay every party must agree on
    and its gossip parameters; the other two take no extra arguments.
    """
    name = protocol.lower()
    if name not in PROTOCOLS:
        raise ValueError(
            f"unknown ICC protocol {protocol!r} (expected one of {tuple(PROTOCOLS)})"
        )
    extra: dict = {}
    if name == "icc1":
        extra["overlay"] = build_overlay(n, gossip_degree, seed=seed)
        extra["gossip_params"] = (
            gossip_params if gossip_params is not None else GossipParams(degree=gossip_degree)
        )
    return PROTOCOLS[name], extra


@dataclass
class ClusterConfig:
    """Declarative description of one cluster: a whole simulated run, or
    the protocol half of a live one (the observability and embedding fields
    below are read by :func:`build_cluster` only)."""

    n: int
    t: int = 0
    delta_bound: float = 1.0
    epsilon: float = 0.05
    seed: int = 0
    crypto_backend: str = "fast"
    group_profile: str = "test"
    max_rounds: int | None = None
    gc_depth: int | None = None  # pool pruning depth; None keeps everything
    delay_model: DelayModel | None = None  # default FixedDelay(0.1)
    #: Override the protocol delay functions (e.g. AdaptiveDelays); when
    #: None, StandardDelays(delta_bound, epsilon) is used.
    protocol_delays: DelayPolicy | None = None
    payload_source: PayloadSource = empty_payload_source
    #: Optional payload batch-admission hook installed on every party's
    #: pool (see :attr:`repro.core.pool.MessagePool.payload_verifier`).
    payload_verifier: Callable | None = None
    party_class: PartyFactory = ICC0Party
    #: index -> factory for corrupt parties; None entries mean crash-failure.
    corrupt: dict[int, PartyFactory | None] = dc_field(default_factory=dict)
    extra_party_kwargs: dict = dc_field(default_factory=dict)
    #: Optional :class:`repro.obs.Tracer`; installed on the Simulation
    #: *before* any party is built (parties cache ``sim.tracer``).  With a
    #: ``namespace`` the install is scoped to this cluster's build instead
    #: of mutating the Simulation for good.
    tracer: TracerLike | None = None
    #: Embeddability: prefix every trace event's protocol label with
    #: ``"<namespace>/"`` so several clusters can share one Simulation's
    #: tracer with separable streams.  None (default) =
    #: the classic standalone behaviour.
    namespace: str | None = None
    #: Embeddability: seed string for a cluster-private delay-sampling RNG
    #: (``random.Random(rng_stream)``), so embedded clusters never consume
    #: each other's ``sim.rng`` draws.  None = share ``sim.rng``.
    rng_stream: str | None = None

    def __post_init__(self) -> None:
        if len(self.corrupt) > self.t:
            raise ValueError(
                f"{len(self.corrupt)} corrupt parties declared but t={self.t}"
            )
        if self.protocol_delays is not None and not isinstance(
            self.protocol_delays, DelayPolicy
        ):
            raise TypeError(
                "protocol_delays must implement DelayPolicy (prop/ntry), got "
                f"{type(self.protocol_delays).__name__}"
            )
        if self.tracer is not None and not (
            isinstance(self.tracer, TracerLike) and hasattr(self.tracer, "enabled")
        ):
            raise TypeError(
                "tracer must implement TracerLike (enabled + emit), got "
                f"{type(self.tracer).__name__}"
            )
        if self.namespace is not None and ("/" in self.namespace or not self.namespace):
            raise ValueError(
                f"namespace must be non-empty and '/'-free: {self.namespace!r}"
            )


def prefix_consistent(logs: Sequence[Sequence]) -> bool:
    """The paper's safety property over a set of output logs.

    "if one party has output a sequence s and another has output s',
    then s must be a prefix of s', or vice versa" (Section 1).
    """
    reference = max(logs, key=len, default=[])
    return all(log == reference[: len(log)] for log in logs)


class Cluster:
    """A built, ready-to-run simulation of n parties."""

    def __init__(
        self,
        config: ClusterConfig,
        sim: Simulation,
        network: Network,
        parties: list[ICC0Party],
        params: ProtocolParams,
        keyrings: list[Keyring],
        tracer: TracerLike,
        rng: Random | None = None,
    ) -> None:
        self.config = config
        self.sim = sim
        self.network = network
        self.parties = parties
        self.params = params
        self.keyrings = keyrings
        #: How callers address one cluster among many in a shared Simulation.
        self.name = (
            config.namespace if config.namespace is not None else f"cluster{config.seed}"
        )
        #: The (namespaced, when embedded) tracer every party and the
        #: network cached at build time.
        self.tracer = tracer
        #: The cluster-private delay stream (None: the cluster shares ``sim.rng``).
        self.rng = rng

    @property
    def metrics(self) -> Metrics:
        return self.network.metrics

    @property
    def honest_parties(self) -> list[ICC0Party]:
        return [p for p in self.parties if p.index not in self.config.corrupt]

    def party(self, index: int) -> ICC0Party:
        return self.parties[index - 1]

    def start(self) -> None:
        for party in self.parties:
            if (
                party.index in self.config.corrupt
                and self.config.corrupt[party.index] is None
            ):
                continue  # crash-failures never even start
            party.start()

    def run_for(self, seconds: float, max_events: int | None = 5_000_000) -> None:
        self.sim.run(until=self.sim.now + seconds, max_events=max_events)

    def run_until_all_committed_round(
        self, round: int, timeout: float = 10_000.0, max_events: int | None = 5_000_000
    ) -> bool:
        """Run until every honest party has committed through ``round``."""
        honest = self.honest_parties

        def done() -> bool:
            return all(p.k_max >= round for p in honest)

        self.sim.run(until=timeout, stop_when=done, max_events=max_events)
        return done()

    # -- correctness checks used throughout the test-suite ---------------------

    def check_safety(self) -> None:
        """Assert the prefix property over all honest parties' outputs."""
        if not prefix_consistent([p.committed_hashes for p in self.honest_parties]):
            raise AssertionError("safety violated: committed logs diverge")

    def min_committed_round(self) -> int:
        return min((p.k_max for p in self.honest_parties), default=0)

    def max_committed_round(self) -> int:
        return max((p.k_max for p in self.honest_parties), default=0)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """This cluster's slice of the trace (namespace-filtered when
        embedded)."""
        return self.tracer.events(kind)


def derive_material(config: ClusterConfig) -> tuple[list[Keyring], ProtocolParams]:
    """The two cluster-wide inputs of every party: all n keyrings (party i
    holds ``keyrings[i - 1]``) and the protocol parameters.  Deterministic
    in the config, so separate processes given the same config derive key
    material that lines up."""
    keyrings = generate_keyrings(
        config.n,
        config.t,
        seed=config.seed,
        backend=config.crypto_backend,
        group_profile=config.group_profile,
    )
    delays = config.protocol_delays
    if delays is None:
        delays = StandardDelays(delta_bound=config.delta_bound, epsilon=config.epsilon)
    params = ProtocolParams(
        n=config.n,
        t=config.t,
        delays=delays,
        max_rounds=config.max_rounds,
        gc_depth=config.gc_depth,
    )
    return keyrings, params


def build_party(
    config: ClusterConfig,
    index: int,
    keyring: Keyring,
    params: ProtocolParams,
    clock,
    network,
) -> ICC0Party:
    """Construct party ``index`` of ``config`` on the given clock and network
    with its payload hooks installed.  ``clock`` is a
    :class:`~repro.sim.simulator.Simulation` or a
    :class:`~repro.net.clock.WallClock`; the party cannot tell which."""
    factory = config.corrupt.get(index)
    if factory is None:  # honest, or a crash failure: a stub that stays silent
        factory = config.party_class
    party = factory(
        index=index,
        keyring=keyring,
        params=params,
        sim=clock,
        network=network,
        payload_source=config.payload_source,
        **config.extra_party_kwargs,
    )
    if config.payload_verifier is not None:  # a baseline has no pool
        party.pool.payload_verifier = config.payload_verifier
    return party


def build_cluster(config: ClusterConfig, sim: Simulation | None = None) -> Cluster:
    """Construct a fully wired cluster from a config (nothing runs yet).

    Pass an existing ``sim`` to co-schedule several clusters in one
    simulation (e.g. multiple subnets coupled by :mod:`repro.smr.xnet`);
    with ``config.namespace`` set the build never mutates the shared
    Simulation's tracer permanently — the namespaced view is installed
    only while parties are constructed (they cache it) and the network
    keeps an explicit override.  :func:`embed_cluster` is
    the one-call wrapper for that mode.
    """
    if sim is None:
        sim = Simulation(seed=config.seed)
    base_tracer = config.tracer if config.tracer is not None else sim.tracer
    if config.namespace is not None:
        cluster_tracer = namespaced_tracer(base_tracer, config.namespace)
    else:
        cluster_tracer = base_tracer
    cluster_rng = Random(config.rng_stream) if config.rng_stream is not None else None
    prev_tracer = sim.tracer
    # Before Network/parties are built: they cache the tracer they see here.
    sim.tracer = cluster_tracer
    try:
        delay_model = config.delay_model if config.delay_model is not None else FixedDelay(0.1)
        metrics = Metrics(n=config.n)
        network = Network(
            sim,
            config.n,
            delay_model,
            metrics,
            tracer=cluster_tracer if config.namespace is not None else None,
            rng=cluster_rng,
        )
        keyrings, params = derive_material(config)
        parties: list[ICC0Party] = []
        for i in range(1, config.n + 1):
            party = build_party(config, i, keyrings[i - 1], params, sim, network)
            parties.append(party)
            network.attach(party)
        for index, factory in config.corrupt.items():
            if factory is None:
                network.crash(index)
    finally:
        if config.namespace is not None:
            # Scoped install: an embedded build leaves the shared
            # Simulation's tracer exactly as it found it.
            sim.tracer = prev_tracer
    return Cluster(
        config, sim, network, parties, params, keyrings,
        tracer=cluster_tracer, rng=cluster_rng,
    )


def embed_cluster(name: str, config: ClusterConfig, sim: Simulation) -> Cluster:
    """Build ``config`` as an embedded component of an existing ``sim``.

    The cluster gets ``name`` as its trace namespace and (unless
    the config pins one) a private delay-RNG stream derived from
    ``(name, config.seed)`` — so the same config embedded next to any
    number of siblings, or standalone in a fresh Simulation, finalizes
    bit-identical chains.
    """
    config = replace(
        config,
        namespace=name,
        rng_stream=(
            config.rng_stream
            if config.rng_stream is not None
            else f"cluster/{name}/{config.seed}"
        ),
    )
    return build_cluster(config, sim=sim)


def run_happy_path(
    n: int = 4,
    rounds: int = 5,
    delta: float = 0.1,
    seed: int = 0,
    **overrides,
) -> Cluster:
    """Convenience: run a fault-free cluster for a number of rounds."""
    config = ClusterConfig(
        n=n,
        t=0,
        delta_bound=delta * 2,
        delay_model=FixedDelay(delta),
        max_rounds=rounds + 2,
        seed=seed,
        **overrides,
    )
    cluster = build_cluster(config)
    cluster.start()
    cluster.run_until_all_committed_round(rounds)
    return cluster
