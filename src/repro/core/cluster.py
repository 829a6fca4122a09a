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

A cluster is one subnet, as the paper evaluates it: n parties in one
:class:`~repro.sim.simulator.Simulation`, tracing through the
Simulation's tracer and sampling delays from its RNG.  Nothing here
touches module-level state.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

from ..crypto.keyring import Keyring, generate_keyrings
from ..gossip import build_overlay
from ..obs.tracer import TracerLike
from ..sim.delays import DelayModel, FixedDelay
from ..sim.metrics import Metrics
from ..sim.network import Network
from ..sim.simulator import Simulation
from .icc0 import ICC0Party, PayloadSource, empty_payload_source
from .icc1 import ICC1Party
from .icc2 import ICC2Party
from .params import DEFAULT_GC_DEPTH, ProtocolParams, StandardDelays

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
    protocol: str, n: int, seed: int = 0, gossip_degree: int = 4
) -> tuple[PartyFactory, dict]:
    """``(party_class, extra_party_kwargs)`` for a protocol name (any case).

    ICC1 additionally needs the seeded overlay every party must agree on;
    the other two take no extra arguments.
    """
    name = protocol.lower()
    if name not in PROTOCOLS:
        raise ValueError(
            f"unknown ICC protocol {protocol!r} (expected one of {tuple(PROTOCOLS)})"
        )
    extra: dict = {}
    if name == "icc1":
        extra["overlay"] = build_overlay(n, gossip_degree, seed=seed)
    return PROTOCOLS[name], extra


@dataclass
class ClusterConfig:
    """Declarative description of one cluster: a whole simulated run, or
    the protocol half of a live one (``delay_model`` and ``tracer`` are
    read by :func:`build_cluster` only)."""

    n: int
    t: int = 0
    delta_bound: float = 1.0
    epsilon: float = 0.05
    seed: int = 0
    crypto_backend: str = "fast"
    group_profile: str = "test"
    max_rounds: int | None = None
    #: Pool pruning depth (:attr:`ProtocolParams.gc_depth`): finite by
    #: default; None keeps all history.
    gc_depth: int | None = DEFAULT_GC_DEPTH
    delay_model: DelayModel | None = None  # default FixedDelay(0.1)
    #: Override the protocol delay functions (ablation A2's NoStagger);
    #: when None, StandardDelays(delta_bound, epsilon) is used.
    protocol_delays: StandardDelays | None = None
    payload_source: PayloadSource = empty_payload_source
    #: Optional payload batch-admission hook installed on every party's
    #: pool (see :attr:`repro.core.pool.MessagePool.payload_verifier`).
    payload_verifier: Callable | None = None
    party_class: PartyFactory = ICC0Party
    #: index -> factory for corrupt parties; None entries mean crash-failure.
    corrupt: dict[int, PartyFactory | None] = dc_field(default_factory=dict)
    extra_party_kwargs: dict = dc_field(default_factory=dict)
    #: Optional :class:`repro.obs.Tracer`; installed on the Simulation
    #: *before* any party is built (parties cache ``sim.tracer``).
    tracer: TracerLike | None = None

    def __post_init__(self) -> None:
        if len(self.corrupt) > self.t:
            raise ValueError(
                f"{len(self.corrupt)} corrupt parties declared but t={self.t}"
            )
        outside = sorted(i for i in self.corrupt if not 1 <= i <= self.n)
        if outside:
            raise ValueError(
                f"corrupt party indices {outside} outside 1..{self.n}"
            )
        if self.tracer is not None and not (
            isinstance(self.tracer, TracerLike) and hasattr(self.tracer, "enabled")
        ):
            raise TypeError(
                "tracer must implement TracerLike (enabled + emit), got "
                f"{type(self.tracer).__name__}"
            )


def numbered(log: Sequence, gaps: Sequence[tuple[int, int]] = ()) -> dict[int, object]:
    """Height -> entry of one committed log.  Entries count from height 1,
    and each declared state-transfer gap ``(first, last)`` — the heights a
    party jumped past when it caught up over pruned history
    (:class:`~repro.core.catchup.CatchupMixin`) — is skipped."""
    skip = {first: last for first, last in gaps}
    out: dict[int, object] = {}
    height = 1
    for entry in log:
        while height in skip:
            height = skip[height] + 1
        out[height] = entry
        height += 1
    return out


def prefix_consistent(logs: Sequence[dict[int, object]]) -> bool:
    """The paper's safety property over a set of output logs.

    "if one party has output a sequence s and another has output s',
    then s must be a prefix of s', or vice versa" (Section 1).  Each log is
    :func:`numbered` by height, and two logs must hold the same entry at
    every height both hold: for logs without gaps that is the prefix
    relation, and a party that state-transferred past some heights is held
    to the rest.
    """
    seen: dict[int, object] = {}
    return all(
        seen.setdefault(height, entry) == entry
        for log in logs
        for height, entry in log.items()
    )


def committed_logs(parties) -> list[dict[int, object]]:
    """Every party's committed hashes, :func:`numbered` past its declared
    state-transfer gaps (a party without catch-up declares none)."""
    return [
        numbered(p.committed_hashes, getattr(p, "state_transfer_gaps", ()))
        for p in parties
    ]


class Cluster:
    """A built, ready-to-run simulation of n parties."""

    #: The clock reading scenario time 0 is: simulated time starts at 0.
    started_at = 0.0

    def __init__(
        self,
        config: ClusterConfig,
        sim: Simulation,
        network: Network,
        parties: list[ICC0Party],
        params: ProtocolParams,
        keyrings: list[Keyring],
    ) -> None:
        self.config = config
        self.sim = sim
        self.network = network
        self.parties = parties
        self.params = params
        self.keyrings = keyrings

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
        if not prefix_consistent(committed_logs(self.honest_parties)):
            raise AssertionError("safety violated: committed logs diverge")

    def min_committed_round(self) -> int:
        return min((p.k_max for p in self.honest_parties), default=0)

    def max_committed_round(self) -> int:
        return max((p.k_max for p in self.honest_parties), default=0)


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

    ``sim`` defaults to a fresh ``Simulation(seed=config.seed)``; pass one
    to run on a chosen event queue.  A given ``config.tracer`` is
    installed on it before anything is built (parties cache
    ``sim.tracer``).
    """
    if sim is None:
        sim = Simulation(seed=config.seed)
    if config.tracer is not None:
        sim.tracer = config.tracer
    delay_model = config.delay_model if config.delay_model is not None else FixedDelay(0.1)
    network = Network(sim, config.n, delay_model)
    keyrings, params = derive_material(config)
    parties: list[ICC0Party] = []
    for i in range(1, config.n + 1):
        party = build_party(config, i, keyrings[i - 1], params, sim, network)
        parties.append(party)
        network.attach(party)
    for index, factory in config.corrupt.items():
        if factory is None:
            network.crash(index)
    return Cluster(config, sim, network, parties, params, keyrings)
