"""Cluster assembly for the baseline protocols (mirrors repro.core.cluster)."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..crypto.keyring import generate_keyrings
from ..sim.delays import DelayModel, FixedDelay
from ..sim.metrics import Metrics
from ..sim.network import Network
from ..sim.simulator import Simulation
from .common import BaselineParty


@dataclass
class BaselineClusterConfig:
    """Declarative description of one baseline run."""

    party_class: type[BaselineParty]
    n: int
    t: int = 0
    seed: int = 0
    delay_model: DelayModel | None = None
    payload_source: object = None
    crypto_backend: str = "fast"
    #: index -> replacement class (None = crash failure)
    corrupt: dict[int, type | None] = dc_field(default_factory=dict)
    party_kwargs: dict = dc_field(default_factory=dict)
    #: Optional :class:`repro.obs.Tracer`; installed on the Simulation
    #: *before* any party is built (parties cache ``sim.tracer``).
    tracer: object | None = None
    #: Optional :class:`repro.obs.Meter`; same before-build rule.
    meter: object | None = None


class BaselineCluster:
    """A built baseline deployment."""

    def __init__(self, config, sim, network, parties) -> None:
        self.config = config
        self.sim = sim
        self.network = network
        self.parties = parties

    @property
    def metrics(self) -> Metrics:
        return self.network.metrics

    @property
    def honest_parties(self) -> list[BaselineParty]:
        return [p for p in self.parties if p.index not in self.config.corrupt]

    def party(self, index: int) -> BaselineParty:
        return self.parties[index - 1]

    def start(self) -> None:
        for party in self.parties:
            if (
                party.index in self.config.corrupt
                and self.config.corrupt[party.index] is None
            ):
                continue
            party.start()

    def run_for(self, seconds: float, max_events: int | None = 5_000_000) -> None:
        self.sim.run(until=self.sim.now + seconds, max_events=max_events)

    def run_until_all_committed_height(
        self, height: int, timeout: float = 10_000.0, max_events: int | None = 5_000_000
    ) -> bool:
        honest = self.honest_parties

        def done() -> bool:
            return all(p.k_max >= height for p in honest)

        self.sim.run(until=timeout, stop_when=done, max_events=max_events)
        return done()

    def check_safety(self) -> None:
        """Prefix property over all honest parties' committed batches."""
        logs = [p.committed_hashes for p in self.honest_parties]
        reference = max(logs, key=len, default=[])
        for log in logs:
            if log != reference[: len(log)]:
                raise AssertionError("baseline safety violated: logs diverge")

    def min_committed_height(self) -> int:
        return min((p.k_max for p in self.honest_parties), default=0)


def build_baseline_cluster(config: BaselineClusterConfig) -> BaselineCluster:
    sim = Simulation(seed=config.seed)
    if config.tracer is not None:
        sim.tracer = config.tracer  # before Network/parties: they cache it
    if config.meter is not None:
        sim.meter = config.meter
    delay_model = config.delay_model if config.delay_model is not None else FixedDelay(0.1)
    metrics = Metrics(n=config.n)
    network = Network(sim, config.n, delay_model, metrics)
    keyrings = generate_keyrings(
        config.n, config.t, seed=config.seed, backend=config.crypto_backend
    )
    parties = []
    for i in range(1, config.n + 1):
        cls = config.corrupt.get(i, config.party_class)
        if cls is None:
            cls = config.party_class
        party = cls(
            index=i,
            keyring=keyrings[i - 1],
            sim=sim,
            network=network,
            n=config.n,
            t=config.t,
            payload_source=config.payload_source,
            **config.party_kwargs,
        )
        parties.append(party)
        network.attach(party)
    for index, cls in config.corrupt.items():
        if cls is None:
            network.crash(index)
    return BaselineCluster(config, sim, network, parties)
