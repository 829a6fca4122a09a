"""Live-cluster configuration: the JSON file a party binary is launched with.

One file describes the whole cluster — every ``python -m repro serve``
process loads the *same* file and is told which index it is on the
command line.  That is what makes key material line up: each process
calls :func:`repro.crypto.keyring.generate_keyrings` with the shared
``(n, t, seed, backend, group_profile)`` tuple, which is deterministic,
so party *i* holds share *i* of the same threshold keys every other
process expects.  (A deployment would run distributed key generation;
the dealer-style derivation is the same simplification the simulator
makes, and docs/TRANSPORT.md states it.)

The format (``docs/TRANSPORT.md`` shows a complete example)::

    {
      "cluster_id": "demo",
      "n": 4, "t": 1, "seed": 7,
      "protocol": "icc0",
      "peers": [
        {"index": 1, "host": "127.0.0.1", "port": 9001},
        ...
      ],
      "delta_bound": 1.0, "epsilon": 0.05,
      "target_height": 20,
      "load_requests": 160, "load_clients": 8
    }

Everything except ``cluster_id``/``n``/``peers`` has a default, so a
minimal hand-written config stays small.
"""

from __future__ import annotations

import json
import socket
from dataclasses import asdict, dataclass, replace

from ..core.cluster import PROTOCOLS, ClusterConfig, protocol_party
from .framing import DEFAULT_MAX_FRAME


@dataclass(frozen=True)
class PeerSpec:
    """One party's network address."""

    index: int
    host: str
    port: int


@dataclass(frozen=True)
class LiveConfig:
    """Declarative description of one live (TCP) cluster.

    The protocol fields (``n``, ``t``, ``delta_bound``, ``epsilon``,
    ``seed``, ``crypto_backend``, ``group_profile``, ``max_rounds``, and
    ``protocol`` with its ``gossip_degree``) are what
    :meth:`cluster_config` carries over to a
    :class:`repro.core.cluster.ClusterConfig`; the rest are live-only.
    """

    cluster_id: str
    n: int
    peers: tuple[PeerSpec, ...]
    t: int = 0
    seed: int = 0
    protocol: str = "icc0"
    crypto_backend: str = "fast"
    group_profile: str = "test"
    #: δ_bound/ε drive the protocol's delay functions.  On localhost the
    #: real propagation delay is ~0, so rounds complete in roughly
    #: 2·ε wall-clock seconds — keep ε small for fast local runs.
    delta_bound: float = 1.0
    epsilon: float = 0.05
    #: Stop proposing after this many rounds (None = run until stopped).
    max_rounds: int | None = None
    #: ``repro serve`` exits once the local party commits this height.
    target_height: int = 20
    #: Overall wall-clock budget for reaching it (seconds).
    timeout: float = 60.0
    #: Frame-body cap for the transport (bytes).
    max_frame: int = DEFAULT_MAX_FRAME
    #: ICC1 overlay degree (ignored by icc0/icc2).
    gossip_degree: int = 4
    #: Client load through the PR 6 batching pipeline: total deterministic
    #: signed requests (0 = run without payload load) spread over
    #: ``load_clients`` clients, admitted ``load_batch`` per tick.
    load_requests: int = 0
    load_clients: int = 8
    load_batch: int = 16
    load_tick: float = 0.05
    #: Client-auth scheme for the load requests ("fast" or "real").
    client_auth: str = "fast"
    #: Unique identifier for one cluster *run* — stamped into every trace
    #: export and result file so the collector can refuse to merge files
    #: from different runs.  The ``repro live`` orchestrator generates
    #: one; an empty value falls back to ``"<cluster_id>:<seed>"``.
    run_id: str = ""

    def effective_run_id(self) -> str:
        """The run id traces are stamped with (never empty)."""
        return self.run_id or f"{self.cluster_id}:{self.seed}"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r} (expected one of {tuple(PROTOCOLS)})"
            )
        if len(self.peers) != self.n:
            raise ValueError(
                f"config names {len(self.peers)} peers but n={self.n}"
            )
        indices = sorted(p.index for p in self.peers)
        if indices != list(range(1, self.n + 1)):
            raise ValueError(
                f"peer indices must be exactly 1..{self.n}, got {indices}"
            )
        if self.target_height < 1:
            raise ValueError(f"target_height must be >= 1, got {self.target_height}")

    # -- views ---------------------------------------------------------------

    def cluster_config(self) -> ClusterConfig:
        """The protocol this file describes, as the config
        :func:`repro.core.cluster.build_cluster` takes: the one mapping from
        the JSON fields to a party.  The same object builds the simulated
        cluster (give it a ``delay_model``) and each live party (which adds
        its payload hooks when the config carries client load)."""
        party_class, extra = protocol_party(
            self.protocol, self.n, seed=self.seed, gossip_degree=self.gossip_degree
        )
        return ClusterConfig(
            n=self.n,
            t=self.t,
            delta_bound=self.delta_bound,
            epsilon=self.epsilon,
            seed=self.seed,
            crypto_backend=self.crypto_backend,
            group_profile=self.group_profile,
            max_rounds=self.max_rounds,
            party_class=party_class,
            extra_party_kwargs=extra,
        )

    def peer_table(self) -> dict[int, tuple[str, int]]:
        """The index -> (host, port) map the transport is built from."""
        return {p.index: (p.host, p.port) for p in self.peers}

    def peer(self, index: int) -> PeerSpec:
        for p in self.peers:
            if p.index == index:
                return p
        raise KeyError(index)

    # -- JSON round-trip ------------------------------------------------------

    def to_json(self) -> dict:
        data = asdict(self)
        data["peers"] = [asdict(p) for p in self.peers]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "LiveConfig":
        data = dict(data)
        peers = tuple(PeerSpec(**p) for p in data.pop("peers"))
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(peers=peers, **data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def load_live_config(path: str) -> LiveConfig:
    """Load and validate a cluster config file."""
    with open(path, encoding="utf-8") as fh:
        return LiveConfig.from_json(json.load(fh))


def free_local_ports(count: int) -> list[int]:
    """Reserve ``count`` distinct localhost ports by binding to port 0.

    The sockets are held open until all ports are collected so the OS
    cannot hand the same port out twice; the usual "someone else grabs
    the port before we listen" race remains, which is fine for local
    orchestration (the listener bind would fail loudly, not silently).
    """
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [s.getsockname()[1] for s in sockets]
    finally:
        for sock in sockets:
            sock.close()


def local_live_config(n: int, *, ports: list[int] | None = None, **overrides) -> LiveConfig:
    """A localhost cluster config with freshly allocated ports.

    Keyword overrides are any :class:`LiveConfig` field except ``n`` and
    ``peers`` (``cluster_id`` defaults to ``"local"``).
    """
    if ports is None:
        ports = free_local_ports(n)
    if len(ports) != n:
        raise ValueError(f"need {n} ports, got {len(ports)}")
    peers = tuple(
        PeerSpec(index=i + 1, host="127.0.0.1", port=ports[i]) for i in range(n)
    )
    overrides.setdefault("cluster_id", "local")
    return LiveConfig(n=n, peers=peers, **overrides)


def with_ports(config: LiveConfig, ports: list[int]) -> LiveConfig:
    """The same cluster on different ports (orchestrator retry helper)."""
    if len(ports) != config.n:
        raise ValueError(f"need {config.n} ports, got {len(ports)}")
    peers = tuple(
        replace(peer, port=port) for peer, port in zip(config.peers, ports)
    )
    return replace(config, peers=peers)


__all__ = [
    "LiveConfig",
    "PeerSpec",
    "free_local_ports",
    "load_live_config",
    "local_live_config",
    "with_ports",
]
