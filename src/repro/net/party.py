"""One live protocol party: unmodified ``repro.core`` objects on sockets.

:class:`LiveParty` is a clock, a transport and *the same assembly* the
simulator runs: :meth:`~repro.net.config.LiveConfig.cluster_config` maps
the shared file to a :class:`~repro.core.cluster.ClusterConfig`, and
:func:`repro.core.cluster.build_party` constructs the party from it —
except the ``sim`` it is handed is a :class:`~repro.net.clock.WallClock`
and the ``network`` a :class:`~repro.net.transport.TcpNetwork`.  Nothing
under :mod:`repro.core` is imported in a modified form; the party class
cannot tell which world it is in.

Client load rides the PR 6 batching pipeline unchanged: each party
builds a :class:`~repro.workloads.batching.RequestBatcher`, admits the
*same* deterministic signed-request set — the shared-ingress shortcut the
simulator's load harness also takes — and wires ``payload_source`` /
``payload_verifier`` through that
:class:`~repro.core.cluster.ClusterConfig`.  A ``repro serve`` process
derives the set from the shared config seed; the parties of one
:class:`~repro.net.cluster.LiveCluster` share the one set the first of them
derived, so each request is signed once, as its client would, and checked
by every party that admits it.  Chain-level dedup in ``payload_source``
keeps a request from being packed twice even though every party holds a
copy.
"""

from __future__ import annotations

import asyncio
from random import Random

from ..core.cluster import build_party, derive_material
from ..sim.metrics import percentile
from ..workloads.batching import BatchSpec, RequestBatcher, SignedRequest
from .clock import WallClock
from .config import LiveConfig
from .transport import TcpNetwork


def generate_load_requests(
    config: LiveConfig, batcher: RequestBatcher
) -> tuple[SignedRequest, ...]:
    """The deterministic request set of ``config``, derived from its seed
    and signed by ``batcher.auth``.

    Request ids depend only on ``(client, seq)``, so even if an auth
    scheme signed non-deterministically the parties would still agree on
    *which* requests exist — ids are what chain dedup and completion
    tracking key on.
    """
    rng = Random(f"live-load/{config.seed}")
    requests: list[SignedRequest] = []
    for i in range(config.load_requests):
        client = i % config.load_clients
        seq = i // config.load_clients
        key = rng.randrange(10_000)
        body = b"live/%d/%d" % (client, seq)
        auth = batcher.auth.sign(client, seq, key, body)
        requests.append(
            SignedRequest(client=client, seq=seq, key=key, auth=auth, body=body)
        )
    return tuple(requests)


class LiveParty:
    """One party of a live cluster: clock + transport + protocol + load.

    Build it inside a running event loop
    (:class:`~repro.net.cluster.LiveCluster` handles that), then::

        await live.start()
        ok = await live.wait_for_height(20, timeout=60)
        await live.stop()
        print(live.result())
    """

    def __init__(
        self,
        config: LiveConfig,
        index: int,
        *,
        loop: asyncio.AbstractEventLoop | None = None,
        tracer=None,
        requests: tuple[SignedRequest, ...] | None = None,
    ) -> None:
        """``requests`` is the cluster's signed ingress, as another party of
        the same config derived it; ``None`` derives it here."""
        if not 1 <= index <= config.n:
            raise ValueError(f"index {index} out of range 1..{config.n}")
        self.config = config
        self.index = index
        self.clock = WallClock(loop=loop, seed=config.seed * 7919 + index)
        #: Instant zero of ``wall_seconds``: when this party was built.
        self.created_at = self.clock.now
        if tracer is not None:
            self.clock.tracer = tracer
        self.network = TcpNetwork(
            self.clock,
            index,
            config.peer_table(),
            cluster_id=config.cluster_id,
            max_frame=config.max_frame,
        )

        # -- client load (optional, the PR 6 pipeline) -----------------------
        self.batcher: RequestBatcher | None = None
        #: The signed ingress this party admits, in order (shared by every
        #: party of a LiveCluster).
        self.requests: tuple[SignedRequest, ...] = ()
        self._load_cursor = 0  # next request of the queue to admit
        self._load_start = 0.0  # instant of the first pump: chunk 0 is due here
        cluster_config = config.cluster_config()
        if config.load_requests > 0:
            self.batcher = RequestBatcher(
                BatchSpec(
                    batch_max=config.load_batch,
                    auth=config.client_auth,
                    group_profile=config.group_profile,
                ),
                seed=config.seed,
            )
            if requests is None:
                requests = generate_load_requests(config, self.batcher)
            self.requests = requests
            cluster_config.payload_source = self.batcher.payload_source
            cluster_config.payload_verifier = self.batcher.verify_block

        # -- the unmodified protocol party -----------------------------------
        keyrings, params = derive_material(cluster_config)
        self.party = build_party(
            cluster_config, index, keyrings[index - 1], params, self.clock, self.network
        )
        if self.batcher is not None:
            self.batcher.attach(self.clock, self.party, self.clock.tracer)

        self._height_event = asyncio.Event()
        self.party.commit_listeners.append(lambda _block: self._height_event.set())
        self._started = False
        self._load_handle: asyncio.TimerHandle | None = None
        self.run_id = config.effective_run_id()
        # Answer STAT frames with this party's live snapshot (repro top).
        self.network.stats_provider = self.stat_snapshot

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener unless already bound, start dialling peers,
        start the protocol.

        The protocol waits for no peer: its round-1 messages sit in the
        per-peer outbound queues until each link connects.  A peer that is
        not listening yet refuses the dial, and the link redials after a
        backoff — between processes that backoff is the only barrier.
        :class:`~repro.net.cluster.LiveCluster` binds every party's
        listener before any party starts, so its first dials connect.  ICC
        tolerates either by design.
        """
        await self.network.start()
        self.network.attach(self.party)
        self.party.start()
        if self.requests:
            self._pump_load()
        self._started = True

    def _pump_load(self) -> None:
        """Admit the next chunk of the deterministic request set.

        Open loop: chunk *k* is due at ``first pump + k * load_tick`` whatever
        the earlier chunks cost to admit, so the offered rate is the
        configured one.  A pump that falls behind runs the late chunks back
        to back (``schedule_at`` runs a past instant as soon as possible).
        """
        batch = self.config.load_batch
        now = self.clock.now
        if self._load_cursor == 0:
            self._load_start = now
        chunk = self.requests[self._load_cursor : self._load_cursor + batch]
        self._load_cursor += batch
        if chunk and self.batcher is not None:
            self.batcher.admit_batch([(request, now) for request in chunk])
        if self._load_cursor < len(self.requests):
            due = self._load_start + (self._load_cursor // batch) * self.config.load_tick
            self._load_handle = self.clock.schedule_at(due, self._pump_load)
        else:
            self._load_handle = None

    async def wait_for_height(self, height: int, timeout: float) -> bool:
        """True once the local party has committed through ``height``."""
        deadline = self.clock.now + timeout
        while self.party.k_max < height:
            remaining = deadline - self.clock.now
            if remaining <= 0:
                return False
            self._height_event.clear()
            try:
                await asyncio.wait_for(self._height_event.wait(), remaining)
            except asyncio.TimeoutError:
                return False
        return True

    async def stop(self) -> None:
        if self._load_handle is not None:
            self._load_handle.cancel()
            self._load_handle = None
        await self.network.stop()

    # -- results --------------------------------------------------------------

    def stat_snapshot(self) -> dict:
        """The JSON answer to a STAT frame: this party right now.

        Everything ``repro top`` renders comes from here; it must stay
        cheap and side-effect-free (it runs inside the acceptor's read callback).
        """
        latencies = self.batcher.latencies if self.batcher else []
        return {
            "index": self.index,
            "run_id": self.run_id,
            "cluster_id": self.config.cluster_id,
            "height": self.party.k_max,
            "pool_depth": self.party.pool.artifact_count(),
            "link_backlog": self.network.link_backlog(),
            "links_paused": self.network.links_paused(),
            "connects": self.network.connects_total,
            "reconnects": self.network.reconnects_total,
            "dup_connections": self.network.dup_connections_total,
            "frames_rejected": self.network.frames_rejected,
            "requests_completed": self.batcher.completed if self.batcher else 0,
            "request_p50_s": percentile(latencies, 0.50) if latencies else None,
            "request_p99_s": percentile(latencies, 0.99) if latencies else None,
            "net_messages": sum(self.network.metrics.msgs_sent.values()),
            "net_bytes": sum(self.network.metrics.bytes_sent.values()),
            "wall_seconds": round(self.clock.now - self.created_at, 6),
        }

    def result(self) -> dict:
        """The JSON-able record ``repro serve`` reports when it exits."""
        latencies = sorted(self.batcher.latencies) if self.batcher else []
        return {
            "index": self.index,
            "run_id": self.run_id,
            "height": self.party.k_max,
            "committed": [h.hex() for h in self.party.committed_hashes],
            "wall_seconds": round(self.clock.now - self.created_at, 6),
            "requests_completed": self.batcher.completed if self.batcher else 0,
            "request_latencies": [round(v, 6) for v in latencies],
            "net_messages": sum(self.network.metrics.msgs_sent.values()),
            "net_bytes": sum(self.network.metrics.bytes_sent.values()),
            "connects": self.network.connects_total,
            "reconnects": self.network.reconnects_total,
            "dup_connections": self.network.dup_connections_total,
            "frames_rejected": self.network.frames_rejected,
        }


__all__ = ["LiveParty", "generate_load_requests"]
