"""An embeddable n-party live cluster on one event loop.

:class:`LiveCluster` is the live-transport counterpart of
:func:`repro.core.cluster.build_cluster`: all n parties run inside one
process on one asyncio loop — but every message still crosses a real
TCP connection through each party's own :class:`~repro.net.transport
.TcpNetwork` (n listening sockets, n·(n−1) directed connections, real
framing, real kernel buffers).  It exists for two callers:

* programmatic embedding — ``examples/live_cluster.py`` finalizes a
  4-party chain in ~20 lines;
* tests and the ``repro live --check`` quick leg, which need a live
  cluster without the cost and signal-handling of n OS processes.

Because it hosts every party, it can do two things separate processes
cannot: :meth:`LiveCluster.start` binds all n listeners before any party
dials, so every first dial connects and no link waits out a reconnect
backoff; and the client load is signed once, by the first party's
derivation, and that one immutable request set is handed to every party
(each still checks every request it admits).

``python -m repro live`` proper spawns one ``repro serve`` process per
party instead; the protocol and transport code paths are identical, but a
peer that is not up yet is found by redialling.

Usage::

    config = local_live_config(4, t=1, epsilon=0.01, target_height=5)
    async with LiveCluster(config) as cluster:
        ok = await cluster.wait_for_height(5, timeout=30.0)
        cluster.check_safety()
"""

from __future__ import annotations

import asyncio

from ..core.cluster import committed_logs, prefix_consistent
from .config import LiveConfig
from .party import LiveParty


class LiveCluster:
    """All parties of one live config, co-hosted on the current loop."""

    def __init__(self, config: LiveConfig, *, tracer=None, per_party=None) -> None:
        """``tracer`` is shared by every party (handy for an embedded view
        of aggregate activity); ``per_party`` instead maps an index (1..n)
        to a tracer, giving each party its own trace exactly as separate
        processes would — what distributed-trace collection needs.
        ``per_party`` wins when both are given."""
        self.config = config
        self._tracer = tracer
        self._per_party = per_party
        self.parties: list[LiveParty] = []
        self._started = False

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("cluster already started")
        loop = asyncio.get_running_loop()
        #: The host-clock instant scenario time 0 is (parties' times are
        #: host-clock readings; see repro.faults.check_invariants).
        self.started_at = loop.time()
        self.parties = []
        requests = None  # the first party derives the ingress, the rest share it
        for i in range(1, self.config.n + 1):
            tracer = self._per_party(i) if self._per_party is not None else self._tracer
            live = LiveParty(self.config, i, loop=loop, tracer=tracer, requests=requests)
            requests = live.requests
            self.parties.append(live)
        for live in self.parties:
            await live.network.listen()
        for live in self.parties:
            await live.start()
        self._started = True

    async def stop(self) -> None:
        for live in self.parties:
            await live.stop()
        self._started = False

    async def __aenter__(self) -> "LiveCluster":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- progress -------------------------------------------------------------

    async def wait_for_height(self, height: int, timeout: float) -> bool:
        """True once **every** party has committed through ``height``."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        for live in self.parties:
            remaining = deadline - loop.time()
            if remaining <= 0 or not await live.wait_for_height(height, remaining):
                return False
        return True

    def min_height(self) -> int:
        return min((live.party.k_max for live in self.parties), default=0)

    @property
    def honest_parties(self) -> list:
        """The protocol parties (a live config declares none corrupt) — what
        :func:`repro.faults.check_invariants` walks, so it takes this
        cluster as it takes a simulated one."""
        return [live.party for live in self.parties]

    def check_safety(self) -> None:
        """Assert the paper's prefix property across all parties' outputs."""
        if not prefix_consistent(committed_logs(self.honest_parties)):
            raise AssertionError("safety violated: committed logs diverge")

    def results(self) -> list[dict]:
        return [live.result() for live in self.parties]


__all__ = ["LiveCluster"]
