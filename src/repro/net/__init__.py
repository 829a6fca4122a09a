"""Real asyncio/TCP transport: the deployed face of the simulator.

Everything under :mod:`repro.net` exists so that the *identical*
:mod:`repro.core` protocol objects (ICC0/ICC1/ICC2 parties, the message
pool, the random beacon) that run inside the discrete-event simulator can
run as one-process-per-party over real sockets, with **zero changes to the
protocol layer**.  The package mirrors the two objects a party is wired
to at construction time:

* :class:`~repro.net.clock.WallClock` stands in for
  :class:`repro.sim.simulator.Simulation` — same ``now`` /
  ``schedule`` / ``schedule_at`` / ``tracer`` / ``rng`` surface, but
  backed by the asyncio event loop's monotonic clock instead of virtual
  time;
* :class:`~repro.net.transport.TcpNetwork` stands in for
  :class:`repro.sim.network.Network` — same ``attach`` / ``broadcast`` /
  ``send`` / ``multicast`` surface and the same
  :class:`repro.sim.metrics.Metrics` accounting, but messages cross real
  TCP connections with length-prefixed framing, per-peer outbound queues
  and reconnect/backoff (see ``docs/TRANSPORT.md``).

On top of those two substitutions:

* :mod:`repro.net.config` — the JSON peer/cluster configuration a party
  binary is launched with;
* :mod:`repro.net.party` — :class:`LiveParty`, one protocol party bound
  to a socket (the ``python -m repro serve`` body);
* :mod:`repro.net.cluster` — :class:`LiveCluster`, an embeddable
  n-party localhost cluster on one event loop (the programmatic API,
  mirroring :func:`repro.core.cluster.embed_cluster` for the simulator);
* :mod:`repro.net.live` — the ``python -m repro serve`` / ``python -m
  repro live`` entry points: spawn one OS process per party, drive
  client load through the batching pipeline, report wall-clock
  finalization.

Fault injection (:meth:`repro.sim.network.Network.install_faults`) is
**simulator-only**: :class:`TcpNetwork` raises
:class:`SimulatorOnlyFeature` if a scenario is attached — see
``docs/FAULTS.md``.
"""

from .clock import WallClock
from .config import LiveConfig, PeerSpec, load_live_config
from .framing import (
    DEFAULT_MAX_FRAME,
    FrameDecoder,
    FrameError,
    OversizedFrame,
    decode_payload,
    encode_frame,
    hello_frame,
    message_frame,
)
from .transport import SimulatorOnlyFeature, TcpNetwork
from .party import LiveParty
from .cluster import LiveCluster

__all__ = [
    "WallClock",
    "LiveConfig",
    "PeerSpec",
    "load_live_config",
    "DEFAULT_MAX_FRAME",
    "FrameDecoder",
    "FrameError",
    "OversizedFrame",
    "decode_payload",
    "encode_frame",
    "hello_frame",
    "message_frame",
    "SimulatorOnlyFeature",
    "TcpNetwork",
    "LiveParty",
    "LiveCluster",
]
