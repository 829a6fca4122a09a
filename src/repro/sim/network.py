"""The broadcast network connecting simulated parties.

Matches the communication model of Section 3.1:

* the only primitive honest parties use is **broadcast** (same message to
  everyone) — but the broadcast is *not secure*: a corrupt party may send
  different messages to different parties (:meth:`Network.send`), or
  nothing at all;
* scheduling of delivery is adversary-controlled in the worst case — the
  pluggable :class:`~repro.sim.delays.DelayModel` decides delays;
* every message from an honest party to an honest party is eventually
  delivered (delay models uphold this; crashes model *corrupt* parties).

Point-to-point ``send`` also exists because ICC2's reliable-broadcast
subprotocol and the gossip sub-layer are not all-to-all.
"""

from __future__ import annotations

from typing import Protocol

from .delays import DelayModel
from .metrics import Metrics
from .simulator import Simulation


class Receiver(Protocol):
    """What the network requires of an attached party."""

    index: int

    def on_receive(self, message: object) -> None: ...


class FaultInterceptor(Protocol):
    """What the network requires of an installed fault injector.

    ``intercept`` sees every remote delivery after its natural delay has
    been computed and either returns ``None`` (deliver unchanged — the
    fast path) or a replacement list of ``(delay, message)`` hops: empty
    to drop the delivery, one entry to delay/corrupt it, several to
    duplicate it.  See :class:`repro.faults.inject.FaultInjector`.
    """

    def intercept(
        self, sender: int, receiver: int, message: object, delay: float
    ) -> list[tuple[float, object]] | None: ...


def wire_size(message: object) -> int:
    """Size of a message on the wire, via duck typing.

    Message classes expose ``wire_size()``; raw bytes fall back to their
    length.  Anything else is a programming error — better loud than a
    silently meaningless traffic measurement.
    """
    method = getattr(message, "wire_size", None)
    if method is not None:
        return int(method())
    if isinstance(message, (bytes, bytearray)):
        return len(message)
    raise TypeError(f"cannot size message of type {type(message).__name__}")


def message_kind(message: object) -> str:
    """Metric label for a message, via duck typing."""
    kind = getattr(message, "kind", None)
    if kind is not None:
        return str(kind)
    return type(message).__name__


def account_transmission(
    net, now: float, sender: int, message: object, round: int | None,
    event: str, messages: int, field: str, value: int,
) -> int:
    """The one accounting of a transmission, for :class:`Network` and
    ``repro.net.transport.TcpNetwork`` alike: ``net.metrics`` (the paper's
    conventions, see :mod:`repro.sim.metrics`) and the ``event`` trace
    event.  ``messages`` is what a send or multicast counts as (a broadcast
    is always n messages and n − 1 wire copies), ``field``/``value`` the
    payload entry that differs per event kind.  Returns the message's wire
    size."""
    size = wire_size(message)
    kind = message_kind(message)
    if event == "net.broadcast":
        net.metrics.on_broadcast(sender, size, kind, round)
    else:
        for _ in range(messages):
            net.metrics.on_send(sender, size, kind, round)
    tracer = net.tracer
    if tracer.enabled:
        tracer.emit(
            time=now, party=sender, protocol="net", round=round, kind=event,
            payload={"kind": kind, "bytes": size, field: value},
        )
    return size


class Network:
    """Delay-model-driven message fabric for up to ``n`` parties."""

    def __init__(
        self,
        sim: Simulation,
        n: int,
        delay_model: DelayModel,
        metrics: Metrics | None = None,
        uplink_bps: float | None = None,
        *,
        tracer: object | None = None,
        rng: object | None = None,
    ) -> None:
        """``uplink_bps`` (optional) models each node's finite upload
        bandwidth: transmissions serialize through the sender's NIC, so a
        message of size B adds B·8/uplink_bps of transmission time *and*
        queues behind the sender's earlier transmissions.  This is what
        turns the leader's (n-1)·S egress into real latency on a WAN — the
        bottleneck effect [35] measures and the reason ICC1/ICC2 exist.
        None = infinite bandwidth (pure propagation-delay model).

        ``tracer``/``rng`` (keyword-only) override the simulation-level
        defaults for this network only.  Embedded clusters use them to keep
        a namespaced trace stream and a private delay-sampling RNG, so K
        networks sharing one Simulation stay independent of each other's
        draws; ``None`` (the default) resolves to ``sim.tracer`` /
        ``sim.rng`` live,
        exactly the pre-override behaviour.
        """
        self.sim = sim
        self.n = n
        self.delay_model = delay_model
        self.metrics = metrics if metrics is not None else Metrics(n=n)
        self.uplink_bps = uplink_bps
        self._tracer_override = tracer
        self._rng_override = rng
        self._uplink_free_at: dict[int, float] = {}
        self._parties: dict[int, Receiver] = {}
        self._crashed: set[int] = set()
        self._partitions: list[tuple[frozenset[int], float]] = []
        self._delivered = 0
        #: Optional fault interceptor (:class:`repro.faults.inject.FaultInjector`).
        #: ``None`` keeps :meth:`_deliver` on the exact pre-fault-layer path —
        #: the zero-overhead no-op mirror of the disabled tracer.
        self._faults: FaultInterceptor | None = None

    # -- observability / randomness resolution --------------------------------

    @property
    def tracer(self):
        """The tracer this network emits through (override or ``sim.tracer``)."""
        return self._tracer_override if self._tracer_override is not None else self.sim.tracer

    @property
    def rng(self):
        """The RNG delay sampling draws from (override or ``sim.rng``)."""
        return self._rng_override if self._rng_override is not None else self.sim.rng

    # -- topology management --------------------------------------------------

    def attach(self, party: Receiver) -> None:
        if not 1 <= party.index <= self.n:
            raise ValueError(f"party index {party.index} outside 1..{self.n}")
        if party.index in self._parties:
            raise ValueError(f"party {party.index} already attached")
        self._parties[party.index] = party

    def crash(self, index: int) -> None:
        """Silence a party (crash-failure corruption, or a node going
        offline): it neither sends nor receives, and messages addressed to
        it are *dropped* (unlike a partition, which holds them back).
        Crashing an already-crashed party is a no-op."""
        if not 1 <= index <= self.n:
            raise ValueError(f"cannot crash party {index}: outside 1..{self.n}")
        self._crashed.add(index)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(time=self.sim.now, party=index, protocol="net",
                        round=None, kind="net.crash")

    def revive(self, index: int) -> None:
        """Bring a crashed/offline party back.  In the paper's model a
        corrupt party stays corrupt; revive models an *honest* node that
        was offline and rejoins — the catch-up subprotocol's scenario.

        Reviving a party that is not crashed is an error: it is always a
        mis-specified fault schedule, and silently accepting it used to
        emit a phantom ``net.revive`` trace event for a node that never
        went down.
        """
        if not 1 <= index <= self.n:
            raise ValueError(f"cannot revive party {index}: outside 1..{self.n}")
        if index not in self._crashed:
            raise ValueError(f"cannot revive party {index}: it is not crashed")
        self._crashed.discard(index)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(time=self.sim.now, party=index, protocol="net",
                        round=None, kind="net.revive")

    def is_crashed(self, index: int) -> bool:
        return index in self._crashed

    def add_partition(self, group: set[int], heal_time: float) -> None:
        """Until ``heal_time``, messages between ``group`` and the rest are
        held back (and delivered at heal time — eventual delivery holds).

        Partitions compose: when several active partitions separate a
        sender/receiver pair (overlapping groups with different heal
        times), the message is held until the *last* separating partition
        heals.  A crashed node may appear in a group — crash semantics
        win (its messages are dropped, not held) until it is revived,
        after which the partition applies to it like anyone else.
        A ``heal_time`` in the past is accepted as an explicit no-op.
        """
        for index in group:
            if not 1 <= index <= self.n:
                raise ValueError(
                    f"cannot partition party {index}: outside 1..{self.n}"
                )
        now = self.sim.now
        # Healed partitions can never hold a future message — prune them so
        # long fault schedules do not grow the scan in _partition_hold.
        self._partitions = [(g, heal) for g, heal in self._partitions if heal > now]
        if heal_time > now:
            self._partitions.append((frozenset(group), heal_time))
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(time=self.sim.now, party=0, protocol="net", round=None,
                        kind="net.partition",
                        payload={"group": sorted(group), "heal_time": heal_time})

    def active_partitions(self) -> list[tuple[frozenset[int], float]]:
        """The partitions that can still hold messages back (for tests)."""
        now = self.sim.now
        return [(g, heal) for g, heal in self._partitions if heal > now]

    def _partition_hold(self, sender: int, receiver: int) -> float:
        """Extra wait imposed by active partitions (0 when none)."""
        hold = 0.0
        now = self.sim.now
        for group, heal in self._partitions:
            if heal <= now:
                continue
            if (sender in group) != (receiver in group):
                hold = max(hold, heal - now)
        return hold

    # -- fault injection -------------------------------------------------------

    def install_faults(self, interceptor: FaultInterceptor) -> None:
        """Attach a fault interceptor to every remote delivery.

        Only one interceptor may be installed at a time (compose fault
        schedules at the :class:`~repro.faults.scenario.Scenario` level,
        not by stacking interceptors).
        """
        if self._faults is not None:
            raise ValueError("a fault interceptor is already installed")
        self._faults = interceptor

    def clear_faults(self) -> None:
        """Restore the exact zero-overhead no-fault delivery path."""
        self._faults = None

    # -- transmission -----------------------------------------------------------

    def broadcast(self, sender: int, message: object, round: int | None = None) -> None:
        """Send ``message`` from ``sender`` to all parties (including itself).

        Self-delivery is immediate (the party's own messages go straight
        into its pool, Section 3.1); remote deliveries follow the delay
        model.  Traffic accounting follows the paper's conventions (see
        :mod:`repro.sim.metrics`).
        """
        if sender in self._crashed:
            return
        size = account_transmission(
            self, self.sim.now, sender, message, round,
            "net.broadcast", self.n, "copies", self.n,
        )
        for receiver in range(1, self.n + 1):
            if receiver == sender:
                self._deliver(sender, receiver, message)
            else:
                # Each copy serializes through the sender's uplink in turn.
                self._deliver(
                    sender, receiver, message,
                    sent_at=self._transmission_done_at(sender, size),
                )

    def send(self, sender: int, receiver: int, message: object, round: int | None = None) -> None:
        """Point-to-point send (gossip, ICC2 fragments, Byzantine equivocation)."""
        if sender in self._crashed:
            return
        size = account_transmission(
            self, self.sim.now, sender, message, round,
            "net.send", 1, "receiver", receiver,
        )
        sent_at = None
        if receiver != sender:
            sent_at = self._transmission_done_at(sender, size)
        self._deliver(sender, receiver, message, sent_at=sent_at)

    def multicast(self, sender: int, receivers: list[int], message: object, round: int | None = None) -> None:
        """Send the same message to a subset (used by the gossip overlay)."""
        if sender in self._crashed:
            return
        size = account_transmission(
            self, self.sim.now, sender, message, round,
            "net.multicast", len(receivers), "receivers", len(receivers),
        )
        for receiver in receivers:
            sent_at = None
            if receiver != sender:
                sent_at = self._transmission_done_at(sender, size)
            self._deliver(sender, receiver, message, sent_at=sent_at)

    def _transmission_done_at(self, sender: int, size: int) -> float:
        """When the sender's NIC finishes pushing this message out."""
        if self.uplink_bps is None:
            return self.sim.now
        start = max(self.sim.now, self._uplink_free_at.get(sender, 0.0))
        done = start + size * 8.0 / self.uplink_bps
        self._uplink_free_at[sender] = done
        return done

    def _deliver(
        self, sender: int, receiver: int, message: object, sent_at: float | None = None
    ) -> None:
        if receiver in self._crashed:
            return
        if receiver == sender:
            delay = 0.0
        else:
            sampler = getattr(self.delay_model, "sample_message", None)
            if sampler is not None:
                delay = sampler(sender, receiver, self.sim.now, message, self.rng)
            else:
                delay = self.delay_model.sample(sender, receiver, self.sim.now, self.rng)
            delay += self._partition_hold(sender, receiver)
            if sent_at is not None:
                delay += sent_at - self.sim.now  # NIC serialization time
            if self._faults is not None:
                plan = self._faults.intercept(sender, receiver, message, delay)
                if plan is not None:
                    # The interceptor replaced this delivery (drop / delay /
                    # corrupt / duplicate).
                    for hop_delay, hop_message in plan:
                        self.sim.schedule(
                            hop_delay,
                            lambda m=hop_message: self._hand_over(receiver, m),
                        )
                    return
        self.sim.schedule(delay, lambda: self._hand_over(receiver, message))

    def _hand_over(self, receiver: int, message: object) -> None:
        if receiver in self._crashed:
            return
        party = self._parties.get(receiver)
        if party is not None:
            self._delivered += 1
            party.on_receive(message)

    @property
    def delivered_count(self) -> int:
        return self._delivered
