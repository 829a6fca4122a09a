"""Execute a :class:`~repro.faults.scenario.Scenario` against a cluster.

Two mechanisms, mirroring the two halves of the fault model:

* **process faults** (crash / recover) are scheduled on the simulator's
  event queue at install time and fire at their scenario timestamps,
  driving :meth:`repro.sim.network.Network.crash` and ``revive`` — the
  only fault state the network keeps;
* **link faults** (partitions, link drop / duplication / corruption /
  latency, outages) are the decisions of a :class:`FaultInjector`
  installed as the network's interceptor — every remote delivery passes
  through :meth:`FaultInjector.intercept` *after* its natural delay is
  computed, and the injector either returns ``None`` (deliver unchanged:
  the fast path, bit-identical to a run with no scenario attached) or a
  replacement delivery plan.  A partition is a timed event too, but all
  it does when it fires is record the cut that ``intercept`` then holds
  copies behind.

Determinism: every probabilistic decision draws from the injector's own
``Random(f"faults/{seed}/{name}")`` stream — never from the simulation's
RNG — and decisions are consumed in delivery order, which the simulator
makes deterministic.  Attaching a scenario therefore never perturbs the
simulation's RNG stream, and the same scenario seed reproduces the same
faults bit-for-bit at any job count.

Byzantine corruption is static, so it is applied at *cluster build* time
instead: :func:`scenario_corrupt` turns a scenario's ``ByzantineFault``
declarations into the ``ClusterConfig.corrupt`` dict via the behaviour
registry (:data:`BEHAVIORS`).
"""

from __future__ import annotations

import dataclasses
from random import Random
from typing import Any, Callable

from ..adversary.behaviors import (
    AggressiveByzantineMixin,
    ConsistentFailureMixin,
    EquivocatingProposerMixin,
    LazyLeaderMixin,
    SilentMixin,
    SlowProposerMixin,
    WithholdFinalizationMixin,
    WithholdNotarizationMixin,
    corrupt_class,
)
from ..sim.network import Network, message_kind
from .scenario import (
    ByzantineFault,
    CrashFault,
    LinkFault,
    OutageFault,
    PartitionFault,
    RecoverFault,
    Scenario,
    ScenarioError,
)

# -- Byzantine behaviour registry ---------------------------------------------

#: behaviour name -> builder(base_party_class, params_dict) -> party class.
BEHAVIORS: dict[str, Callable[[type, dict], type]] = {}


def register_behavior(name: str, builder: Callable[[type, dict], type]) -> None:
    """Register a named Byzantine behaviour (duplicate names are bugs)."""
    if name in BEHAVIORS:
        raise ValueError(f"duplicate fault behavior {name!r}")
    BEHAVIORS[name] = builder


def _mixin_behavior(mixin: type) -> Callable[[type, dict], type]:
    """A behaviour that composes an adversary mixin over the base class.

    Params become class attributes on the composed class (the same
    convention the hand-wired experiments used, e.g. ``propose_lag``).
    """

    def build(base: type, params: dict) -> type:
        cls = corrupt_class(base, mixin)
        for key, value in params.items():
            if not hasattr(cls, key):
                raise ScenarioError(
                    f"behavior param {key!r} is not an attribute of {cls.__name__}"
                )
            setattr(cls, key, value)
        return cls

    return build


register_behavior("silent", _mixin_behavior(SilentMixin))
register_behavior("consistent-failure", _mixin_behavior(ConsistentFailureMixin))
register_behavior("slow-proposer", _mixin_behavior(SlowProposerMixin))
register_behavior("lazy-leader", _mixin_behavior(LazyLeaderMixin))
register_behavior("withhold-finalization", _mixin_behavior(WithholdFinalizationMixin))
register_behavior("withhold-notarization", _mixin_behavior(WithholdNotarizationMixin))
register_behavior("equivocate", _mixin_behavior(EquivocatingProposerMixin))
register_behavior("aggressive", _mixin_behavior(AggressiveByzantineMixin))


def scenario_corrupt(scenario: Scenario, base: type) -> dict[int, type]:
    """The ``ClusterConfig.corrupt`` dict for a scenario's Byzantine events.

    Declarations with identical (behaviour, params) share one composed
    class — matching the hand-wired experiments, where all t slow
    proposers were instances of a single ``corrupt_class`` product.
    """
    cache: dict[tuple, type] = {}
    corrupt: dict[int, type] = {}
    for fault in scenario.byzantine().values():
        key = (fault.behavior, fault.params)
        cls = cache.get(key)
        if cls is None:
            builder = BEHAVIORS.get(fault.behavior)
            if builder is None:
                raise ScenarioError(
                    f"unknown fault behavior {fault.behavior!r} "
                    f"(registered: {sorted(BEHAVIORS)})"
                )
            cls = builder(base, fault.kwargs)
            cache[key] = cls
        corrupt[fault.party] = cls
    return corrupt


# -- payload corruption -------------------------------------------------------

#: Authenticated fields to tamper with, in preference order: flipping any
#: of these makes the receiver's signature / hash verification fail.
_TAMPER_FIELDS = (
    "block_hash",
    "digest",
    "parent_hash",
    "parent_digest",
    "share",
    "signature",
)


def _flip(value: bytes) -> bytes:
    return bytes([value[0] ^ 0xFF]) + value[1:]


def corrupt_message(message: object) -> object | None:
    """A tampered copy of ``message``, or ``None`` when nothing is tamperable.

    Messages are shared across receivers, so corruption NEVER mutates —
    it builds a replacement via :func:`dataclasses.replace` (or a fresh
    ``bytes`` object).  The tampered field is always one the receiver
    authenticates, so corrupted traffic is rejected (``pool.invalid``) or
    fails authenticity and is harmlessly buffered; it can never enter an
    honest party's output.
    """
    if isinstance(message, (bytes, bytearray)):
        return _flip(bytes(message)) if message else None
    if not dataclasses.is_dataclass(message):
        return None
    by_name = {f.name: getattr(message, f.name) for f in dataclasses.fields(message)}
    names = [n for n in _TAMPER_FIELDS if isinstance(by_name.get(n), bytes)]
    names += [
        n for n, v in by_name.items()
        if n not in _TAMPER_FIELDS and isinstance(v, bytes)
    ]
    for name in names:
        value = by_name[name]
        if not value:
            continue
        try:
            return dataclasses.replace(message, **{name: _flip(value)})
        except (TypeError, ValueError):
            continue
    return None


# -- the injector -------------------------------------------------------------


def _merge_outages(events: list[OutageFault]) -> tuple[tuple[float, float], ...]:
    """Sorted, non-overlapping ``(start, end)`` outage windows."""
    windows = sorted((e.start, e.end) for e in events)
    merged: list[tuple[float, float]] = []
    for start, end in windows:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return tuple(merged)


class FaultInjector:
    """Executes one scenario against one network.

    Build it after the cluster, call :meth:`install` before
    ``cluster.start()``, run the simulation, then read :attr:`counters`
    (and the ``fault.*`` trace events, when tracing) for what fired.
    """

    def __init__(self, scenario: Scenario, network: Network) -> None:
        scenario.validate(network.n)
        self.scenario = scenario
        self.network = network
        self.sim = network.sim
        #: Fault-decision RNG: independent of the simulation's stream.
        self.rng = Random(f"faults/{scenario.seed}/{scenario.name}")
        #: How many per-delivery faults fired, by kind.
        self.counters: dict[str, int] = {
            "drop": 0, "duplicate": 0, "corrupt": 0, "delay": 0,
        }
        events = scenario.events
        self._links = tuple(e for e in events if isinstance(e, LinkFault))
        #: Live partitions as ``(group, heal_at)``; healed ones are pruned
        #: whenever another fires.
        self._partitions: list[tuple[frozenset[int], float]] = []
        self._outages = _merge_outages(
            [e for e in events if isinstance(e, OutageFault)]
        )
        self._installed = False

    # -- installation ---------------------------------------------------------

    def install(self) -> "FaultInjector":
        """Fire the timed faults already due (``at <= sim.now``, in scenario
        order: one at t = 0 installed before ``start()`` precedes the
        start-time sends), schedule the rest, hook per-delivery interception."""
        if self._installed:
            raise ValueError("scenario already installed")
        self._installed = True
        sim = self.sim
        self._trace("fault.inject", payload={
            "scenario": self.scenario.name,
            "seed": self.scenario.seed,
            "events": len(self.scenario.events),
        })
        for event in self.scenario.events:
            if isinstance(event, (CrashFault, RecoverFault, PartitionFault)):
                if event.at <= sim.now:
                    self._fire(event)
                else:
                    sim.schedule_at(event.at, lambda e=event: self._fire(e))
        if self.scenario.needs_interceptor():
            self.network.install_faults(self)
            if sim.tracer.enabled:
                # Outage markers are trace-only: pure no-ops for the
                # simulation, so untraced runs carry zero extra events.
                for start, end in self._outages:
                    sim.schedule_at(start, lambda e=end: self._trace(
                        "fault.outage.begin", payload={"until": e}))
                    sim.schedule_at(end, lambda: self._trace("fault.outage.end"))
        return self

    def _fire(self, event: CrashFault | RecoverFault | PartitionFault) -> None:
        """A timed fault's instant: crash or revive its party, or record the
        cut that :meth:`intercept` holds copies behind."""
        if isinstance(event, PartitionFault):
            now = self.sim.now
            self._trace("fault.partition", payload={
                "group": sorted(event.group), "heal_time": event.heal_at,
            })
            self._partitions = [(g, heal) for g, heal in self._partitions if heal > now]
            self._partitions.append((frozenset(event.group), event.heal_at))
            return
        self._trace(f"fault.{event.kind}", event.party)
        if isinstance(event, CrashFault):
            self.network.crash(event.party)
        else:
            self.network.revive(event.party)

    def _trace(self, kind: str, party: int = 0, payload: dict | None = None) -> None:
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.emit(time=self.sim.now, party=party, protocol="fault",
                        round=None, kind=kind, payload=payload)

    # -- per-delivery interception --------------------------------------------

    def _outage_end(self, time: float) -> float | None:
        for start, end in self._outages:
            if start <= time < end:
                return end
            if time < start:
                return None
        return None

    def intercept(
        self, sender: int, receiver: int, message: object, delay: float
    ) -> list[tuple[float, object]] | None:
        """Apply active per-delivery faults; ``None`` = deliver unchanged."""
        now = self.sim.now
        new_delay = delay
        out = message
        touched = False
        duplicates = 0
        # Partition hold: a copy across a live cut waits for its last heal.
        # Eventual delivery is the model, not a fault, so nothing counts it.
        hold = 0.0
        for group, heal in self._partitions:
            if (sender in group) != (receiver in group):
                hold = max(hold, heal - now)
        if hold > 0.0:
            new_delay += hold
            touched = True
        # Outage stretch: a delivery landing in an outage window, or sent in
        # one, arrives one natural delay after that window closes — a copy
        # sent before GST lands by GST + δ (the paper's partial synchrony).
        if self._outages:
            target = self._outage_end(now + new_delay)
            if target is None:
                target = self._outage_end(now)
            if target is not None:
                stretched = (target - now) + new_delay
                self._note_delay(message, receiver, stretched - new_delay)
                new_delay = stretched
                touched = True
        # Link faults: independent rolls per matching event, in schedule
        # order (a fixed order keeps the RNG stream deterministic).
        for link in self._links:
            if not link.start <= now < link.end:
                continue
            if link.sender is not None and link.sender != sender:
                continue
            if link.receiver is not None and link.receiver != receiver:
                continue
            if link.drop_prob > 0.0 and self.rng.random() < link.drop_prob:
                self.counters["drop"] += 1
                self._note(message, receiver, "fault.drop")
                return []
            if link.corrupt_prob > 0.0 and self.rng.random() < link.corrupt_prob:
                self.counters["corrupt"] += 1
                self._note(message, receiver, "fault.corrupt")
                tampered = corrupt_message(out)
                if tampered is None:
                    # Nothing tamperable: to the receiver, an unverifiable
                    # message and a lost one are indistinguishable.
                    return []
                out = tampered
                touched = True
            if link.extra_delay > 0.0 or link.jitter > 0.0:
                extra = link.extra_delay
                if link.jitter > 0.0:
                    extra += self.rng.uniform(0.0, link.jitter)
                new_delay += extra
                touched = True
                self._note_delay(message, receiver, extra)
            if link.duplicate_prob > 0.0 and self.rng.random() < link.duplicate_prob:
                duplicates += 1
                self.counters["duplicate"] += 1
                self._note(message, receiver, "fault.duplicate")
        if not touched and duplicates == 0:
            return None
        hops: list[tuple[float, object]] = [(new_delay, out)]
        for _ in range(duplicates):
            # The duplicate trails by a uniform fraction of the delay.
            hops.append((new_delay + self.rng.uniform(0.0, new_delay), out))
        return hops

    def _note(self, message: object, receiver: int, kind: str, **fields) -> None:
        if self.sim.tracer.enabled:
            self._trace(kind, receiver, {
                "kind": message_kind(message), "receiver": receiver, **fields,
            })

    def _note_delay(self, message: object, receiver: int, extra: float) -> None:
        self.counters["delay"] += 1
        self._note(message, receiver, "fault.delay", extra=extra)


def install_scenario(cluster, scenario: Scenario) -> FaultInjector:
    """Validate ``scenario`` against ``cluster`` and install it.

    Call between ``build_cluster`` and ``cluster.start()``.  A timed fault
    at t = 0 fires inside this call, so it precedes the parties' start-time
    sends (see :meth:`FaultInjector.install`).
    """
    return FaultInjector(scenario, cluster.network).install()
