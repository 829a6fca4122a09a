"""The trace event-kind registry: every kind the tracing layer may emit.

Each :class:`EventKind` names the emitting module, describes the event and
declares its payload fields.  :meth:`repro.obs.Tracer.emit` rejects kinds
that are not registered here, so the registry is the single source of truth
for the schema — ``docs/OBSERVABILITY.md`` documents exactly this set and a
test (``tests/obs/test_schema_docs.py``) cross-checks the two.

Field values must be JSON-safe (str/int/float/bool/None or lists thereof);
block and artifact identities are short hex prefixes (see
:func:`repro.obs.short_id`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EventKind:
    """Schema entry for one trace event kind."""

    name: str
    module: str  # dotted module that emits it
    description: str
    fields: tuple[str, ...] = ()


#: name -> spec, populated below via :func:`register`.
EVENT_KINDS: dict[str, EventKind] = {}


def register(name: str, module: str, description: str, fields: tuple[str, ...] = ()) -> EventKind:
    """Register an event kind (at import time; duplicate names are bugs)."""
    if name in EVENT_KINDS:
        raise ValueError(f"duplicate trace event kind {name!r}")
    spec = EventKind(name=name, module=module, description=description, fields=fields)
    EVENT_KINDS[name] = spec
    return spec


# -- tracer self-reporting ----------------------------------------------------

register(
    "trace.dropped", "repro.obs.tracer",
    "Synthetic summary event appended by Tracer.export_events() when the "
    "ring buffer evicted events: `dropped` of `emitted` events are missing "
    "from this export (`capacity` is the ring size).  Always the last "
    "event of a truncated export.",
    ("dropped", "emitted", "capacity"),
)

# -- simulator ----------------------------------------------------------------

register(
    "sim.run", "repro.sim.simulator",
    "One Simulation.run() drain finished (per run_for / run_until call).",
    ("events_processed", "until"),
)

# -- network ------------------------------------------------------------------

register(
    "net.broadcast", "repro.sim.network",
    "A party broadcast one message to all n parties (paper convention: "
    "counts as `copies` = n messages).",
    ("kind", "bytes", "copies"),
)
register(
    "net.send", "repro.sim.network",
    "Point-to-point send of one message (counts as 1 message).",
    ("kind", "bytes", "receiver"),
)
register(
    "net.multicast", "repro.sim.network",
    "Same message sent to a receiver subset (gossip overlay fan-out; "
    "counts as `receivers` messages).",
    ("kind", "bytes", "receivers"),
)
register(
    "net.crash", "repro.sim.network",
    "A party was silenced (crash failure or node going offline).",
    (),
)
register(
    "net.revive", "repro.sim.network",
    "A crashed/offline party rejoined.",
    (),
)
register(
    "net.partition", "repro.sim.network",
    "A partition was installed between `group` and the rest until `heal_time`.",
    ("group", "heal_time"),
)

# -- message pool -------------------------------------------------------------

register(
    "pool.invalid", "repro.core.pool",
    "A message failed cryptographic or structural verification and was dropped.",
    ("artifact",),
)
register(
    "pool.prune", "repro.core.pool",
    "Garbage collection discarded all artifacts below `before_round`.",
    ("before_round", "removed"),
)

# -- random beacon ------------------------------------------------------------

register(
    "beacon.permutation", "repro.core.beacon",
    "A party derived the round's rank permutation from the beacon value "
    "(the proposer election: `leader` is the rank-0 party, `rank` is the "
    "tracing party's own rank).",
    ("leader", "rank"),
)

# -- ICC protocol core --------------------------------------------------------

register(
    "icc.beacon.computed", "repro.core.icc0",
    "A party combined t+1 shares into the round's beacon value R_k.",
    (),
)
register(
    "icc.round.enter", "repro.core.icc0",
    "A party entered a round (t0 of Figure 1; beacon value known).",
    ("rank",),
)
register(
    "icc.block.proposed", "repro.core.icc0",
    "Clause (b): a party proposed a block.",
    ("block", "parent", "payload_bytes", "rank"),
)
register(
    "icc.block.echoed", "repro.core.icc0",
    "Clause (c): a party relayed another proposer's block plus artifacts.",
    ("block", "rank"),
)
register(
    "icc.share.notarization", "repro.core.icc0",
    "A party broadcast its notarization share for a block.",
    ("block", "not_before"),
)
register(
    "icc.share.finalization", "repro.core.icc0",
    "A party broadcast its finalization share for a block.",
    ("block",),
)
register(
    "icc.rank.disqualified", "repro.core.icc0",
    "Clause (c): a proposer rank was disqualified (two supported blocks).",
    ("rank",),
)
register(
    "icc.round.done", "repro.core.icc0",
    "Clause (a): a party saw (or combined) a notarization for the round "
    "and moved on; `combined` is True when this party aggregated the "
    "shares itself, `supported` is |N| (blocks it notarization-shared).",
    ("block", "combined", "supported"),
)
register(
    "icc.finalization", "repro.core.icc0",
    "Figure 2: a party saw (or combined, per `combined`) a finalization.",
    ("block", "combined"),
)
register(
    "icc.block.committed", "repro.core.icc0",
    "Figure 2: a party appended a finalized block to its output log.",
    ("block", "proposer", "payload_bytes"),
)
register(
    "icc.artifact.gossip", "repro.core.icc1",
    "ICC1: an artifact fully received via the gossip sub-layer entered the pool.",
    ("artifact",),
)
register(
    "rbc.disperse", "repro.core.icc2",
    "ICC2: a party dispersed a serialized block through reliable broadcast.",
    ("block", "bytes"),
)
register(
    "rbc.deliver", "repro.core.icc2",
    "ICC2: a reliable-broadcast instance delivered a reconstructed block.",
    ("dealer", "bytes"),
)
register(
    "rbc.undecodable", "repro.core.icc2",
    "ICC2: a completed RBC instance carried bytes that do not decode to a block.",
    ("dealer",),
)

# -- gossip sub-layer ---------------------------------------------------------

register(
    "gossip.publish", "repro.gossip.protocol",
    "A locally created artifact was injected into the overlay (`push` is "
    "True for small artifacts flooded directly, False for advertised ones).",
    ("id", "kind", "bytes", "push"),
)
register(
    "gossip.request", "repro.gossip.protocol",
    "A node requested an advertised artifact body from one advertiser.",
    ("id", "target", "cycle"),
)
register(
    "gossip.deliver", "repro.gossip.protocol",
    "A node obtained an artifact body from the overlay (`via` is "
    "'push' or 'request').",
    ("id", "kind", "bytes", "via"),
)
register(
    "gossip.giveup", "repro.gossip.protocol",
    "A node exhausted its request retry budget for an artifact "
    "(a fresh advert re-arms it).",
    ("id", "cycles"),
)

# -- baselines ----------------------------------------------------------------

register(
    "baseline.commit", "repro.baselines.common",
    "A baseline replica (PBFT/HotStuff/Tendermint) committed a batch.",
    ("batch", "proposer"),
)
register(
    "hotstuff.propose", "repro.baselines.hotstuff",
    "A HotStuff leader proposed a node for its view.",
    ("view", "batch"),
)
register(
    "hotstuff.timeout", "repro.baselines.hotstuff",
    "A HotStuff replica timed out and sent NewView (pacemaker fired).",
    ("view",),
)
register(
    "pbft.propose", "repro.baselines.pbft",
    "A PBFT primary pre-prepared a batch.",
    ("view", "batch"),
)
register(
    "pbft.viewchange", "repro.baselines.pbft",
    "A PBFT replica installed a new view after a quorum of view-change votes.",
    ("new_view",),
)
register(
    "tendermint.propose", "repro.baselines.tendermint",
    "A Tendermint proposer broadcast a proposal for (height, round).",
    ("tm_round", "batch"),
)
register(
    "tendermint.decide", "repro.baselines.tendermint",
    "A Tendermint validator decided a height (before timeout_commit).",
    ("batch",),
)

# -- fault injection ----------------------------------------------------------

register(
    "fault.inject", "repro.faults.inject",
    "A fault scenario was installed on the cluster (`events` is the "
    "schedule length, `seed` the scenario's own fault-decision seed).",
    ("scenario", "seed", "events"),
)
register(
    "fault.crash", "repro.faults.inject",
    "A scheduled CrashFault fired (the net.crash event follows).",
    (),
)
register(
    "fault.recover", "repro.faults.inject",
    "A scheduled RecoverFault fired (the net.revive event follows).",
    (),
)
register(
    "fault.partition", "repro.faults.inject",
    "A scheduled PartitionFault installed a partition between `group` "
    "and the rest until `heal_time`.",
    ("group", "heal_time"),
)
register(
    "fault.drop", "repro.faults.inject",
    "A LinkFault dropped one delivery of a `kind` message to `receiver`.",
    ("kind", "receiver"),
)
register(
    "fault.duplicate", "repro.faults.inject",
    "A LinkFault delivered a `kind` message to `receiver` twice.",
    ("kind", "receiver"),
)
register(
    "fault.corrupt", "repro.faults.inject",
    "A LinkFault tampered a `kind` message in flight to `receiver` "
    "(signature/hash checks at the receiver must reject it).",
    ("kind", "receiver"),
)
register(
    "fault.delay", "repro.faults.inject",
    "A LinkFault, ClockSkewFault or OutageFault held one delivery of a "
    "`kind` message to `receiver` for `extra` additional seconds.",
    ("kind", "receiver", "extra"),
)
register(
    "fault.outage.begin", "repro.faults.inject",
    "An OutageFault window opened: the whole network is asynchronous "
    "`until` the window closes.",
    ("until",),
)
register(
    "fault.outage.end", "repro.faults.inject",
    "An OutageFault window closed; held deliveries land one base delay "
    "later.",
    (),
)

# -- load pipeline ------------------------------------------------------------

register(
    "load.batch.sealed", "repro.workloads.batching",
    "The batching payload source packed `commands` load requests "
    "(`bytes` on the wire) into a proposed block, leaving `queued` "
    "requests in the shared ingress queue.",
    ("commands", "bytes", "queued"),
)
register(
    "load.batch.auth", "repro.workloads.batching",
    "One batch authentication pass (ingress admission or pool block "
    "admission) verified `count` client requests, one check per request; "
    "`invalid` were forged.",
    ("count", "invalid"),
)
register(
    "load.admission.reject", "repro.workloads.batching",
    "Admission control shed `count` authenticated arrivals because the "
    "ingress queue was at capacity (`queued` requests pending).",
    ("count", "queued"),
)

# -- sharding / xnet streams ---------------------------------------------------

register(
    "shard.xnet.transfer", "repro.smr.xnet",
    "A cross-subnet envelope finalized on `source` was sealed into a "
    "certified stream message (per-stream sequence number `seq`) and "
    "handed to the transfer fabric for `destination`.",
    ("source", "destination", "seq", "bytes"),
)
register(
    "shard.xnet.deliver", "repro.smr.xnet",
    "A stream message passed ingress certification (certificate + "
    "sequence check) and was submitted to the destination subnet.",
    ("source", "destination", "seq", "bytes"),
)
register(
    "shard.xnet.reject", "repro.smr.xnet",
    "A stream message (or stream-carried block command) failed ingress "
    "checks and was dropped; `reason` is one of cert/seq/version/"
    "malformed/unknown-destination/block-cert.",
    ("source", "destination", "seq", "reason"),
)
register(
    "shard.run", "repro.smr.sharding",
    "One ShardedDeployment run finished: `shards` clusters, aggregate "
    "`committed` finalized requests, `transfers`/`rejected` stream "
    "messages across the fabric.",
    ("shards", "committed", "transfers", "rejected"),
)

# -- experiment runner --------------------------------------------------------

register(
    "runner.run_start", "repro.experiments.runner",
    "The experiment runner dispatched one RunSpec (`run` is the spec's "
    "index in suite order, `jobs` the pool width; `time` is wall-clock "
    "seconds since execute() started, not simulation time).",
    ("run", "kind", "label", "jobs"),
)
register(
    "runner.run_end", "repro.experiments.runner",
    "One RunSpec finished; `wall_ms` is the run's wall-clock duration in "
    "the executing process.",
    ("run", "kind", "label", "jobs", "wall_ms"),
)

# -- adversary behaviours -----------------------------------------------------

register(
    "adv.equivocate", "repro.adversary.behaviors",
    "An equivocating proposer showed two conflicting blocks to the two "
    "halves of the network.",
    ("blocks",),
)
register(
    "adv.withhold.finalization", "repro.adversary.behaviors",
    "A corrupt party withheld its finalization share for a block.",
    ("block",),
)
register(
    "adv.withhold.notarization", "repro.adversary.behaviors",
    "A corrupt party withheld its notarization share for a block.",
    ("block",),
)
register(
    "adv.lazy.payload", "repro.adversary.behaviors",
    "A lazy leader substituted an empty payload for its proposal.",
    (),
)
register(
    "adv.slow.propose", "repro.adversary.behaviors",
    "A slow proposer released its (deliberately delayed) proposal.",
    ("lag",),
)
register(
    "adv.aggressive.sign", "repro.adversary.behaviors",
    "An aggressive Byzantine party signed notarization + finalization "
    "shares for a block, ignoring rank priority and delays.",
    ("block",),
)

# -- live transport (repro.net) -----------------------------------------------

register(
    "live.peer.connect", "repro.net.transport",
    "A TCP connection to/from `peer` came up (`direction` is \"out\" for "
    "our dialled link, \"in\" for an accepted one; `reconnect` marks a "
    "link that had been up before).",
    ("peer", "direction", "reconnect"),
)
register(
    "live.peer.disconnect", "repro.net.transport",
    "A TCP connection to/from `peer` went down (the outbound side will "
    "redial with exponential backoff).",
    ("peer", "direction"),
)
register(
    "live.frame.rejected", "repro.net.transport",
    "A connection delivered a malformed, oversized or undecodable frame, "
    "or a dialled one anything but an ACK (`reason`), and was closed; "
    "`peer` is None when an inbound one failed before a valid HELLO.",
    ("peer", "reason"),
)
register(
    "net.wire.send", "repro.net.transport",
    "A message left this process for peer `dst` over the wire with "
    "per-link sequence number `seq`; pairs with the receiver's "
    "`net.wire.recv` keyed by (src, dst, seq) to form a causal "
    "wire-transit span (`kind` is the message class, `bytes` the encoded "
    "frame size).",
    ("dst", "seq", "kind", "bytes"),
)
register(
    "net.wire.recv", "repro.net.transport",
    "A message from peer `src` with per-link sequence number `seq` was "
    "delivered for the first time; the matching `net.wire.send` on the "
    "sender closes the wire-transit span.",
    ("src", "seq", "kind", "bytes"),
)
register(
    "live.stat.request", "repro.net.transport",
    "This process answered a STAT frame with its current counter/state "
    "snapshot (the `repro top` polling endpoint).",
    (),
)
