"""The trace event-kind registry: every kind the tracing layer may emit.

:data:`EVENT_KINDS` maps each kind to its payload fields, grouped by the
module that emits it.  :meth:`repro.obs.Tracer.emit` rejects kinds that are
not in it.  What each event means is written once, in the kind's row of
``docs/OBSERVABILITY.md``; ``tests/obs/test_schema_docs.py`` holds the
page's rows to this table both ways, fields included.

Field values must be JSON-safe (str/int/float/bool/None or lists thereof);
block and artifact identities are short hex prefixes (see
:func:`repro.obs.short_id`).
"""

from __future__ import annotations

EVENT_KINDS: dict[str, tuple[str, ...]] = {
    # repro.obs.tracer
    "trace.dropped": ("dropped", "emitted", "capacity"),
    # repro.sim.simulator
    "sim.run": ("events_processed", "until"),
    # repro.sim.network
    "net.broadcast": ("kind", "bytes", "copies"),
    "net.send": ("kind", "bytes", "receiver"),
    "net.multicast": ("kind", "bytes", "receivers"),
    "net.crash": (),
    "net.revive": (),
    # repro.core.pool
    "pool.invalid": ("artifact",),
    "pool.prune": ("before_round", "removed"),
    # repro.core.beacon
    "beacon.permutation": ("leader", "rank"),
    # repro.core.icc0
    "icc.beacon.computed": (),
    "icc.round.enter": ("rank",),
    "icc.block.proposed": ("block", "parent", "payload_bytes", "rank"),
    "icc.block.echoed": ("block", "rank"),
    "icc.share.notarization": ("block", "not_before"),
    "icc.share.finalization": ("block",),
    "icc.rank.disqualified": ("rank",),
    "icc.round.done": ("block", "combined", "supported"),
    "icc.finalization": ("block", "combined"),
    "icc.block.committed": ("block", "proposer", "payload_bytes"),
    # repro.core.icc1
    "icc.artifact.gossip": ("artifact",),
    # repro.core.icc2
    "rbc.disperse": ("block", "bytes"),
    "rbc.deliver": ("dealer", "bytes"),
    "rbc.undecodable": ("dealer",),
    # repro.gossip.protocol
    "gossip.publish": ("id", "kind", "bytes", "push"),
    "gossip.request": ("id", "target", "cycle"),
    "gossip.deliver": ("id", "kind", "bytes", "via"),
    "gossip.giveup": ("id", "cycles"),
    # repro.baselines.common, .hotstuff, .pbft, .tendermint
    "baseline.commit": ("batch", "proposer"),
    "hotstuff.propose": ("view", "batch"),
    "hotstuff.timeout": ("view",),
    "pbft.propose": ("view", "batch"),
    "pbft.viewchange": ("new_view",),
    "tendermint.propose": ("tm_round", "batch"),
    "tendermint.decide": ("batch",),
    # repro.faults.inject
    "fault.inject": ("scenario", "seed", "events"),
    "fault.crash": (),
    "fault.recover": (),
    "fault.partition": ("group", "heal_time"),
    "fault.drop": ("kind", "receiver"),
    "fault.duplicate": ("kind", "receiver"),
    "fault.corrupt": ("kind", "receiver"),
    "fault.delay": ("kind", "receiver", "extra"),
    "fault.outage.begin": ("until",),
    "fault.outage.end": (),
    # repro.workloads.batching
    "load.batch.sealed": ("commands", "bytes", "queued"),
    "load.batch.auth": ("count", "invalid"),
    "load.admission.reject": ("count", "queued"),
    # repro.adversary.behaviors
    "adv.equivocate": ("blocks",),
    "adv.withhold.finalization": ("block",),
    "adv.withhold.notarization": ("block",),
    "adv.lazy.payload": (),
    "adv.slow.propose": ("lag",),
    "adv.aggressive.sign": ("block",),
    # repro.net.transport
    "live.peer.connect": ("peer", "direction", "reconnect"),
    "live.peer.disconnect": ("peer", "direction"),
    "live.frame.rejected": ("peer", "reason"),
    "net.wire.send": ("dst", "seq", "kind", "bytes"),
    "net.wire.recv": ("src", "seq", "kind", "bytes"),
    "live.stat.request": (),
}
