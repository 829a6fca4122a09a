"""Per-layer spans taken from outside the program.

`install(rec)` replaces public entry points of the `repro` packages with
wrappers that record a span per call into `rec`.  Nothing under `src/` knows
about it; a target that a later change removes or renames is skipped and its
metric reads 0, so the traced pass keeps running.

A span is `(name, start_ns, end_ns, parent, epoch, party)`.  A span's *self
time* is its duration minus the durations of the spans opened inside it, and
is accumulated per name as the span closes.  Rows are kept for the first
traced epoch only (up to `ROW_CAP`); the per-name totals cover every epoch.

Layers are the span-name prefixes: `sim`, `core`, `crypto`, `net`,
`workloads`.  See README.md for which calls carry which name.
"""

from __future__ import annotations

import asyncio.events
import json
import time
from array import array

ROW_CAP = 400_000

#: Public MessagePool reads that do more than one dict lookup.  The O(1)
#: getters (`beacon_value`, `*_of`, `is_*`) are left alone: a wrapper costs
#: ten times what they do, and their time stays inside the caller's span,
#: which is a `core` span anyway.
POOL_QUERIES = (
    "valid_blocks",
    "notarized_blocks",
    "finalized_blocks",
    "notar_share_count",
    "notar_shares",
    "final_share_count",
    "final_shares",
    "combinable_notarization",
    "combinable_finalization",
    "chain",
    "chain_suffix",
    "beacon_share_count",
    "beacon_shares_for",
)
KEYRING_SIGN = ("sign_auth", "sign_notary_share", "sign_final_share", "sign_beacon_share")
KEYRING_VERIFY_ONE = (
    "verify_auth",
    "verify_notary_share",
    "verify_notary",
    "verify_final_share",
    "verify_final",
    "verify_beacon_share",
    "verify_beacon",
)
KEYRING_VERIFY_BATCH = (
    "verify_auth_batch",
    "verify_notary_share_batch",
    "verify_final_share_batch",
    "verify_beacon_share_batch",
)
KEYRING_COMBINE = ("combine_notary", "combine_final", "combine_beacon")
REQUEST_ID_LEN = 12


class Recorder:
    """Span store plus the counters the wrappers bump at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self._stack: list[list] = []  # frames: [child_ns, row, party]
        self.epoch = 0
        self.keep_rows = True
        self.col_name = array("l")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("l")
        self.col_epoch = array("l")
        self.col_party = array("l")
        # Counts taken where the work happens.
        self.verify_items = 0
        self.batch_calls = 0
        self.batch_items = 0
        self.frames = 0
        self.frame_bytes = 0
        self.admitted = 0
        # Per-epoch sample stores, reset by begin_epoch().
        self.workload_clock = time.monotonic
        self.sent_ns: dict = {}
        self.delivery_ns: list[int] = []
        self.first_included: dict[bytes, float] = {}
        self.skipped: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def begin_epoch(self, epoch: int) -> None:
        """Reset the per-epoch stores; the epoch runner then sets
        `workload_clock` to the clock its due instants are on."""
        self.epoch = epoch
        self.keep_rows = epoch == 0
        self.sent_ns = {}
        self.first_included = {}

    def snapshot(self) -> dict:
        """Totals so far; two snapshots bracket the timed window."""
        return {
            "self_ns": list(self.self_ns),
            "calls": list(self.calls),
            "verify_items": self.verify_items,
            "batch_calls": self.batch_calls,
            "batch_items": self.batch_items,
            "frames": self.frames,
            "frame_bytes": self.frame_bytes,
            "admitted": self.admitted,
            "deliveries": len(self.delivery_ns),
        }

    def window(self, before: dict, after: dict) -> dict:
        """What happened between two snapshots, self time keyed by span name."""
        out = {
            key: after[key] - before[key]
            for key in after
            if key not in ("self_ns", "calls", "deliveries")
        }
        pad = [0] * (len(after["self_ns"]) - len(before["self_ns"]))
        out["self_ns"] = {
            name: a - b
            for name, a, b in zip(self.names, after["self_ns"], before["self_ns"] + pad)
        }
        out["calls"] = {
            name: a - b
            for name, a, b in zip(self.names, after["calls"], before["calls"] + pad)
        }
        out["delivery_ns"] = self.delivery_ns[before["deliveries"] : after["deliveries"]]
        return out

    # -- the wrapper ---------------------------------------------------------

    def wrap(self, name: str, fn, party_of=None, before=None, after=None):
        """`fn` with a span around it.  `party_of(args)` names the party the
        call runs for (else the enclosing span's); `before(args)` and
        `after(args, result)` are counting hooks run inside the span."""
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns
        self_ns, calls = self.self_ns, self.calls
        col_name, col_start, col_end = self.col_name, self.col_start, self.col_end
        col_parent, col_epoch, col_party = self.col_parent, self.col_epoch, self.col_party

        def traced(*args, **kwargs):
            top = stack[-1] if stack else None
            if party_of is not None:
                party = party_of(args)
            else:
                party = top[2] if top is not None else 0
            row = -1
            if self.keep_rows and len(col_start) < ROW_CAP:
                row = len(col_start)
                col_name.append(nid)
                col_parent.append(top[1] if top is not None else -1)
                col_epoch.append(self.epoch)
                col_party.append(party)
                col_start.append(0)
                col_end.append(0)
            frame = [0, row, party]
            stack.append(frame)
            t0 = clock()
            try:
                if before is not None:
                    before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                if row >= 0:
                    col_start[row] = t0
                    col_end[row] = t1
                elapsed = t1 - t0
                self_ns[nid] += elapsed - frame[0]
                calls[nid] += 1
                if top is not None:
                    top[0] += elapsed

        return traced

    def write(self, path: str, workload: str, summary: dict) -> None:
        """Dump the kept rows (first traced epoch) and the per-name totals."""
        columns = ["name", "start_ns", "end_ns", "parent", "epoch", "party"]
        rows = [
            [self.names[n], s, e, p, ep, pa]
            for n, s, e, p, ep, pa in zip(
                self.col_name, self.col_start, self.col_end,
                self.col_parent, self.col_epoch, self.col_party,
            )
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": workload,
                    "columns": columns,
                    "rows_truncated": len(rows) >= ROW_CAP,
                    "summary": summary,
                    "skipped_targets": self.skipped,
                    "spans": rows,
                },
                fh,
                separators=(",", ":"),
            )
            fh.write("\n")


def _patch(rec: Recorder, owner, attr: str, name: str, **hooks) -> None:
    fn = getattr(owner, attr, None)
    if fn is None:
        rec.skipped.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    setattr(owner, attr, rec.wrap(name, fn, **hooks))


def _self_index(args) -> int:
    return args[0].index


def install(rec: Recorder) -> None:
    """Wrap the layers' public calls.  Call once, before any cluster is built
    (configs capture bound methods such as `batcher.payload_source`)."""
    import repro.core.cluster as core_cluster
    import repro.net.party as net_party
    import repro.net.transport as net_transport
    from repro.core.icc0 import ICC0Party
    from repro.core.messages import BeaconShare, FinalizationShare, NotarizationShare
    from repro.core.pool import MessagePool
    from repro.crypto.keyring import FastKeyring, RealKeyring
    from repro.net.clock import WallClock
    from repro.net.framing import FrameDecoder
    from repro.sim.events import CalendarEventQueue
    from repro.sim.network import Network
    from repro.sim.simulator import Simulation
    from repro.workloads.batching import FastClientAuth, RealClientAuth, RequestBatcher

    # -- sim ------------------------------------------------------------------
    _patch(rec, Simulation, "run", "sim.run")
    for attr in ("schedule", "pop"):
        _patch(rec, CalendarEventQueue, attr, "sim.queue")
    for attr in ("broadcast", "send", "multicast"):
        _patch(rec, Network, attr, "sim.network")

    # -- core -----------------------------------------------------------------
    share_types = (NotarizationShare, FinalizationShare, BeaconShare)

    def note_delivery(args) -> None:
        # Shares are broadcast once, by their signer, so the first broadcast
        # of an equal object is the send this delivery answers.
        party, message = args[0], args[1]
        if type(message) in share_types and message.signer != party.index:
            sent = rec.sent_ns.get(message)
            if sent is not None:
                rec.delivery_ns.append(time.perf_counter_ns() - sent)

    _patch(rec, ICC0Party, "on_receive", "core.on_receive",
           party_of=_self_index, before=note_delivery)
    _patch(rec, MessagePool, "add", "core.pool_add")
    for attr in POOL_QUERIES:
        _patch(rec, MessagePool, attr, "core.pool_query")
    _patch(rec, MessagePool, "rounds_with_final_activity", "core.final_scan")

    # A party's timers reach it through the clock's public schedule calls;
    # the callback a party hands over gets a `core.on_timer` span.
    def timer_interposer(schedule):
        def interposed(self, when, action):
            owner = getattr(action, "__self__", None)
            if isinstance(owner, ICC0Party):
                action = rec.wrap("core.on_timer", action,
                                  party_of=lambda _args, index=owner.index: index)
            return schedule(self, when, action)
        return interposed

    for clock_class in (Simulation, WallClock):
        for attr in ("schedule", "schedule_at"):
            setattr(clock_class, attr, timer_interposer(getattr(clock_class, attr)))

    # -- crypto ---------------------------------------------------------------
    def count_one(_args) -> None:
        rec.verify_items += 1

    def count_share_batch(args) -> None:
        rec.verify_items += len(args[1])
        rec.batch_calls += 1
        rec.batch_items += len(args[1])

    def count_client_batch(args) -> None:
        rec.verify_items += len(args[1])

    for module in (core_cluster, net_party):
        _patch(rec, module, "generate_keyrings", "crypto.keygen")
    for keyring in (FastKeyring, RealKeyring):
        for attr in KEYRING_SIGN:
            _patch(rec, keyring, attr, "crypto.sign")
        for attr in KEYRING_VERIFY_ONE:
            _patch(rec, keyring, attr, "crypto.verify", before=count_one)
        for attr in KEYRING_VERIFY_BATCH:
            _patch(rec, keyring, attr, "crypto.verify", before=count_share_batch)
        for attr in KEYRING_COMBINE:
            _patch(rec, keyring, attr, "crypto.combine")
    for auth in (FastClientAuth, RealClientAuth):
        _patch(rec, auth, "verify_batch", "crypto.verify", before=count_client_batch)

    # -- net ------------------------------------------------------------------
    def count_frame(_args, frame) -> None:
        rec.frames += 1
        rec.frame_bytes += len(frame)

    def note_send(args) -> None:
        message = args[2]
        if type(message) in share_types:
            rec.sent_ns.setdefault(message, time.perf_counter_ns())

    _patch(rec, net_transport, "message_frame", "net.encode", after=count_frame)
    _patch(rec, net_transport, "decode_payload", "net.decode")
    _patch(rec, FrameDecoder, "feed", "net.decode")
    _patch(rec, net_transport.TcpNetwork, "broadcast", "net.send",
           party_of=_self_index, before=note_send)
    for attr in ("send", "multicast"):
        _patch(rec, net_transport.TcpNetwork, attr, "net.send", party_of=_self_index)
    # Everything the event loop runs: transport coroutines, socket reads and
    # writes, timers.  Its self time is what `net` costs beyond the codec.
    _patch(rec, asyncio.events.Handle, "_run", "net.loop")

    # -- workloads ------------------------------------------------------------
    def count_admitted(args, accepted) -> None:
        rec.admitted += accepted

    def note_inclusion(_args, payload) -> None:
        now = rec.workload_clock()
        first = rec.first_included
        for command in payload.commands:
            first.setdefault(command[:REQUEST_ID_LEN], now)

    _patch(rec, RequestBatcher, "admit_batch", "workloads.admit", after=count_admitted)
    _patch(rec, RequestBatcher, "payload_source", "workloads.payload_source",
           after=note_inclusion)
    _patch(rec, RequestBatcher, "verify_block", "workloads.verify_block")
