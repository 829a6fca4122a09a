"""Request batching and batch authentication: the Chop Chop-style ingress.

The load pipeline turns "many clients" into "saturated consensus" in three
amortization steps, following *Chop Chop: Byzantine Atomic Broadcast to the
Network Limit* (see PAPERS.md and docs/LOAD.md):

* **Aggregation** — client requests are collected per broker tick (see
  :mod:`repro.workloads.population`) and admitted to the shared ingress
  queue as one batch, so per-request overheads (authentication, admission,
  bookkeeping) are paid per *batch*.
* **Distillation** — duplicate submissions of the same request id are
  collapsed at admission, and :meth:`RequestBatcher.payload_source`
  deduplicates against the chain being extended (Section 3.3 of the ICC
  paper), so a request is finalized exactly once however many parties saw
  it.
* **Batch authentication** — every client request carries a signature,
  and a tick's or a block's requests are authenticated in one call.  The
  check itself is per request (a challenge-form Schnorr check is two table
  look-ups and a hash; see docs/PERFORMANCE.md), so a forged request costs
  the honest ones nothing and is the only ``False``.  Verification happens
  at ingress admission (so forged requests never occupy queue space or block
  capacity) and at pool admission of each proposed *block*, memoized per
  block hash (so a Byzantine proposer cannot smuggle forged requests into a
  batch — see ``payload_verifier`` in :mod:`repro.core.pool`).  A block's
  request whose exact bytes this batcher admitted is not checked twice.

Two authenticator backends mirror the :mod:`repro.crypto.keyring` split:
:class:`FastClientAuth` is a hash MAC simulation for large-scale load runs,
:class:`RealClientAuth` signs with per-client Schnorr keys (the
configuration the forged-request tests and the benchmark's ``live_n4_load``
workload exercise).

Determinism: this module draws **no randomness at all** — signing nonces
are derived Fiat-Shamir style from the key and message — so installing the
load pipeline never perturbs ``sim.rng`` (the same isolation rule as the
fault-decision RNG in :mod:`repro.faults.inject`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..core.messages import Block, Payload
from ..crypto import api, schnorr
from ..crypto.group import Group, group_for_profile
from ..crypto.hashing import tagged_hash
from ..obs import NULL_TRACER

#: Wire layout of a signed request (the ``commands`` bytes in a payload):
#:
#: ====== ======= ===========================================
#: offset length  field
#: ====== ======= ===========================================
#: 0      2       magic ``b"ld"``
#: 2      4       client id (big endian)
#: 6      6       per-client sequence number (big endian)
#: 12     4       state key id (Zipf-popular; see population)
#: 16     2       authenticator length A
#: 18     A       authenticator bytes (backend-specific)
#: 18+A   ...     application body (a KV ``put`` command + padding)
#: ====== ======= ===========================================
#:
#: The first 12 bytes are the globally unique *request id*: admission and
#: block packing deduplicate on ``command[:12]``.
LOAD_MAGIC = b"ld"
REQUEST_ID_LEN = 12
_HEADER_LEN = 18


@dataclass(frozen=True)
class SignedRequest:
    """One parsed client request (see the wire layout above)."""

    client: int
    seq: int
    key: int
    auth: bytes
    body: bytes

    @property
    def request_id(self) -> bytes:
        return (
            LOAD_MAGIC
            + self.client.to_bytes(4, "big")
            + self.seq.to_bytes(6, "big")
        )

    def wire(self) -> bytes:
        return (
            self.request_id
            + self.key.to_bytes(4, "big")
            + len(self.auth).to_bytes(2, "big")
            + self.auth
            + self.body
        )

    def signed_message(self) -> bytes:
        """The bytes the authenticator covers (everything but itself)."""
        return signed_message(self.client, self.seq, self.key, self.body)


def signed_message(client: int, seq: int, key: int, body: bytes) -> bytes:
    return tagged_hash(
        "ICC/load/request",
        client.to_bytes(4, "big"),
        seq.to_bytes(6, "big"),
        key.to_bytes(4, "big"),
        body,
    )


def is_load_command(command: bytes) -> bool:
    return command.startswith(LOAD_MAGIC) and len(command) >= _HEADER_LEN


def parse_request(command: bytes) -> SignedRequest | None:
    """Decode a wire command; None if it is not a well-formed request."""
    if not is_load_command(command):
        return None
    auth_len = int.from_bytes(command[16:18], "big")
    if len(command) < _HEADER_LEN + auth_len:
        return None
    return SignedRequest(
        client=int.from_bytes(command[2:6], "big"),
        seq=int.from_bytes(command[6:12], "big"),
        key=int.from_bytes(command[12:16], "big"),
        auth=command[18 : 18 + auth_len],
        body=command[18 + auth_len :],
    )


def strip_request_envelope(command: bytes) -> bytes:
    """Application body of a load request (state machines want the op)."""
    request = parse_request(command)
    return command if request is None else request.body


# ---------------------------------------------------------------------------
# Client authenticators
# ---------------------------------------------------------------------------


class FastClientAuth:
    """Hash-MAC simulation backend (cheap; not unforgeable, like FastKeyring).

    Preserves exactly what the load pipeline observes — per-client
    authenticators that batch-verify and reject tampered requests — at one
    ``tagged_hash`` per request, so million-request sweeps stay fast.
    """

    scheme = "fast"

    def __init__(self, seed: int = 0) -> None:
        self._master = tagged_hash("ICC/load/auth-master", seed.to_bytes(8, "big"))

    def sign(self, client: int, seq: int, key: int, body: bytes) -> bytes:
        return tagged_hash(
            "ICC/load/fast-auth", self._master, signed_message(client, seq, key, body)
        )

    def verify_batch(self, requests: list[SignedRequest]) -> api.BatchResult:
        return api.BatchResult.of(
            [r.auth == self.sign(r.client, r.seq, r.key, r.body) for r in requests]
        )


class RealClientAuth:
    """Per-client Schnorr keys, verified through the crypto fast path.

    Client key material is derived deterministically from a master seed, so
    every party (and every worker process) agrees on the key of client *i*
    without a registration protocol.  Signing nonces are derived from the
    secret and message (deterministic Schnorr), keeping the whole load
    pipeline free of RNG draws.  Verification is one
    :meth:`repro.crypto.api.SchnorrVerifier.verify` per request, from the
    comb tables of ``g`` and the client's key.
    """

    scheme = "real"

    def __init__(self, seed: int = 0, group_profile: str = "test") -> None:
        self.group: Group = group_for_profile(group_profile)
        self._suite = api.verifiers_for(self.group)
        self._master = tagged_hash("ICC/load/auth-master", seed.to_bytes(8, "big"))
        self._secrets: dict[int, int] = {}
        self._publics: dict[int, int] = {}

    def _secret(self, client: int) -> int:
        secret = self._secrets.get(client)
        if secret is None:
            digest = tagged_hash(
                "ICC/load/client-key", self._master, client.to_bytes(4, "big")
            )
            secret = 1 + int.from_bytes(digest, "big") % (self.group.q - 1)
            self._secrets[client] = secret
        return secret

    def public(self, client: int) -> int:
        public = self._publics.get(client)
        if public is None:
            public = self._suite.ctx.power_g(self._secret(client))
            self._publics[client] = public
        return public

    def warm(self, clients: int) -> None:
        """Pre-build fixed-base tables for the first ``clients`` keys (see
        :meth:`repro.crypto.fastpath.FastPath.warm_bases`)."""
        self._suite.ctx.warm_bases(self.public(c) for c in range(clients))

    def sign(self, client: int, seq: int, key: int, body: bytes) -> bytes:
        group = self.group
        secret = self._secret(client)
        message = signed_message(client, seq, key, body)
        # Deterministic nonce (RFC 6979 in spirit): no RNG draw, and two
        # different messages never share a nonce.
        nonce = 1 + int.from_bytes(
            tagged_hash(
                "ICC/load/nonce", secret.to_bytes(64, "big"), message
            ),
            "big",
        ) % (group.q - 1)
        commitment = self._suite.ctx.power_g(nonce)
        c = schnorr._challenge(group, self.public(client), commitment, message)
        sig = schnorr.SchnorrSignature(
            challenge=c, response=(nonce + c * secret) % group.q
        )
        return sig.to_bytes(group)

    def _decode(self, auth: bytes) -> schnorr.SchnorrSignature | None:
        try:
            return schnorr.signature_from_bytes(self.group, auth)
        except ValueError:
            return None

    def verify_batch(self, requests: list[SignedRequest]) -> api.BatchResult:
        verify = self._suite.schnorr.verify
        results = []
        for r in requests:
            sig = self._decode(r.auth)
            results.append(
                sig is not None and verify(self.public(r.client), r.signed_message(), sig)
            )
        return api.BatchResult.of(results)


def client_auth(scheme: str, seed: int = 0, group_profile: str = "test"):
    """Authenticator factory (``"fast"`` or ``"real"``)."""
    if scheme == "fast":
        return FastClientAuth(seed)
    if scheme == "real":
        return RealClientAuth(seed, group_profile)
    raise ValueError(f"unknown client auth scheme {scheme!r}")


# ---------------------------------------------------------------------------
# The batcher
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchSpec:
    """Batching and admission-control knobs (see docs/LOAD.md)."""

    #: Proposer cap: load requests packed into one block.
    batch_max: int = 512
    #: Admission control: shared ingress queue bound.  Arrivals beyond the
    #: cap are shed (counted, traced) instead of growing latency without
    #: bound — the knob that turns an open-loop overload into load shedding.
    queue_cap: int = 100_000
    #: Client authenticator backend ("fast" or "real").
    auth: str = "fast"
    #: Group profile for the real backend.
    group_profile: str = "test"
    #: Per-block management overhead bytes, carried whether or not any
    #: request is packed (Table 1's *without load* blocks are just this).
    management_bytes: int = 64

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be at least 1, got {self.batch_max}")


class RequestBatcher:
    """Shared ingress queue + batch authentication + block packing.

    One instance is shared by the whole cluster, modelling the IC's ingress
    layer gossiping client messages to every party: a request admitted here
    is in every party's mempool at once.

    Usage::

        batcher = RequestBatcher(BatchSpec(), seed=1)
        config = ClusterConfig(..., payload_source=batcher.payload_source,
                               payload_verifier=batcher.verify_block)
        cluster = build_cluster(config)
        batcher.bind(cluster)
    """

    def __init__(self, spec: BatchSpec, seed: int = 0) -> None:
        self.spec = spec
        self.auth = client_auth(spec.auth, seed, spec.group_profile)
        self._pending: dict[bytes, bytes] = {}  # request id -> wire bytes
        self._submitted_at: dict[bytes, float] = {}
        self._block_auth_memo: dict[bytes, bool] = {}
        self._completion_hooks: list = []  # called with (request_id, latency)

        # Counters (all exposed through LoadReport).
        self.submitted = 0
        self.rejected = 0  # admission-control sheds
        self.auth_invalid = 0  # forged requests dropped at ingress
        self.duplicates = 0  # distilled duplicate submissions
        self.completed = 0
        self.auth_batches = 0
        self.latencies: list[float] = []
        self.committed_ids: list[bytes] = []
        self._committed: set[bytes] = set()
        self._committed_blocks: set[bytes] = set()  # hashes _on_commit has seen

        self._sim = None
        self._tracer = NULL_TRACER

    # -- wiring ------------------------------------------------------------

    def bind(self, cluster) -> None:
        """Attach to a built cluster: its first honest party is the
        observer, its simulation the clock and tracer."""
        sim = cluster.sim
        self.attach(sim, cluster.honest_parties[0], sim.tracer)

    def attach(self, clock, observer, tracer) -> None:
        """Wire to one party: read time from ``clock``, observe commits on
        ``observer`` (completion, latency), report to ``tracer``.  A live
        party, which has no cluster object, calls this directly."""
        self._sim = clock
        self._tracer = tracer
        observer.commit_listeners.append(self._on_commit)

    def on_complete(self, hook) -> None:
        """Register a completion hook (the closed-loop population uses this
        to wake the client whose request just finalized)."""
        self._completion_hooks.append(hook)

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    # -- ingress admission -------------------------------------------------

    def admit_batch(self, batch: list[tuple[SignedRequest, float]]) -> int:
        """Admit one broker tick's arrivals; returns how many were accepted.

        ``batch`` holds (request, arrival_time) pairs.  The whole tick is
        authenticated in one call; forged requests are dropped without
        costing the honest ones their slot.  Survivors then pass admission
        control: duplicates of an already-pending or already-committed id
        are distilled away, and arrivals beyond ``queue_cap`` are shed.
        """
        if not batch:
            return 0
        report = self.auth.verify_batch([r for r, _ in batch])
        self.auth_batches += 1
        if report.stats.invalid:
            self.auth_invalid += report.stats.invalid
        if self._tracer.enabled:
            self._emit(
                "load.batch.auth",
                count=report.stats.count,
                invalid=report.stats.invalid,
            )
        accepted = 0
        shed = 0
        for (request, arrived), ok in zip(batch, report.results):
            if not ok:
                continue
            rid = request.request_id
            if rid in self._pending or rid in self._committed:
                self.duplicates += 1
                continue
            if len(self._pending) >= self.spec.queue_cap:
                shed += 1
                continue
            self._pending[rid] = request.wire()
            self._submitted_at[rid] = arrived
            accepted += 1
        self.submitted += accepted
        if shed:
            self.rejected += shed
            if self._tracer.enabled:
                self._emit(
                    "load.admission.reject", count=shed, queued=len(self._pending)
                )
        return accepted

    # -- block packing (getPayload) ---------------------------------------

    def payload_source(self, party, round: int, chain: list[Block]) -> Payload:
        """getPayload: pack up to ``batch_max`` pending requests not already
        on the chain being extended (Section 3.3 dedup).

        Only the uncommitted suffix of ``chain`` is read: the walk goes back
        from the tip and stops at the first block ``_on_commit`` has seen.
        The payload is the one a check against every id on ``chain`` gives.
        A party commits a block only after all its ancestors, so that block
        and everything below it on ``chain`` have been through ``_on_commit``,
        which took their ids out of ``_pending`` and put them in
        ``_committed``; ``admit_batch`` never re-admits a committed id; so
        none of them is pending now and there is nothing to leave out for
        them.  The stop is on the block *hash*, not on a round number: a fork
        block that was notarized but not finalized sits at or below the
        committed height without being committed, its ids can still be
        pending, and a proposal extending it must leave them out — it is
        read, because only a committed hash ends the walk.  An unbound
        batcher sees no commit and reads the whole chain.
        """
        included: set[bytes] = set()
        for block in reversed(chain):
            if block.hash in self._committed_blocks:
                break
            included.update(
                c[:REQUEST_ID_LEN] for c in block.payload.commands if is_load_command(c)
            )
        commands: list[bytes] = []
        for rid, wire in self._pending.items():
            if rid in included:
                continue
            commands.append(wire)
            if len(commands) >= self.spec.batch_max:
                break
        payload = Payload(
            commands=tuple(commands), filler_bytes=self.spec.management_bytes
        )
        if self._tracer.enabled and commands:
            self._emit(
                "load.batch.sealed",
                party=getattr(party, "index", 0),
                round=round,
                commands=len(commands),
                bytes=payload.wire_size(),
                queued=len(self._pending),
            )
        return payload

    # -- pool batch admission ----------------------------------------------

    def verify_block(self, block: Block) -> bool:
        """Batch-authenticate a proposed block's load requests (pool hook).

        Called by every party's :class:`~repro.core.pool.MessagePool` when
        a block arrives; the verdict is memoized per block hash, so the
        whole cluster checks each distinct block's requests once.  A block
        carrying any forged or malformed load request is rejected wholesale
        (the honest proposers only pack ingress-verified requests, so honest
        blocks never fail).

        A request is authenticated once: a command whose bytes equal this
        batcher's pending entry for its id passed :meth:`admit_batch`'s
        check, so it is not checked again.  One whose id is pending with
        other bytes (a tampered authenticator or body) is checked like any
        request this batcher never admitted.
        """
        verdict = self._block_auth_memo.get(block.hash)
        if verdict is not None:
            return verdict
        pending = self._pending
        requests: list[SignedRequest] = []
        verdict = True
        for command in block.payload.commands:
            if not is_load_command(command):
                continue
            if pending.get(command[:REQUEST_ID_LEN]) == command:
                continue
            request = parse_request(command)
            if request is None:
                verdict = False
                break
            requests.append(request)
        if verdict and requests:
            report = self.auth.verify_batch(requests)
            self.auth_batches += 1
            verdict = report.stats.invalid == 0
            if self._tracer.enabled:
                self._emit(
                    "load.batch.auth",
                    count=report.stats.count,
                    invalid=report.stats.invalid,
                )
        self._block_auth_memo[block.hash] = verdict
        return verdict

    # -- completion --------------------------------------------------------

    def _on_commit(self, block: Block) -> None:
        self._committed_blocks.add(block.hash)
        now = self._sim.now if self._sim is not None else 0.0
        for command in block.payload.commands:
            if not is_load_command(command):
                continue
            rid = command[:REQUEST_ID_LEN]
            if rid in self._committed:
                continue
            self._committed.add(rid)
            self.committed_ids.append(rid)
            self.completed += 1
            self._pending.pop(rid, None)
            # A block can finalize here before this party's own ingress has
            # admitted its requests (live, epsilon=0): the id still counts as
            # committed, but there is no local submit time to measure from.
            submitted = self._submitted_at.pop(rid, None)
            if submitted is None:
                continue
            latency = now - submitted
            self.latencies.append(latency)
            for hook in self._completion_hooks:
                hook(rid, latency)

    def committed_digest(self) -> str:
        """Order-insensitive digest of the finalized request set."""
        h = hashlib.sha256()
        for rid in sorted(self.committed_ids):
            h.update(rid)
        return h.hexdigest()

    # -- tracing -----------------------------------------------------------

    def _emit(self, kind: str, party: int = 0, round: int | None = None, **payload) -> None:
        self._tracer.emit(
            time=self._sim.now if self._sim is not None else 0.0,
            party=party,
            protocol="load",
            round=round,
            kind=kind,
            payload=payload,
        )
