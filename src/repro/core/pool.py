"""The per-party message pool and the block predicates of Section 3.4.

"Each party has a pool which holds the set of all messages received from all
parties (including itself)" (Section 3.1).  The pool verifies each message's
cryptography (invalid messages are dropped and counted), indexes artifacts
by block and round, and incrementally maintains the paper's four block
classifications:

* **authentic** — a valid authenticator for the block is present;
* **valid**     — authentic, and the parent is present and *notarized*;
* **notarized** — valid, and a notarization is present;
* **finalized** — valid, and a finalization is present.

``root`` is always authentic/valid/notarized/finalized.  Because validity is
recursive through parents, the pool propagates state changes through a
child index rather than re-scanning (a notarization arriving for a parent
may make a whole subtree of buffered children valid).

``add`` dispatches on the message's exact type through one table
(``_ADDERS``) and raises ``TypeError`` for any other type.  Every message is
verified in ``add``, except that a share whose aggregate is already held
(notarization, finalization or beacon value), or a notarization or
finalization share for a known block that already has n − t of its kind, is
dropped unverified and counted as ``superseded``; so is a beacon share for a
round that already holds t + 1 verified ones.  That is safe because a share
is only ever read to build an aggregate, and an aggregate combines the first
n − t (beacon: t + 1) shares.  An authenticator or share must also claim the
round and proposer of the block whose hash it carries: one that does not is
dropped as invalid, in ``add`` when the block is known and when the block
arrives otherwise.

The paper presents the pool as append-only and notes that a practical one
discards what is no longer relevant (Section 3.1).  Two floors, both raised
by the owning party and never lowered, say what that is here:

* the **committed floor** (:meth:`MessagePool.set_committed_floor`) is the
  party's ``k_max``.  Figure 2 only ever waits on rounds ``k > k_max``, so
  the pool keeps the set of rounds *above* the floor that have a finalized
  block or a stored finalization share up to date as artifacts arrive, and
  :meth:`MessagePool.rounds_with_final_activity` reads it: the finalization
  watcher's cost does not depend on the length of the chain.  Nothing is
  discarded at this floor.
* the **prune floor** (:meth:`MessagePool.prune`, raised after each commit
  to ``k_max - ProtocolParams.gc_depth``) is where storage ends: every
  artifact whose own ``round`` is below it is discarded, with the beacon
  values of those rounds, and ``add`` drops a late one unverified, counted
  as ``stale``.  It drags the committed floor along: what cannot be stored
  cannot be finalization activity.  A sweep reads an index from claimed
  round to the hashes stored under it, so it visits only the rounds it
  crosses, not the pool.

Every share of one block signs the same statement of Section 3.4:
(k, α, H(B)) for notarization and finalization shares, (k, R_{k-1}) for the
beacon.  The pool hashes each statement once, not once per share: a memo
keyed by exactly what the statement hashes, ``(kind, round, proposer,
block_hash)`` or ``(kind, round, previous_value)``, serves the adders and,
through :meth:`MessagePool.notarization_statement` and its two siblings, the
owning party's signers and combiners.  The key holds the round and proposer
a share *names*, so a share that lies about them is checked against the
statement of what it names.  An adder stores an entry only after the share
verified, and an entry goes when that kind's aggregate is stored (later
shares are dropped as ``superseded`` before any statement is read), when its
share is dropped as misnamed, and when the committed floor reaches its
round.  So the memo holds the blocks in flight, not the chain.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..crypto.keyring import Keyring
from ..obs import NULL_TRACER
from . import messages as msg
from .messages import (
    Authenticator,
    BeaconShare,
    Block,
    Finalization,
    FinalizationShare,
    GENESIS_BEACON,
    Notarization,
    NotarizationShare,
    ROOT_BLOCK,
    ROOT_HASH,
)


@dataclass
class PoolStats:
    """Counters for dropped / duplicate messages (robustness diagnostics)."""

    invalid_dropped: int = 0
    duplicates: int = 0
    superseded: int = 0
    stale: int = 0
    buffered_beacon_shares: int = 0


def _names(
    artifact: Authenticator | Notarization | NotarizationShare | FinalizationShare,
    block: Block,
) -> bool:
    """Whether ``artifact`` is *about* ``block``.  The signature covers the
    round and proposer the artifact claims, so one that claims another round
    is validly signed and still not about this block: accepting it would let
    its signer choose at which prune floor it goes, and a share over another
    message counts towards the quorum and then spoils the aggregate combined
    from it."""
    return (artifact.block_hash, artifact.round, artifact.proposer) == (
        block.hash, block.round, block.proposer
    )


#: The kinds of statement the memo holds (module docstring).
NOTARY = "notarization"
FINAL = "finalization"
BEACON = "beacon"


def _build_statement(key: tuple) -> bytes:
    """The bytes the statement ``key`` names are signed over (Section 3.4)."""
    kind = key[0]
    if kind == NOTARY:
        return msg.notarization_message(key[1], key[2], key[3])
    if kind == FINAL:
        return msg.finalization_message(key[1], key[2], key[3])
    return msg.beacon_message(key[1], key[2])


class MessagePool:
    """Verified message store for one party."""

    def __init__(self, keyring: Keyring) -> None:
        self._keys = keyring
        self.n = keyring.n
        self.t = keyring.t
        #: Optional payload batch-admission hook: ``verifier(block) -> bool``.
        #: Called once per *new* block; a False verdict drops the block as
        #: invalid.  The load pipeline installs
        #: :meth:`repro.workloads.batching.RequestBatcher.verify_block` here
        #: to batch-authenticate client requests (memoized per block hash),
        #: so a Byzantine proposer cannot smuggle forged requests into a
        #: notarized block.  See ``ClusterConfig.payload_verifier``.
        self.payload_verifier = None
        self.stats = PoolStats()

        # Trace wiring (see repro.obs): the owning party binds its tracer
        # so verification drops and GC sweeps are attributable to a party.
        self._tracer = NULL_TRACER
        self._trace_sim = None
        self._trace_party = 0
        self._trace_protocol = "pool"

        self.blocks: dict[bytes, Block] = {ROOT_HASH: ROOT_BLOCK}
        self._children: dict[bytes, set[bytes]] = defaultdict(set)
        self._blocks_by_round: dict[int, set[bytes]] = defaultdict(set)

        self._authentic: set[bytes] = {ROOT_HASH}
        self._authenticators: dict[bytes, Authenticator] = {}
        self._valid: set[bytes] = {ROOT_HASH}
        self._notarized: set[bytes] = {ROOT_HASH}
        self._finalized: set[bytes] = {ROOT_HASH}

        self._notarizations: dict[bytes, Notarization] = {}
        self._finalizations: dict[bytes, Finalization] = {}
        self._notar_shares: dict[bytes, dict[int, NotarizationShare]] = defaultdict(dict)
        self._final_shares: dict[bytes, dict[int, FinalizationShare]] = defaultdict(dict)
        # Claimed round -> the hashes an authenticator, aggregate or share
        # claiming it is stored under: what a prune sweep reads.
        self._hashes_by_round: dict[int, set[bytes]] = defaultdict(set)

        # The two floors (module docstring), and the rounds above the
        # committed one that have a finalized block or a finalization share.
        self._committed_floor = 0
        self._prune_floor = 0
        self._final_activity: set[int] = set()

        # Random-beacon state.  beacon value of round 0 is the genesis value.
        self.beacon_values: dict[int, bytes] = {0: GENESIS_BEACON}
        self._beacon_shares: dict[int, dict[int, BeaconShare]] = defaultdict(dict)
        # Shares for a round whose previous beacon value is still unknown,
        # by round then signer; verified when set_beacon_value reveals it.
        self._buffered_beacon_shares: dict[int, dict[int, BeaconShare]] = defaultdict(dict)

        # The statement memo (module docstring): key -> signed bytes.
        self._statements: dict[tuple, bytes] = {}

    # -- ingestion ---------------------------------------------------------

    def bind_tracing(self, tracer, sim, party: int, protocol: str) -> None:
        """Attach a trace sink (called by the owning party at construction)."""
        self._tracer = tracer
        self._trace_sim = sim
        self._trace_party = party
        self._trace_protocol = protocol

    def add(self, message: object) -> bool:
        """Verify and store a message; returns True if it changed the pool."""
        if not self._tracer.enabled:
            return self._add(message)
        before = self.stats.invalid_dropped
        changed = self._add(message)
        if self.stats.invalid_dropped > before:
            self._report_invalid(message)
        return changed

    def _report_invalid(self, message: object) -> None:
        if self._tracer.enabled:
            self._tracer.emit(
                time=self._trace_sim.now if self._trace_sim is not None else 0.0,
                party=self._trace_party,
                protocol=self._trace_protocol,
                round=getattr(message, "round", None),
                kind="pool.invalid",
                payload={"artifact": type(message).__name__},
            )

    def _add(self, message: object) -> bool:
        """Dispatch on the message's exact type (:data:`_ADDERS`); an artifact
        below the prune floor is dropped first, unverified, as ``stale``."""
        adder = _ADDERS.get(type(message))
        if adder is None:
            raise TypeError(f"pool cannot hold {type(message).__name__}")
        if message.round < self._prune_floor:
            self.stats.stale += 1
            return False
        return adder(self, message)

    def _add_block(self, block: Block) -> bool:
        if block.round < 1 or not 1 <= block.proposer <= self.n:
            self.stats.invalid_dropped += 1
            return False
        h = block.hash
        if h in self.blocks:
            self.stats.duplicates += 1
            return False
        if self.payload_verifier is not None and not self.payload_verifier(block):
            self.stats.invalid_dropped += 1
            return False
        early = self._authenticators.get(h)
        if early is not None and not _names(early, block):
            del self._authenticators[h]
            self._authentic.discard(h)
            self.stats.invalid_dropped += 1
        self._drop_misnamed_shares(block)
        self.blocks[h] = block
        self._blocks_by_round[block.round].add(h)
        self._children[block.parent_hash].add(h)
        self._try_validate(h)
        return True

    def _drop_misnamed_shares(self, block: Block) -> None:
        """Shares that arrived before ``block`` were stored under its hash
        unchecked against it: drop those that claim another round or proposer."""
        for kind, by_block in ((NOTARY, self._notar_shares), (FINAL, self._final_shares)):
            shares = by_block.get(block.hash)
            if not shares:
                continue
            lying = [i for i, s in shares.items() if not _names(s, block)]
            for signer in lying:
                share = shares.pop(signer)
                self._statements.pop((kind, share.round, share.proposer, block.hash), None)
            if not shares:
                del by_block[block.hash]
            self.stats.invalid_dropped += len(lying)
            if lying and by_block is self._final_shares:
                self._recount_final_activity()

    def _recount_final_activity(self) -> None:
        """Rebuild the index from storage: the slow path, taken only when a
        share leaves other than through a floor."""
        rounds = {self.blocks[h].round for h in self._finalized if h != ROOT_HASH}
        rounds.update(
            s.round for shares in self._final_shares.values() for s in shares.values()
        )
        self._final_activity = {r for r in rounds if r > self._committed_floor}

    def _add_authenticator(self, auth: Authenticator) -> bool:
        if auth.block_hash in self._authentic:
            self.stats.duplicates += 1
            return False
        block = self.blocks.get(auth.block_hash)
        if block is not None and not _names(auth, block):
            self.stats.invalid_dropped += 1
            return False
        signed = msg.authenticator_message(auth.round, auth.proposer, auth.block_hash)
        if not self._keys.verify_auth(auth.proposer, signed, auth.signature):
            self.stats.invalid_dropped += 1
            return False
        self._authentic.add(auth.block_hash)
        self._authenticators[auth.block_hash] = auth
        self._hashes_by_round[auth.round].add(auth.block_hash)
        self._try_validate(auth.block_hash)
        return True

    def _dropped_unverified(self, share, aggregates: dict, by_block: dict) -> bool:
        """The checks a notarization or finalization share meets before its
        signature is read; True if they drop it.  Once the pool holds the
        aggregate, or ``n - t`` shares for a block it knows, a share is
        superseded: aggregates combine the first ``n - t`` shares, so no
        later one is ever read."""
        h = share.block_hash
        stored = by_block.get(h, ())
        if h in aggregates:
            self.stats.superseded += 1
            return True
        if share.signer in stored:
            self.stats.duplicates += 1
            return True
        block = self.blocks.get(h)
        if block is not None:
            if not _names(share, block):
                self.stats.invalid_dropped += 1
                return True
            if len(stored) >= self.n - self.t:
                self.stats.superseded += 1
                return True
        if self._keys.share_index(share.share) != share.signer:
            self.stats.invalid_dropped += 1
            return True
        return False

    def _add_notar_share(self, share: NotarizationShare) -> bool:
        if self._dropped_unverified(share, self._notarizations, self._notar_shares):
            return False
        key = (NOTARY, share.round, share.proposer, share.block_hash)
        signed = self._memoized(key)
        if not self._keys.verify_notary_share(signed, share.share):
            self.stats.invalid_dropped += 1
            return False
        self._statements[key] = signed
        self._notar_shares[share.block_hash][share.signer] = share
        self._hashes_by_round[share.round].add(share.block_hash)
        return True

    def _add_notarization(self, notarization: Notarization) -> bool:
        if notarization.block_hash in self._notarizations:
            self.stats.duplicates += 1
            return False
        key = (NOTARY, notarization.round, notarization.proposer, notarization.block_hash)
        if not self._keys.verify_notary(self._memoized(key), notarization.aggregate):
            self.stats.invalid_dropped += 1
            return False
        self._statements.pop(key, None)
        self._notarizations[notarization.block_hash] = notarization
        self._hashes_by_round[notarization.round].add(notarization.block_hash)
        self._try_notarize(notarization.block_hash)
        return True

    def _add_final_share(self, share: FinalizationShare) -> bool:
        if self._dropped_unverified(share, self._finalizations, self._final_shares):
            return False
        key = (FINAL, share.round, share.proposer, share.block_hash)
        signed = self._memoized(key)
        if not self._keys.verify_final_share(signed, share.share):
            self.stats.invalid_dropped += 1
            return False
        self._statements[key] = signed
        self._final_shares[share.block_hash][share.signer] = share
        self._hashes_by_round[share.round].add(share.block_hash)
        if share.round > self._committed_floor:
            self._final_activity.add(share.round)
        return True

    def _add_finalization(self, finalization: Finalization) -> bool:
        if finalization.block_hash in self._finalizations:
            self.stats.duplicates += 1
            return False
        key = (FINAL, finalization.round, finalization.proposer, finalization.block_hash)
        if not self._keys.verify_final(self._memoized(key), finalization.aggregate):
            self.stats.invalid_dropped += 1
            return False
        self._statements.pop(key, None)
        self._finalizations[finalization.block_hash] = finalization
        self._hashes_by_round[finalization.round].add(finalization.block_hash)
        self._try_finalize(finalization.block_hash)
        return True

    def _add_beacon_share(self, share: BeaconShare) -> bool:
        if share.round < 1:
            self.stats.invalid_dropped += 1
            return False
        if share.round in self.beacon_values:
            self.stats.superseded += 1
            return False
        stored = self._beacon_shares.get(share.round, ())
        buffered = self._buffered_beacon_shares.get(share.round, ())
        if share.signer in stored or share.signer in buffered:
            self.stats.duplicates += 1
            return False
        if len(stored) > self.t:
            self.stats.superseded += 1  # R_k combines the t + 1 already held
            return False
        previous = self.beacon_values.get(share.round - 1)
        if previous is None:
            # Cannot verify until R_{k-1} is known; buffer for later.
            self._buffered_beacon_shares[share.round][share.signer] = share
            self.stats.buffered_beacon_shares += 1
            return True
        return self._verify_and_store_beacon_share(share, previous)

    def _verify_and_store_beacon_share(self, share: BeaconShare, previous: bytes) -> bool:
        if self._keys.share_index(share.share) != share.signer:
            self.stats.invalid_dropped += 1
            return False
        key = (BEACON, share.round, previous)
        signed = self._memoized(key)
        if not self._keys.verify_beacon_share(signed, share.share):
            self.stats.invalid_dropped += 1
            return False
        self._statements[key] = signed
        self._beacon_shares[share.round][share.signer] = share
        return True

    # -- signed statements (Section 3.4) ------------------------------------------

    def _memoized(self, key: tuple) -> bytes:
        """The statement ``key`` names: from the memo, or built and not stored."""
        signed = self._statements.get(key)
        return _build_statement(key) if signed is None else signed

    def _statement(self, key: tuple, settled: bool) -> bytes:
        """The statement ``key`` names, remembered unless its aggregate is
        already stored (``settled``): then no share will read it again."""
        signed = self._statements.get(key)
        if signed is None:
            signed = _build_statement(key)
            if not settled:
                self._statements[key] = signed
        return signed

    def notarization_statement(self, round: int, proposer: int, block_hash: bytes) -> bytes:
        """(k, α, H(B)) as S_notary signs it, hashed once per block."""
        return self._statement(
            (NOTARY, round, proposer, block_hash), block_hash in self._notarizations
        )

    def finalization_statement(self, round: int, proposer: int, block_hash: bytes) -> bytes:
        """(k, α, H(B)) as S_final signs it, hashed once per block."""
        return self._statement(
            (FINAL, round, proposer, block_hash), block_hash in self._finalizations
        )

    def beacon_statement(self, round: int, previous: bytes) -> bytes:
        """(k, R_{k-1}) as S_beacon signs it, hashed once per round."""
        return self._statement((BEACON, round, previous), round in self.beacon_values)

    # -- state propagation ----------------------------------------------------

    def _try_validate(self, h: bytes) -> None:
        if h in self._valid or h not in self._authentic:
            return
        block = self.blocks.get(h)
        if block is None:
            return
        if block.parent_hash not in self._notarized:
            return
        self._valid.add(h)
        self._try_notarize(h)
        self._try_finalize(h)

    def _try_notarize(self, h: bytes) -> None:
        if h in self._notarized or h not in self._valid or h not in self._notarizations:
            return
        self._notarized.add(h)
        for child in self._children.get(h, ()):
            self._try_validate(child)

    def _try_finalize(self, h: bytes) -> None:
        if h in self._finalized or h not in self._valid or h not in self._finalizations:
            return
        self._finalized.add(h)
        round = self.blocks[h].round
        if round > self._committed_floor:
            self._final_activity.add(round)

    # -- predicates (Section 3.4) ------------------------------------------------

    def is_authentic(self, h: bytes) -> bool:
        return h in self._authentic

    def is_valid(self, h: bytes) -> bool:
        return h in self._valid

    def is_notarized(self, h: bytes) -> bool:
        return h in self._notarized

    def is_finalized(self, h: bytes) -> bool:
        return h in self._finalized

    # -- queries used by the protocol loops ----------------------------------------

    def valid_blocks(self, round: int) -> list[Block]:
        return [
            self.blocks[h]
            for h in self._blocks_by_round.get(round, ())
            if h in self._valid
        ]

    def notarized_blocks(self, round: int) -> list[Block]:
        if round == 0:
            return [ROOT_BLOCK]
        return [
            self.blocks[h]
            for h in self._blocks_by_round.get(round, ())
            if h in self._notarized
        ]

    def finalized_blocks(self, round: int) -> list[Block]:
        return [
            self.blocks[h]
            for h in self._blocks_by_round.get(round, ())
            if h in self._finalized
        ]

    def authenticator_of(self, h: bytes) -> Authenticator | None:
        return self._authenticators.get(h)

    def notarization_of(self, h: bytes) -> Notarization | None:
        return self._notarizations.get(h)

    def finalization_of(self, h: bytes) -> Finalization | None:
        return self._finalizations.get(h)

    def notar_share_count(self, h: bytes) -> int:
        return len(self._notar_shares.get(h, ()))

    def notar_shares(self, h: bytes) -> list[NotarizationShare]:
        return list(self._notar_shares.get(h, {}).values())

    def final_share_count(self, h: bytes) -> int:
        return len(self._final_shares.get(h, ()))

    def final_shares(self, h: bytes) -> list[FinalizationShare]:
        return list(self._final_shares.get(h, {}).values())

    def combinable_notarization(self, round: int, quorum: int) -> Block | None:
        """A valid, non-notarized round-k block with >= quorum notar shares."""
        for h in self._blocks_by_round.get(round, ()):
            if h in self._valid and h not in self._notarized:
                if len(self._notar_shares.get(h, ())) >= quorum:
                    return self.blocks[h]
        return None

    def combinable_finalization(self, round: int, quorum: int) -> Block | None:
        """A valid, non-finalized round-k block with >= quorum final shares."""
        for h in self._blocks_by_round.get(round, ()):
            if h in self._valid and h not in self._finalized:
                if len(self._final_shares.get(h, ())) >= quorum:
                    return self.blocks[h]
        return None

    def rounds_with_final_activity(self) -> list[int]:
        """Rounds above the committed floor that have a finalized block or a
        stored finalization share, ascending: what Figure 2 can act on."""
        return sorted(self._final_activity)

    def set_committed_floor(self, round: int) -> None:
        """The owning party has committed through ``round`` (its ``k_max``):
        Figure 2 never looks at or below it again."""
        if round > self._committed_floor:
            self._committed_floor = round
            self._final_activity = {r for r in self._final_activity if r > round}
            self._statements = {
                key: signed for key, signed in self._statements.items() if key[1] > round
            }

    def chain(self, h: bytes) -> list[Block]:
        """Blocks from root (exclusive) to the block with hash ``h``."""
        out: list[Block] = []
        cursor = h
        while cursor != ROOT_HASH:
            block = self.blocks.get(cursor)
            if block is None:
                raise KeyError("chain broken: missing ancestor block")
            out.append(block)
            cursor = block.parent_hash
        out.reverse()
        return out

    def chain_suffix(self, h: bytes) -> list[Block]:
        """Like :meth:`chain`, but tolerates garbage-collected ancestry:
        returns the contiguous suffix of the chain still present in the
        pool (possibly the whole chain)."""
        out: list[Block] = []
        cursor = h
        while cursor != ROOT_HASH:
            block = self.blocks.get(cursor)
            if block is None:
                break
            out.append(block)
            cursor = block.parent_hash
        out.reverse()
        return out

    # -- beacon ---------------------------------------------------------------

    def beacon_share_count(self, round: int) -> int:
        return len(self._beacon_shares.get(round, ()))

    def beacon_shares_for(self, round: int) -> list[BeaconShare]:
        return list(self._beacon_shares.get(round, {}).values())

    def set_beacon_value(self, round: int, value: bytes) -> None:
        """Record R_round and verify any buffered shares for round+1."""
        if round in self.beacon_values:
            return
        previous = self.beacon_values.get(round - 1)
        if previous is not None:
            self._statements.pop((BEACON, round, previous), None)
        self.beacon_values[round] = value
        for share in self._buffered_beacon_shares.pop(round + 1, {}).values():
            if self.beacon_share_count(round + 1) > self.t:
                self.stats.superseded += 1
            elif not self._verify_and_store_beacon_share(share, value):
                self._report_invalid(share)

    def beacon_value(self, round: int) -> bytes | None:
        return self.beacon_values.get(round)

    # -- catch-up support ---------------------------------------------------------

    def install_anchor(
        self, block: Block, auth: Authenticator, notarization: Notarization
    ) -> bool:
        """Install a block as notarized *without* requiring its ancestry.

        Used by the catch-up subprotocol when the ancestry was pruned
        network-wide: the notarization itself certifies that n-t parties
        validated the block, which is the same quorum evidence ordinary
        validation bottoms out in.  All signatures are still verified.
        Returns False (installing nothing) on any verification failure.
        """
        if block.round < 1 or not 1 <= block.proposer <= self.n:
            return False
        if not (_names(auth, block) and _names(notarization, block)):
            return False
        signed_auth = msg.authenticator_message(block.round, block.proposer, block.hash)
        if not self._keys.verify_auth(block.proposer, signed_auth, auth.signature):
            return False
        key = (NOTARY, block.round, block.proposer, block.hash)
        if not self._keys.verify_notary(self._memoized(key), notarization.aggregate):
            return False
        self._statements.pop(key, None)
        h = block.hash
        self._drop_misnamed_shares(block)
        self.blocks[h] = block
        self._blocks_by_round[block.round].add(h)
        self._children[block.parent_hash].add(h)
        self._authentic.add(h)
        self._authenticators[h] = auth
        self._valid.add(h)
        self._notarizations[h] = notarization
        self._notarized.add(h)
        self._hashes_by_round[block.round].add(h)
        for child in self._children.get(h, ()):
            self._try_validate(child)
        return True

    # -- garbage collection ------------------------------------------------------

    def prune(self, before_round: int) -> int:
        """Raise the prune floor: discard every artifact whose own round is
        < ``before_round`` and have ``add`` drop such artifacts from now on.

        Safe once the caller has committed through ``before_round``:
        predicates for live rounds never consult pruned rounds (a new block's
        parent is at its own round - 1).  Reclaiming goes by each artifact's
        own ``round``, not through its block, so shares and aggregates whose
        block never arrived go too.  The sweep visits the rounds between the
        old floor and the new one, and in each only the hashes stored under
        it.  Returns the number of blocks removed.
        """
        floor = self._prune_floor
        if before_round <= floor:
            return 0  # already swept, and add has dropped every late arrival
        self._prune_floor = before_round
        removed = 0
        for round in range(floor, before_round):
            for h in self._blocks_by_round.pop(round, ()):
                self._drop_block(h)
                removed += 1
            for h in self._hashes_by_round.pop(round, ()):
                self._drop_artifacts(h, before_round)
            for by_round in (
                self._beacon_shares, self._buffered_beacon_shares, self.beacon_values
            ):
                by_round.pop(round, None)
        self.set_committed_floor(before_round - 1)  # nothing is stored below: no activity
        if self._tracer.enabled and removed:
            self._tracer.emit(
                time=self._trace_sim.now if self._trace_sim is not None else 0.0,
                party=self._trace_party,
                protocol=self._trace_protocol,
                round=None,
                kind="pool.prune",
                payload={"before_round": before_round, "removed": removed},
            )
        return removed

    def _drop_block(self, h: bytes) -> None:
        block = self.blocks.pop(h)
        self._children.pop(h, None)
        siblings = self._children.get(block.parent_hash)
        if siblings is not None:
            siblings.discard(h)
            if not siblings:
                del self._children[block.parent_hash]
        self._valid.discard(h)
        self._notarized.discard(h)
        self._finalized.discard(h)

    def _drop_artifacts(self, h: bytes, before_round: int) -> None:
        """Discard what is stored under ``h`` and claims a round below
        ``before_round``; what claims a later round stays."""
        auth = self._authenticators.get(h)
        if auth is not None and auth.round < before_round:
            del self._authenticators[h]
            self._authentic.discard(h)
        for aggregates in (self._notarizations, self._finalizations):
            aggregate = aggregates.get(h)
            if aggregate is not None and aggregate.round < before_round:
                del aggregates[h]
        for by_block in (self._notar_shares, self._final_shares):
            shares = by_block.get(h)
            if shares is None:
                continue
            for signer in [i for i, s in shares.items() if s.round < before_round]:
                del shares[signer]
            if not shares:
                del by_block[h]

    def artifact_count(self) -> int:
        """Rough pool size (for memory-boundedness tests)."""
        return (
            len(self.blocks)
            + len(self._authenticators)
            + len(self._notarizations)
            + len(self._finalizations)
            + sum(len(v) for v in self._notar_shares.values())
            + sum(len(v) for v in self._final_shares.values())
            + sum(len(v) for v in self._beacon_shares.values())
        )


#: Each artifact type to the method that verifies and stores it.  Keyed by
#: exact type: no message class is subclassed, and one that were would be
#: refused rather than stored as its base.
_ADDERS = {
    Block: MessagePool._add_block,
    Authenticator: MessagePool._add_authenticator,
    NotarizationShare: MessagePool._add_notar_share,
    Notarization: MessagePool._add_notarization,
    FinalizationShare: MessagePool._add_final_share,
    Finalization: MessagePool._add_finalization,
    BeaconShare: MessagePool._add_beacon_share,
}
