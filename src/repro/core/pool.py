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

Every message is verified in ``add``, except that a share whose aggregate is
already held (notarization, finalization or beacon value) is dropped unverified
and counted as ``superseded``.  That is safe because a share is only ever read
to build the aggregate that already exists.  An authenticator or share must
also claim the round and proposer of the block whose hash it carries: one that
does not is dropped as invalid, in ``add`` when the block is known and when the
block arrives otherwise.

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
* the **prune floor** (:meth:`MessagePool.prune`, only with
  ``ProtocolParams.gc_depth``) is where storage ends: every artifact whose own
  ``round`` is below it is discarded, and ``add`` drops a late one unverified,
  counted as ``stale``.  It drags the committed floor along: what cannot be
  stored cannot be finalization activity.
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
    artifact: Authenticator | NotarizationShare | FinalizationShare, block: Block
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
        # Every artifact carries its round; anything else falls through to
        # the TypeError below.
        if getattr(message, "round", self._prune_floor) < self._prune_floor:
            self.stats.stale += 1
            return False
        if isinstance(message, Block):
            return self._add_block(message)
        if isinstance(message, Authenticator):
            return self._add_authenticator(message)
        if isinstance(message, NotarizationShare):
            return self._add_notar_share(message)
        if isinstance(message, Notarization):
            return self._add_notarization(message)
        if isinstance(message, FinalizationShare):
            return self._add_final_share(message)
        if isinstance(message, Finalization):
            return self._add_finalization(message)
        if isinstance(message, BeaconShare):
            return self._add_beacon_share(message)
        raise TypeError(f"pool cannot hold {type(message).__name__}")

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
        for by_block in (self._notar_shares, self._final_shares):
            shares = by_block.get(block.hash)
            if not shares:
                continue
            lying = [i for i, s in shares.items() if not _names(s, block)]
            for signer in lying:
                del shares[signer]
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
        self._try_validate(auth.block_hash)
        return True

    def _add_notar_share(self, share: NotarizationShare) -> bool:
        h = share.block_hash
        if h in self._notarizations:
            self.stats.superseded += 1
            return False
        if share.signer in self._notar_shares[h]:
            self.stats.duplicates += 1
            return False
        block = self.blocks.get(h)
        if block is not None and not _names(share, block):
            self.stats.invalid_dropped += 1
            return False
        if self._keys.share_index(share.share) != share.signer:
            self.stats.invalid_dropped += 1
            return False
        signed = msg.notarization_message(share.round, share.proposer, h)
        if not self._keys.verify_notary_share(signed, share.share):
            self.stats.invalid_dropped += 1
            return False
        self._notar_shares[h][share.signer] = share
        return True

    def _add_notarization(self, notarization: Notarization) -> bool:
        if notarization.block_hash in self._notarizations:
            self.stats.duplicates += 1
            return False
        signed = msg.notarization_message(
            notarization.round, notarization.proposer, notarization.block_hash
        )
        if not self._keys.verify_notary(signed, notarization.aggregate):
            self.stats.invalid_dropped += 1
            return False
        self._notarizations[notarization.block_hash] = notarization
        self._try_notarize(notarization.block_hash)
        return True

    def _add_final_share(self, share: FinalizationShare) -> bool:
        h = share.block_hash
        if h in self._finalizations:
            self.stats.superseded += 1
            return False
        if share.signer in self._final_shares[h]:
            self.stats.duplicates += 1
            return False
        block = self.blocks.get(h)
        if block is not None and not _names(share, block):
            self.stats.invalid_dropped += 1
            return False
        if self._keys.share_index(share.share) != share.signer:
            self.stats.invalid_dropped += 1
            return False
        signed = msg.finalization_message(share.round, share.proposer, h)
        if not self._keys.verify_final_share(signed, share.share):
            self.stats.invalid_dropped += 1
            return False
        self._final_shares[h][share.signer] = share
        if share.round > self._committed_floor:
            self._final_activity.add(share.round)
        return True

    def _add_finalization(self, finalization: Finalization) -> bool:
        if finalization.block_hash in self._finalizations:
            self.stats.duplicates += 1
            return False
        signed = msg.finalization_message(
            finalization.round, finalization.proposer, finalization.block_hash
        )
        if not self._keys.verify_final(signed, finalization.aggregate):
            self.stats.invalid_dropped += 1
            return False
        self._finalizations[finalization.block_hash] = finalization
        self._try_finalize(finalization.block_hash)
        return True

    def _add_beacon_share(self, share: BeaconShare) -> bool:
        if share.round < 1:
            self.stats.invalid_dropped += 1
            return False
        if share.round in self.beacon_values:
            self.stats.superseded += 1
            return False
        buffered = self._buffered_beacon_shares.get(share.round, ())
        if share.signer in self._beacon_shares[share.round] or share.signer in buffered:
            self.stats.duplicates += 1
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
        signed = msg.beacon_message(share.round, previous)
        if not self._keys.verify_beacon_share(signed, share.share):
            self.stats.invalid_dropped += 1
            return False
        self._beacon_shares[share.round][share.signer] = share
        return True

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
        self.beacon_values[round] = value
        for share in self._buffered_beacon_shares.pop(round + 1, {}).values():
            if not self._verify_and_store_beacon_share(share, value):
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
        if not _names(auth, block) or notarization.block_hash != block.hash:
            return False
        signed_auth = msg.authenticator_message(block.round, block.proposer, block.hash)
        if not self._keys.verify_auth(block.proposer, signed_auth, auth.signature):
            return False
        signed_notz = msg.notarization_message(block.round, block.proposer, block.hash)
        if not self._keys.verify_notary(signed_notz, notarization.aggregate):
            return False
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
        block never arrived, or left in an earlier sweep, go too.  Returns the
        number of blocks removed.
        """
        if before_round <= self._prune_floor:
            return 0  # already swept, and add has dropped every late arrival
        self._prune_floor = before_round
        doomed = [
            h
            for round in [r for r in self._blocks_by_round if r < before_round]
            for h in self._blocks_by_round.pop(round)
        ]
        for h in doomed:
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
        for h in [h for h, a in self._authenticators.items() if a.round < before_round]:
            del self._authenticators[h]
            self._authentic.discard(h)
        for aggregates in (self._notarizations, self._finalizations):
            for h in [h for h, a in aggregates.items() if a.round < before_round]:
                del aggregates[h]
        for by_block in (self._notar_shares, self._final_shares):
            for h, shares in list(by_block.items()):
                for signer in [i for i, s in shares.items() if s.round < before_round]:
                    del shares[signer]
                if not shares:
                    del by_block[h]
        for by_round in (self._beacon_shares, self._buffered_beacon_shares):
            for round in [r for r in by_round if r < before_round]:
                del by_round[round]
        self.set_committed_floor(before_round - 1)  # nothing is stored below: no activity
        if self._tracer.enabled and doomed:
            self._tracer.emit(
                time=self._trace_sim.now if self._trace_sim is not None else 0.0,
                party=self._trace_party,
                protocol=self._trace_protocol,
                round=None,
                kind="pool.prune",
                payload={"before_round": before_round, "removed": len(doomed)},
            )
        return len(doomed)

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
