"""Erasure-coded reliable broadcast — the subprotocol behind ICC2.

The paper (Section 1.1): "Protocol ICC2 relies on a subprotocol for
reliable broadcast that uses erasure codes to reduce both the overall
communication complexity and the communication bottleneck at the leader
... We propose a new erasure-coded reliable broadcast subprotocol with
better latency than that in [11] (Cachin–Tessaro), and with stronger
properties that we exploit in its integration with Protocol ICC2."

The protocol implemented here:

1. **Disperse** — the dealer Reed–Solomon-encodes the message into n
   fragments (reconstruction threshold k = t+1), commits to them with a
   Merkle root, and sends fragment *i* (with its inclusion proof) to party
   *i*.
2. **Echo** — on first receiving its own fragment (from the dealer or a
   fill), a party broadcasts that fragment to everyone.
3. **Reconstruct** — any k proof-valid fragments reconstruct the message.
   The reconstructor *re-encodes* and recomputes the Merkle root; a
   mismatch proves the dealer encoded inconsistently, and the instance is
   abandoned (no honest party ever delivers an inconsistent dealer's
   message — consistency).
4. **Fill** — a party that reconstructs sends every party whose fragment
   it has not seen that party's fragment.  This gives *totality*: if one
   honest party delivers, every honest party eventually receives its own
   fragment, echoes, and reconstructs.

Good-case latency is 2δ (disperse + echo) — one δ better than
Cachin–Tessaro's 3-message-round AVID — which is where ICC2's 3δ
reciprocal throughput / 4δ latency come from.  Per-party traffic is
n·S/k + O(n·λ·log n) = O(S) for S = Ω(n·λ·log n), the bound claimed in
Section 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..crypto.hashing import DIGEST_SIZE
from ..erasure.merkle import MerkleProof, MerkleTree, verify_inclusion
from ..sim.network import Network


@dataclass(frozen=True)
class Fragment:
    """One coded shard plus its Merkle inclusion proof."""

    index: int  # 0-based shard index == party index - 1
    data: bytes
    proof: MerkleProof

    def wire_size(self) -> int:
        return 4 + len(self.data) + self.proof.wire_size()


@dataclass(frozen=True)
class RbcMessage:
    """A fragment in flight, in one of the three phases."""

    dealer: int
    root: bytes
    data_length: int
    phase: str  # "send" | "echo" | "fill"
    fragment: Fragment = field(compare=False)

    @property
    def kind(self) -> str:
        return f"rbc-{self.phase}"

    def wire_size(self) -> int:
        return 4 + DIGEST_SIZE + 8 + 1 + self.fragment.wire_size()


class _Instance:
    """Per-(dealer, root) reconstruction state."""

    __slots__ = (
        "data_length",
        "fragments",
        "echoed",
        "delivered",
        "bad",
        "recoded",
        "fill_pending",
    )

    def __init__(self, data_length: int) -> None:
        self.data_length = data_length
        self.fragments: dict[int, Fragment] = {}
        self.echoed = False
        self.delivered = False
        self.bad = False
        self.recoded: list[bytes] | None = None
        self.fill_pending = False


class RbcEndpoint:
    """One party's endpoint of the reliable broadcast subprotocol."""

    def __init__(
        self,
        index: int,
        n: int,
        t: int,
        network: Network,
        deliver: Callable[[int, bytes, bytes], None],
        fill_delay: float = 0.1,
    ) -> None:
        """``deliver(dealer, root, data)`` fires exactly once per instance.

        ``fill_delay`` is a grace period before the fill phase: echoes
        already in flight usually make fills unnecessary, so waiting a
        moment avoids redundant fragment transmissions (fills still happen,
        guaranteeing totality, whenever a party's fragment stays missing).
        """
        self.index = index
        self.n = n
        self.t = t
        self.k = t + 1
        self.network = network
        self.deliver = deliver
        self.fill_delay = fill_delay
        # Reed–Solomon (numpy) loads with the first endpoint, not with this
        # module, which the wire codec and the cluster builder import for
        # every protocol.
        from ..erasure.reed_solomon import CodecParams

        self.params = CodecParams(k=self.k, m=n)
        self._instances: dict[tuple[int, bytes], _Instance] = {}

    # -- dealer side -------------------------------------------------------------

    def disperse(self, data: bytes) -> bytes:
        """Disperse ``data`` as dealer; returns the Merkle root."""
        from ..erasure.reed_solomon import encode

        shards = encode(data, self.params)
        tree = MerkleTree(shards)
        root = tree.root
        fragments = [
            Fragment(index=i, data=shards[i], proof=tree.proof(i))
            for i in range(self.n)
        ]
        instance = self._instances.setdefault(
            (self.index, root), _Instance(len(data))
        )
        if instance.delivered:
            return root  # already dispersed this exact message
        for fragment in fragments:
            instance.fragments[fragment.index] = fragment
        # Send each party its fragment...
        for party in range(1, self.n + 1):
            if party == self.index:
                continue
            self.network.send(
                self.index,
                party,
                RbcMessage(
                    dealer=self.index,
                    root=root,
                    data_length=len(data),
                    phase="send",
                    fragment=fragments[party - 1],
                ),
            )
        # ...echo our own so n-1 honest echoes + ours cover reconstruction.
        instance.echoed = True
        self.network.broadcast(
            self.index,
            RbcMessage(
                dealer=self.index,
                root=root,
                data_length=len(data),
                phase="echo",
                fragment=fragments[self.index - 1],
            ),
        )
        instance.delivered = True  # the dealer trivially has the message
        self.deliver(self.index, root, data)
        return root

    # -- receiver side ---------------------------------------------------------------

    def on_message(self, message: object) -> bool:
        """Process an RBC wire message; returns False if not one."""
        if not isinstance(message, RbcMessage):
            return False
        fragment = message.fragment
        if not 0 <= fragment.index < self.n:
            return True
        if fragment.proof.leaf_index != fragment.index:
            return True
        if not verify_inclusion(message.root, fragment.data, fragment.proof):
            return True  # forged or corrupted fragment; drop
        key = (message.dealer, message.root)
        instance = self._instances.setdefault(key, _Instance(message.data_length))
        if instance.bad:
            return True
        if fragment.index not in instance.fragments:
            instance.fragments[fragment.index] = fragment
        # Echo rule: first sight of *our own* fragment.
        if fragment.index == self.index - 1 and not instance.echoed:
            instance.echoed = True
            self.network.broadcast(
                self.index,
                RbcMessage(
                    dealer=message.dealer,
                    root=message.root,
                    data_length=message.data_length,
                    phase="echo",
                    fragment=fragment,
                ),
            )
        self._try_reconstruct(message.dealer, message.root, instance)
        return True

    def _try_reconstruct(self, dealer: int, root: bytes, instance: _Instance) -> None:
        if instance.delivered or instance.bad:
            return
        if len(instance.fragments) < self.k:
            return
        from ..erasure.reed_solomon import DecodeError, decode, encode

        shards = {f.index: f.data for f in instance.fragments.values()}
        try:
            data = decode(shards, self.params, instance.data_length)
        except DecodeError:
            instance.bad = True
            return
        # Consistency check: re-encode and confirm the commitment matches.
        recoded = encode(data, self.params)
        tree = MerkleTree(recoded)
        if tree.root != root:
            instance.bad = True  # dealer committed to an inconsistent encoding
            return
        # Totality: hand every lagging party its fragment (after a grace
        # period, since in-flight echoes usually make this unnecessary).
        instance.recoded = recoded
        if not instance.fill_pending:
            instance.fill_pending = True
            self.network.sim.schedule(
                self.fill_delay, lambda: self._do_fill(dealer, root, instance, tree)
            )
        if not instance.echoed:
            instance.echoed = True
            own = Fragment(
                index=self.index - 1,
                data=recoded[self.index - 1],
                proof=tree.proof(self.index - 1),
            )
            self.network.broadcast(
                self.index,
                RbcMessage(
                    dealer=dealer,
                    root=root,
                    data_length=instance.data_length,
                    phase="echo",
                    fragment=own,
                ),
            )
        instance.delivered = True
        self.deliver(dealer, root, data)

    def _do_fill(self, dealer: int, root: bytes, instance: _Instance, tree) -> None:
        """Deferred fill: serve fragments still unseen after the grace period."""
        if instance.bad or instance.recoded is None:
            return
        for party in range(1, self.n + 1):
            idx = party - 1
            if party == self.index or idx in instance.fragments:
                continue
            self.network.send(
                self.index,
                party,
                RbcMessage(
                    dealer=dealer,
                    root=root,
                    data_length=instance.data_length,
                    phase="fill",
                    fragment=Fragment(
                        index=idx, data=instance.recoded[idx], proof=tree.proof(idx)
                    ),
                ),
            )
