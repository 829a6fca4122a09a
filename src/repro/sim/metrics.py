"""Measurement plumbing: traffic, message counts, commit log.

Everything the paper's evaluation reports is derived from three streams:

* per-party sent bytes / sent messages (Table 1's "sent traffic" column,
  and the message-complexity experiments E3),
* the commit log of finalized blocks (block rate, latency), and
* free-form named counters protocol code can bump (notarizations combined,
  blocks proposed, rounds with multiple proposals, ...).

The paper counts a broadcast by one party as ``n`` messages ("one party
broadcasting a message contributes a term of n to the message complexity",
Section 1); :meth:`Metrics.on_broadcast` follows that convention, while
bytes are charged for the n-1 actual transmissions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of raw samples: element
    ``int(q·len)`` of the sorted values (the upper middle for an even
    count at q = 0.5), ``nan`` when there are none.  The one convention
    every reported p50/p90/p99 in this repository uses."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass(frozen=True)
class CommitRecord:
    """One finalized block as observed by one party."""

    time: float
    observer: int
    round: int
    proposer: int
    payload_bytes: int
    proposed_at: float  # simulation time the block was proposed (-1 unknown)


@dataclass
class Metrics:
    """Collects everything the experiment harness reports on."""

    n: int
    bytes_sent: Counter = field(default_factory=Counter)  # party -> bytes
    msgs_sent: Counter = field(default_factory=Counter)  # party -> count
    bytes_by_kind: Counter = field(default_factory=Counter)  # msg kind -> bytes
    msgs_by_kind: Counter = field(default_factory=Counter)
    msgs_by_round: Counter = field(default_factory=Counter)  # round -> count
    counters: Counter = field(default_factory=Counter)
    commits: list[CommitRecord] = field(default_factory=list)
    round_entry: dict[tuple[int, int], float] = field(default_factory=dict)
    proposed_at: dict[bytes, float] = field(default_factory=dict)

    # -- recording -----------------------------------------------------------

    def on_broadcast(self, sender: int, size: int, kind: str, round: int | None = None) -> None:
        """One party broadcast a message of ``size`` bytes to everyone.

        Two deliberately different conventions, per the module docstring:

        * **messages** — the broadcast counts as ``n`` messages (one per
          party, the sender's free self-delivery included), matching the
          paper's message-complexity accounting ("one party broadcasting a
          message contributes a term of n", Section 1);
        * **bytes** — only the ``n - 1`` copies that actually cross the
          wire are charged, so ``bytes_sent`` models real per-node egress
          (Table 1's traffic column) rather than the n-fold count.

        Both conventions are pinned by ``tests/sim/test_metrics.py``.
        """
        self.msgs_sent[sender] += self.n
        self.bytes_sent[sender] += size * (self.n - 1)
        self.msgs_by_kind[kind] += self.n
        self.bytes_by_kind[kind] += size * (self.n - 1)
        if round is not None:
            self.msgs_by_round[round] += self.n

    def on_send(self, sender: int, size: int, kind: str, round: int | None = None) -> None:
        """Point-to-point send (gossip / ICC2 fragments)."""
        self.msgs_sent[sender] += 1
        self.bytes_sent[sender] += size
        self.msgs_by_kind[kind] += 1
        self.bytes_by_kind[kind] += size
        if round is not None:
            self.msgs_by_round[round] += 1

    def count(self, name: str, inc: int = 1) -> None:
        self.counters[name] += inc

    def on_commit(
        self,
        time: float,
        observer: int,
        round: int,
        proposer: int,
        payload_bytes: int,
        proposed_at: float = -1.0,
    ) -> None:
        self.commits.append(
            CommitRecord(
                time=time,
                observer=observer,
                round=round,
                proposer=proposer,
                payload_bytes=payload_bytes,
                proposed_at=proposed_at,
            )
        )

    def on_round_entry(self, party: int, round: int, time: float) -> None:
        """First entry of ``party`` into ``round`` (for round-duration stats)."""
        self.round_entry.setdefault((party, round), time)

    # -- reporting -----------------------------------------------------------

    def commits_of(self, observer: int) -> list[CommitRecord]:
        return [c for c in self.commits if c.observer == observer]

    def blocks_per_second(self, observer: int, horizon: float) -> float:
        """Finalized blocks per second as seen by one party."""
        if horizon <= 0:
            return 0.0
        return len(self.commits_of(observer)) / horizon

    def mean_sent_bits_per_second(self, horizon: float) -> float:
        """Average per-node egress in bits/s over the run (Table 1 metric)."""
        if horizon <= 0 or self.n == 0:
            return 0.0
        total_bytes = sum(self.bytes_sent.values())
        return total_bytes * 8.0 / self.n / horizon

    def max_sent_bits_per_second(self, horizon: float) -> float:
        """Worst per-node egress — the 'bottleneck' measure of [35]."""
        if horizon <= 0 or not self.bytes_sent:
            return 0.0
        return max(self.bytes_sent.values()) * 8.0 / horizon

    def commit_latencies(self) -> list[float]:
        """Propose→commit latency samples (only records with known propose time)."""
        return [c.time - c.proposed_at for c in self.commits if c.proposed_at >= 0.0]

    def round_durations(self, party: int) -> dict[int, float]:
        """Duration of each completed round for one party."""
        entries = {
            rnd: time for (p, rnd), time in self.round_entry.items() if p == party
        }
        durations = {}
        for rnd, start in entries.items():
            nxt = entries.get(rnd + 1)
            if nxt is not None:
                durations[rnd] = nxt - start
        return durations

    def messages_in_round(self, round: int) -> int:
        return self.msgs_by_round[round]

    def summary(self, horizon: float) -> dict:
        """A compact dict used by the experiment harness printers."""
        finalized_rounds = {c.round for c in self.commits}
        return {
            "n": self.n,
            "horizon_s": horizon,
            "finalized_rounds": len(finalized_rounds),
            "total_commits_observed": len(self.commits),
            "mean_node_egress_mbps": self.mean_sent_bits_per_second(horizon) / 1e6,
            "max_node_egress_mbps": self.max_sent_bits_per_second(horizon) / 1e6,
            "total_messages": sum(self.msgs_sent.values()),
            "counters": dict(self.counters),
        }
