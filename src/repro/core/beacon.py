"""Random beacon → rank permutation (Sections 2.3 and 3.3).

Each round's beacon value R_k seeds a pseudorandom permutation π of the n
parties, assigning each a unique rank 0..n-1.  The rank-0 party is the
round's leader.  Under the threshold-signature security of S_beacon, R_k is
unpredictable until t+1 parties release shares, and the permutation is
independent across rounds and of the (statically chosen) corrupt set.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random


@dataclass(frozen=True)
class RankAssignment:
    """The permutation π for one round.

    ``by_rank[r]`` is the party index (1-based) holding rank r;
    ``rank_of[party]`` inverts it.
    """

    round: int
    by_rank: tuple[int, ...]

    @property
    def leader(self) -> int:
        """The party of rank 0."""
        return self.by_rank[0]

    def rank_of(self, party: int) -> int:
        """Rank of a party (0 = leader). O(n) but n is small; cached by callers."""
        return self.by_rank.index(party)

    def party_at(self, rank: int) -> int:
        return self.by_rank[rank]


def permutation_from_beacon(round: int, beacon_value: bytes, n: int) -> RankAssignment:
    """Derive the round's rank permutation from the beacon value.

    A ``random.Random`` seeded with the beacon output performs a
    Fisher–Yates shuffle; this stands in for the hash-expander the
    production system uses and is identically distributed (uniform over
    permutations) given a uniform beacon value.
    """
    rng = Random(int.from_bytes(beacon_value, "big") ^ round)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return RankAssignment(round=round, by_rank=tuple(order))


def trace_rank_assignment(
    tracer, *, time: float, party: int, protocol: str, assignment: RankAssignment
) -> None:
    """Emit the ``beacon.permutation`` trace event for one party's view of a
    round's proposer election (see :mod:`repro.obs`).  No-op when tracing
    is disabled."""
    if not tracer.enabled:
        return
    tracer.emit(
        time=time,
        party=party,
        protocol=protocol,
        round=assignment.round,
        kind="beacon.permutation",
        payload={"leader": assignment.leader, "rank": assignment.rank_of(party)},
    )
