"""Protocol parameters and the delay functions of Section 3.5.

The Tree-Building subprotocol is driven by two non-decreasing delay
functions over ranks r in [n]:

* ``Δprop(r)`` — how long a party of rank r waits before proposing;
* ``Δntry(r)`` — how long parties wait before notarization-sharing a block
  of rank r.

Liveness needs 2δ + Δprop(0) <= Δntry(1) whenever the network delay during
the round is bounded by δ.  The paper's recommended instantiation (eq. (2))
is Δprop(r) = 2·Δbnd·r and Δntry(r) = 2·Δbnd·r + ε, which
:class:`StandardDelays` implements.  It is frozen, so every party of a
cluster shares one instance; the one alternative the experiments run is
ablation A2's subclass without the proposer stagger.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Rounds of history a party's pool keeps below its committed round ``k_max``
#: unless a config says otherwise.  Figures 1–2 read only rounds above
#: ``k_max``; the window serves echoes to parties a few rounds behind and
#: state sync (``repro.core.catchup``) to those farther back.
DEFAULT_GC_DEPTH = 64


@dataclass(frozen=True)
class StandardDelays:
    """The recommended delay functions from eq. (2) of the paper.

    ``epsilon`` is the "governor": it may be zero, but a non-zero value
    keeps the protocol from running "too fast" in the sense discussed in
    Section 3.5 (it also spaces out the notarization-entry times of
    candidate blocks of successive ranks).
    """

    delta_bound: float
    epsilon: float = 0.0

    def prop(self, rank: int) -> float:
        return 2.0 * self.delta_bound * rank

    def ntry(self, rank: int) -> float:
        return 2.0 * self.delta_bound * rank + self.epsilon


@dataclass
class ProtocolParams:
    """Everything an ICC party needs to know besides its keys.

    ``n`` parties, at most ``t`` corrupt (t < n/3); quorum ``n - t`` for
    notarization/finalization and ``t + 1`` for the beacon, per Section 3.2.
    """

    n: int
    t: int
    delays: StandardDelays
    max_rounds: int | None = None  # stop participating after this round
    #: Parties prune pool artifacts of rounds below k_max - gc_depth after
    #: each commit (the garbage collection Section 3.1 leaves to
    #: implementations).  None keeps everything, for runs that study
    #: unbounded history.
    gc_depth: int | None = DEFAULT_GC_DEPTH

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one party")
        if self.t < 0 or (self.t > 0 and 3 * self.t >= self.n):
            raise ValueError(f"require t < n/3 (n={self.n}, t={self.t})")

    @property
    def notarization_quorum(self) -> int:
        return self.n - self.t

    @property
    def finalization_quorum(self) -> int:
        return self.n - self.t

    @property
    def beacon_quorum(self) -> int:
        return self.t + 1


def max_faults(n: int) -> int:
    """Largest t with 3t < n — the optimal resilience bound [4]."""
    return (n - 1) // 3
