"""Closed-form performance models from the paper's analysis.

These formulas are the quantitative side of Sections 1 and 3: leader
statistics under the random beacon, round/commit complexity, message
complexity, and round-duration models.  The test-suite checks the
simulator against them, which is the strongest form of reproduction this
side of the authors' testbed: measured behaviour matches the analysis the
paper argues from.
"""

from __future__ import annotations

import math


def corrupt_leader_probability(n: int, t: int) -> float:
    """P(round leader is corrupt) = t/n < 1/3 (Section 1)."""
    _check(n, t)
    return t / n


def first_honest_rank_distribution(n: int, t: int) -> list[float]:
    """P(lowest honest rank == r) for r = 0..t.

    Ranks are a uniform permutation, so the first r ranks are all corrupt
    with probability C(t, r)·r! ... equivalently the product below.
    """
    _check(n, t)
    probabilities = []
    all_corrupt_so_far = 1.0
    for r in range(t + 1):
        p_honest_here = (n - t) / (n - r)
        probabilities.append(all_corrupt_so_far * p_honest_here)
        all_corrupt_so_far *= (t - r) / (n - r)
    return probabilities


def expected_first_honest_rank(n: int, t: int) -> float:
    """E[rank of the best honest party] = t/(n-t+1) in closed form."""
    _check(n, t)
    return sum(r * p for r, p in enumerate(first_honest_rank_distribution(n, t)))


def expected_commit_gap(n: int, t: int) -> float:
    """Expected rounds between finalizations against an adversary that
    spoils every corrupt-leader round: geometric with success probability
    (n-t)/n, so the mean gap is n/(n-t) — the O(1) of Section 1."""
    _check(n, t)
    return n / (n - t)


def commit_gap_quantile(n: int, t: int, confidence: float = 0.999) -> int:
    """Smallest g with P(gap <= g) >= confidence — the O(log n) w.h.p. tail."""
    _check(n, t)
    if t == 0:
        return 1
    failure = t / n
    return max(1, math.ceil(math.log(1 - confidence) / math.log(failure)))


def synchronous_messages_per_round(n: int) -> int:
    """Messages per synchronous fault-free round (paper: O(n²)).

    Per party per round: a beacon share, a notarization share, the combined
    notarization, a finalization share, the combined finalization, and the
    echo of the leader's block (block + authenticator + parent
    notarization) — 8 broadcasts, each counting n messages.  The proposer's
    3 dissemination broadcasts replace its echo, so the total is exactly
    8·n² in steady state.
    """
    return 8 * n * n


def worst_case_messages_per_round(n: int) -> int:
    """Adversarial-schedule messages per round (paper: O(n³)).

    Decreasing-rank delivery makes each party support ~n successive best
    blocks; each support costs a notarization share plus (for non-own
    blocks) a 3-message echo — 2·n³ + Θ(n²) with this implementation's
    constants (see experiments.message_complexity).
    """
    return 2 * n**3 + 4 * n**2


def round_duration_synchronous(delta: float, epsilon: float) -> float:
    """Steady-state round time with an honest leader.

    The leader's block arrives after δ; parties notarization-share at
    max(δ, Δntry(0)=ε) — the governor only binds once ε exceeds δ — and
    the shares take another δ.  With ε ≈ 0 this is the paper's 2δ.
    """
    return max(delta, epsilon) + delta


def round_duration_with_silent_parties(
    delta: float, epsilon: float, delta_bound: float, n: int, t_silent: int
) -> float:
    """Expected round time when ``t_silent`` parties never propose.

    When the first r ranks are silent the round waits ~Δprop(r) = 2·Δbnd·r
    for the first live proposal, so the expectation adds
    2·Δbnd·E[first honest rank] — the model behind Table 1's third
    scenario.
    """
    extra = 2.0 * delta_bound * expected_first_honest_rank(n, t_silent)
    return round_duration_synchronous(delta, epsilon) + extra


def blocks_per_second(round_duration: float) -> float:
    return 1.0 / round_duration if round_duration > 0 else float("inf")


def dissemination_bottleneck(n: int, t: int, block_size: int, protocol: str, degree: int = 4) -> float:
    """Max per-node bytes per round spent on block bodies (experiment E7).

    ICC0: the proposer broadcasts the body, and every supporter echoes it
    once — (n-1)·S at each of them.  ICC1: bodies cross each overlay link
    at most once, ≈ degree·S/2 per node on average, bounded by degree·S.
    ICC2: every party relays n fragments of size S/(t+1).
    """
    protocol = protocol.upper()
    if protocol == "ICC0":
        return (n - 1) * block_size
    if protocol == "ICC1":
        return degree * block_size
    if protocol == "ICC2":
        return n / (t + 1) * block_size
    raise ValueError(f"unknown protocol {protocol!r}")


def icc0_bytes_per_party_per_round(n: int, payload_wire_bytes: int) -> int:
    """Exact per-party egress per steady-state ICC0 round (honest leader).

    Derived from the wire-size model in :mod:`repro.core.messages`: each
    party broadcasts one beacon share, one notarization share, the
    notarization, one finalization share, the finalization, and the leader
    block's dissemination triple (block + authenticator + parent
    notarization) — the proposer via clause (b), everyone else via the
    clause (c) echo.  Each broadcast costs (n-1) transmissions.

    Validated to the byte by
    ``tests/core/test_analysis.py::test_traffic_model_exact``.
    """
    from ..core import messages as m

    beacon_share = m.TAG_SIZE + m.ROUND_SIZE + m.INDEX_SIZE + m.SIG_SIZE
    share = m.TAG_SIZE + m.ROUND_SIZE + 2 * m.INDEX_SIZE + m.DIGEST_SIZE + m.SIG_SIZE
    aggregate = (
        m.TAG_SIZE + m.ROUND_SIZE + m.INDEX_SIZE + m.DIGEST_SIZE
        + m.SIG_SIZE + m.AGG_DESCRIPTOR_SIZE
    )
    authenticator = m.TAG_SIZE + m.ROUND_SIZE + m.INDEX_SIZE + m.DIGEST_SIZE + m.SIG_SIZE
    block = m.TAG_SIZE + m.ROUND_SIZE + m.INDEX_SIZE + m.DIGEST_SIZE + payload_wire_bytes
    per_broadcast = (
        beacon_share  # pipelined share for round k+1
        + share + aggregate  # notarization share + combined notarization
        + share + aggregate  # finalization share + combined finalization
        + block + authenticator + aggregate  # dissemination triple
    )
    return (n - 1) * per_broadcast


def _check(n: int, t: int) -> None:
    if n < 1 or t < 0 or (t > 0 and 3 * t >= n):
        raise ValueError(f"invalid (n={n}, t={t}): require t < n/3")
