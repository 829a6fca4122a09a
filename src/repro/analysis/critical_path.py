"""Causal critical-path reconstruction from trace events.

Given a trace (a list of :class:`repro.obs.TraceEvent` — from a simulator
``Tracer``, a JSONL export, or the merged, clock-aligned trace
:func:`repro.obs.collect_run` writes for a live TCP cluster), rebuild the
causal chain that gates each finalized height and attribute its latency
to protocol stages:

* ``propose_wait``          — round entered -> winning block proposed
* ``notary_delay``          — proposal -> ``not_before`` of the share that
                              completed the quorum: the configured wait
                              Δntry(rank) = 2Δbnd·rank + ε of Figure 1 (c)
* ``block_transit``         — the rest of proposal -> quorum-th share cast:
                              what the network (and the host) imposed
* ``notarization_quorum``   — quorum-th share cast -> first notarization
                              assembled (``icc.round.done``)
* ``finalization_quorum``   — notarization -> first finalization combined

Stage boundaries are taken from the earliest matching event and clamped
to be monotone, so the per-height stage durations *telescope*: their sum
is exactly the finalization latency ``first(icc.finalization) -
first(icc.round.enter)`` for that height.  :func:`latency_breakdown`
reports the identity (``spans_telescope``); reports, ``repro collect
--check`` and the test-suite lean on it.  A collected live run's
processes share one host clock, so its boundaries are as exact as a
simulator's.

Baseline protocols (PBFT / HotStuff / Tendermint) commit batches rather
than notarize blocks; :func:`baseline_paths` reconstructs their simpler
two-stage path (``propose_wait`` then ``commit_quorum``) under the same
telescoping rule.

Everything here is pure post-processing: it never touches a live
simulation and works identically on in-memory events and JSONL files.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..sim.metrics import percentile

#: Stage names of an ICC critical path, in causal order.
ICC_STAGES = (
    "propose_wait",
    "notary_delay",
    "block_transit",
    "notarization_quorum",
    "finalization_quorum",
)

#: One tick: the tolerance (seconds) of the stage-sum consistency check.
TICK = 1e-9

#: ``not_before`` of a share traced without one: before everything, so the
#: monotone clamp gives ``notary_delay`` = 0.
_UNRECORDED = float("-inf")

#: Stage names of a baseline (PBFT/HotStuff/Tendermint) critical path.
BASELINE_STAGES = ("propose_wait", "commit_quorum")

_BASELINE_PROPOSE_KINDS = {
    "pbft.propose",
    "hotstuff.propose",
    "tendermint.propose",
}


@dataclass(frozen=True)
class Span:
    """One stage of a critical path: a named, half-open time interval."""

    stage: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CriticalPath:
    """The causal chain gating one finalized height."""

    protocol: str
    round: int
    block: str | None
    spans: tuple[Span, ...]

    @property
    def entered(self) -> float:
        return self.spans[0].start

    @property
    def finalized(self) -> float:
        return self.spans[-1].end

    @property
    def total(self) -> float:
        """Sum of stage durations == finalized - entered (telescoping)."""
        return sum(span.duration for span in self.spans)

    def stage(self, name: str) -> Span:
        for span in self.spans:
            if span.stage == name:
                return span
        raise KeyError(name)


def _spans_from_boundaries(names, boundaries) -> tuple[Span, ...]:
    """Clamp boundaries monotone and pair them into telescoping spans."""
    clamped = []
    previous = boundaries[0]
    for value in boundaries:
        previous = max(previous, value)
        clamped.append(previous)
    return tuple(
        Span(stage=name, start=clamped[i], end=clamped[i + 1])
        for i, name in enumerate(names)
    )


def critical_paths(events, quorum: int | None = None) -> list[CriticalPath]:
    """Reconstruct the critical path of every finalized ICC height.

    ``quorum`` is the notarization quorum ``n - t``; when None it is
    inferred as the number of distinct parties that entered rounds (the
    fault-free ``n``, i.e. ``t = 0`` is assumed).  Rounds that never
    finalized within the trace are skipped.  A trace whose shares carry
    no ``not_before`` gives ``notary_delay`` = 0 (all of the interval is
    ``block_transit``) and telescopes all the same.
    """
    entered: dict[int, float] = {}
    finalized: dict[int, tuple[float, str | None]] = {}
    notarized: dict[int, float] = {}
    proposed: dict[tuple[int, str], float] = {}
    #: (cast time, not_before) of every notarization share on a block.
    shares: dict[tuple[int, str], list[tuple[float, float]]] = defaultdict(list)
    parties: set[int] = set()
    protocols: dict[int, str] = {}

    for event in events:
        kind = event.kind
        if not kind.startswith("icc."):
            continue
        rnd = event.round
        if rnd is None:
            continue
        if kind == "icc.round.enter":
            parties.add(event.party)
            protocols.setdefault(rnd, event.protocol)
            if rnd not in entered or event.time < entered[rnd]:
                entered[rnd] = event.time
        elif kind == "icc.block.proposed" or kind == "icc.block.echoed":
            block = event.payload.get("block")
            key = (rnd, block)
            if key not in proposed or event.time < proposed[key]:
                proposed[key] = event.time
        elif kind == "icc.share.notarization":
            shares[(rnd, event.payload.get("block"))].append(
                (event.time, event.payload.get("not_before", _UNRECORDED))
            )
        elif kind == "icc.round.done":
            if rnd not in notarized or event.time < notarized[rnd]:
                notarized[rnd] = event.time
        elif kind == "icc.finalization":
            if rnd not in finalized or event.time < finalized[rnd][0]:
                finalized[rnd] = (event.time, event.payload.get("block"))

    if quorum is None:
        quorum = max(len(parties), 1)

    paths: list[CriticalPath] = []
    for rnd in sorted(finalized):
        if rnd not in entered:
            continue  # truncated trace: the round's start fell off the ring
        t_enter = entered[rnd]
        t_final, block = finalized[rnd]
        t_notarized = notarized.get(rnd, t_final)
        t_propose = proposed.get((rnd, block), t_enter)
        t_quorum, t_not_before = t_notarized, _UNRECORDED
        cast = sorted(shares.get((rnd, block), ()))
        if cast:
            # The quorum-completing share was necessarily cast before the
            # notarization it enabled was assembled.
            t_cast, t_not_before = cast[min(quorum, len(cast)) - 1]
            t_quorum = min(t_cast, t_notarized)
        spans = _spans_from_boundaries(
            ICC_STAGES,
            (
                t_enter,
                t_propose,
                # Clamped into proposal -> quorum-th share: a share is cast
                # no earlier than the instant clause (c) held it to.
                min(t_not_before, t_quorum),
                t_quorum,
                t_notarized,
                t_final,
            ),
        )
        paths.append(
            CriticalPath(
                protocol=protocols.get(rnd, "icc"),
                round=rnd,
                block=block,
                spans=spans,
            )
        )
    return paths


def baseline_paths(events) -> list[CriticalPath]:
    """Critical paths of baseline commits (PBFT/HotStuff/Tendermint).

    Two stages per height: ``propose_wait`` (previous height's first
    commit — or the first observed propose — to this height's proposal)
    and ``commit_quorum`` (proposal to first commit).
    """
    proposed: dict[int, float] = {}
    committed: dict[int, tuple[float, str | None]] = {}
    protocols: dict[int, str] = {}

    for event in events:
        rnd = event.round
        if rnd is None:
            continue
        if event.kind in _BASELINE_PROPOSE_KINDS:
            protocols.setdefault(rnd, event.protocol)
            if rnd not in proposed or event.time < proposed[rnd]:
                proposed[rnd] = event.time
        elif event.kind == "baseline.commit":
            protocols.setdefault(rnd, event.protocol)
            block = event.payload.get("batch")
            if rnd not in committed or event.time < committed[rnd][0]:
                committed[rnd] = (event.time, block)

    paths: list[CriticalPath] = []
    previous_commit: float | None = None
    for rnd in sorted(committed):
        t_commit, block = committed[rnd]
        t_propose = proposed.get(rnd, t_commit)
        t_start = previous_commit if previous_commit is not None else t_propose
        spans = _spans_from_boundaries(
            BASELINE_STAGES, (t_start, t_propose, t_commit)
        )
        paths.append(
            CriticalPath(
                protocol=protocols.get(rnd, "baseline"),
                round=rnd,
                block=block,
                spans=spans,
            )
        )
        previous_commit = t_commit
    return paths


def stage_totals(paths) -> dict[str, float]:
    """Total time attributed to each stage across all paths."""
    totals: dict[str, float] = {}
    for path in paths:
        for span in path.spans:
            totals[span.stage] = totals.get(span.stage, 0.0) + span.duration
    return totals


def stage_means(paths) -> dict[str, float]:
    """Mean per-height duration of each stage (empty dict for no paths)."""
    if not paths:
        return {}
    count = len(paths)
    return {name: total / count for name, total in stage_totals(paths).items()}


def wire_spans(events) -> dict[tuple[int, int, int], float]:
    """Matched ``net.wire.send`` → ``net.wire.recv`` spans, keyed by
    ``(src, dst, seq)``: first send to first delivery, in seconds.

    Only a live TCP trace has such events, and they must be *aligned*
    (one timeline) — on which no span is negative.
    """
    sends: dict[tuple[int, int, int], float] = {}
    spans: dict[tuple[int, int, int], float] = {}
    for event in events:
        if event.kind == "net.wire.send":
            sends[
                (event.party, int(event.payload["dst"]), int(event.payload["seq"]))
            ] = event.time
    for event in events:
        if event.kind == "net.wire.recv":
            key = (int(event.payload["src"]), event.party, int(event.payload["seq"]))
            t_send = sends.get(key)
            if t_send is not None:
                spans[key] = event.time - t_send
    return spans


def wire_transit_stats(events) -> dict:
    """Count/mean/p50/p99 of :func:`wire_spans` in seconds, ``{"spans":
    0}`` without any."""
    spans = sorted(wire_spans(events).values())
    if not spans:
        return {"spans": 0}
    return {
        "spans": len(spans),
        "mean_s": sum(spans) / len(spans),
        "p50_s": percentile(spans, 0.50),
        "p99_s": percentile(spans, 0.99),
    }


def latency_breakdown(paths, events=()) -> dict:
    """The latency breakdown of one run: per-stage means over ``paths``,
    whether every path telescopes to its measured finalization latency
    within :data:`TICK`, and the matched wire spans of ``events``."""
    worst = max(
        (abs(path.total - (path.finalized - path.entered)) for path in paths),
        default=0.0,
    )
    means = stage_means(paths)
    return {
        "heights": len(paths),
        "spans_telescope": bool(paths) and worst <= TICK,
        "max_residual_s": worst,
        "finalization_latency_mean_s": sum(means.values(), 0.0),
        "stage_means_s": means,
        "wire_transit": wire_transit_stats(events),
    }


def consistency_line(breakdown: dict) -> str:
    """The human-readable telescoping check of a :func:`latency_breakdown`."""
    if not breakdown["heights"]:
        status = "VIOLATED (no finalized heights in trace)"
    else:
        status = "OK" if breakdown["spans_telescope"] else "VIOLATED"
    return (
        "Consistency: stage sums match measured finalization latency within "
        f"{breakdown['max_residual_s']:.2e}s ({status}, tolerance 1 tick = "
        f"{TICK:.0e}s)."
    )


def format_paths(paths) -> str:
    """Render paths as an aligned text table (one row per height)."""
    if not paths:
        return "no finalized heights in trace"
    stages = [span.stage for span in paths[0].spans]
    header = ["round", "block", *stages, "total"]
    rows = [header]
    for path in paths:
        rows.append(
            [
                str(path.round),
                (path.block or "-")[:8],
                *(f"{span.duration:.4f}" for span in path.spans),
                f"{path.total:.4f}",
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
