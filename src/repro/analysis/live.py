"""Live-cluster analysis: critical paths over collected distributed traces.

The simulator's critical-path analysis (:mod:`repro.analysis.critical_path`)
runs unchanged on a *collected* live run — :func:`repro.obs.collect_run`
has already merged the per-process traces onto one aligned timeline — but
the interpretation of one stage changes: between the winning proposal and
the quorum-th notarization share there is no simulated gossip, there are
real sockets.  The live stage names make that explicit:

* ``propose_wait``          — round entered -> winning block proposed
* ``wire_transit``          — proposal -> quorum-th notarization share cast
* ``notarization_quorum``   — quorum-th share cast -> first notarization
* ``finalization_quorum``   — notarization -> first finalization combined

Because stage boundaries come from *different processes' clocks*, every
number carries the run's clock-alignment uncertainty; the report and the
consistency line annotate it.  Spans still telescope exactly (clamping
guarantees it), so the identity "stage sums == finalization latency"
remains checkable: ``live_latency_breakdown`` reports it as
``spans_telescope`` next to the uncertainty, and ``repro collect --check``
fails without it.
"""

from __future__ import annotations

import json
import pathlib

from ..obs.distributed import ClockAlignment, CollectedRun, collect_run
from .critical_path import CriticalPath, critical_paths, stage_means

#: Stage names of a live ICC critical path, in causal order.
LIVE_STAGES = (
    "propose_wait",
    "wire_transit",
    "notarization_quorum",
    "finalization_quorum",
)

#: Telescoping tolerance (seconds) — same one tick as the simulator report.
TICK = 1e-9


def live_critical_paths(events, quorum: int | None = None) -> list[CriticalPath]:
    """Critical paths of an aligned live trace, with live stage names."""
    return critical_paths(events, quorum, stages=LIVE_STAGES)


def wire_transit_stats(events) -> dict:
    """Matched ``net.wire.send``/``net.wire.recv`` span statistics.

    Expects *aligned* events (one timeline); returns count/mean/p50/p99
    of first-send to first-delivery transit in seconds.
    """
    sends: dict[tuple[int, int, int], float] = {}
    spans: list[float] = []
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
                spans.append(event.time - t_send)
    if not spans:
        return {"spans": 0}
    spans.sort()

    def pct(q: float) -> float:
        return spans[min(len(spans) - 1, int(q * len(spans)))]

    return {
        "spans": len(spans),
        "mean_s": sum(spans) / len(spans),
        "p50_s": pct(0.50),
        "p99_s": pct(0.99),
    }


def live_latency_breakdown(
    events,
    *,
    quorum: int | None = None,
    clock_uncertainty: float = 0.0,
    tick: float = TICK,
) -> dict:
    """The latency-breakdown block of a live run's summary: per-stage means
    over the collected run plus two correctness bits — spans telescope to
    measured finalization latency within ``tick`` (what ``collect --check``
    tests) and a finite clock-uncertainty bound is reported."""
    paths = live_critical_paths(events, quorum)
    residuals = [
        abs(path.total - (path.finalized - path.entered)) for path in paths
    ]
    worst = max(residuals, default=0.0)
    return {
        "heights": len(paths),
        "spans_telescope": bool(paths) and worst <= tick,
        "max_residual_s": worst,
        "clock_uncertainty_s": clock_uncertainty,
        "finalization_latency_mean_s": (
            sum(path.total for path in paths) / len(paths) if paths else 0.0
        ),
        "stage_means_s": stage_means(paths),
        "wire_transit": wire_transit_stats(events),
    }


def _run_quorum(run_dir: pathlib.Path) -> int | None:
    """The notarization quorum ``n - t`` from the run's saved config."""
    config = run_dir / "cluster.json"
    if not config.is_file():
        return None
    try:
        data = json.loads(config.read_text(encoding="utf-8"))
        return int(data["n"]) - int(data.get("t", 0))
    except (ValueError, KeyError, json.JSONDecodeError):
        return None


def load_collected(run_dir: str | pathlib.Path) -> CollectedRun:
    """Collect (or re-collect) a live run directory in memory + on disk."""
    return collect_run(run_dir, write=True)


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("| " + " | ".join("---" for _ in headers) + " |")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def consistency_line(breakdown: dict, tick: float = TICK) -> str:
    """The human-readable telescoping check, uncertainty-annotated."""
    status = "OK" if breakdown["spans_telescope"] else "VIOLATED"
    if not breakdown["heights"]:
        status = "VIOLATED (no finalized heights in trace)"
    return (
        "Consistency: stage sums match measured finalization latency within "
        f"{breakdown['max_residual_s']:.2e}s ({status}, tolerance 1 tick = "
        f"{tick:.0e}s); cross-process clock uncertainty "
        f"±{breakdown['clock_uncertainty_s']:.2e}s"
    )


def render_live_report(collected: CollectedRun, quorum: int | None = None) -> str:
    """Markdown report for one collected live run."""
    alignment: ClockAlignment = collected.alignment
    breakdown = live_latency_breakdown(
        collected.events,
        quorum=quorum,
        clock_uncertainty=alignment.max_uncertainty,
    )
    paths = live_critical_paths(collected.events, quorum)
    lines = [
        "# Live run report",
        "",
        f"Run `{collected.run_id}` (cluster `{collected.cluster_id}`): "
        f"{len(collected.parties)} parties, {len(collected.events)} aligned "
        "trace events.",
        "",
        "## Clock alignment",
        "",
        f"Reference party: {alignment.reference}; worst per-party bound "
        f"±{alignment.max_uncertainty:.2e}s.",
        "",
        _md_table(
            ["party", "offset (s)", "drift (s/s)", "uncertainty (s)"],
            [
                [
                    str(p),
                    f"{m.offset:.6e}",
                    f"{m.drift:.3e}",
                    f"{m.uncertainty:.2e}",
                ]
                for p, m in sorted(alignment.offsets.items())
            ],
        ),
        "",
        "## Critical path per finalized height",
        "",
    ]
    if paths:
        lines.append(
            _md_table(
                ["height", "block", *LIVE_STAGES, "total (s)"],
                [
                    [
                        str(path.round),
                        (path.block or "-")[:8],
                        *(f"{span.duration:.4f}" for span in path.spans),
                        f"{path.total:.4f}",
                    ]
                    for path in paths
                ],
            )
        )
    else:
        lines.append("No finalized heights in the trace.")
    lines += [
        "",
        consistency_line(breakdown),
        "",
        "## Stage means",
        "",
        _md_table(
            ["stage", "mean (s)"],
            [
                [stage, f"{breakdown['stage_means_s'].get(stage, 0.0):.4f}"]
                for stage in LIVE_STAGES
            ],
        ),
    ]
    wire = breakdown["wire_transit"]
    if wire.get("spans"):
        lines += [
            "",
            "## Wire transit",
            "",
            f"{wire['spans']} matched send/recv spans: mean "
            f"{wire['mean_s'] * 1e3:.2f} ms, p50 {wire['p50_s'] * 1e3:.2f} ms, "
            f"p99 {wire['p99_s'] * 1e3:.2f} ms (first-send to first-delivery; "
            "includes retransmit wait after reconnects).",
        ]
    lines.append("")
    return "\n".join(lines)


def collect_main(args) -> int:
    """``python -m repro collect`` — merge + align one run directory."""
    run_dir = pathlib.Path(args.run_dir)
    quorum = args.quorum if args.quorum else _run_quorum(run_dir)
    collected = load_collected(run_dir)
    breakdown = live_latency_breakdown(
        collected.events,
        quorum=quorum,
        clock_uncertainty=collected.alignment.max_uncertainty,
    )
    print(
        f"collected run {collected.run_id!r}: {len(collected.parties)} parties, "
        f"{len(collected.events)} events, {breakdown['heights']} finalized "
        "heights"
    )
    print(f"merged trace: {collected.merged_trace_path}")
    print(f"merged meter: {collected.merged_meter_path}")
    print(f"alignment:    {collected.alignment_path}")
    print(consistency_line(breakdown))
    if args.report:
        report = render_live_report(collected, quorum)
        pathlib.Path(args.report).write_text(report, encoding="utf-8")
        print(f"report:       {args.report}")
    if args.check and not (breakdown["heights"] and breakdown["spans_telescope"]):
        print("collect --check FAILED: spans do not telescope (or no heights)")
        return 1
    return 0
