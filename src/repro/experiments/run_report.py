"""Per-run evaluation reports: ``python -m repro report``.

Runs a small suite of seeded ICC simulations through the parallel runner
(:mod:`repro.experiments.runner`) with tracing and metering on, then
renders one self-contained Markdown (or HTML) report combining:

* per-height **critical paths** (:mod:`repro.analysis.critical_path`)
  with the telescoping consistency check — stage durations must sum to
  the measured finalization latency for every height;
* **message complexity vs theory** — measured messages per round against
  the paper's ``8n^2`` synchronous-case and ``2n^3 + 4n^2`` worst-case
  bounds (:mod:`repro.analysis.theory`);
* the merged **metric snapshot** (:mod:`repro.obs.metrics`) aggregated
  across all runs — counters, gauges and histogram tables;
* **trace health** — events captured and ring-buffer drops per run.

The trace files and the merged ``metrics.json`` are left in
``--trace-dir`` (a temporary directory otherwise), and a previously
written directory can be re-rendered without simulating via ``--load``.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile

from ..analysis import theory
from ..analysis.critical_path import critical_paths, stage_means
from ..analysis.trace import message_counts, summarize
from ..obs import Meter, merge_meters, read_jsonl
from . import runner
from .common import mean

#: One simulated-time tick: the tolerance used by the stage-sum
#: consistency check (the acceptance bar is "±1 tick").
TICK = 1e-9

_QUICK = dict(protocol="icc1", n=4, t=1, delta=0.05, rounds=5)
_DEFAULT = dict(protocol="icc1", n=4, t=1, delta=0.05, rounds=8)


# ------------------------------------------------------------------ executor


def run_traced(
    protocol: str = "icc1",
    n: int = 4,
    t: int = 1,
    delta: float = 0.05,
    rounds: int = 8,
    seed: int = 0,
) -> dict:
    """Run one metered ICC simulation; returns a picklable result row.

    Registered in :data:`repro.experiments.runner.EXECUTORS` as
    ``report.run_traced`` so reports fan across cores and trace files get
    deterministic spec-index names.
    """
    from ..sim.delays import UniformDelay
    from .common import make_icc_config, run_icc

    meter = Meter()
    config = make_icc_config(
        protocol,
        n=n,
        t=t,
        delta_bound=delta * 6,
        delay_model=UniformDelay(delta * 0.4, delta),
        epsilon=delta / 5,
        seed=seed,
        max_rounds=rounds + 2,
    )
    config.meter = meter
    cluster = run_icc(config, duration=rounds * delta * 8)
    latencies = cluster.metrics.commit_latencies()
    return {
        "protocol": protocol,
        "n": n,
        "t": t,
        "delta": delta,
        "seed": seed,
        "rounds_committed": cluster.min_committed_round(),
        "commit_latency_mean": mean(latencies) if latencies else None,
        "messages_sent": sum(cluster.metrics.msgs_sent.values()),
        "meter": meter.to_dict(),
    }


def specs(protocol: str, n: int, t: int, delta: float, rounds: int, seeds) -> list:
    return [
        runner.spec(
            "report",
            "report.run_traced",
            protocol=protocol,
            n=n,
            t=t,
            delta=delta,
            rounds=rounds,
            seed=seed,
        )
        for seed in seeds
    ]


# ----------------------------------------------------------------- markdown


def _md_table(headers, rows) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _critical_path_section(traces, quorum: int) -> list[str]:
    lines = ["## Critical paths", ""]
    all_paths = []
    for label, events in traces:
        paths = critical_paths(events, quorum=quorum)
        all_paths.append((label, paths))
    if not any(paths for _, paths in all_paths):
        lines.append("No finalized heights found in the traces.")
        return lines

    label, paths = next((lp for lp in all_paths if lp[1]), all_paths[0])
    stages = [span.stage for span in paths[0].spans]
    lines.append(f"Per-height breakdown for `{label}` (seconds):")
    lines.append("")
    rows = []
    worst_residual = 0.0
    for path in paths:
        measured = path.finalized - path.entered
        worst_residual = max(worst_residual, abs(path.total - measured))
        rows.append(
            [
                path.round,
                f"`{(path.block or '-')[:8]}`",
                *(_fmt(span.duration) for span in path.spans),
                _fmt(path.total),
                _fmt(measured),
            ]
        )
    lines += _md_table(
        ["height", "block", *stages, "stage sum", "measured"], rows
    )
    lines.append("")
    ok = worst_residual <= TICK
    lines.append(
        f"Consistency: stage sums match measured finalization latency "
        f"within {worst_residual:.2e}s "
        f"({'OK' if ok else 'VIOLATED'}, tolerance 1 tick = {TICK:.0e}s)."
    )

    lines += ["", "Mean per-height stage latency across all runs (seconds):", ""]
    per_run_means = [
        (label, stage_means(paths)) for label, paths in all_paths if paths
    ]
    rows = [
        [label, *(_fmt(means.get(stage)) for stage in stages)]
        for label, means in per_run_means
    ]
    lines += _md_table(["run", *stages], rows)
    return lines


def _theory_section(traces, n: int) -> list[str]:
    lines = ["## Message complexity vs theory", ""]
    sync_bound = theory.synchronous_messages_per_round(n)
    worst_bound = theory.worst_case_messages_per_round(n)
    lines.append(
        f"Paper bounds for n={n}: synchronous fault-free `8n^2` = "
        f"{sync_bound}, worst case `2n^3 + 4n^2` = {worst_bound} "
        "messages per round (Section 1)."
    )
    lines.append("")
    rows = []
    for label, events in traces:
        counts = message_counts(events)
        per_round = {
            rnd: count
            for rnd, count in counts.items()
            if rnd is not None and rnd > 0
        }
        source = "transport"
        if not per_round:
            # Gossip transports wrap artifacts, so net.* events carry no
            # round context (and overlay duplication inflates raw counts).
            # Per-artifact gossip.deliver events match the bounds' message
            # = delivery convention and do carry the round.
            source = "gossip deliveries"
            deliveries: dict[int, int] = {}
            for event in events:
                if event.kind == "gossip.deliver" and event.round:
                    deliveries[event.round] = deliveries.get(event.round, 0) + 1
            per_round = deliveries
        if not per_round:
            continue
        mean_msgs = mean(list(per_round.values()))
        peak = max(per_round.values())
        rows.append(
            [
                label,
                source,
                len(per_round),
                _fmt(mean_msgs, 1),
                peak,
                _fmt(mean_msgs / sync_bound, 2),
                "yes" if peak <= worst_bound else "**no**",
            ]
        )
    lines += _md_table(
        ["run", "counting", "rounds", "msgs/round", "peak", "vs 8n^2",
         "<= worst case"],
        rows,
    )
    return lines


def _metrics_section(meter: Meter | None) -> list[str]:
    lines = ["## Metrics", ""]
    if meter is None or not meter.names():
        lines.append("No metric snapshot available (trace-dir had no metrics.json).")
        return lines
    snapshot = meter.to_dict()
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        lines += ["Counters (summed across runs):", ""]
        lines += _md_table(
            ["metric", "value"],
            [[f"`{k}`", v] for k, v in sorted(counters.items())],
        )
        lines.append("")
    if gauges:
        lines += ["Gauges (max across runs):", ""]
        lines += _md_table(
            ["metric", "value"],
            [[f"`{k}`", _fmt(v)] for k, v in sorted(gauges.items())],
        )
        lines.append("")
    for name in sorted(histograms):
        hist = meter.histogram(name)
        if hist.count == 0:
            continue
        lines += [f"Histogram `{name}` (count={hist.count}, "
                  f"mean={_fmt(hist.mean)}, min={_fmt(hist.min)}, "
                  f"max={_fmt(hist.max)}):", ""]
        rows = []
        for i, bound in enumerate(hist.bounds):
            if hist.counts[i]:
                rows.append([f"<= {bound:g}", hist.counts[i]])
        if hist.counts[-1]:
            rows.append([f"> {hist.bounds[-1]:g}", hist.counts[-1]])
        lines += _md_table(["bucket", "count"], rows)
        lines.append("")
    return lines


def _health_section(traces) -> list[str]:
    lines = ["## Trace health", ""]
    rows = []
    for label, events in traces:
        summary = summarize(events)
        rows.append(
            [
                label,
                summary.events,
                summary.rounds_entered,
                summary.blocks_committed,
                summary.dropped if summary.dropped else 0,
            ]
        )
    lines += _md_table(
        ["run", "events", "rounds", "committed", "dropped"], rows
    )
    total_dropped = sum(row[4] for row in rows)
    lines.append("")
    if total_dropped:
        lines.append(
            f"**Warning:** {total_dropped} events were dropped by ring "
            "buffers; raise Tracer capacity for complete causal graphs."
        )
    else:
        lines.append("No ring-buffer drops: the causal graphs are complete.")
    return lines


def generate(traces, meter, params, results=None) -> str:
    """Render the full Markdown report from loaded traces and metrics."""
    n, t = params["n"], params["t"]
    lines = [
        "# Run report",
        "",
        "Generated by `python -m repro report` (Internet Computer "
        "Consensus reproduction).",
        "",
        "## Configuration",
        "",
    ]
    lines += _md_table(
        ["parameter", "value"],
        [[k, v] for k, v in params.items()],
    )
    if results:
        lines += ["", "## Runs", ""]
        lines += _md_table(
            ["seed", "rounds committed", "mean commit latency (s)", "messages"],
            [
                [
                    r["seed"],
                    r["rounds_committed"],
                    _fmt(r["commit_latency_mean"]),
                    r["messages_sent"],
                ]
                for r in results
            ],
        )
    lines.append("")
    lines += _critical_path_section(traces, quorum=n - t)
    lines.append("")
    lines += _theory_section(traces, n)
    lines.append("")
    lines += _metrics_section(meter)
    lines.append("")
    lines += _health_section(traces)
    lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------------- html


def to_html(markdown: str, title: str = "Run report") -> str:
    """Minimal, dependency-free Markdown -> self-contained HTML page."""
    import html as _html

    body: list[str] = []
    table: list[str] = []

    def flush_table() -> None:
        if not table:
            return
        rows = [
            [c.strip() for c in line.strip().strip("|").split("|")]
            for line in table
            if not set(line.replace("|", "").strip()) <= {"-", " "}
        ]
        body.append("<table>")
        for i, row in enumerate(rows):
            tag = "th" if i == 0 else "td"
            cells = "".join(
                f"<{tag}>{_inline(_html.escape(c))}</{tag}>" for c in row
            )
            body.append(f"<tr>{cells}</tr>")
        body.append("</table>")
        table.clear()

    def _inline(text: str) -> str:
        out, open_code, open_bold = [], False, False
        i = 0
        while i < len(text):
            if text[i] == "`":
                out.append("</code>" if open_code else "<code>")
                open_code = not open_code
                i += 1
            elif text.startswith("**", i):
                out.append("</b>" if open_bold else "<b>")
                open_bold = not open_bold
                i += 2
            else:
                out.append(text[i])
                i += 1
        return "".join(out)

    for line in markdown.splitlines():
        if line.startswith("|"):
            table.append(line)
            continue
        flush_table()
        if line.startswith("#"):
            level = len(line) - len(line.lstrip("#"))
            text = _inline(_html.escape(line[level:].strip()))
            body.append(f"<h{level}>{text}</h{level}>")
        elif line.strip():
            body.append(f"<p>{_inline(_html.escape(line))}</p>")
    flush_table()
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_html.escape(title)}</title>"
        "<style>body{font-family:sans-serif;max-width:60em;margin:2em auto;}"
        "table{border-collapse:collapse;}td,th{border:1px solid #999;"
        "padding:0.25em 0.6em;text-align:right;}th{background:#eee;}"
        "code{background:#f4f4f4;padding:0 0.2em;}</style></head><body>"
        + "\n".join(body)
        + "</body></html>"
    )


# ---------------------------------------------------------------------- main


def _load_traces(trace_dir: str) -> list[tuple[str, list]]:
    names = sorted(
        f
        for f in os.listdir(trace_dir)
        if f.endswith(".jsonl") and f != "runner.jsonl"
    )
    return [
        (name[: -len(".jsonl")], read_jsonl(os.path.join(trace_dir, name)))
        for name in names
    ]


def _load_meter(trace_dir: str) -> Meter | None:
    path = os.path.join(trace_dir, "metrics.json")
    if not os.path.exists(path):
        return None
    return Meter.read_json(path)


def build_live_report(args) -> str:
    """``--live``: render the latency breakdown of a collected live run.

    The run directory (``--trace-dir``) is one ``repro live --trace-dir``
    run; if ``repro collect`` has not been run on it yet, collection
    happens here (alignment + merge are idempotent).
    """
    import pathlib

    from ..analysis.live import _run_quorum, load_collected, render_live_report

    if args.trace_dir is None:
        raise SystemExit("--live requires --trace-dir (the live run directory)")
    collected = load_collected(args.trace_dir)
    quorum = _run_quorum(pathlib.Path(args.trace_dir))
    return render_live_report(collected, quorum=quorum)


def build_report(args) -> str:
    """Run (or load) the suite and return the rendered Markdown."""
    base = dict(_QUICK) if args.quick else dict(_DEFAULT)
    if args.protocol is not None:
        base["protocol"] = args.protocol
    if args.n is not None:
        base["n"] = args.n
        base["t"] = (args.n - 1) // 3
    if args.t is not None:
        base["t"] = args.t
    if args.delta is not None:
        base["delta"] = args.delta
    if args.rounds is not None:
        base["rounds"] = args.rounds
    runs = 1 if args.quick else args.runs

    if args.load:
        if args.trace_dir is None:
            raise SystemExit("--load requires --trace-dir")
        traces = _load_traces(args.trace_dir)
        if not traces:
            raise SystemExit(f"no trace files in {args.trace_dir}")
        meter = _load_meter(args.trace_dir)
        params = {**base, "runs": len(traces), "source": args.trace_dir}
        return generate(traces, meter, params)

    tmp = None
    trace_dir = args.trace_dir
    if trace_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-report-")
        trace_dir = tmp.name
    try:
        suite = specs(
            base["protocol"],
            base["n"],
            base["t"],
            base["delta"],
            base["rounds"],
            seeds=range(args.seed, args.seed + runs),
        )
        results = runner.execute(suite, jobs=args.jobs, trace_dir=trace_dir)
        meter = merge_meters(Meter.from_dict(r["meter"]) for r in results)
        meter.write_json(os.path.join(trace_dir, "metrics.json"))
        with open(os.path.join(trace_dir, "results.json"), "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        traces = _load_traces(trace_dir)
        params = {
            **base,
            "runs": runs,
            "base seed": args.seed,
            "jobs": args.jobs or runner.default_jobs(),
        }
        return generate(traces, meter, params, results=results)
    finally:
        if tmp is not None:
            tmp.cleanup()


def add_arguments(parser) -> None:
    """The ``python -m repro report`` flags, declared once
    (``repro.__main__`` hands its subparser here)."""
    parser.add_argument("output", nargs="?", default="REPORT.md")
    parser.add_argument("--quick", action="store_true",
                        help="tiny single-run ICC1 report (CI smoke)")
    parser.add_argument("--protocol", choices=["icc0", "icc1", "icc2"],
                        default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--t", type=int, default=None)
    parser.add_argument("--delta", type=float, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--runs", type=int, default=3,
                        help="number of seeded runs to aggregate")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="runner worker processes")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="keep traces + metrics.json here (temp dir "
                             "otherwise)")
    parser.add_argument("--load", action="store_true",
                        help="render from an existing --trace-dir, no runs")
    parser.add_argument("--html", action="store_true",
                        help="write a self-contained HTML page instead")
    parser.add_argument("--live", action="store_true",
                        help="render the live-cluster latency breakdown from "
                             "a collected run directory (--trace-dir) "
                             "instead of simulating")


def run(args) -> int:
    markdown = build_live_report(args) if args.live else build_report(args)
    content = to_html(markdown) if args.html else markdown
    with open(args.output, "w") as fh:
        fh.write(content)
    print(f"wrote {args.output}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="per-run metrics / critical-path report",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
