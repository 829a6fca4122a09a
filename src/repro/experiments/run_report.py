"""Per-run evaluation reports: ``python -m repro report``.

Runs a small suite of seeded ICC simulations through the parallel runner
(:mod:`repro.experiments.runner`) with tracing on, leaves the traces and
the per-run ``results.json`` in ``--trace-dir`` (a temporary directory
otherwise), and renders that directory (:func:`load_run`,
:func:`generate`) as one self-contained Markdown (or HTML) report.
``--load`` renders a directory written earlier, which may equally be one
live TCP run (``repro live --trace-dir``, collected here if need be), or
one JSONL trace export.  This is the one command that reads a trace, and
:func:`analyse` the one place a run's critical paths and latency
breakdown are computed (``repro live`` prints its breakdown through it
too).  ``--check`` then fails the command unless every run finalized a
height, its stage spans telescope and no wire span was received before
it was sent (:func:`check`).  Sections:

* per-height **critical paths** (:mod:`repro.analysis.critical_path`)
  with the telescoping consistency check — stage durations must sum to
  the measured finalization latency for every height;
* **message complexity vs theory** — measured messages per round against
  the paper's ``8n^2`` synchronous-case and ``2n^3 + 4n^2`` worst-case
  bounds (:mod:`repro.analysis.theory`);
* the **metrics** — each run's :meth:`repro.sim.metrics.Metrics.summary`
  counters summed across runs, or, for a live run, the counts each party
  reported in its ``result-<i>.json``;
* **trace health** — events captured and ring-buffer drops per run;
* the **clock alignment** and the matched **wire transit** spans, when
  the loaded run has an alignment / such events (a collected live run) —
  decided from the input, never from a flag.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections import Counter

from ..analysis import theory
from ..analysis.critical_path import (
    ICC_STAGES,
    consistency_line,
    critical_paths,
    latency_breakdown,
    wire_spans,
)
from ..analysis.trace import message_counts, summarize
from ..obs import ClockAlignment, collect_run, read_jsonl, read_jsonl_with_header
from . import runner
from .common import mean

#: The suite run without flags; each key is a flag, a ``run_traced``
#: keyword and a column of ``results.json``.
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
    """Run one traced ICC simulation; returns a picklable result row.

    Specs name it ``run_report.run_traced``, so reports fan across cores
    and trace files get deterministic spec-index names.
    """
    from ..sim.delays import UniformDelay
    from .common import make_icc_config, run_icc

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
    cluster = run_icc(config, duration=rounds * delta * 8)
    latencies = cluster.metrics.commit_latencies()
    return {
        "protocol": protocol,
        "n": n,
        "t": t,
        "delta": delta,
        "rounds": rounds,
        "seed": seed,
        "rounds_committed": cluster.min_committed_round(),
        "commit_latency_mean": mean(latencies) if latencies else None,
        "messages_sent": sum(cluster.metrics.msgs_sent.values()),
        "summary": cluster.metrics.summary(cluster.sim.now),
    }


def specs(suite: dict, seeds) -> list:
    """One ``run_report.run_traced`` spec per seed; ``suite`` holds the other
    keyword arguments (the keys of :data:`_DEFAULT`)."""
    return [
        runner.spec("report", "run_report.run_traced", **suite, seed=seed)
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


def _alignment_section(alignment: ClockAlignment) -> list[str]:
    lines = [
        "## Clock alignment",
        "",
        f"Exact one-host alignment: reference party {alignment.reference}, "
        f"host `{alignment.host}`; each offset is that party's clock epoch "
        "minus the reference's.",
        "",
    ]
    lines += _md_table(
        ["party", "offset (s)"],
        [[p, f"{offset:.9f}"] for p, offset in sorted(alignment.offsets.items())],
    )
    return lines


def analyse(traces, params) -> list[tuple]:
    """``(label, paths, breakdown)`` per run, at the quorum ``n - t``."""
    analysed = []
    for label, events in traces:
        paths = critical_paths(events, quorum=params["n"] - params["t"])
        analysed.append((label, paths, latency_breakdown(paths, events)))
    return analysed


def check(traces, params) -> list[str]:
    """What ``--check`` finds wrong with a loaded run, one line per failed
    test of a run: no finalized height, stage spans that do not telescope
    to the measured latency, a matched wire span received before it was
    sent (which, on an exactly aligned timeline, only a wrong clock epoch
    explains)."""
    problems = []
    for (label, events), (_, _, breakdown) in zip(traces, analyse(traces, params)):
        acausal = sorted(
            key for key, span in wire_spans(events).items() if span < 0
        )
        if acausal:
            problems.append(
                f"{label}: {len(acausal)} wire spans received before sent on "
                f"the aligned timeline, first (src, dst, seq) = {acausal[0]}"
            )
        if not breakdown["heights"]:
            problems.append(f"{label}: no finalized heights")
        elif not breakdown["spans_telescope"]:
            problems.append(
                f"{label}: spans do not telescope (max residual "
                f"{breakdown['max_residual_s']:.2e}s)"
            )
    return problems


def _critical_path_section(analysed) -> list[str]:
    lines = ["## Critical paths", ""]
    finalized = [run for run in analysed if run[1]]
    if not finalized:
        lines.append("No finalized heights found in the traces.")
        return lines

    label, paths, _ = finalized[0]
    lines.append(f"Per-height breakdown for `{label}` (seconds):")
    lines.append("")
    lines += _md_table(
        ["height", "block", *ICC_STAGES, "stage sum", "measured"],
        [
            [
                path.round,
                f"`{(path.block or '-')[:8]}`",
                *(_fmt(span.duration) for span in path.spans),
                _fmt(path.total),
                _fmt(path.finalized - path.entered),
            ]
            for path in paths
        ],
    )
    lines.append("")
    # One line for all runs: the one that telescopes worst speaks for them.
    lines.append(
        consistency_line(
            max(
                (b for _, _, b in analysed),
                key=lambda b: (not b["spans_telescope"], b["max_residual_s"]),
            )
        )
    )

    lines += ["", "Mean per-height stage latency across all runs (seconds):", ""]
    lines += _md_table(
        ["run", *ICC_STAGES],
        [
            [label, *(_fmt(b["stage_means_s"][stage]) for stage in ICC_STAGES)]
            for label, _, b in finalized
        ],
    )
    return lines


def _wire_section(wired) -> list[str]:
    """``wired``: ``(label, wire_transit stats)`` of runs with matched spans."""
    lines = [
        "## Wire transit",
        "",
        "Matched `net.wire.send`/`net.wire.recv` spans in milliseconds, first "
        "send to first delivery (a reconnect's retransmit wait included):",
        "",
    ]
    lines += _md_table(
        ["run", "spans", "mean", "p50", "p99"],
        [
            [label, w["spans"],
             *(_fmt(w[key] * 1e3, 2) for key in ("mean_s", "p50_s", "p99_s"))]
            for label, w in wired
        ],
    )
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


def _metrics_section(results, party_results) -> list[str]:
    lines = ["## Metrics", ""]
    if party_results:
        fields = sorted(
            key for key, value in party_results[0].items()
            if isinstance(value, (int, float)) and key != "index"
        )
        lines += ["What each party reported in its `result-<i>.json`:", ""]
        lines += _md_table(
            ["field", *(f"party {r['index']}" for r in party_results)],
            [[f"`{key}`", *(_fmt(r.get(key)) for r in party_results)] for key in fields],
        )
        return lines
    counters: Counter = Counter()
    for row in results or ():
        counters.update(row.get("summary", {}).get("counters", {}))
    if not counters:
        lines.append("No counters recorded.")
        return lines
    lines += ["`Metrics.summary()` counters, summed across runs:", ""]
    lines += _md_table(
        ["counter", "value"], [[f"`{k}`", v] for k, v in sorted(counters.items())]
    )
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


def generate(traces, params, results=None, alignment=None, party_results=None) -> str:
    """Render the full Markdown report from loaded traces and records.

    ``results`` are a report suite's ``results.json`` rows; ``alignment``
    and ``party_results`` (the ``result-<i>.json`` records) belong to a
    collected live run (None for simulator traces, which share one clock).
    """
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
    if alignment is not None:
        lines += _alignment_section(alignment)
        lines.append("")
    analysed = analyse(traces, params)
    lines += _critical_path_section(analysed)
    lines.append("")
    wired = [
        (label, b["wire_transit"]) for label, _, b in analysed
        if b["wire_transit"]["spans"]
    ]
    if wired:
        lines += _wire_section(wired)
        lines.append("")
    lines += _theory_section(traces, params["n"])
    lines.append("")
    lines += _metrics_section(results, party_results)
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


def _read_json(trace_dir: str, name: str):
    with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def load_run(trace_dir: str) -> dict:
    """The keyword arguments of :func:`generate` for a run directory, which
    is the source of everything the report states: a ``repro report
    --trace-dir`` suite describes itself in ``results.json``, a ``repro live
    --trace-dir`` run in ``cluster.json`` — and is rendered in its collected
    form (collected here first if need be): one run on one aligned timeline,
    never the n unaligned per-party traces.

    ``trace_dir`` may also be one JSONL export, which says nothing of the
    cluster: its n is the number of parties in it and its quorum n, the
    fault-free quorum :func:`~repro.analysis.critical_path.critical_paths`
    infers when given none."""

    if os.path.isfile(trace_dir):
        events = read_jsonl(trace_dir)
        return dict(
            traces=[(os.path.basename(trace_dir).removesuffix(".jsonl"), events)],
            params={
                "n": len({event.party for event in events if event.party > 0}),
                "t": 0,
                "runs": 1,
            },
        )

    def has(name: str) -> bool:
        return os.path.exists(os.path.join(trace_dir, name))

    if has("cluster.json"):
        if not has("merged-trace.jsonl"):
            collect_run(trace_dir)
        header, events = read_jsonl_with_header(
            os.path.join(trace_dir, "merged-trace.jsonl")
        )
        cluster = _read_json(trace_dir, "cluster.json")
        party_results = sorted(
            (_read_json(trace_dir, name) for name in os.listdir(trace_dir)
             if name.startswith("result-") and name.endswith(".json")),
            key=lambda record: record["index"],
        )
        return dict(
            traces=[("merged-trace", events)],
            party_results=party_results,
            params={
                "protocol": cluster["protocol"],
                "n": cluster["n"],
                "t": cluster["t"],
                "epsilon": cluster["epsilon"],
                "runs": 1,
                "run id": header["run_id"],
            },
            alignment=ClockAlignment.from_dict(
                _read_json(trace_dir, "alignment.json")
            ),
        )
    if not has("results.json"):
        raise SystemExit(
            f"{trace_dir}: neither results.json (report --trace-dir) nor "
            "cluster.json (live --trace-dir) there to say what was run"
        )
    results = _read_json(trace_dir, "results.json")
    traces = [
        (name[: -len(".jsonl")], read_jsonl(os.path.join(trace_dir, name)))
        for name in sorted(os.listdir(trace_dir))
        if name.endswith(".jsonl")
    ]
    return dict(
        traces=traces,
        # Every row of one suite has the same configuration.
        params={
            **{key: results[0][key] for key in _DEFAULT if key in results[0]},
            "runs": len(traces),
        },
        results=results,
    )


def build_report(args) -> dict:
    """Run (or load) the suite; returns what :func:`load_run` reads back."""
    given = {
        flag: getattr(args, flag)
        for flag in _DEFAULT
        if getattr(args, flag) is not None
    }
    if args.load:
        # These flags describe a suite to run; the directory describes itself.
        if given:
            raise SystemExit(
                f"--{next(iter(given))} describes a suite to run; --load renders "
                "what --trace-dir holds and takes its configuration from there"
            )
        if args.trace_dir is None:
            raise SystemExit("--load requires --trace-dir")
        return load_run(args.trace_dir)

    suite = dict(_DEFAULT, rounds=5) if args.quick else dict(_DEFAULT)
    if "n" in given:
        suite["t"] = (args.n - 1) // 3
    suite.update(given)
    runs = 1 if args.quick else args.runs

    with contextlib.ExitStack() as stack:
        trace_dir = args.trace_dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-report-")
        )
        results = runner.execute(
            specs(suite, range(args.seed, args.seed + runs)),
            jobs=args.jobs, trace_dir=trace_dir,
        )
        with open(os.path.join(trace_dir, "results.json"), "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        # Render what was just written, the way --load will render it again.
        return load_run(trace_dir)


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
    parser.add_argument("--runs", type=runner.at_least(1), default=3,
                        help="number of seeded runs to aggregate")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--jobs", type=runner.at_least(1), default=None, metavar="N",
                        help="runner worker processes")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="keep traces + results.json here (temp dir "
                             "otherwise)")
    parser.add_argument("--load", action="store_true",
                        help="render the run directory --trace-dir (a report "
                             "suite or a `repro live --trace-dir` run) or the "
                             "one JSONL export it names as it is, no runs")
    parser.add_argument("--html", action="store_true",
                        help="write a self-contained HTML page instead")
    parser.add_argument("--check", action="store_true",
                        help="fail unless every run finalized a height, its "
                             "stage spans telescope and no wire span was "
                             "received before it was sent")


def run(args) -> int:
    loaded = build_report(args)
    markdown = generate(**loaded)
    content = to_html(markdown) if args.html else markdown
    with open(args.output, "w") as fh:
        fh.write(content)
    print(f"wrote {args.output}")
    if not args.check:
        return 0
    problems = check(loaded["traces"], loaded["params"])
    for problem in problems:
        print(f"report --check FAILED: {problem}")
    if not problems:
        print("report --check OK")
    return 1 if problems else 0
