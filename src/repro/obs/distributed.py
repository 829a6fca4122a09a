"""Distributed trace collection and clock alignment for live clusters.

A live cluster run (:mod:`repro.net.live`) produces one trace JSONL, one
meter JSON and one result JSON *per process*, each stamped on that
process's private monotonic clock (``WallClock.now`` counts seconds from
the process's own epoch).  This module turns those n private timelines
into one:

1. **Self-identification** — every per-process export starts with a
   header line (:func:`trace_header`) carrying the schema version, the
   run id, the party index and the cluster id, so a trace file is
   attributable without trusting its filename.

2. **Offset estimation** — the transport piggybacks an NTP-style
   four-timestamp exchange on its HELLO/ACK frames (recorded as
   ``live.clock.sample`` events) and emits paired ``net.wire.send`` /
   ``net.wire.recv`` events keyed by ``(src, dst, seq)``.  Both reduce
   to the same primitive: *one-way deltas* ``t_recv^B - t_send^A`` whose
   true value is ``delay + theta`` (forward) or ``delay - theta``
   (backward), ``theta`` being clock B minus clock A.  Minimum-filtering
   each direction gives the classic bounded estimate::

       theta_hat   = (min_fwd - min_back) / 2
       uncertainty = (min_fwd + min_back) / 2

   which satisfies ``|theta_hat - theta| <= uncertainty`` whenever
   network delays are non-negative — asymmetric link delay *widens the
   bound* instead of silently mis-aligning.  A pairwise least-squares
   pass over matched forward/backward samples additionally fits a linear
   drift term (accepted only when it beats the residual noise, so jitter
   cannot masquerade as drift).

3. **Graph solve** — with more than two parties the pairwise estimates
   over-determine the per-party offsets; a weighted least-squares solve
   over the pair graph (reference party pinned to zero) reconciles them,
   and each party's uncertainty is the cheapest pair-uncertainty path
   from the reference (Dijkstra).

4. **Collection** — :func:`collect_run` reads every per-process file in
   a run directory, refuses mixed ``run_id``s, aligns all events onto
   the reference party's timeline and writes ``merged-trace.jsonl``,
   ``merged-meter.json`` and ``alignment.json``.  The merged trace is a
   normal trace: every existing analysis (critical paths, trace queries,
   reports) runs on it unchanged, with :class:`ClockAlignment` supplying
   the uncertainty annotation.  ``python -m repro collect``
   (:func:`add_arguments` / :func:`run`) is that step as a command.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from .export import read_jsonl_with_header, write_jsonl
from .metrics import Meter, merge_meters
from .tracer import TraceEvent

#: Version of the per-process JSONL layout (header line + event lines).
SCHEMA_VERSION = 1

#: Minimum matched samples before a drift (clock-rate) term is fitted.
MIN_DRIFT_SAMPLES = 8

#: Cap on matched theta samples per pair fed to the least-squares fit
#: (long runs produce one sample per message; a stride keeps this cheap).
MAX_FIT_SAMPLES = 4096


class CollectError(RuntimeError):
    """A run directory cannot be collected (missing/mixed/unversioned)."""


def trace_header(
    *,
    run_id: str,
    party: int,
    cluster_id: str = "",
    schema: int = SCHEMA_VERSION,
    **extra: object,
) -> dict:
    """The self-identifying first line of a per-process trace export."""
    header = {
        "schema": schema,
        "run_id": run_id,
        "party": party,
        "cluster_id": cluster_id,
    }
    header.update(extra)
    return header


# ---------------------------------------------------------------- pair math


@dataclass(frozen=True)
class PairOffset:
    """Estimated clock relation between two parties.

    ``offset`` is clock ``b`` minus clock ``a`` at local time zero,
    ``drift`` its rate of change (s/s), so the offset at time ``t`` is
    ``offset + drift * t``.  ``uncertainty`` bounds the offset error
    (it already includes the fit residual when a drift was fitted).
    """

    a: int
    b: int
    offset: float
    drift: float
    uncertainty: float
    samples: int

    def at(self, t: float) -> float:
        return self.offset + self.drift * t


@dataclass(frozen=True)
class PartyOffset:
    """One party's clock relative to the run's reference party."""

    party: int
    offset: float
    drift: float
    uncertainty: float

    def at(self, t: float) -> float:
        return self.offset + self.drift * t


@dataclass
class ClockAlignment:
    """The solved per-party clock model for one run."""

    reference: int
    offsets: dict[int, PartyOffset] = field(default_factory=dict)
    pairs: list[PairOffset] = field(default_factory=list)

    def shift(self, party: int, t: float) -> float:
        """Map party-local time ``t`` onto the reference timeline."""
        model = self.offsets.get(party)
        if model is None:
            return t
        return t - model.at(t)

    @property
    def max_uncertainty(self) -> float:
        """The worst per-party bound — the run's clock uncertainty."""
        if not self.offsets:
            return 0.0
        return max(m.uncertainty for m in self.offsets.values())

    def to_dict(self) -> dict:
        return {
            "reference": self.reference,
            "max_uncertainty_s": self.max_uncertainty,
            "offsets": {
                str(p): {
                    "offset_s": m.offset,
                    "drift": m.drift,
                    "uncertainty_s": m.uncertainty,
                }
                for p, m in sorted(self.offsets.items())
            },
            "pairs": [
                {
                    "a": pair.a,
                    "b": pair.b,
                    "offset_s": pair.offset,
                    "drift": pair.drift,
                    "uncertainty_s": pair.uncertainty,
                    "samples": pair.samples,
                }
                for pair in self.pairs
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClockAlignment":
        alignment = cls(reference=int(data["reference"]))
        for party, model in data.get("offsets", {}).items():
            alignment.offsets[int(party)] = PartyOffset(
                party=int(party),
                offset=float(model["offset_s"]),
                drift=float(model.get("drift", 0.0)),
                uncertainty=float(model["uncertainty_s"]),
            )
        for pair in data.get("pairs", []):
            alignment.pairs.append(
                PairOffset(
                    a=int(pair["a"]),
                    b=int(pair["b"]),
                    offset=float(pair["offset_s"]),
                    drift=float(pair.get("drift", 0.0)),
                    uncertainty=float(pair["uncertainty_s"]),
                    samples=int(pair.get("samples", 0)),
                )
            )
        return alignment


def pair_deltas(
    events_by_party: dict[int, list[TraceEvent]],
) -> dict[tuple[int, int], tuple[list[tuple[float, float]], list[tuple[float, float]]]]:
    """Extract one-way delay-plus-offset samples per party pair.

    Returns ``{(a, b): (fwd, back)}`` with ``a < b``; ``fwd`` holds
    ``(t_sample, delta)`` samples in the a→b direction (``delta = delay +
    theta_ab``) and ``back`` the b→a direction (``delta = delay -
    theta_ab``).  Two sources feed it:

    * matched ``net.wire.send`` / ``net.wire.recv`` pairs — the receive
      time minus the send time *is* a one-way delta;
    * ``live.clock.sample`` events — ``theta`` and ``rtt`` decompose
      exactly back into the exchange's forward delta ``theta + rtt/2``
      and backward delta ``rtt/2 - theta``.
    """
    sends: dict[tuple[int, int, int], float] = {}
    recvs: dict[tuple[int, int, int], float] = {}
    out: dict[tuple[int, int], tuple[list, list]] = {}

    def bucket(a: int, b: int) -> tuple[list, list]:
        key = (min(a, b), max(a, b))
        if key not in out:
            out[key] = ([], [])
        return out[key]

    def add_delta(src: int, dst: int, t: float, delta: float) -> None:
        fwd, back = bucket(src, dst)
        (fwd if src < dst else back).append((t, delta))

    for party, events in events_by_party.items():
        for event in events:
            if event.kind == "net.wire.send":
                sends[(party, int(event.payload["dst"]), int(event.payload["seq"]))] = (
                    event.time
                )
            elif event.kind == "net.wire.recv":
                recvs[(int(event.payload["src"]), party, int(event.payload["seq"]))] = (
                    event.time
                )
            elif event.kind == "live.clock.sample":
                peer = int(event.payload["peer"])
                theta = float(event.payload["theta"])
                rtt = float(event.payload["rtt"])
                # party measured theta = clock_peer - clock_party; the
                # exchange's forward leg ran party -> peer.
                add_delta(party, peer, event.time, theta + rtt / 2.0)
                add_delta(peer, party, event.time, rtt / 2.0 - theta)
    for key, t_send in sends.items():
        t_recv = recvs.get(key)
        if t_recv is not None:
            add_delta(key[0], key[1], t_send, t_recv - t_send)
    return out


def estimate_pair(
    a: int,
    b: int,
    fwd: list[tuple[float, float]],
    back: list[tuple[float, float]],
) -> PairOffset | None:
    """Estimate ``clock_b - clock_a`` from one-way delta samples.

    Needs at least one sample in each direction.  Fits a drift term only
    when there are enough samples *and* the fitted slope explains more
    than the residual noise would (guarding against delay jitter
    masquerading as drift); the reported uncertainty is the min-filter
    bound plus the RMS residual of the matched samples around the fit.
    """
    if not fwd or not back:
        return None
    fwd = sorted(fwd)
    back = sorted(back)
    # Instantaneous theta samples: each forward delta paired with the
    # nearest-in-time backward delta, theta = (f - b) / 2.
    theta_samples: list[tuple[float, float]] = []
    j = 0
    for t, f in fwd:
        while j + 1 < len(back) and abs(back[j + 1][0] - t) <= abs(back[j][0] - t):
            j += 1
        tb, bd = back[j]
        theta_samples.append(((t + tb) / 2.0, (f - bd) / 2.0))
    if len(theta_samples) > MAX_FIT_SAMPLES:
        stride = len(theta_samples) // MAX_FIT_SAMPLES + 1
        theta_samples = theta_samples[::stride]

    drift = 0.0
    span = theta_samples[-1][0] - theta_samples[0][0] if theta_samples else 0.0
    if len(theta_samples) >= MIN_DRIFT_SAMPLES and span > 1e-9:
        n = len(theta_samples)
        mean_t = sum(t for t, _ in theta_samples) / n
        mean_th = sum(th for _, th in theta_samples) / n
        var_t = sum((t - mean_t) ** 2 for t, _ in theta_samples)
        if var_t > 0:
            cov = sum(
                (t - mean_t) * (th - mean_th) for t, th in theta_samples
            )
            slope = cov / var_t
            intercept = mean_th - slope * mean_t
            rms_fit = (
                sum(
                    (th - (intercept + slope * t)) ** 2
                    for t, th in theta_samples
                )
                / n
            ) ** 0.5
            # Accept the drift only when its total excursion over the
            # window clearly exceeds the residual noise around the fit.
            if abs(slope) * span > 4.0 * rms_fit:
                drift = slope

    # De-trend and min-filter: with drift removed the deltas are
    # delay + theta0 (fwd) and delay - theta0 (back), delays >= 0.
    min_f = min(f - drift * t for t, f in fwd)
    min_b = min(bd + drift * t for t, bd in back)
    offset = (min_f - min_b) / 2.0
    uncertainty = max((min_f + min_b) / 2.0, 0.0)
    rms = (
        sum(
            (th - (offset + drift * t)) ** 2 for t, th in theta_samples
        )
        / len(theta_samples)
    ) ** 0.5
    return PairOffset(
        a=a,
        b=b,
        offset=offset,
        drift=drift,
        uncertainty=uncertainty + rms,
        samples=len(fwd) + len(back),
    )


def _solve_weighted(
    parties: list[int],
    reference: int,
    pairs: list[PairOffset],
    value: str,
) -> dict[int, float]:
    """Weighted least squares for per-party offsets (or drifts).

    Minimises ``sum w_ab (x_b - x_a - v_ab)^2`` with ``x_ref = 0``;
    ``v_ab`` is the pair's ``offset`` or ``drift`` and ``w`` the inverse
    squared uncertainty.  Solved by Gaussian elimination on the normal
    equations (committee sizes are tiny).
    """
    unknowns = [p for p in parties if p != reference]
    if not unknowns:
        return {reference: 0.0}
    idx = {p: k for k, p in enumerate(unknowns)}
    m = len(unknowns)
    mat = [[0.0] * m for _ in range(m)]
    rhs = [0.0] * m
    for pair in pairs:
        w = 1.0 / max(pair.uncertainty, 1e-9) ** 2
        v = getattr(pair, value)
        ia = idx.get(pair.a)
        ib = idx.get(pair.b)
        if ib is not None:
            mat[ib][ib] += w
            rhs[ib] += w * v
            if ia is not None:
                mat[ib][ia] -= w
        if ia is not None:
            mat[ia][ia] += w
            rhs[ia] -= w * v
            if ib is not None:
                mat[ia][ib] -= w
    # Gaussian elimination with partial pivoting.
    for col in range(m):
        pivot = max(range(col, m), key=lambda r: abs(mat[r][col]))
        if abs(mat[pivot][col]) < 1e-30:
            continue  # disconnected party: left at 0
        mat[col], mat[pivot] = mat[pivot], mat[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        for row in range(m):
            if row == col:
                continue
            factor = mat[row][col] / mat[col][col]
            if factor:
                for k in range(col, m):
                    mat[row][k] -= factor * mat[col][k]
                rhs[row] -= factor * rhs[col]
    solution = {reference: 0.0}
    for p, k in idx.items():
        solution[p] = rhs[k] / mat[k][k] if abs(mat[k][k]) > 1e-30 else 0.0
    return solution


def _uncertainty_paths(
    parties: list[int], reference: int, pairs: list[PairOffset]
) -> dict[int, float]:
    """Per-party uncertainty: cheapest pair-uncertainty path from the
    reference (Dijkstra; uncertainties compose additively along a path)."""
    adjacency: dict[int, list[tuple[int, float]]] = {p: [] for p in parties}
    for pair in pairs:
        adjacency[pair.a].append((pair.b, pair.uncertainty))
        adjacency[pair.b].append((pair.a, pair.uncertainty))
    dist = {p: float("inf") for p in parties}
    dist[reference] = 0.0
    todo = set(parties)
    while todo:
        current = min(todo, key=lambda p: dist[p])
        todo.discard(current)
        if dist[current] == float("inf"):
            break
        for neighbour, cost in adjacency[current]:
            if dist[current] + cost < dist[neighbour]:
                dist[neighbour] = dist[current] + cost
    return dist


def estimate_alignment(
    events_by_party: dict[int, list[TraceEvent]],
    reference: int | None = None,
) -> ClockAlignment:
    """Solve the per-party clock models from each party's raw events.

    ``events_by_party`` maps *process/party index* to that process's own
    (unaligned) events; the reference defaults to the lowest index.
    Parties with no usable path to the reference keep offset 0 with
    infinite uncertainty (the collector reports them).
    """
    parties = sorted(events_by_party)
    if not parties:
        raise CollectError("no parties to align")
    if reference is None:
        reference = parties[0]
    pairs = [
        estimate
        for (a, b), (fwd, back) in sorted(pair_deltas(events_by_party).items())
        if (estimate := estimate_pair(a, b, fwd, back)) is not None
    ]
    offsets = _solve_weighted(parties, reference, pairs, "offset")
    drifts = _solve_weighted(parties, reference, pairs, "drift")
    bounds = _uncertainty_paths(parties, reference, pairs)
    alignment = ClockAlignment(reference=reference, pairs=pairs)
    for party in parties:
        alignment.offsets[party] = PartyOffset(
            party=party,
            offset=offsets.get(party, 0.0),
            drift=drifts.get(party, 0.0),
            uncertainty=bounds.get(party, float("inf")),
        )
    return alignment


def align_events(
    events_by_party: dict[int, list[TraceEvent]], alignment: ClockAlignment
) -> list[TraceEvent]:
    """Shift every party's events onto the reference timeline and merge,
    sorted by aligned time.  ``not_before`` (``icc.share.notarization``) is
    an instant on the same party's clock, so it moves with its event."""
    merged: list[TraceEvent] = []
    for party, events in events_by_party.items():
        for event in events:
            payload = event.payload
            if "not_before" in payload:
                payload = {
                    **payload,
                    "not_before": alignment.shift(party, payload["not_before"]),
                }
            merged.append(
                TraceEvent(
                    time=alignment.shift(party, event.time),
                    party=event.party,
                    protocol=event.protocol,
                    round=event.round,
                    kind=event.kind,
                    payload=payload,
                )
            )
    merged.sort(key=lambda e: e.time)
    return merged


# ---------------------------------------------------------------- collection


@dataclass
class CollectedRun:
    """Everything :func:`collect_run` produced for one run directory."""

    run_id: str
    cluster_id: str
    parties: list[int]
    alignment: ClockAlignment
    events: list[TraceEvent]
    meter: Meter
    results: dict[int, dict]
    merged_trace_path: str = ""
    merged_meter_path: str = ""
    alignment_path: str = ""


def collect_run(run_dir: str | pathlib.Path, *, write: bool = True) -> CollectedRun:
    """Merge one run directory's per-process traces and meters.

    Expects ``trace-<i>.jsonl`` files (with headers) plus optional
    ``meter-<i>.json`` and ``result-<i>.json``; refuses headerless
    traces, mixed ``run_id``s and unsupported schema versions.  When
    ``write`` is true the aligned artefacts (``merged-trace.jsonl``,
    ``merged-meter.json``, ``alignment.json``) are written back into the
    directory.
    """
    run_dir = pathlib.Path(run_dir)
    trace_files = sorted(run_dir.glob("trace-*.jsonl"))
    if not trace_files:
        raise CollectError(f"no trace-*.jsonl files in {run_dir}")
    events_by_party: dict[int, list[TraceEvent]] = {}
    run_ids: set[str] = set()
    cluster_ids: set[str] = set()
    for path in trace_files:
        header, events = read_jsonl_with_header(str(path))
        if header is None:
            raise CollectError(
                f"{path.name}: no trace header (re-run with a current "
                "`repro serve --trace`; headerless traces are not "
                "attributable to a run/party)"
            )
        schema = int(header.get("schema", 0))
        if schema > SCHEMA_VERSION or schema < 1:
            raise CollectError(
                f"{path.name}: unsupported trace schema {schema} "
                f"(this collector understands <= {SCHEMA_VERSION})"
            )
        party = int(header["party"])
        if party in events_by_party:
            raise CollectError(f"{path.name}: duplicate trace for party {party}")
        run_ids.add(str(header.get("run_id", "")))
        cluster_ids.add(str(header.get("cluster_id", "")))
        events_by_party[party] = events
    if len(run_ids) > 1:
        raise CollectError(
            f"mixed run_ids in {run_dir}: {sorted(run_ids)} — these traces "
            "are from different runs and must not be merged"
        )
    run_id = next(iter(run_ids))

    results: dict[int, dict] = {}
    for path in sorted(run_dir.glob("result-*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        result_run = str(data.get("run_id", run_id))
        if result_run != run_id:
            raise CollectError(
                f"{path.name}: run_id {result_run!r} does not match the "
                f"traces' {run_id!r}"
            )
        results[int(data.get("index", -1))] = data

    meters = [
        Meter.read_json(str(path)) for path in sorted(run_dir.glob("meter-*.json"))
    ]
    meter = merge_meters(meters) if meters else Meter()

    alignment = estimate_alignment(events_by_party)
    events = align_events(events_by_party, alignment)

    collected = CollectedRun(
        run_id=run_id,
        cluster_id=next(iter(cluster_ids)) if cluster_ids else "",
        parties=sorted(events_by_party),
        alignment=alignment,
        events=events,
        meter=meter,
        results=results,
    )
    if write:
        merged_trace = run_dir / "merged-trace.jsonl"
        write_jsonl(
            events,
            str(merged_trace),
            header=trace_header(
                run_id=run_id,
                party=alignment.reference,
                cluster_id=collected.cluster_id,
                merged=True,
                parties=collected.parties,
                max_uncertainty_s=alignment.max_uncertainty,
            ),
        )
        merged_meter = run_dir / "merged-meter.json"
        meter.write_json(str(merged_meter))
        alignment_path = run_dir / "alignment.json"
        alignment_path.write_text(
            json.dumps(alignment.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        collected.merged_trace_path = str(merged_trace)
        collected.merged_meter_path = str(merged_meter)
        collected.alignment_path = str(alignment_path)
    return collected


# ----------------------------------------------------------------------- cli


def add_arguments(parser) -> None:
    """The ``python -m repro collect`` flags, declared once
    (``repro.__main__`` hands its subparser here)."""
    parser.add_argument(
        "run_dir",
        help="directory holding cluster.json and the trace-*.jsonl / "
             "meter-*.json / result-*.json of one `repro live --trace-dir` run",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the run report (markdown; what `repro report "
             "--load --trace-dir RUN_DIR` renders)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless heights finalized and the per-height stage "
             "spans telescope to the measured latency",
    )


def run(args) -> int:
    """Merge + align one run directory, then judge it the way its report
    does: same loader, same quorum (``n - t`` of ``cluster.json``)."""
    from ..analysis.critical_path import consistency_line
    from ..experiments import run_report

    collected = collect_run(args.run_dir)
    loaded = run_report.load_run(args.run_dir)
    [(_, _, breakdown)] = run_report.analyse(
        loaded["traces"], loaded["params"], loaded["alignment"]
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
        pathlib.Path(args.report).write_text(
            run_report.generate(**loaded), encoding="utf-8"
        )
        print(f"report:       {args.report}")
    if args.check and not breakdown["spans_telescope"]:
        print("collect --check FAILED: spans do not telescope (or no heights)")
        return 1
    return 0
