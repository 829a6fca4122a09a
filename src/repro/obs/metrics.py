"""Per-run metric aggregation: counters, gauges and fixed-bucket histograms.

The tracing layer (:mod:`repro.obs.tracer`) records *events* — what
happened and when.  This module records *aggregates*: how many, how big,
how long, in a form that is cheap to keep per run and cheap to **merge**
across the parallel runner's workers (every instrument type supports
``merge``; merging K per-run meters yields the suite-wide view).

Design mirrors the tracer exactly:

* **Zero cost when disabled.**  The default meter everywhere is
  :data:`NULL_METER`, whose ``enabled`` is False; every record site in
  protocol code is guarded by ``if meter.enabled:`` so a disabled run
  pays one attribute load and one branch per potential sample.
* **No behavioural footprint.**  Recording never touches the simulation
  RNG, clock or event queue, so runs are bit-identical with metrics on
  or off (pinned by ``tests/obs/test_meter_parity.py`` — the same
  standard as the tracer's parity test).
* **A closed schema.**  :meth:`Meter.count` / :meth:`Meter.gauge` /
  :meth:`Meter.observe` reject names not registered in :data:`METRICS`,
  so the registry below is the single source of truth;
  ``docs/OBSERVABILITY.md`` documents exactly this set and
  ``tools/check_docs.py`` cross-checks the two textually (same pattern
  as the CLI-subcommand check).

Instrument semantics:

* **counter** — monotonically increasing int; merge = sum.
* **gauge** — last-written value; merge = max (the conservative choice
  for the capacity-style gauges registered here, documented per metric).
* **histogram** — fixed bucket boundaries declared at registration time,
  so histograms from different runs always merge bucket-wise; tracks
  ``count``/``sum``/``min``/``max`` alongside the buckets.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping, Protocol, Sequence, runtime_checkable

#: Bucket sets shared by several histograms (seconds / bytes / sizes).
LATENCY_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 10.0)
BYTES_BUCKETS = (64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0)
COUNT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class MetricSpec:
    """Schema entry for one registered metric."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    module: str  # dotted module that records it
    description: str
    unit: str = ""
    buckets: tuple[float, ...] = ()  # histograms only; ascending upper bounds

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if self.kind == "histogram":
            if not self.buckets:
                raise ValueError(f"histogram {self.name!r} needs bucket bounds")
            if list(self.buckets) != sorted(self.buckets):
                raise ValueError(f"histogram {self.name!r} buckets not ascending")
        elif self.buckets:
            raise ValueError(f"{self.kind} {self.name!r} must not declare buckets")


#: name -> spec, populated below via :func:`register_metric`.
METRICS: dict[str, MetricSpec] = {}


def register_metric(
    name: str,
    kind: str,
    module: str,
    description: str,
    unit: str = "",
    buckets: tuple[float, ...] = (),
) -> MetricSpec:
    """Register a metric (at import time; duplicate names are bugs)."""
    if name in METRICS:
        raise ValueError(f"duplicate metric name {name!r}")
    spec = MetricSpec(
        name=name, kind=kind, module=module, description=description,
        unit=unit, buckets=buckets,
    )
    METRICS[name] = spec
    return spec


class UnknownMetric(KeyError):
    """A record call used a name that is not in the registry (a schema bug)."""


class MetricKindMismatch(TypeError):
    """A record call used the wrong instrument for a registered metric."""


@runtime_checkable
class MeterLike(Protocol):
    """What a meter must provide to be installed on a Simulation or passed
    as ``ClusterConfig.meter``: an ``enabled`` flag that record sites guard
    on, plus the three instruments.  :class:`Meter`, :class:`NullMeter` and
    :class:`NamespacedMeter` all satisfy it."""

    def count(self, name: str, inc: int = 1) -> None: ...

    def gauge(self, name: str, value: float) -> None: ...

    def observe(self, name: str, value: float) -> None: ...


# -- simulator ----------------------------------------------------------------

register_metric(
    "sim.events.processed", "counter", "repro.sim.simulator",
    "Discrete events drained by the simulation loop.",
)
register_metric(
    "sim.duration", "gauge", "repro.sim.simulator",
    "Final virtual clock of the run (merge = max across runs).", unit="s",
)

# -- network ------------------------------------------------------------------

register_metric(
    "net.messages", "counter", "repro.sim.network",
    "Point-to-point messages sent, paper convention (a broadcast counts n).",
)
register_metric(
    "net.bytes", "counter", "repro.sim.network",
    "Wire bytes sent (broadcast charges n-1 copies; self-delivery free).",
    unit="B",
)
register_metric(
    "net.message.bytes", "histogram", "repro.sim.network",
    "Wire size of each transmitted message (one sample per broadcast/send/"
    "multicast, before fan-out).",
    unit="B", buckets=BYTES_BUCKETS,
)

# -- message pool -------------------------------------------------------------

register_metric(
    "pool.invalid", "counter", "repro.core.pool",
    "Messages dropped by cryptographic or structural verification.",
)

# -- ICC protocol core --------------------------------------------------------

register_metric(
    "icc.rounds.finished", "counter", "repro.core.icc0",
    "Rounds finished (clause (a) fired) summed over parties.",
)
register_metric(
    "icc.blocks.proposed", "counter", "repro.core.icc0",
    "Blocks proposed (clause (b)) summed over parties.",
)
register_metric(
    "icc.blocks.committed", "counter", "repro.core.icc0",
    "Blocks appended to output logs, summed over observers.",
)
register_metric(
    "icc.round.duration", "histogram", "repro.core.icc0",
    "Per-party round duration: clause (a) time minus round entry time.",
    unit="s", buckets=LATENCY_BUCKETS,
)
register_metric(
    "icc.commit.latency", "histogram", "repro.core.icc0",
    "Propose-to-commit latency, one sample per commit with known propose "
    "time (same convention as Metrics.commit_latencies).",
    unit="s", buckets=LATENCY_BUCKETS,
)

# -- load pipeline ------------------------------------------------------------

register_metric(
    "load.submitted", "counter", "repro.workloads.batching",
    "Client requests accepted into the shared ingress queue (after batch "
    "authentication, deduplication and admission control).",
)
register_metric(
    "load.rejected", "counter", "repro.workloads.batching",
    "Client requests shed by admission control (ingress queue at "
    "queue_cap).",
)
register_metric(
    "load.auth.invalid", "counter", "repro.workloads.batching",
    "Client requests dropped at ingress because batch authentication "
    "flagged them forged.",
)
register_metric(
    "load.committed", "counter", "repro.workloads.batching",
    "Client requests finalized by consensus (observed on the first honest "
    "party's commit stream).",
)
register_metric(
    "load.latency", "histogram", "repro.workloads.batching",
    "Per-request end-to-end latency: arrival at the ingress layer to "
    "finalization on the observer party.",
    unit="s", buckets=LATENCY_BUCKETS,
)
register_metric(
    "load.batch.commands", "histogram", "repro.workloads.batching",
    "Load requests packed per proposed block (one sample per getPayload "
    "call on the batching payload source).",
    buckets=COUNT_BUCKETS,
)

# -- gossip sub-layer ---------------------------------------------------------

register_metric(
    "gossip.delivered", "counter", "repro.gossip.protocol",
    "Artifact bodies obtained from the overlay (push or request).",
)

# -- baselines ----------------------------------------------------------------

register_metric(
    "baseline.commits", "counter", "repro.baselines.common",
    "Batches committed by baseline replicas (PBFT/HotStuff/Tendermint).",
)
register_metric(
    "baseline.commit.latency", "histogram", "repro.baselines.common",
    "Propose-to-commit latency of baseline batches with known propose time.",
    unit="s", buckets=LATENCY_BUCKETS,
)

# -- sharding / xnet streams ---------------------------------------------------

register_metric(
    "shard.xnet.transfers", "counter", "repro.smr.xnet",
    "Certified stream messages emitted onto the xnet fabric (one per "
    "cross-subnet envelope observed on a source commit stream).",
)
register_metric(
    "shard.xnet.delivered", "counter", "repro.smr.xnet",
    "Stream messages accepted at destination ingress (certificate and "
    "per-stream sequence checks passed).",
)
register_metric(
    "shard.xnet.rejected", "counter", "repro.smr.xnet",
    "Stream messages dropped at ingress: bad certificate, out-of-order "
    "sequence, unknown version or malformed wire bytes.",
)
register_metric(
    "shard.cross.committed", "counter", "repro.smr.sharding",
    "Cross-shard requests finalized on their destination shard (the end "
    "of the two-hop source-commit -> stream -> destination-commit path).",
)
register_metric(
    "shard.cross.latency", "histogram", "repro.smr.sharding",
    "End-to-end cross-shard latency: arrival at the origin shard's "
    "ingress to finalization on the destination shard.",
    unit="s", buckets=LATENCY_BUCKETS,
)

# -- live transport (repro.net) -----------------------------------------------

register_metric(
    "live.connects", "counter", "repro.net.transport",
    "TCP connections established (both directions; includes reconnects).",
)
register_metric(
    "live.reconnects", "counter", "repro.net.transport",
    "Connections re-established after a drop (outbound redials plus "
    "superseding inbound accepts).",
)
register_metric(
    "live.dup_connections", "counter", "repro.net.transport",
    "Duplicate inbound connections superseded (newest-wins policy).",
)
register_metric(
    "live.frames.rejected", "counter", "repro.net.transport",
    "Frames rejected as malformed/oversized/undecodable, inbound, or as "
    "anything but an ACK on an outbound connection (each closes its "
    "connection).",
)
register_metric(
    "live.stat.requests", "counter", "repro.net.transport",
    "STAT frames answered with a meter/state snapshot (`repro top` polls).",
)


# ---------------------------------------------------------------- instruments


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of raw samples: element
    ``int(q·len)`` of the sorted values (the upper middle for an even
    count at q = 0.5), ``nan`` when there are none.  The one convention
    every reported p50/p90/p99 in this repository uses."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class Histogram:
    """Fixed-bucket histogram; bucket ``i`` counts samples <= bounds[i],
    with one implicit overflow bucket for samples above the last bound."""

    bounds: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        elif len(self.counts) != len(self.bounds) + 1:
            raise ValueError("histogram counts do not match bucket bounds")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        for attr, pick in (("min", min), ("max", max)):
            theirs = getattr(other, attr)
            if theirs is not None:
                mine = getattr(self, attr)
                setattr(self, attr, theirs if mine is None else pick(mine, theirs))

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Histogram":
        return cls(
            bounds=tuple(float(b) for b in data["bounds"]),
            counts=[int(c) for c in data["counts"]],
            count=int(data["count"]),
            total=float(data["sum"]),
            min=None if data.get("min") is None else float(data["min"]),
            max=None if data.get("max") is None else float(data["max"]),
        )


class Meter:
    """In-memory metric collector: the aggregating twin of :class:`Tracer`."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------

    def _spec(self, name: str, kind: str) -> MetricSpec:
        spec = METRICS.get(name)
        if spec is None and "/" in name:
            # Namespaced record ("shard0/net.messages"): the schema entry
            # lives under the bare name.  Registry names never contain '/'
            # (they are dotted), so the split is unambiguous.
            spec = METRICS.get(name.rsplit("/", 1)[-1])
        if spec is None:
            raise UnknownMetric(
                f"metric {name!r} is not registered in repro.obs.metrics"
            )
        if spec.kind != kind:
            raise MetricKindMismatch(
                f"metric {name!r} is a {spec.kind}, recorded as a {kind}"
            )
        return spec

    def count(self, name: str, inc: int = 1) -> None:
        """Increment a registered counter."""
        self._spec(name, "counter")
        self._counters[name] = self._counters.get(name, 0) + inc

    def gauge(self, name: str, value: float) -> None:
        """Set a registered gauge to its latest value."""
        self._spec(name, "gauge")
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Add one sample to a registered histogram."""
        spec = self._spec(name, "histogram")
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(bounds=spec.buckets)
        hist.observe(value)

    # -- queries -----------------------------------------------------------

    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def names(self) -> list[str]:
        """Sorted names of every metric this meter has recorded."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)

    # -- merge / export ----------------------------------------------------

    def merge(self, other: "Meter") -> "Meter":
        """Fold another meter into this one (counter sum, gauge max,
        histogram bucket-wise sum); returns self for chaining."""
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in other._gauges.items():
            mine = self._gauges.get(name)
            self._gauges[name] = value if mine is None else max(mine, value)
        for name, hist in other._histograms.items():
            mine_h = self._histograms.get(name)
            if mine_h is None:
                self._histograms[name] = Histogram(
                    bounds=hist.bounds, counts=list(hist.counts),
                    count=hist.count, total=hist.total,
                    min=hist.min, max=hist.max,
                )
            else:
                mine_h.merge(hist)
        return self

    def to_dict(self) -> dict:
        """Plain-dict snapshot (JSON-safe, merge-compatible via from_dict)."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Meter":
        meter = cls()
        meter._counters = {str(k): int(v) for k, v in data.get("counters", {}).items()}
        meter._gauges = {str(k): float(v) for k, v in data.get("gauges", {}).items()}
        meter._histograms = {
            str(k): Histogram.from_dict(v)
            for k, v in data.get("histograms", {}).items()
        }
        return meter

    def write_json(self, path_or_file: str | IO[str]) -> None:
        if isinstance(path_or_file, str):
            with open(path_or_file, "w", encoding="utf-8") as handle:
                self.write_json(handle)
            return
        json.dump(self.to_dict(), path_or_file, indent=2, sort_keys=True)
        path_or_file.write("\n")

    @classmethod
    def read_json(cls, path_or_file: str | IO[str]) -> "Meter":
        if isinstance(path_or_file, str):
            with open(path_or_file, "r", encoding="utf-8") as handle:
                return cls.read_json(handle)
        return cls.from_dict(json.load(path_or_file))


def merge_meters(meters: Iterable[Meter]) -> Meter:
    """Fold any number of meters (e.g. one per parallel run) into one."""
    merged = Meter()
    for meter in meters:
        merged.merge(meter)
    return merged


class NullMeter:
    """The zero-cost disabled meter: records nothing, stores nothing.

    ``enabled`` is False, so guarded record sites never compute sample
    values; a stray unguarded call is still a harmless no-op.
    """

    enabled = False

    def count(self, name: str, inc: int = 1) -> None:  # noqa: D102 - no-op
        pass

    def gauge(self, name: str, value: float) -> None:  # noqa: D102 - no-op
        pass

    def observe(self, name: str, value: float) -> None:  # noqa: D102 - no-op
        pass

    def counter_value(self, name: str) -> int:  # noqa: D102
        return 0

    def gauge_value(self, name: str) -> None:  # noqa: D102
        return None

    def histogram(self, name: str) -> None:  # noqa: D102
        return None

    def names(self) -> list[str]:  # noqa: D102
        return []

    def __bool__(self) -> bool:
        return False

    def to_dict(self) -> dict:  # noqa: D102
        return {"counters": {}, "gauges": {}, "histograms": {}}


class NamespacedMeter:
    """A namespaced view onto a shared meter sink.

    The aggregating twin of ``NamespacedTracer``: embedded clusters record
    through one of these, and every sample lands in the sink under
    ``"<namespace>/<name>"`` — so K clusters sharing one meter keep
    separable counters while :meth:`Meter._spec` still validates against
    the bare registry name.  Reads resolve the namespaced slice.
    """

    def __init__(self, sink: MeterLike, namespace: str) -> None:
        if "/" in namespace or not namespace:
            raise ValueError(f"meter namespace must be non-empty and '/'-free: {namespace!r}")
        self.sink = sink
        self.namespace = namespace
        self._prefix = namespace + "/"

    @property
    def enabled(self) -> bool:
        return bool(getattr(self.sink, "enabled", False))

    def count(self, name: str, inc: int = 1) -> None:
        self.sink.count(self._prefix + name, inc)

    def gauge(self, name: str, value: float) -> None:
        self.sink.gauge(self._prefix + name, value)

    def observe(self, name: str, value: float) -> None:
        self.sink.observe(self._prefix + name, value)

    # -- queries (resolve this namespace's slice of the sink) --------------

    def counter_value(self, name: str) -> int:
        return self.sink.counter_value(self._prefix + name)

    def gauge_value(self, name: str) -> float | None:
        return self.sink.gauge_value(self._prefix + name)

    def histogram(self, name: str) -> Histogram | None:
        return self.sink.histogram(self._prefix + name)

    def names(self) -> list[str]:
        """Bare metric names recorded under this namespace."""
        return sorted(
            n[len(self._prefix):]
            for n in self.sink.names()
            if n.startswith(self._prefix)
        )

    def __bool__(self) -> bool:
        return bool(self.names())


def namespaced_meter(sink: MeterLike, namespace: str) -> MeterLike:
    """A namespaced view of ``sink`` — or ``sink`` itself when it is
    disabled (no point wrapping a no-op; keeps the zero-cost guarantee)."""
    if not getattr(sink, "enabled", False):
        return sink
    return NamespacedMeter(sink, namespace)


#: The shared default meter; everything points here unless a run installs
#: a real :class:`Meter` (e.g. via ``ClusterConfig(meter=...)``).
NULL_METER = NullMeter()


def format_meter(meter: Meter, specs: Mapping[str, MetricSpec] = METRICS) -> str:
    """Human-readable multi-line rendering (the CLI's metrics block)."""
    lines: list[str] = []
    recorded = meter.names()
    counters = [n for n in recorded if n in meter._counters]
    gauges = [n for n in recorded if n in meter._gauges]
    hists = [n for n in recorded if n in meter._histograms]
    if counters:
        lines.append("counters:")
        for name in counters:
            lines.append(f"  {name:28s} {meter.counter_value(name)}")
    if gauges:
        lines.append("gauges:")
        for name in gauges:
            unit = specs[name].unit if name in specs else ""
            lines.append(f"  {name:28s} {meter.gauge_value(name):g} {unit}".rstrip())
    for name in hists:
        hist = meter.histogram(name)
        lines.append(
            f"histogram {name}: count={hist.count} mean={hist.mean:.6g} "
            f"min={hist.min:.6g} max={hist.max:.6g}"
        )
        edges = ["<=%g" % b for b in hist.bounds] + [">%g" % hist.bounds[-1]]
        for edge, count in zip(edges, hist.counts):
            if count:
                lines.append(f"  {edge:>12s}  {count}")
    return "\n".join(lines) if lines else "(no metrics recorded)"
