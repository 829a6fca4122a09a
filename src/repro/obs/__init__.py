"""repro.obs — structured tracing & observability for the simulator stack.

The paper's evaluation is reproduced from three aggregate metric streams
(:mod:`repro.sim.metrics`); this package records *why* a run produced its
numbers: per-round proposer elections, notarization/finalization timing,
gossip fan-out and adversary activations, as a stream of structured
events.  See ``docs/OBSERVABILITY.md`` for the full event schema and
worked examples, and :mod:`repro.analysis.trace` for reconstruction
queries (per-round latency breakdowns, message histograms, adversary
timelines).

Usage::

    from repro.obs import Tracer
    config = ClusterConfig(n=7, ..., tracer=Tracer())
    cluster = build_cluster(config)
    ...
    from repro.obs import write_jsonl
    write_jsonl(config.tracer.events(), "run.jsonl")

Tracing is off by default (:data:`NULL_TRACER` everywhere) and costs a
single branch per potential event when disabled.
"""

from .distributed import (
    SCHEMA_VERSION,
    CollectError,
    CollectedRun,
    collect_run,
    trace_header,
)
from .export import read_jsonl, read_jsonl_with_header, write_jsonl
from .registry import EVENT_KINDS
from .tracer import (
    DEFAULT_CAPACITY,
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    TracerLike,
    UnknownEventKind,
    short_id,
)

__all__ = [
    "CollectError",
    "CollectedRun",
    "DEFAULT_CAPACITY",
    "EVENT_KINDS",
    "NULL_TRACER",
    "NullTracer",
    "SCHEMA_VERSION",
    "TraceEvent",
    "Tracer",
    "TracerLike",
    "UnknownEventKind",
    "collect_run",
    "read_jsonl",
    "read_jsonl_with_header",
    "short_id",
    "trace_header",
    "write_jsonl",
]
