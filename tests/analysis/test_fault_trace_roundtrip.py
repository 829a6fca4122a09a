"""Every fault.* event kind must survive export -> load -> analysis.

Chaos traces are the main reason traces get archived; a fault event the
analysis loader chokes on (or silently mangles) would make those
archives unreadable.  This synthesizes one event per registered
``fault.*`` kind straight from the registry's declared fields, round-
trips the file, and feeds it to every loader — then does the same with
a real chaos-scenario trace.
"""

from __future__ import annotations

import io

from repro.analysis.critical_path import baseline_paths, critical_paths
from repro.analysis.trace import message_counts, summarize
from repro.obs import EVENT_KINDS, TraceEvent, read_jsonl, write_jsonl

#: Plausible JSON-safe sample values per declared payload field name.
_SAMPLES = {
    "scenario": "chaos-042",
    "seed": 42,
    "events": 7,
    "group": [1, 2],
    "heal_time": 12.5,
    "kind": "NotarizationShare",
    "receiver": 3,
    "extra": 0.25,
    "until": 30.0,
}


def fault_kinds() -> list[str]:
    kinds = sorted(k for k in EVENT_KINDS if k.startswith("fault."))
    assert kinds, "registry lost its fault.* kinds"
    return kinds


def synthetic_events() -> list[TraceEvent]:
    events = []
    for i, kind in enumerate(fault_kinds()):
        payload = {field: _SAMPLES[field] for field in EVENT_KINDS[kind]}
        events.append(
            TraceEvent(
                time=float(i),
                party=(i % 4) + 1,
                protocol="faults",
                round=i + 1,
                kind=kind,
                payload=payload,
            )
        )
    return events


class TestSyntheticFaultRoundTrip:
    def test_every_fault_kind_round_trips_exactly(self):
        events = synthetic_events()
        buffer = io.StringIO()
        count = write_jsonl(events, buffer)
        assert count == len(events)
        buffer.seek(0)
        loaded = read_jsonl(buffer)
        assert loaded == events  # dataclass equality: every field intact

    def test_loaders_accept_pure_fault_traces(self):
        buffer = io.StringIO()
        write_jsonl(synthetic_events(), buffer)
        buffer.seek(0)
        events = read_jsonl(buffer)
        summary = summarize(events)
        assert summary.events == len(events)
        assert summary.blocks_committed == 0
        assert message_counts(events) == {}
        assert critical_paths(events) == []
        assert baseline_paths(events) == []

    def test_declared_fields_cover_all_samples(self):
        for kind in fault_kinds():
            for field in EVENT_KINDS[kind]:
                assert field in _SAMPLES, (
                    f"{kind} declares field {field!r}: add a sample value "
                    "so the round-trip test keeps covering it"
                )


class TestChaosTraceRoundTrip:
    def test_real_chaos_trace_round_trips_and_analyzes(self, tmp_path):
        from repro.experiments import runner
        from repro.experiments.chaos import specs

        trace_dir = tmp_path / "traces"
        suite = specs(
            seeds=[3], protocols=("ICC0",), n=4, duration=15.0, intensity=1.5
        )
        runner.execute(suite, jobs=1, trace_dir=str(trace_dir))
        files = [
            p for p in sorted(trace_dir.iterdir())
            if p.name.endswith(".jsonl")
        ]
        assert files
        events = read_jsonl(str(files[0]))
        assert events

        # Round-trip again through an in-memory file: stable fixpoint.
        buffer = io.StringIO()
        write_jsonl(events, buffer)
        buffer.seek(0)
        assert read_jsonl(buffer) == events

        # Every fault kind present parses and analyzers accept the mix.
        assert summarize(events).events == len(events)
        for kind in {event.kind for event in events}:
            assert kind in EVENT_KINDS
        message_counts(events)
        for path in critical_paths(events):
            assert abs(path.total - (path.finalized - path.entered)) <= 1e-9
