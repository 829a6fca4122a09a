"""Tests for the tracer core: ring buffer, registry enforcement, JSONL."""

from __future__ import annotations

import io

import pytest

from repro.obs import (
    EVENT_KINDS,
    NULL_TRACER,
    TraceEvent,
    Tracer,
    UnknownEventKind,
    read_jsonl,
    short_id,
    write_jsonl,
)


def emit(tracer: Tracer, kind: str = "sim.run", **overrides) -> None:
    fields = dict(time=1.0, party=1, protocol="test", round=None, kind=kind)
    fields.update(overrides)
    tracer.emit(**fields)


class TestTracer:
    def test_records_events_in_order(self):
        tracer = Tracer()
        emit(tracer, time=0.5)
        emit(tracer, "net.crash", time=1.5, party=2)
        events = tracer.events()
        assert [e.time for e in events] == [0.5, 1.5]
        assert events[1].kind == "net.crash"
        assert len(tracer) == 2

    def test_rejects_unregistered_kind(self):
        tracer = Tracer()
        with pytest.raises(UnknownEventKind):
            emit(tracer, "no.such.kind")

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(3):
            emit(tracer, time=float(i))
        with pytest.warns(RuntimeWarning, match="ring buffer full"):
            emit(tracer, time=3.0)
        emit(tracer, time=4.0)  # warns once, not per eviction
        assert len(tracer) == 3
        assert tracer.emitted == 5
        assert tracer.dropped == 2
        assert [e.time for e in tracer.events()] == [2.0, 3.0, 4.0]

    def test_filter_by_kind(self):
        tracer = Tracer()
        emit(tracer, "sim.run")
        emit(tracer, "net.crash")
        emit(tracer, "sim.run")
        assert len(tracer.events("sim.run")) == 2
        assert len(tracer.events("net.crash")) == 1

    def test_clear(self):
        tracer = Tracer()
        emit(tracer)
        tracer.clear()
        assert len(tracer) == 0 and tracer.emitted == 0


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit(time=0.0, party=1, protocol="x", round=None, kind="anything")
        assert NULL_TRACER.events() == []
        assert len(NULL_TRACER) == 0
        assert list(NULL_TRACER) == []


class TestShortId:
    def test_sixteen_hex_chars(self):
        assert short_id(bytes(range(32))) == "0001020304050607"
        assert len(short_id(b"\xff" * 32)) == 16


class TestJsonlRoundTrip:
    def test_round_trip_through_buffer(self):
        events = [
            TraceEvent(time=0.1, party=1, protocol="ICC0", round=1,
                       kind="icc.block.proposed",
                       payload={"block": "aa" * 8, "parent": "bb" * 8,
                                "payload_bytes": 10, "rank": 0}),
            TraceEvent(time=0.2, party=0, protocol="fault", round=None,
                       kind="fault.partition",
                       payload={"group": [1, 2], "heal_time": 5.0}),
        ]
        buffer = io.StringIO()
        assert write_jsonl(events, buffer) == 2
        buffer.seek(0)
        assert read_jsonl(buffer) == events

    def test_round_trip_through_file(self, tmp_path):
        events = [
            TraceEvent(time=float(i), party=i % 3, protocol="sim", round=i,
                       kind="sim.run", payload={"events_processed": i, "until": None})
            for i in range(10)
        ]
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(events, path) == 10
        assert read_jsonl(path) == events

    def test_bytes_payloads_hex_encoded(self):
        event = TraceEvent(time=0.0, party=1, protocol="x", round=None,
                           kind="sim.run", payload={"raw": b"\x01\x02"})
        buffer = io.StringIO()
        write_jsonl([event], buffer)
        buffer.seek(0)
        (loaded,) = read_jsonl(buffer)
        assert loaded.payload["raw"] == "0102"

    def test_tuples_become_lists(self):
        event = TraceEvent(time=0.0, party=1, protocol="x", round=None,
                           kind="sim.run", payload={"seq": (1, 2, 3)})
        buffer = io.StringIO()
        write_jsonl([event], buffer)
        buffer.seek(0)
        (loaded,) = read_jsonl(buffer)
        assert loaded.payload["seq"] == [1, 2, 3]


class TestWireKindsRoundTrip:
    """Every registered ``net.*``/``live.*`` kind — including the causal
    wire-span pair and the STAT event — survives a headered JSONL export
    byte-for-byte."""

    def sample_event(self, index, kind):
        payload = {name: k for k, name in enumerate(EVENT_KINDS[kind])}
        return TraceEvent(
            time=0.001 * index, party=1 + index % 4, protocol="net",
            round=index % 3 or None, kind=kind, payload=payload,
        )

    def test_all_wire_kinds_round_trip_with_header(self):
        specs = [
            name for name in sorted(EVENT_KINDS)
            if name.startswith(("net.", "live."))
        ]
        # The PR's new kinds must be part of this sweep, not just legacy.
        names = set(specs)
        assert {"net.wire.send", "net.wire.recv", "live.stat.request"} <= names

        tracer = Tracer()
        events = []
        for index, spec in enumerate(specs):
            event = self.sample_event(index, spec)
            # Registry enforcement: every one of these is emittable.
            tracer.emit(time=event.time, party=event.party,
                        protocol=event.protocol, round=event.round,
                        kind=event.kind, payload=event.payload)
            events.append(event)
        assert len(tracer) == len(specs)

        from repro.obs import read_jsonl_with_header, trace_header

        buffer = io.StringIO()
        header = trace_header(
            run_id="rt", party=1, host="h", cluster_id="c"
        )
        assert write_jsonl(events, buffer, header=header) == len(events)
        buffer.seek(0)
        loaded_header, loaded = read_jsonl_with_header(buffer)
        assert loaded_header == header
        assert loaded == events
