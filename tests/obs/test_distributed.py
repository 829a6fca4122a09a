"""Clock alignment and distributed-trace collection (repro.obs.distributed).

The alignment tests build synthetic runs on one host clock: each party
stamps its events ``host time - its epoch`` and records that epoch in its
trace header, exactly as a live party does.  Alignment must then recover
the host timeline exactly, whatever the link delays were.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.analysis.critical_path import wire_spans
from repro.obs import (
    ClockAlignment,
    CollectError,
    TraceEvent,
    collect_run,
    read_jsonl_with_header,
    trace_header,
    write_jsonl,
)
from repro.obs import distributed
from repro.obs.distributed import SCHEMA_VERSION, align_events

#: Monotonic readings as a live party's ``WallClock.epoch`` would hold them.
EPOCHS = {1: 5123.456789, 2: 5123.501234, 3: 5122.9}
HOST = "272f3dad-e662-4783-9214-c673578d8314 time:[4026531834]"


def wire_pair(src, dst, seq, t_send, t_recv, nbytes=64):
    """A matched net.wire.send / net.wire.recv event pair; each side's
    time is that party's *local* clock reading."""
    send = TraceEvent(
        time=t_send, party=src, protocol="net", round=None,
        kind="net.wire.send",
        payload={"dst": dst, "seq": seq, "kind": "msg", "bytes": nbytes},
    )
    recv = TraceEvent(
        time=t_recv, party=dst, protocol="net", round=None,
        kind="net.wire.recv",
        payload={"src": src, "seq": seq, "kind": "msg", "bytes": nbytes},
    )
    return send, recv


def exchange(legs, epochs=EPOCHS):
    """Per-party events of wire ``legs`` — ``(src, dst, sent, delay)`` in
    host-clock seconds — each party stamping ``host time - its epoch``."""
    events = {p: [] for leg in legs for p in leg[:2]}
    for seq, (src, dst, sent, delay) in enumerate(legs, 1):
        send, recv = wire_pair(
            src, dst, seq, sent - epochs[src], sent + delay - epochs[dst]
        )
        events[src].append(send)
        events[dst].append(recv)
    return events


def ping_pong(fwd=0.005, back=0.005, count=20, start=5124.0):
    """Parties 1 and 2 trade ``count`` messages each way."""
    legs = []
    for k in range(count):
        t = start + 0.05 * k
        legs += [(1, 2, t, fwd), (2, 1, t + 0.025, back)]
    return exchange(legs)


def write_run(run_dir, events, epochs=EPOCHS, overrides=None):
    """One headered ``trace-<party>.jsonl`` per party; ``overrides`` maps
    a party to header fields that differ from the run's."""
    for party, party_events in events.items():
        header = trace_header(
            run_id="run-A", party=party, clock_epoch_s=epochs[party],
            host=HOST, cluster_id="c",
        )
        header.update((overrides or {}).get(party, {}))
        write_jsonl(party_events, str(run_dir / f"trace-{party}.jsonl"), header=header)
    return run_dir


class TestHeaderAlignment:
    def test_known_offset_recovered_exactly(self, tmp_path):
        alignment = collect_run(write_run(tmp_path, ping_pong())).alignment
        assert alignment.reference == 1
        assert alignment.host == HOST
        assert alignment.offsets == {1: 0.0, 2: EPOCHS[2] - EPOCHS[1]}

    def test_asymmetric_delay_does_not_move_the_alignment(self, tmp_path):
        """1 ms out / 21 ms back: a min-filter estimator had to widen its
        bound by half the asymmetry; the headers do not see the links."""
        (tmp_path / "a").mkdir()
        (tmp_path / "s").mkdir()
        asymmetric = collect_run(write_run(tmp_path / "a", ping_pong(0.001, 0.021)))
        symmetric = collect_run(write_run(tmp_path / "s", ping_pong(0.001, 0.001)))
        assert asymmetric.alignment == symmetric.alignment
        spans = wire_spans(asymmetric.events)
        assert {round(spans[(1, 2, seq)], 9) for seq in range(1, 40, 2)} == {0.001}
        assert {round(spans[(2, 1, seq)], 9) for seq in range(2, 41, 2)} == {0.021}

    def test_three_parties(self, tmp_path):
        legs = [
            (a, b, 5124.0 + 0.01 * k, 0.004)
            for k, (a, b) in enumerate([(1, 2), (2, 3), (3, 1), (3, 2), (1, 3)])
        ]
        collected = collect_run(write_run(tmp_path, exchange(legs)))
        assert collected.alignment.reference == 1
        assert collected.alignment.offsets == {
            p: EPOCHS[p] - EPOCHS[1] for p in (1, 2, 3)
        }
        assert [round(span, 9) for span in wire_spans(collected.events).values()] == (
            [0.004] * 5
        )

    def test_align_events_shifts_onto_reference_timeline(self):
        events = ping_pong(0.002, 0.003)
        alignment = ClockAlignment(
            reference=1, host=HOST, offsets={1: 0.0, 2: EPOCHS[2] - EPOCHS[1]}
        )
        merged = align_events(events, alignment)
        assert [e.time for e in merged] == sorted(e.time for e in merged)
        # On the reference timeline every event sits at host time - epoch_1.
        assert merged[0].time == pytest.approx(5124.0 - EPOCHS[1], abs=1e-9)
        assert merged[-1].time == pytest.approx(
            5124.0 + 0.05 * 19 + 0.025 + 0.003 - EPOCHS[1], abs=1e-9
        )
        assert sorted({round(s, 9) for s in wire_spans(merged).values()}) == [0.002, 0.003]

    def test_align_events_shifts_not_before_with_its_event(self):
        """``not_before`` is an instant on the emitting party's clock; left
        unshifted, the critical path would compare two different clocks."""
        events = ping_pong()
        events[2].append(TraceEvent(
            time=1.25, party=2, protocol="ICC0", round=3,
            kind="icc.share.notarization",
            payload={"block": "ab", "not_before": 1.2},
        ))
        alignment = ClockAlignment(
            reference=1, host=HOST, offsets={1: 0.0, 2: EPOCHS[2] - EPOCHS[1]}
        )
        [share] = [
            e for e in align_events(events, alignment)
            if e.kind == "icc.share.notarization"
        ]
        assert share.time == alignment.shift(2, 1.25) == 1.25 + alignment.offsets[2]
        assert share.payload["not_before"] == alignment.shift(2, 1.2)
        assert share.time - share.payload["not_before"] == pytest.approx(0.05)
        assert events[2][-1].payload["not_before"] == 1.2  # input untouched

    def test_alignment_dict_round_trip(self, tmp_path):
        collected = collect_run(write_run(tmp_path, ping_pong()))
        on_disk = json.loads((tmp_path / "alignment.json").read_text())
        clone = ClockAlignment.from_dict(on_disk)
        assert clone == collected.alignment
        # Bit for bit: JSON floats round-trip, so the file holds the
        # headers' epoch difference itself.
        assert on_disk["offsets_s"]["2"] == EPOCHS[2] - EPOCHS[1]


class TestCollectRun:
    def test_merges_traces_and_results(self, tmp_path):
        write_run(tmp_path, ping_pong())
        (tmp_path / "result-1.json").write_text(
            json.dumps({"index": 1, "run_id": "run-A", "height": 3})
        )
        collected = collect_run(tmp_path)
        assert collected.run_id == "run-A"
        assert collected.cluster_id == "c"
        assert collected.parties == [1, 2]
        assert collected.results[1]["height"] == 3
        assert [e.time for e in collected.events] == sorted(
            e.time for e in collected.events
        )
        # The merged trace is itself a headered, attributable export, on
        # the reference party's clock.
        header, events = read_jsonl_with_header(collected.merged_trace_path)
        assert header["run_id"] == "run-A"
        assert header["merged"] is True
        assert header["parties"] == [1, 2]
        assert (header["clock_epoch_s"], header["host"]) == (EPOCHS[1], HOST)
        assert len(events) == len(collected.events)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "alignment.json", "merged-trace.jsonl", "result-1.json",
            "trace-1.jsonl", "trace-2.jsonl",
        ]
        alignment = json.loads((tmp_path / "alignment.json").read_text())
        assert alignment["reference"] == 1
        assert "2" in alignment["offsets_s"]

    def test_write_false_leaves_directory_untouched(self, tmp_path):
        write_run(tmp_path, ping_pong())
        collected = collect_run(tmp_path, write=False)
        assert collected.merged_trace_path == ""
        assert not (tmp_path / "merged-trace.jsonl").exists()
        assert not (tmp_path / "alignment.json").exists()

    def test_mixed_run_ids_refused(self, tmp_path):
        write_run(tmp_path, ping_pong(), overrides={2: {"run_id": "run-B"}})
        with pytest.raises(CollectError, match=r"trace-2\.jsonl: mixed run_ids"):
            collect_run(tmp_path)

    def test_mixed_hosts_refused(self, tmp_path):
        """Another host's monotonic clock has nothing to do with ours."""
        write_run(tmp_path, ping_pong(), overrides={2: {"host": "another-boot"}})
        with pytest.raises(CollectError, match=r"trace-2\.jsonl: mixed hosts"):
            collect_run(tmp_path)

    def test_mixed_cluster_ids_refused(self, tmp_path):
        """These once merged silently, under whichever id came first."""
        write_run(tmp_path, ping_pong(), overrides={2: {"cluster_id": "other"}})
        with pytest.raises(CollectError, match=r"trace-2\.jsonl: mixed cluster_ids"):
            collect_run(tmp_path)

    def test_headerless_trace_refused(self, tmp_path):
        write_jsonl(ping_pong()[1], str(tmp_path / "trace-1.jsonl"))
        with pytest.raises(CollectError, match="no trace header"):
            collect_run(tmp_path)

    def test_unsupported_schema_refused(self, tmp_path):
        write_run(tmp_path, ping_pong(), overrides={2: {"schema": SCHEMA_VERSION + 1}})
        with pytest.raises(CollectError, match="unsupported trace schema"):
            collect_run(tmp_path)

    def test_schema_1_refused(self, tmp_path):
        """A schema-1 header has no clock epoch to align by."""
        events = ping_pong()
        write_run(tmp_path, {1: events[1]})
        write_jsonl(
            events[2], str(tmp_path / "trace-2.jsonl"),
            header={"schema": 1, "run_id": "run-A", "party": 2, "cluster_id": "c"},
        )
        with pytest.raises(CollectError, match="trace-2.jsonl: unsupported trace schema 1"):
            collect_run(tmp_path)

    def test_duplicate_party_refused(self, tmp_path):
        events = ping_pong()
        write_run(tmp_path, events)
        write_jsonl(
            events[1],
            str(tmp_path / "trace-1-retry.jsonl"),
            header=trace_header(
                run_id="run-A", party=1, clock_epoch_s=EPOCHS[1], host=HOST,
                cluster_id="c",
            ),
        )
        with pytest.raises(CollectError, match="duplicate trace for party 1"):
            collect_run(tmp_path)

    def test_empty_directory_refused(self, tmp_path):
        with pytest.raises(CollectError, match="no trace-"):
            collect_run(tmp_path)

    def test_result_from_other_run_refused(self, tmp_path):
        write_run(tmp_path, ping_pong())
        (tmp_path / "result-1.json").write_text(
            json.dumps({"index": 1, "run_id": "run-Z", "height": 3})
        )
        with pytest.raises(CollectError, match="does not match"):
            collect_run(tmp_path)


class TestCausalityCheck:
    """``collect --check`` holds the aligned timeline to causality, which
    only an exact alignment makes a sound check."""

    def check(self, run_dir, capsys) -> tuple[int, str]:
        (run_dir / "cluster.json").write_text(json.dumps(
            {"protocol": "icc0", "n": 2, "t": 0, "epsilon": 0.0}
        ))
        status = distributed.run(
            argparse.Namespace(run_dir=str(run_dir), report=None, check=True)
        )
        return status, capsys.readouterr().out

    def test_true_epochs_are_causal(self, tmp_path, capsys):
        status, out = self.check(write_run(tmp_path, ping_pong()), capsys)
        assert "received before sent" not in out
        assert status == 1  # nothing finalized: the telescoping check fails
        assert "spans do not telescope" in out

    def test_planted_wrong_epoch_is_named(self, tmp_path, capsys):
        """Party 2's header claims an epoch 10 ms early: its receipts of
        party 1's 5 ms messages land before they were sent."""
        planted = {**EPOCHS, 2: EPOCHS[2] - 0.010}
        run_dir = write_run(tmp_path, ping_pong(), epochs=EPOCHS)
        write_run(run_dir, {2: ping_pong()[2]}, epochs=planted)
        status, out = self.check(run_dir, capsys)
        assert status == 1
        assert (
            "20 wire spans received before sent on the aligned timeline, "
            "first (src, dst, seq) = (1, 2, 1)"
        ) in out
