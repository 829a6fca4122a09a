"""Distributed-trace collection (repro.obs.distributed).

The tests build synthetic runs on one host clock: each party stamps its
events with the host's monotonic time, exactly as a live party does, and
names that clock in its trace header.  Collection merges them by time, so
every wire span is the link delay that produced it.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.analysis.critical_path import wire_spans
from repro.obs import (
    CollectError,
    TraceEvent,
    collect_run,
    read_jsonl_with_header,
    trace_header,
    write_jsonl,
)
from repro.obs.distributed import SCHEMA_VERSION

HOST = "272f3dad-e662-4783-9214-c673578d8314 time:[4026531834]"


def wire_pair(src, dst, seq, t_send, t_recv, nbytes=64):
    """A matched net.wire.send / net.wire.recv event pair, stamped with
    host-clock readings."""
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


def exchange(legs, skew=None):
    """Per-party events of wire ``legs`` — ``(src, dst, sent, delay)`` in
    host-clock seconds.  ``skew`` maps a party to an error its (broken)
    clock adds to every reading."""
    skew = skew or {}
    events = {p: [] for leg in legs for p in leg[:2]}
    for seq, (src, dst, sent, delay) in enumerate(legs, 1):
        send, recv = wire_pair(
            src, dst, seq, sent + skew.get(src, 0.0),
            sent + delay + skew.get(dst, 0.0),
        )
        events[src].append(send)
        events[dst].append(recv)
    return events


def ping_pong(fwd=0.005, back=0.005, count=20, start=5124.0, skew=None):
    """Parties 1 and 2 trade ``count`` messages each way."""
    legs = []
    for k in range(count):
        t = start + 0.05 * k
        legs += [(1, 2, t, fwd), (2, 1, t + 0.025, back)]
    return exchange(legs, skew)


def write_run(run_dir, events, overrides=None):
    """One headered ``trace-<party>.jsonl`` per party; ``overrides`` maps
    a party to header fields that differ from the run's."""
    for party, party_events in events.items():
        header = trace_header(
            run_id="run-A", party=party, host=HOST, cluster_id="c",
        )
        header.update((overrides or {}).get(party, {}))
        write_jsonl(party_events, str(run_dir / f"trace-{party}.jsonl"), header=header)
    return run_dir


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
        # the host's clock.
        header, events = read_jsonl_with_header(collected.merged_trace_path)
        assert header["run_id"] == "run-A"
        assert header["merged"] is True
        assert header["parties"] == [1, 2]
        assert header["host"] == HOST
        assert "clock_epoch_s" not in header
        assert events == collected.events
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "merged-trace.jsonl", "result-1.json", "trace-1.jsonl", "trace-2.jsonl",
        ]

    def test_wire_spans_are_the_link_delays(self, tmp_path):
        """Merging shifts nothing: 1 ms out and 21 ms back read as such."""
        collected = collect_run(write_run(tmp_path, ping_pong(0.001, 0.021)))
        spans = wire_spans(collected.events)
        assert {round(spans[(1, 2, seq)], 9) for seq in range(1, 40, 2)} == {0.001}
        assert {round(spans[(2, 1, seq)], 9) for seq in range(2, 41, 2)} == {0.021}

    def test_three_parties_merge_by_time(self, tmp_path):
        legs = [
            (a, b, 5124.0 + 0.01 * k, 0.004)
            for k, (a, b) in enumerate([(1, 2), (2, 3), (3, 1), (3, 2), (1, 3)])
        ]
        collected = collect_run(write_run(tmp_path, exchange(legs)))
        assert collected.parties == [1, 2, 3]
        assert [e.time for e in collected.events] == sorted(
            e.time for e in collected.events
        )
        assert [round(span, 9) for span in wire_spans(collected.events).values()] == (
            [0.004] * 5
        )

    def test_write_false_leaves_directory_untouched(self, tmp_path):
        write_run(tmp_path, ping_pong())
        collected = collect_run(tmp_path, write=False)
        assert collected.merged_trace_path == ""
        assert not (tmp_path / "merged-trace.jsonl").exists()

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

    def test_schema_2_refused(self, tmp_path):
        """Schema-2 times count from each party's own epoch: merged as
        they are, they would not share a timeline."""
        write_run(tmp_path, ping_pong(), overrides={2: {"schema": 2}})
        with pytest.raises(CollectError, match="trace-2.jsonl: unsupported trace schema 2"):
            collect_run(tmp_path)

    def test_schema_1_refused(self, tmp_path):
        """A schema-1 header names no host clock."""
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
            header=trace_header(run_id="run-A", party=1, host=HOST, cluster_id="c"),
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
    """``report --load --check`` holds the host timeline to causality,
    which every party reading one clock makes a sound check."""

    def check(self, run_dir, capsys) -> tuple[int, str]:
        (run_dir / "cluster.json").write_text(json.dumps(
            {"protocol": "icc0", "n": 2, "t": 0, "epsilon": 0.0}
        ))
        with pytest.raises(SystemExit) as exc:
            main([
                "report", str(run_dir / "report.md"), "--load",
                "--trace-dir", str(run_dir), "--check",
            ])
        return exc.value.code, capsys.readouterr().out

    def test_host_timeline_is_causal(self, tmp_path, capsys):
        status, out = self.check(write_run(tmp_path, ping_pong()), capsys)
        assert "received before sent" not in out
        assert status == 1  # nothing finalized
        assert "report --check FAILED: merged-trace: no finalized heights" in out

    def test_planted_clock_error_is_named(self, tmp_path, capsys):
        """Party 2's clock reads 10 ms early: its receipts of party 1's
        5 ms messages land before they were sent."""
        run_dir = write_run(tmp_path, ping_pong(skew={2: -0.010}))
        status, out = self.check(run_dir, capsys)
        assert status == 1
        assert (
            "20 wire spans received before sent on the host timeline, "
            "first (src, dst, seq) = (1, 2, 1)"
        ) in out
