"""Clock alignment and distributed-trace collection (repro.obs.distributed).

The alignment tests build synthetic two/three-party timelines with a
*known* ground-truth clock relation, then check the estimator recovers
it within its own reported uncertainty — including the adversarial case
(asymmetric link delay) where a correct estimator must widen its bound
rather than silently mis-align.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    ClockAlignment,
    CollectError,
    Meter,
    TraceEvent,
    collect_run,
    estimate_alignment,
    pair_deltas,
    read_jsonl_with_header,
    trace_header,
    write_jsonl,
)
from repro.obs.distributed import SCHEMA_VERSION, align_events, estimate_pair


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


def two_party_run(
    theta=0.030, fwd_delay=0.005, back_delay=0.005,
    count=20, spacing=0.05, drift=0.0,
):
    """Synthetic exchange between parties 1 and 2.

    Party 1's clock IS true time; party 2 reads ``true + theta + drift *
    true``.  Returns ``{1: events, 2: events}``.
    """

    def clock2(true):
        return true + theta + drift * true

    ev1, ev2 = [], []
    for k in range(count):
        t = spacing * (k + 1)
        # forward leg 1 -> 2
        send, recv = wire_pair(1, 2, k + 1, t, clock2(t + fwd_delay))
        ev1.append(send)
        ev2.append(recv)
        # backward leg 2 -> 1 (sent half a slot later)
        t_back = t + spacing / 2.0
        send, recv = wire_pair(
            2, 1, k + 1, clock2(t_back), t_back + back_delay
        )
        ev2.append(send)
        ev1.append(recv)
    return {1: ev1, 2: ev2}


class TestPairEstimation:
    def test_known_offset_recovered_within_reported_uncertainty(self):
        theta = 0.030
        events = two_party_run(theta=theta)
        alignment = estimate_alignment(events)
        assert alignment.reference == 1
        model = alignment.offsets[2]
        assert abs(model.offset - theta) <= model.uncertainty + 1e-9
        # Symmetric 5 ms links: the min-filter bound is the one-way delay.
        assert model.uncertainty <= 0.006

    def test_known_drift_recovered(self):
        theta, drift = 0.030, 2e-4
        events = two_party_run(
            theta=theta, drift=drift, fwd_delay=0.002, back_delay=0.002,
            count=60, spacing=1.0,
        )
        model = estimate_alignment(events).offsets[2]
        assert abs(model.drift - drift) < 5e-5
        for t in (0.0, 30.0, 60.0):
            true_theta = theta + drift * t
            assert abs(model.at(t) - true_theta) <= model.uncertainty + 1e-6

    def test_jitter_does_not_masquerade_as_drift(self):
        """Drift-free clocks with noisy delays must fit drift ~ 0 (the
        4x-rms acceptance guard)."""
        import random

        rng = random.Random(7)
        ev1, ev2 = [], []
        for k in range(40):
            t = 0.5 * (k + 1)
            send, recv = wire_pair(1, 2, k + 1, t, t + 0.01 + rng.uniform(0, 0.004))
            ev1.append(send)
            ev2.append(recv)
            send, recv = wire_pair(2, 1, k + 1, t + 0.25, t + 0.26 + rng.uniform(0, 0.004))
            ev2.append(send)
            ev1.append(recv)
        model = estimate_alignment({1: ev1, 2: ev2}).offsets[2]
        assert model.drift == 0.0
        assert abs(model.offset) <= model.uncertainty

    def test_asymmetric_delay_widens_bound_instead_of_misaligning(self):
        """1 ms out / 21 ms back: a naive midpoint estimator reports a
        confident -10 ms offset; the bound must cover the truth (0)."""
        asymmetric = estimate_alignment(
            two_party_run(theta=0.0, fwd_delay=0.001, back_delay=0.021)
        ).offsets[2]
        symmetric = estimate_alignment(
            two_party_run(theta=0.0, fwd_delay=0.001, back_delay=0.001)
        ).offsets[2]
        # Truth stays inside the reported bound...
        assert abs(asymmetric.offset - 0.0) <= asymmetric.uncertainty
        # ...because the bound widened to (at least) half the asymmetry.
        assert asymmetric.uncertainty >= 0.009
        assert symmetric.uncertainty < asymmetric.uncertainty

    def test_clock_sample_events_alone_suffice(self):
        """live.clock.sample events decompose back into both one-way
        directions, so a ping-only trace still aligns."""
        theta, rtt = 0.030, 0.010
        samples = [
            TraceEvent(
                time=0.1 * (k + 1), party=1, protocol="net", round=None,
                kind="live.clock.sample",
                payload={"peer": 2, "theta": theta, "rtt": rtt},
            )
            for k in range(5)
        ]
        model = estimate_alignment({1: samples, 2: []}).offsets[2]
        assert abs(model.offset - theta) <= model.uncertainty + 1e-9
        assert model.uncertainty <= rtt / 2.0 + 1e-9

    def test_unmatched_directions_yield_no_pair(self):
        send, recv = wire_pair(1, 2, 1, 0.0, 0.01)
        deltas = pair_deltas({1: [send], 2: [recv]})
        fwd, back = deltas[(1, 2)]
        assert len(fwd) == 1 and len(back) == 0
        assert estimate_pair(1, 2, fwd, back) is None

    def test_three_party_graph_solve(self):
        offsets = {1: 0.0, 2: 0.010, 3: -0.020}

        def local(p, true):
            return true + offsets[p]

        events = {1: [], 2: [], 3: []}
        seq = 0
        for a, b in ((1, 2), (2, 3), (1, 3)):
            for k in range(10):
                seq += 1
                t = 0.05 * seq
                send, recv = wire_pair(a, b, seq, local(a, t), local(b, t + 0.004))
                events[a].append(send)
                events[b].append(recv)
                send, recv = wire_pair(b, a, seq, local(b, t + 0.01), local(a, t + 0.014))
                events[b].append(send)
                events[a].append(recv)
        alignment = estimate_alignment(events)
        for party in (2, 3):
            model = alignment.offsets[party]
            assert abs(model.offset - offsets[party]) <= model.uncertainty + 1e-9
            assert model.uncertainty <= 0.005
        assert alignment.max_uncertainty < float("inf")

    def test_disconnected_party_gets_infinite_uncertainty(self):
        events = two_party_run()
        events[3] = []  # no samples linking party 3 to anyone
        alignment = estimate_alignment(events)
        assert alignment.offsets[3].offset == 0.0
        assert math.isinf(alignment.offsets[3].uncertainty)
        assert math.isinf(alignment.max_uncertainty)

    def test_align_events_shifts_onto_reference_timeline(self):
        theta = 0.030
        events = two_party_run(theta=theta, fwd_delay=0.002, back_delay=0.002)
        alignment = estimate_alignment(events)
        merged = align_events(events, alignment)
        assert [e.time for e in merged] == sorted(e.time for e in merged)
        # After alignment every wire span is causal: recv after send,
        # by roughly the true transit delay.
        sends = {
            (e.party, e.payload["dst"], e.payload["seq"]): e.time
            for e in merged if e.kind == "net.wire.send"
        }
        for e in merged:
            if e.kind == "net.wire.recv":
                t_send = sends[(e.payload["src"], e.party, e.payload["seq"])]
                transit = e.time - t_send
                assert -0.001 <= transit <= 0.01

    def test_align_events_shifts_not_before_with_its_event(self):
        """``not_before`` is an instant on the emitting party's clock; left
        unshifted, the critical path would compare two different clocks."""
        events = two_party_run(theta=0.030)
        events[2].append(TraceEvent(
            time=1.25, party=2, protocol="ICC0", round=3,
            kind="icc.share.notarization",
            payload={"block": "ab", "not_before": 1.2},
        ))
        alignment = estimate_alignment(events)
        [share] = [
            e for e in align_events(events, alignment)
            if e.kind == "icc.share.notarization"
        ]
        assert share.time == alignment.shift(2, 1.25)
        assert share.payload["not_before"] == alignment.shift(2, 1.2)
        assert share.time - share.payload["not_before"] == pytest.approx(0.05)
        assert abs(share.time - 1.25) > 0.02  # the shift is not a no-op here
        assert events[2][-1].payload["not_before"] == 1.2  # input untouched

    def test_alignment_dict_round_trip(self):
        alignment = estimate_alignment(two_party_run())
        clone = ClockAlignment.from_dict(
            json.loads(json.dumps(alignment.to_dict()))
        )
        assert clone.reference == alignment.reference
        for t in (0.0, 1.0, 7.5):
            assert clone.shift(2, t) == pytest.approx(alignment.shift(2, t))
        assert clone.max_uncertainty == pytest.approx(alignment.max_uncertainty)


class TestCollectRun:
    def write_run(self, tmp_path, run_id="run-A", schemas=None, parties=(1, 2)):
        events = two_party_run()
        for party in parties:
            header = trace_header(
                run_id=run_id, party=party, cluster_id="c",
                schema=(schemas or {}).get(party, SCHEMA_VERSION),
            )
            write_jsonl(
                events.get(party, []),
                str(tmp_path / f"trace-{party}.jsonl"),
                header=header,
            )
        return tmp_path

    def test_merges_traces_meters_and_results(self, tmp_path):
        self.write_run(tmp_path)
        meter = Meter()
        meter.count("net.messages", 5)
        meter.write_json(str(tmp_path / "meter-1.json"))
        meter.write_json(str(tmp_path / "meter-2.json"))
        (tmp_path / "result-1.json").write_text(
            json.dumps({"index": 1, "run_id": "run-A", "height": 3})
        )
        collected = collect_run(tmp_path)
        assert collected.run_id == "run-A"
        assert collected.cluster_id == "c"
        assert collected.parties == [1, 2]
        assert collected.meter.counter_value("net.messages") == 10
        assert collected.results[1]["height"] == 3
        assert [e.time for e in collected.events] == sorted(
            e.time for e in collected.events
        )
        # The merged trace is itself a headered, attributable export.
        header, events = read_jsonl_with_header(collected.merged_trace_path)
        assert header["run_id"] == "run-A"
        assert header["merged"] is True
        assert header["parties"] == [1, 2]
        assert len(events) == len(collected.events)
        assert (tmp_path / "merged-meter.json").exists()
        alignment = json.loads((tmp_path / "alignment.json").read_text())
        assert alignment["reference"] == 1
        assert "2" in alignment["offsets"]

    def test_write_false_leaves_directory_untouched(self, tmp_path):
        self.write_run(tmp_path)
        collected = collect_run(tmp_path, write=False)
        assert collected.merged_trace_path == ""
        assert not (tmp_path / "merged-trace.jsonl").exists()
        assert not (tmp_path / "alignment.json").exists()

    def test_mixed_run_ids_refused(self, tmp_path):
        self.write_run(tmp_path, run_id="run-A", parties=(1,))
        self.write_run(tmp_path, run_id="run-B", parties=(2,))
        with pytest.raises(CollectError, match="mixed run_ids"):
            collect_run(tmp_path)

    def test_headerless_trace_refused(self, tmp_path):
        events = two_party_run()
        write_jsonl(events[1], str(tmp_path / "trace-1.jsonl"))
        with pytest.raises(CollectError, match="no trace header"):
            collect_run(tmp_path)

    def test_unsupported_schema_refused(self, tmp_path):
        self.write_run(tmp_path, schemas={2: SCHEMA_VERSION + 1})
        with pytest.raises(CollectError, match="unsupported trace schema"):
            collect_run(tmp_path)

    def test_duplicate_party_refused(self, tmp_path):
        self.write_run(tmp_path, parties=(1, 2))
        events = two_party_run()
        write_jsonl(
            events[1],
            str(tmp_path / "trace-1-retry.jsonl"),
            header=trace_header(run_id="run-A", party=1, cluster_id="c"),
        )
        with pytest.raises(CollectError, match="duplicate trace for party 1"):
            collect_run(tmp_path)

    def test_empty_directory_refused(self, tmp_path):
        with pytest.raises(CollectError, match="no trace-"):
            collect_run(tmp_path)

    def test_result_from_other_run_refused(self, tmp_path):
        self.write_run(tmp_path)
        (tmp_path / "result-1.json").write_text(
            json.dumps({"index": 1, "run_id": "run-Z", "height": 3})
        )
        with pytest.raises(CollectError, match="does not match"):
            collect_run(tmp_path)
