"""Tests for the metrics collector."""

from __future__ import annotations

from repro.sim.metrics import Metrics


class TestBroadcastConventions:
    """Pin the two deliberately-different broadcast accounting rules.

    The paper counts one broadcast as n messages ("one party broadcasting
    a message contributes a term of n to the message complexity",
    Section 1), self-delivery included; bytes are charged only for the
    n - 1 copies that cross the wire.  The ``on_broadcast`` docstring
    documents both — this class is the test it points at.
    """

    def test_messages_count_n_per_broadcast(self):
        m = Metrics(n=7)
        m.on_broadcast(3, 100, "block", round=2)
        assert m.msgs_sent[3] == 7
        assert m.msgs_by_kind["block"] == 7
        assert m.msgs_by_round[2] == 7

    def test_bytes_charge_n_minus_1_wire_copies(self):
        m = Metrics(n=7)
        m.on_broadcast(3, 100, "block")
        assert m.bytes_sent[3] == 100 * 6
        assert m.bytes_by_kind["block"] == 100 * 6

    def test_send_counts_one_message_full_bytes(self):
        m = Metrics(n=7)
        m.on_send(3, 100, "share", round=2)
        assert m.msgs_sent[3] == 1
        assert m.bytes_sent[3] == 100
        assert m.msgs_by_round[2] == 1


class TestTraffic:
    def test_mean_egress(self):
        m = Metrics(n=2)
        m.on_broadcast(1, 1000, "block")  # 1000 bytes to 1 other party
        assert m.mean_sent_bits_per_second(horizon=1.0) == 1000 * 8 / 2

    def test_max_egress_is_bottleneck_measure(self):
        m = Metrics(n=3)
        m.on_send(1, 900, "block")
        m.on_send(2, 100, "block")
        assert m.max_sent_bits_per_second(horizon=1.0) == 900 * 8

    def test_zero_horizon(self):
        m = Metrics(n=2)
        assert m.mean_sent_bits_per_second(0.0) == 0.0
        assert m.max_sent_bits_per_second(0.0) == 0.0


class TestCommits:
    def test_blocks_per_second_per_observer(self):
        m = Metrics(n=2)
        for k in range(1, 6):
            m.on_commit(time=float(k), observer=1, round=k, proposer=1, payload_bytes=0)
        m.on_commit(time=1.0, observer=2, round=1, proposer=1, payload_bytes=0)
        assert m.blocks_per_second(1, horizon=5.0) == 1.0
        assert m.blocks_per_second(2, horizon=5.0) == 0.2

    def test_latencies_skip_unknown_propose_time(self):
        m = Metrics(n=2)
        m.on_commit(time=3.0, observer=1, round=1, proposer=1, payload_bytes=0, proposed_at=1.0)
        m.on_commit(time=3.0, observer=1, round=2, proposer=1, payload_bytes=0)  # unknown
        assert m.commit_latencies() == [2.0]


class TestRounds:
    def test_round_durations(self):
        m = Metrics(n=2)
        m.on_round_entry(1, 1, 0.0)
        m.on_round_entry(1, 2, 0.2)
        m.on_round_entry(1, 3, 0.5)
        durations = m.round_durations(1)
        assert durations == {1: 0.2, 2: 0.3}

    def test_round_entry_keeps_first(self):
        m = Metrics(n=2)
        m.on_round_entry(1, 1, 0.0)
        m.on_round_entry(1, 1, 9.9)  # duplicate ignored
        assert m.round_entry[(1, 1)] == 0.0


class TestSummaryAndNull:
    def test_summary_keys(self):
        m = Metrics(n=2)
        m.count("things", 3)
        summary = m.summary(horizon=10.0)
        assert summary["n"] == 2
        assert summary["counters"]["things"] == 3
