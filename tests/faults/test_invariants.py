"""The invariant checker, against hand-built cluster doubles."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults import (
    CrashFault,
    OutageFault,
    RecoverFault,
    Scenario,
    check_invariants,
)


@dataclass(frozen=True)
class Entry:
    round: int
    hash: bytes


@dataclass(frozen=True)
class Commit:
    time: float


@dataclass
class FakeParty:
    index: int
    output_log: list
    network: object = None
    metrics: object = None


@dataclass
class FakeNetwork:
    crashed: set = field(default_factory=set)

    def is_crashed(self, index: int) -> bool:
        return index in self.crashed


@dataclass
class FakeMetrics:
    commits: dict

    def commits_of(self, index: int) -> list:
        return self.commits.get(index, [])


@dataclass
class FakeConfig:
    delta_bound: float = 0.5


class FakeCluster:
    def __init__(self, parties, commits, crashed=(), safety_error=None):
        self.honest_parties = parties
        # The checker reads each party's own network and metrics: one
        # shared object each, as in the simulator.
        network, metrics = FakeNetwork(set(crashed)), FakeMetrics(commits)
        for party in parties:
            party.network, party.metrics = network, metrics
        self.config = FakeConfig()
        self._safety_error = safety_error

    def check_safety(self):
        if self._safety_error:
            raise AssertionError(self._safety_error)


def chain(*hashes: bytes) -> list[Entry]:
    return [Entry(round=i, hash=h) for i, h in enumerate(hashes)]


TRANSIENT = Scenario(name="s", events=(
    CrashFault(at=1.0, party=2), RecoverFault(at=4.0, party=2),
))  # clears at 4.0; deadline = 4.0 + 12 * 0.5 = 10.0


class TestSafety:
    def test_agreeing_logs_pass(self):
        cluster = FakeCluster(
            [FakeParty(1, chain(b"a", b"b")), FakeParty(2, chain(b"a", b"b", b"c"))],
            {1: [Commit(5.0)], 2: [Commit(5.0)]},
        )
        report = check_invariants(cluster, TRANSIENT, duration=20.0)
        assert report.ok
        assert report.safety_ok and report.liveness_ok
        assert "safety OK" in report.describe()

    def test_conflicting_height_flagged(self):
        cluster = FakeCluster(
            [FakeParty(1, chain(b"a", b"b")), FakeParty(2, chain(b"a", b"X"))],
            {1: [Commit(5.0)], 2: [Commit(5.0)]},
        )
        report = check_invariants(cluster, TRANSIENT, duration=20.0)
        assert not report.safety_ok
        assert any("height 1" in v.detail for v in report.violations)

    def test_cluster_prefix_check_failure_flagged(self):
        cluster = FakeCluster(
            [FakeParty(1, chain(b"a"))], {1: [Commit(5.0)]},
            safety_error="prefix mismatch",
        )
        report = check_invariants(cluster, TRANSIENT, duration=20.0)
        assert not report.safety_ok
        assert any("prefix mismatch" in v.detail for v in report.violations)

    def test_baseline_height_logs_supported(self):
        @dataclass(frozen=True)
        class Batch:
            height: int
            digest: bytes

        cluster = FakeCluster(
            [FakeParty(1, [Batch(0, b"a")]), FakeParty(2, [Batch(0, b"z")])],
            {1: [Commit(5.0)], 2: [Commit(5.0)]},
        )
        report = check_invariants(cluster, TRANSIENT, duration=20.0)
        assert not report.safety_ok


class TestLiveness:
    def test_not_assessable_when_run_too_short(self):
        cluster = FakeCluster([FakeParty(1, chain(b"a"))], {1: []})
        report = check_invariants(cluster, TRANSIENT, duration=9.0)
        assert report.ok
        assert not report.liveness_checked
        assert report.liveness_deadline is None
        assert "liveness n/a" in report.describe()

    def test_no_commit_after_clear_flagged(self):
        cluster = FakeCluster(
            [FakeParty(1, chain(b"a"))], {1: [Commit(2.0)]},  # only pre-fault
        )
        report = check_invariants(cluster, TRANSIENT, duration=20.0)
        assert not report.liveness_ok
        assert any("never committed" in v.detail for v in report.violations)

    def test_late_first_commit_flagged(self):
        cluster = FakeCluster(
            [FakeParty(1, chain(b"a"))], {1: [Commit(15.0)]},  # past 10.0
        )
        report = check_invariants(cluster, TRANSIENT, duration=20.0)
        assert not report.liveness_ok
        assert any("bound" in v.detail for v in report.violations)

    def test_commit_inside_deadline_passes(self):
        cluster = FakeCluster(
            [FakeParty(1, chain(b"a"))], {1: [Commit(2.0), Commit(9.5)]},
        )
        report = check_invariants(cluster, TRANSIENT, duration=20.0)
        assert report.liveness_ok
        assert report.liveness_deadline == 10.0

    def test_crashed_at_end_excluded(self):
        unrecovered = Scenario(name="s", events=(CrashFault(at=1.0, party=2),))
        cluster = FakeCluster(
            [FakeParty(1, chain(b"a")), FakeParty(2, chain(b"a"))],
            {1: [Commit(2.0)], 2: []},
            crashed={2},
        )
        report = check_invariants(cluster, unrecovered, duration=20.0)
        assert report.liveness_ok
        assert report.parties_checked == (1,)

    def test_round_time_override(self):
        cluster = FakeCluster(
            [FakeParty(1, chain(b"a"))], {1: [Commit(5.9)]},
        )
        report = check_invariants(
            cluster, TRANSIENT, duration=20.0, round_time=0.1, liveness_rounds=10
        )  # deadline 4.0 + 1.0 = 5.0: commit at 5.9 is late
        assert not report.liveness_ok

    def test_byzantine_only_scenario_checks_from_zero(self):
        static = Scenario(name="s", events=())
        cluster = FakeCluster([FakeParty(1, chain(b"a"))], {1: [Commit(0.5)]})
        report = check_invariants(cluster, static, duration=20.0)
        assert report.clear_time == 0.0
        assert report.liveness_ok

    def test_outage_clear_time(self):
        s = Scenario(name="s", events=(OutageFault(start=1.0, end=7.0),))
        cluster = FakeCluster([FakeParty(1, chain(b"a"))], {1: [Commit(8.0)]})
        report = check_invariants(cluster, s, duration=30.0)
        assert report.clear_time == 7.0
        assert report.liveness_ok
