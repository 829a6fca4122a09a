"""Scenario schema: validation, serialization, derived properties."""

from __future__ import annotations

import json
import math

import pytest

from repro.faults import (
    ByzantineFault,
    CrashFault,
    LinkFault,
    OutageFault,
    PartitionFault,
    RecoverFault,
    Scenario,
    ScenarioError,
    outage_schedule,
)


def scenario(*events) -> Scenario:
    return Scenario(name="test", seed=3, events=tuple(events))


class TestValidation:
    def test_coherent_scenario_passes(self):
        scenario(
            ByzantineFault(party=1, behavior="silent"),
            CrashFault(at=1.0, party=2),
            RecoverFault(at=2.0, party=2),
            PartitionFault(at=3.0, group=(2, 3), heal_at=4.0),
            LinkFault(start=0.0, end=5.0, drop_prob=0.5),
            OutageFault(start=1.0, end=2.0),
            LinkFault(start=0.0, end=1.0, sender=4, extra_delay=0.1),
        ).validate(4)

    @pytest.mark.parametrize("bad", [
        CrashFault(at=1.0, party=0),
        CrashFault(at=1.0, party=5),
        CrashFault(at=-1.0, party=1),
        PartitionFault(at=1.0, group=(), heal_at=2.0),
        PartitionFault(at=1.0, group=(9,), heal_at=2.0),
        PartitionFault(at=2.0, group=(1,), heal_at=2.0),
        LinkFault(start=2.0, end=1.0),
        LinkFault(start=0.0, end=1.0, drop_prob=1.5),
        LinkFault(start=0.0, end=1.0, duplicate_prob=-0.1),
        LinkFault(start=0.0, end=1.0, sender=12),
        LinkFault(start=0.0, end=1.0, extra_delay=-1.0),
        OutageFault(start=-1.0, end=1.0),
        LinkFault(start=0.0, end=1.0, sender=1, extra_delay=-0.5),
        ByzantineFault(party=7, behavior="silent"),
    ])
    def test_incoherent_event_rejected(self, bad):
        with pytest.raises(ScenarioError):
            scenario(bad).validate(4)

    @pytest.mark.parametrize("field, bad", [
        ("at", CrashFault(at=math.nan, party=1)),
        ("at", RecoverFault(at=math.inf, party=1)),
        ("at", PartitionFault(at=math.nan, group=(1,), heal_at=2.0)),
        ("heal_at", PartitionFault(at=1.0, group=(1,), heal_at=math.nan)),
        ("start", LinkFault(start=math.nan, end=1.0)),
        ("end", LinkFault(start=0.0, end=math.inf)),
        ("drop_prob", LinkFault(start=0.0, end=1.0, drop_prob=math.nan)),
        ("duplicate_prob", LinkFault(start=0.0, end=1.0, duplicate_prob=math.nan)),
        ("corrupt_prob", LinkFault(start=0.0, end=1.0, corrupt_prob=math.nan)),
        ("extra_delay", LinkFault(start=0.0, end=1.0, extra_delay=math.nan)),
        ("jitter", LinkFault(start=0.0, end=1.0, jitter=math.inf)),
        ("end", OutageFault(start=0.0, end=math.nan)),
        ("start", LinkFault(start=math.nan, end=1.0, sender=1, extra_delay=0.1)),
    ])
    def test_non_finite_number_rejected_naming_the_field(self, field, bad):
        """NaN fails every range comparison, so it used to pass validation
        and then either crash the event queue or leave the fault inert."""
        with pytest.raises(ScenarioError, match=rf"^{bad.kind}: {field} is "):
            scenario(bad).validate(4)

    def test_crash_recover_must_alternate(self):
        with pytest.raises(ScenarioError, match="crashed twice"):
            scenario(
                CrashFault(at=1.0, party=1), CrashFault(at=2.0, party=1)
            ).validate(4)
        with pytest.raises(ScenarioError, match="recovered without"):
            scenario(RecoverFault(at=1.0, party=1)).validate(4)

    def test_alternation_checked_in_time_order(self):
        # Events listed out of order are fine — time order is what counts.
        scenario(
            RecoverFault(at=2.0, party=1), CrashFault(at=1.0, party=1)
        ).validate(4)

    def test_double_byzantine_rejected(self):
        with pytest.raises(ScenarioError, match="corrupted twice"):
            scenario(
                ByzantineFault(party=1, behavior="silent"),
                ByzantineFault(party=1, behavior="lazy-leader"),
            ).validate(4)

    def test_byzantine_and_crash_overlap_rejected(self):
        with pytest.raises(ScenarioError, match="both Byzantine and crash"):
            scenario(
                ByzantineFault(party=1, behavior="silent"),
                CrashFault(at=1.0, party=1),
                RecoverFault(at=2.0, party=1),
            ).validate(4)


class TestDerived:
    def test_clear_time_is_max_transient_settle(self):
        s = scenario(
            ByzantineFault(party=1, behavior="silent"),  # standing: counts 0
            CrashFault(at=1.0, party=2),
            RecoverFault(at=7.0, party=2),
            PartitionFault(at=2.0, group=(3,), heal_at=9.0),
            LinkFault(start=0.0, end=4.0, drop_prob=0.1),
        )
        assert s.clear_time() == 9.0
        assert scenario(ByzantineFault(party=1, behavior="silent")).clear_time() == 0.0

    def test_needs_interceptor(self):
        assert not scenario(CrashFault(at=1.0, party=1)).needs_interceptor()
        assert scenario(LinkFault(start=0.0, end=1.0)).needs_interceptor()
        assert scenario(OutageFault(start=0.0, end=1.0)).needs_interceptor()
        assert scenario(
            PartitionFault(at=0.0, group=(1,), heal_at=1.0)
        ).needs_interceptor()

    def test_byzantine_map_and_describe(self):
        s = scenario(
            ByzantineFault(party=2, behavior="silent"),
            CrashFault(at=1.0, party=3),
            RecoverFault(at=2.0, party=3),
        )
        assert set(s.byzantine()) == {2}
        assert s.describe() == "1 byzantine, 1 crash, 1 recover"
        assert Scenario(name="x").describe() == "fault-free"


class TestSerialization:
    def test_json_round_trip(self):
        s = scenario(
            ByzantineFault(party=1, behavior="slow-proposer",
                           params=(("propose_lag", 2.0),)),
            CrashFault(at=1.0, party=2),
            RecoverFault(at=2.0, party=2),
            PartitionFault(at=3.0, group=(2, 3), heal_at=4.0),
            LinkFault(start=0.0, end=5.0, sender=1, drop_prob=0.5, jitter=0.1),
            OutageFault(start=1.0, end=2.0),
            LinkFault(start=0.0, end=1.0, sender=4, extra_delay=0.1),
        )
        # Through an actual JSON string, not just dicts.
        restored = Scenario.from_dict(json.loads(json.dumps(s.to_dict())))
        assert restored == s

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ScenarioError, match="unknown fault event kind"):
            Scenario.from_dict({"name": "x", "events": [{"kind": "meteor"}]})

    def test_from_dict_rejects_bad_fields(self):
        with pytest.raises(ScenarioError, match="bad crash event"):
            Scenario.from_dict(
                {"name": "x", "events": [{"kind": "crash", "when": 1.0}]}
            )


class TestOutageSchedule:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ScenarioError):
            outage_schedule(10.0, 0.0, 100.0)
        with pytest.raises(ScenarioError):
            outage_schedule(10.0, 11.0, 100.0)

    def test_windows_complement_sync_windows(self):
        period, sync_len = 20.0, 5.0
        windows = outage_schedule(period, sync_len, 100.0)

        def in_outage(t: float) -> bool:
            return any(start <= t < end for start, end in
                       ((w.start, w.end) for w in windows))

        for t in [0.0, 4.999, 5.0, 12.0, 19.999, 20.0, 24.999, 25.0, 97.0]:
            assert in_outage(t) == (t % period >= sync_len), t

    def test_always_synchronous_has_no_windows(self):
        """``sync_len == period`` is a network that is never out: no
        window, where a zero-length one used to fail validation."""
        assert outage_schedule(10.0, 10.0, 100.0) == ()
        scenario(*outage_schedule(10.0, 10.0, 100.0)).validate(4)

    def test_covers_the_full_duration(self):
        windows = outage_schedule(20.0, 5.0, 100.0)
        # The last window must extend past the duration so a message sent
        # at t=duration inside an async stretch still gets stretched.
        assert windows[-1].end >= 100.0
