"""Chaos sweeps: generator coherence, invariants hold, full determinism."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import build_cluster
from repro.core.messages import Block, Payload
from repro.experiments import chaos, runner
from repro.faults import check_invariants, generate_scenario
from repro.__main__ import main as cli_main


class TestGenerator:
    def test_scenarios_validate_and_are_deterministic(self):
        for seed in range(12):
            a = generate_scenario(seed, n=7, t=2, duration=40.0)
            b = generate_scenario(seed, n=7, t=2, duration=40.0)
            assert a == b
            a.validate(7)

    def test_different_seeds_differ(self):
        assert generate_scenario(0, 7, 2, 40.0) != generate_scenario(1, 7, 2, 40.0)

    def test_fault_budget_respected(self):
        # Byzantine + concurrently-crashed must never exceed t: beyond t
        # the tree stalls and once-broadcast beacon shares are lost for
        # good (see generate.py) — the scenario would be uncheckable.
        for seed in range(30):
            s = generate_scenario(seed, n=7, t=2, duration=40.0)
            n_byz = len(s.byzantine())
            crashes = s.of_kind("crash")
            recovers = {e.party: e.at for e in s.of_kind("recover")}
            moments = sorted({e.at for e in crashes})
            for now in moments:
                down = sum(
                    1 for e in crashes
                    if e.at <= now < recovers.get(e.party, float("inf"))
                )
                assert n_byz + down <= 2, f"seed {seed} over budget at t={now}"

    def test_transients_settle_before_the_tail(self):
        for seed in range(12):
            s = generate_scenario(seed, n=7, t=2, duration=40.0)
            assert s.clear_time() <= 0.6 * 40.0


class TestInvariantsHold:
    @pytest.mark.parametrize("protocol", ["ICC0", "ICC1", "ICC2"])
    def test_generated_scenarios_pass(self, protocol):
        result = chaos.run_scenario(
            protocol=protocol, scenario_seed=0, duration=30.0
        )
        assert result.ok, result.violations
        assert result.liveness_checked
        assert result.min_committed > 0


class TestStateTransferGap:
    """Chaos scenario 3 at ``gc_depth=8``: party 4 recovers after its peers
    pruned the rounds it missed, so it state-transfers past them and its log
    has a gap.  The safety check compares logs per height, skipping each
    party's declared gaps: the run is safe, and a planted conflict is not."""

    GAPS = {"ICC0": [(41, 46)], "ICC1": [(30, 33)], "ICC2": [(28, 32)]}

    def run(self, monkeypatch, protocol):
        built = []

        def shallow(config):
            built.append(build_cluster(replace(config, gc_depth=8)))
            return built[-1]

        monkeypatch.setattr(chaos, "build_cluster", shallow)
        result = chaos.run_scenario(protocol=protocol, scenario_seed=3, duration=30.0)
        return result, built[0]

    @pytest.mark.parametrize("protocol", ["ICC0", "ICC1", "ICC2"])
    def test_jump_past_pruned_history_is_safe(self, monkeypatch, protocol):
        result, cluster = self.run(monkeypatch, protocol)
        assert result.ok, result.violations
        jumped = cluster.party(4)
        assert jumped.state_transfer_gaps == self.GAPS[protocol]
        (first, last), = jumped.state_transfer_gaps
        assert len(jumped.output_log) == jumped.k_max - (last - first + 1)
        cluster.check_safety()

    def test_planted_conflicts_still_fail(self, monkeypatch):
        _, cluster = self.run(monkeypatch, "ICC0")
        scenario = generate_scenario(3, n=7, t=2, duration=30.0)
        assert check_invariants(cluster, scenario, 30.0).ok

        def plant(party, round):
            log = party.output_log
            at = next(i for i, block in enumerate(log) if block.round == round)
            original = log[at]
            log[at] = Block(
                round=round, proposer=original.proposer,
                parent_hash=original.parent_hash,
                payload=Payload(commands=(b"planted",)),
            )
            return lambda: log.__setitem__(at, original)

        # After the jumper's gap, inside it (the others hold that height), and
        # a hole a party does not declare.
        for party, round in ((4, 50), (1, 43)):
            undo = plant(cluster.party(party), round)
            report = check_invariants(cluster, scenario, 30.0)
            assert not report.safety_ok, (party, round)
            with pytest.raises(AssertionError, match="diverge"):
                cluster.check_safety()
            undo()
        cluster.check_safety()
        del cluster.party(1).output_log[42]
        with pytest.raises(AssertionError, match="diverge"):
            cluster.check_safety()


class TestDeterminism:
    def test_repeated_runs_identical(self):
        first = chaos.run_scenario(protocol="ICC0", scenario_seed=1, duration=30.0)
        second = chaos.run_scenario(protocol="ICC0", scenario_seed=1, duration=30.0)
        assert first == second

    def test_serial_and_parallel_identical_with_traces(self, tmp_path):
        suite = chaos.specs(seeds=(0,), protocols=("ICC0", "ICC1"), duration=30.0)
        d1, d2 = tmp_path / "serial", tmp_path / "parallel"
        serial = runner.execute(suite, jobs=1, trace_dir=str(d1))
        parallel = runner.execute(suite, jobs=2, trace_dir=str(d2))
        assert serial == parallel
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        assert names1 == names2 == [
            "0000-icc0-n7-seed101.jsonl", "0001-icc1-n7-seed101.jsonl",
        ]
        for name in names1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_traces_record_fault_events(self, tmp_path):
        from repro.obs import read_jsonl

        suite = chaos.specs(seeds=(0,), protocols=("ICC0",), duration=30.0)
        runner.execute(suite, jobs=1, trace_dir=str(tmp_path))
        events = read_jsonl(str(tmp_path / "0000-icc0-n7-seed101.jsonl"))
        kinds = {e.kind for e in events}
        assert "fault.inject" in kinds
        assert kinds & {"fault.drop", "fault.delay", "fault.corrupt",
                        "fault.duplicate", "fault.crash", "fault.partition"}

    def test_tracing_does_not_change_results(self, tmp_path):
        suite = chaos.specs(seeds=(0,), protocols=("ICC0",), duration=30.0)
        untraced = runner.execute(suite, jobs=1)
        traced = runner.execute(suite, jobs=1, trace_dir=str(tmp_path))
        assert untraced == traced


class TestCli:
    def test_chaos_smoke(self, capsys):
        cli_main([
            "chaos", "--seed", "0", "--protocols", "icc0",
            "--duration", "30", "--n", "7",
        ])
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "OK" in out
        assert "satisfied safety + bounded liveness" in out

    def test_chaos_output_deterministic(self, capsys):
        args = ["chaos", "--seed", "1", "--protocols", "icc0", "--duration", "30"]
        cli_main(args)
        first = capsys.readouterr().out
        cli_main(args + ["--jobs", "2"])
        second = capsys.readouterr().out
        assert first == second
