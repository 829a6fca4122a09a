"""Chaos sweeps: generator coherence, invariants hold, full determinism."""

from __future__ import annotations

import pytest

from repro.experiments import chaos, runner
from repro.faults import generate_scenario
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
