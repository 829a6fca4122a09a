"""The parallel experiment runner: serial/parallel equivalence and CLI.

The load-bearing guarantee is *bit-identical results at any job count*:
every RunSpec carries its own seed, so fanning runs across a pool must
change nothing observable — result objects, printed tables, or per-run
trace files.  These tests run a trimmed suite both ways and compare all
three.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import (
    intermittent, robustness, runner, run_all, sharding, throughput_latency,
)

#: Trimmed but heterogeneous suite: four executor kinds, ~seconds total.
def _suite() -> list[runner.RunSpec]:
    return (
        throughput_latency.specs(deltas=(0.05,), protocols=("ICC0", "ICC2"), rounds=8)
        + robustness.specs(n=7, duration=20.0)
        + intermittent.specs(duration=40.0)
        + sharding.specs(ks=(2,), xfrac=0.25)  # a whole deployment per worker
    )


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown run kind"):
        runner.spec("x", "no.such.executor")


def test_run_spec_matches_direct_call():
    spec = throughput_latency.specs(deltas=(0.1,), protocols=("ICC0",), rounds=6)[0]
    assert runner.run_spec(spec) == throughput_latency.run_one("ICC0", 0.1, n=7, rounds=6)


def test_execute_rejects_bad_jobs():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        runner.execute(_suite(), jobs=0)


def test_execute_empty_suite():
    assert runner.execute([], jobs=4) == []


def test_serial_and_parallel_results_identical():
    specs = _suite()
    serial = runner.execute(specs, jobs=1)
    parallel = runner.execute(specs, jobs=3)
    assert serial == parallel


def test_serial_and_parallel_tables_byte_identical(capsys):
    specs = _suite()[:2]
    tl_specs = throughput_latency.specs(deltas=(0.05,), protocols=("ICC0", "ICC2"), rounds=8)

    throughput_latency.tabulate(tl_specs, runner.execute(tl_specs, jobs=1))
    serial_out = capsys.readouterr().out
    throughput_latency.tabulate(tl_specs, runner.execute(tl_specs, jobs=2))
    parallel_out = capsys.readouterr().out
    assert serial_out == parallel_out
    assert "E1/E2" in serial_out


def test_trace_files_deterministic_across_job_counts(tmp_path):
    specs = throughput_latency.specs(deltas=(0.05,), protocols=("ICC0", "ICC1"), rounds=6)
    d1 = tmp_path / "serial"
    d2 = tmp_path / "parallel"
    runner.execute(specs, jobs=1, trace_dir=str(d1))
    runner.execute(specs, jobs=2, trace_dir=str(d2))

    runs1 = sorted(p.name for p in d1.iterdir() if p.name != "runner.jsonl")
    runs2 = sorted(p.name for p in d2.iterdir() if p.name != "runner.jsonl")
    # One file per run, named by spec index — independent of arrival order.
    assert runs1 == runs2 == ["0000-icc0-n7-seed1.jsonl", "0001-icc1-n7-seed1.jsonl"]
    for name in runs1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_runner_jsonl_covers_every_spec(tmp_path):
    specs = _suite()
    runner.execute(specs, jobs=2, trace_dir=str(tmp_path))
    events = [json.loads(line) for line in (tmp_path / "runner.jsonl").read_text().splitlines()]
    starts = {e["payload"]["run"] for e in events if e["kind"] == "runner.run_start"}
    ends = {e["payload"]["run"] for e in events if e["kind"] == "runner.run_end"}
    assert starts == ends == set(range(len(specs)))
    for event in events:
        assert event["payload"]["jobs"] == 2
        if event["kind"] == "runner.run_end":
            assert event["payload"]["wall_ms"] >= 0


# -- run_all argument parsing (the --trace IndexError regression) -------------


def test_run_all_trace_without_value_exits_cleanly(capsys):
    # Used to raise IndexError (args[args.index("--trace") + 1]).
    with pytest.raises(SystemExit) as exc:
        run_all.main(["--trace"])
    assert exc.value.code == 2
    assert "--trace" in capsys.readouterr().err


def test_run_all_rejects_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_all.main(["--no-such-flag"])
    assert exc.value.code == 2
    assert "no-such-flag" in capsys.readouterr().err


def test_run_all_rejects_non_integer_jobs(capsys):
    with pytest.raises(SystemExit) as exc:
        run_all.main(["--jobs", "many"])
    assert exc.value.code == 2


def test_run_all_prints_byte_identical_tables_at_any_job_count(capsys, monkeypatch):
    """End-to-end through run_all.main(): argparse -> execute -> tabulate.

    The full --quick suite takes minutes, so the runner-enumerated part
    is trimmed to two cheap experiments; the code path is the real one.
    """
    from repro.experiments import comparison

    def trimmed_suite(quick):
        assert quick
        return [
            (run_all.table1, []),
            (
                throughput_latency,
                throughput_latency.specs(deltas=(0.05,), protocols=("ICC0",), rounds=8),
            ),
            (run_all.robustness, []),
            (comparison, comparison.specs(blocks=10)),
            (run_all.intermittent, []),
            (run_all.ablations, []),
        ]

    monkeypatch.setattr(run_all, "suite", trimmed_suite)
    for module in ("message_complexity", "round_complexity", "responsiveness",
                   "dissemination", "properties", "bandwidth"):
        monkeypatch.setattr(getattr(run_all, module), "main", lambda: None)
    for module, printer in (
        ("table1", run_all.table1), ("robustness", run_all.robustness),
        ("intermittent", run_all.intermittent), ("ablations", run_all.ablations),
    ):
        monkeypatch.setattr(printer, "tabulate", lambda specs, results: None)

    run_all.main(["--quick", "--jobs", "1"])
    serial_out = capsys.readouterr().out
    run_all.main(["--quick", "--jobs", "2"])
    parallel_out = capsys.readouterr().out
    assert serial_out == parallel_out
    assert "E1/E2" in serial_out and "E9" in serial_out


def test_run_all_suite_enumerates_all_ported_experiments():
    groups = run_all.suite(quick=True)
    experiments = [module.__name__.rsplit(".", 1)[-1] for module, _ in groups]
    assert experiments == [
        "table1",
        "throughput_latency",
        "robustness",
        "comparison",
        "intermittent",
        "ablations",
    ]
    for _, specs in groups:
        assert specs, "every ported experiment contributes at least one spec"
        for spec in specs:
            assert spec.kind in runner.EXECUTORS
