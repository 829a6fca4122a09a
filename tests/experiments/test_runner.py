"""The one shape of the evaluation suite, and the runner under it.

Every experiment is ``specs()`` + ``tabulate()`` on the parallel runner,
and the load-bearing guarantee is *bit-identical results at any job
count*: every RunSpec carries its own seed, so fanning runs across a pool
must change nothing observable — result objects, printed tables, or
per-run trace files.  These tests run a trimmed sweep of all twelve
experiments both ways, once, and compare all three.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.experiments import (
    ablations,
    bandwidth,
    comparison,
    dissemination,
    intermittent,
    message_complexity,
    properties,
    responsiveness,
    robustness,
    round_complexity,
    run_all,
    runner,
    sharding,
    table1,
    throughput_latency,
)

#: A sweep of seconds per module, in ``run_all``'s print order; every point
#: function of the suite runs at least once.
TRIMMED = {
    table1: dict(duration=5.0, subnets=(13,)),
    throughput_latency: dict(deltas=(0.05,), protocols=("ICC0", "ICC2"), rounds=8),
    message_complexity: dict(ns=(4,), worst_ns=(4,), rounds=4),
    round_complexity: dict(ns=(7,), rounds=20),
    robustness: dict(n=7, duration=8.0),
    responsiveness: dict(deltas=(0.01,), n=4, blocks=8),
    dissemination: dict(block_sizes=(10_000,), protocols=("ICC0", "ICC2"), n=7, rounds=4),
    comparison: dict(n=4, blocks=10),
    properties: dict(trials=1, liveness_trials=1),
    intermittent: dict(period=8.0, sync_len=2.0, duration=16.0, n=4),
    bandwidth: dict(protocols=("ICC0", "ICC1"), n=7, rounds=3),
    ablations: dict(epsilons=(0.0,), degrees=(2,), fill_delays=(0.0,)),
}

#: Point functions that build no ICC cluster, so a traced run writes no file.
UNTRACED = {"robustness.run_pbft", "comparison.baseline_row", "sharding.run_deployment"}


def trimmed_suite(quick: bool = True) -> list[tuple[object, list[runner.RunSpec]]]:
    return [(module, module.specs(**sweep)) for module, sweep in TRIMMED.items()]


def print_tables(groups, results) -> str:
    """What ``run_all.run`` prints for ``results``, as a string."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run_all.tabulate(groups, results)
    return out.getvalue()


@pytest.fixture(scope="module")
def both_ways(tmp_path_factory):
    """The trimmed suite (plus one whole sharded deployment per worker)
    executed traced at ``jobs=1`` and ``jobs=2``: ``{jobs: (results, dir)}``."""
    groups = trimmed_suite()
    specs = [s for _, group in groups for s in group]
    specs += sharding.specs(ks=(2,), xfrac=0.25)
    runs = {}
    for jobs in (1, 2):
        trace_dir = tmp_path_factory.mktemp(f"jobs{jobs}")
        runs[jobs] = (runner.execute(specs, jobs=jobs, trace_dir=str(trace_dir)), trace_dir)
    return groups, specs, runs


def test_spec_rejects_unknown_kind():
    for kind in ("no.such.executor", "table1.no_such_function", "run_cell", ""):
        with pytest.raises(ValueError, match="unknown run kind"):
            runner.spec("x", kind)


def test_run_spec_matches_direct_call():
    spec = throughput_latency.specs(deltas=(0.1,), protocols=("ICC0",), rounds=6)[0]
    assert runner.run_spec(spec) == throughput_latency.run_one("ICC0", 0.1, n=7, rounds=6)


def test_run_experiment_is_tabulate_of_execute(capsys):
    sweep = dict(deltas=(0.1,), protocols=("ICC0",), rounds=6)
    rows = runner.run_experiment(throughput_latency, **sweep)
    assert rows == [throughput_latency.run_one("ICC0", 0.1, n=7, rounds=6)]
    assert "E1/E2" in capsys.readouterr().out


def test_execute_rejects_bad_jobs():
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        runner.execute(throughput_latency.specs(), jobs=0)


def test_execute_empty_suite():
    assert runner.execute([], jobs=4) == []


def test_serial_and_parallel_results_identical(both_ways):
    _, specs, runs = both_ways
    assert len(runs[1][0]) == len(specs)
    assert runs[1][0] == runs[2][0]


def test_serial_and_parallel_tables_byte_identical(both_ways):
    groups, _, runs = both_ways
    serial_out = print_tables(groups, runs[1][0])
    assert serial_out == print_tables(groups, runs[2][0])
    # All sixteen tables of the suite, in print order.
    titles = [line.split(":")[0] for line in serial_out.splitlines() if line.startswith("== ")]
    assert titles == [
        "== Table 1", "== E1/E2", "== E3a", "== E3b", "== E4", "== E5", "== E6", "== E7",
        "== E9", "== E8", "== E10", "== E11", "== A1", "== A2", "== A3", "== A4",
    ]


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


def test_every_traced_spec_writes_its_index_named_file(both_ways):
    """``--trace DIR`` over the whole suite: one ``NNNN-*.jsonl`` per spec
    that builds an ICC cluster — the point functions that drive
    ``build_cluster`` by hand included — named by spec index at any
    ``--jobs``, with identical bytes."""
    _, specs, runs = both_ways
    (_, d1), (_, d2) = runs[1], runs[2]
    names = sorted(p.name for p in d1.iterdir() if p.name != "runner.jsonl")
    assert names == sorted(p.name for p in d2.iterdir() if p.name != "runner.jsonl")
    expected = [f"{i:04d}" for i, s in enumerate(specs) if s.kind not in UNTRACED]
    assert [name.split("-")[0] for name in names] == expected
    by_kind = {s.kind: f"{i:04d}" for i, s in enumerate(specs)}
    for hand_driven in (
        "message_complexity.worst_case_point", "properties.safety_trial",
        "properties.liveness_trial", "bandwidth.run_one", "table1.run_cell",
    ):
        assert by_kind[hand_driven] in expected
    for name in names:
        assert (d1 / name).stat().st_size > 0
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_runner_jsonl_covers_every_spec(both_ways):
    _, specs, runs = both_ways
    trace_dir = runs[2][1]
    events = [json.loads(line) for line in (trace_dir / "runner.jsonl").read_text().splitlines()]
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


def test_run_all_prints_byte_identical_tables_at_any_job_count(capsys, monkeypatch, both_ways):
    """End-to-end through run_all.main(): argparse -> execute -> tabulate,
    on the trimmed sweeps (the full --quick suite takes a minute); the
    code path is the real one, and its stdout at ``--jobs 2`` is what
    tabulating the ``jobs=1`` results prints."""
    groups, _, runs = both_ways
    monkeypatch.setattr(run_all, "suite", trimmed_suite)
    assert run_all.main(["--quick", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == print_tables(groups, runs[1][0])


def test_run_all_suite_enumerates_all_ported_experiments():
    """One suite: all twelve experiment modules, in print order, each with
    the one shape (``specs`` + ``tabulate``, kinds that resolve)."""
    groups = run_all.suite(quick=True)
    assert [module.__name__.rsplit(".", 1)[-1] for module, _ in groups] == [
        "table1",
        "throughput_latency",
        "message_complexity",
        "round_complexity",
        "robustness",
        "responsiveness",
        "dissemination",
        "comparison",
        "properties",
        "intermittent",
        "bandwidth",
        "ablations",
    ]
    assert [module for module, _ in groups] == list(TRIMMED)
    assert sum(len(specs) for _, specs in groups) == 92
    for module, specs in groups:
        assert callable(module.specs) and callable(module.tabulate)
        assert specs, "every experiment contributes at least one spec"
        for spec in specs:
            assert spec.kind.startswith(module.__name__.rsplit(".", 1)[-1] + ".")
            assert callable(runner.resolve(spec.kind))
