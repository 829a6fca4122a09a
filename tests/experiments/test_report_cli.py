"""End-to-end tests for ``python -m repro report`` (run_report): suites it
runs itself, and run directories it loads — a live run included, which it
collects, renders and (``--check``) checks through the same code."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.analysis.critical_path import (
    ICC_STAGES,
    critical_paths,
    latency_breakdown,
    wire_spans,
)
from repro.experiments import run_report
from repro.obs import read_jsonl, read_jsonl_with_header


def section(text: str, title: str) -> str:
    start = text.index(title)
    return text[start : text.index("##", start + 1)]


class TestReportQuick:
    def test_quick_report_writes_consistent_markdown(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        trace_dir = tmp_path / "traces"
        main([
            "report", str(output), "--quick", "--trace-dir", str(trace_dir),
        ])
        assert "wrote" in capsys.readouterr().out
        text = output.read_text()
        # Section presence.
        assert "# Run report" in text
        assert "## Critical paths" in text
        assert "## Message complexity vs theory" in text
        assert "## Metrics" in text
        assert "## Trace health" in text
        # The telescoping consistency check must pass (not just render).
        assert "OK" in text
        assert "VIOLATED" not in text
        # The runs' Metrics counters surface in the Metrics table.
        assert "| `blocks-proposed` |" in section(text, "## Metrics")
        assert "| `rounds-finished` |" in section(text, "## Metrics")
        # Theory bounds table reports within-worst-case.
        assert "**no**" not in text
        # Artifacts persist in the trace dir for --load.
        assert (trace_dir / "results.json").exists()
        assert any(
            name.name.endswith(".jsonl") for name in trace_dir.iterdir()
        )

    def test_load_mode_rerenders_without_running(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        trace_dir = tmp_path / "traces"
        main([
            "report", str(output), "--quick", "--trace-dir", str(trace_dir),
        ])
        first = output.read_text()
        output2 = tmp_path / "reloaded.md"
        main([
            "report", str(output2), "--quick", "--load",
            "--trace-dir", str(trace_dir),
        ])
        capsys.readouterr()
        reloaded = output2.read_text()
        # Same critical-path table either way (the traces are the source).
        assert section(first, "## Critical paths") == section(
            reloaded, "## Critical paths"
        )
        assert section(first, "## Metrics") == section(reloaded, "## Metrics")

    def test_html_output_is_selfcontained(self, tmp_path, capsys):
        output = tmp_path / "report.html"
        main(["report", str(output), "--quick", "--html"])
        capsys.readouterr()
        html = output.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html
        assert "Critical paths" in html
        assert "</body></html>" in html


class TestReportInternals:
    def test_results_rows_carry_the_metrics_summary(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        main([
            "report", str(tmp_path / "r.md"), "--quick",
            "--trace-dir", str(trace_dir),
        ])
        capsys.readouterr()
        [row] = json.loads((trace_dir / "results.json").read_text())
        assert row["rounds_committed"] >= 1
        assert row["summary"]["total_messages"] == row["messages_sent"] > 0
        counted = row["summary"]["counters"]["blocks-proposed"]
        assert f"| `blocks-proposed` | {counted} |" in (tmp_path / "r.md").read_text()

    def test_executor_returns_picklable_row(self):
        row = run_report.run_traced(
            protocol="icc0", n=4, t=1, delta=0.05, rounds=3, seed=1
        )
        assert row["rounds_committed"] >= 3
        assert row["messages_sent"] > 0
        assert row["summary"]["total_commits_observed"] >= 3 * 4
        # Must survive the multiprocessing boundary.
        import pickle

        assert pickle.loads(pickle.dumps(row)) == row

    def test_to_html_escapes_and_converts(self):
        markdown = "# T\n\n| a | b |\n| --- | --- |\n| 1 | `x<y` |\n"
        html = run_report.to_html(markdown)
        assert "<h1>T</h1>" in html
        assert "<code>x&lt;y</code>" in html


class TestLoadDescribesTheDirectory:
    """``--load`` used to describe the flag defaults (icc1, n=4, quorum 3)
    whatever the directory held."""

    def test_n7_suite_reloads_as_n7(self, tmp_path, capsys):
        trace_dir = tmp_path / "d7"
        ran, loaded = tmp_path / "ran.md", tmp_path / "loaded.md"
        main([
            "report", str(ran), "--protocol", "icc0", "--n", "7", "--rounds", "4",
            "--runs", "1", "--trace-dir", str(trace_dir),
        ])
        main(["report", str(loaded), "--load", "--trace-dir", str(trace_dir)])
        capsys.readouterr()
        text = loaded.read_text()
        for row in ("| protocol | icc0 |", "| n | 7 |", "| t | 2 |", "| runs | 1 |"):
            assert row in text
        assert "`8n^2` = 392" in text and "`2n^3 + 4n^2` = 882" in text
        # The run itself rendered this very directory: same quorum (5), on
        # a trace where the quorum matters.
        assert text == ran.read_text()
        [(_, events)] = run_report.load_run(str(trace_dir))["traces"]
        assert critical_paths(events, quorum=5) != critical_paths(events, quorum=3)
        assert run_report.analyse([("run", events)], {"n": 7, "t": 2})[0][1] == (
            critical_paths(events, quorum=5)
        )

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_below_one_is_a_usage_error(self, runs, tmp_path, capsys):
        """``--runs 0`` used to run nothing and then crash reading the
        ``results.json`` an empty suite never wrote."""
        trace_dir = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            main([
                "report", str(tmp_path / "r.md"), "--runs", runs,
                "--trace-dir", str(trace_dir),
            ])
        assert exc.value.code == 2
        assert "--runs: must be at least 1" in capsys.readouterr().err
        assert not trace_dir.exists() and not (tmp_path / "r.md").exists()

    @pytest.mark.parametrize("flag", ["--protocol", "--n", "--t", "--delta", "--rounds"])
    def test_contradicting_flag_is_rejected(self, flag, tmp_path):
        value = "icc0" if flag == "--protocol" else "4"
        with pytest.raises(SystemExit) as exc:
            main([
                "report", str(tmp_path / "r.md"), "--load",
                "--trace-dir", str(tmp_path), flag, value,
            ])
        assert exc.value.code not in (0, None)
        assert flag in str(exc.value.code)
        assert not (tmp_path / "r.md").exists()


@pytest.fixture(scope="module")
def live_run(tmp_path_factory):
    """One traced in-process TCP run, written the way ``repro live`` writes
    every traced run (wall clock: assertions on it are loose on purpose)."""
    run_dir = tmp_path_factory.mktemp("live-run")
    with pytest.raises(SystemExit) as exc:
        main([
            "live", "--inproc", "--heights", "3", "--load", "16", "--seed", "1",
            "--trace-dir", str(run_dir),
        ])
    assert exc.value.code == 0
    return run_dir


class TestLiveRunDirectory:
    def test_report_load_checks_and_rerenders(self, live_run, tmp_path, capsys):
        checked, again = tmp_path / "a.md", tmp_path / "b.md"
        main(["report", str(checked), "--load", "--trace-dir", str(live_run), "--check"])
        main(["report", str(again), "--load", "--trace-dir", str(live_run)])
        assert "report --check OK" in capsys.readouterr().out
        text = again.read_text()
        assert checked.read_text() == text
        cluster = json.loads((live_run / "cluster.json").read_text())
        assert (cluster["protocol"], cluster["n"], cluster["t"]) == ("icc0", 4, 1)
        # One run on the host's timeline, not one per party trace.
        for row in ("| protocol | icc0 |", "| n | 4 |", "| t | 1 |", "| runs | 1 |"):
            assert row in text
        assert "## Clock alignment" not in text
        assert "## Wire transit" in text
        # Every party's result-<i>.json counts, one column each.
        metrics = section(text, "## Metrics")
        assert "| field | party 1 | party 2 | party 3 | party 4 |" in metrics
        for field in ("connects", "reconnects", "dup_connections", "frames_rejected"):
            assert f"| `{field}` |" in metrics
        assert not list(live_run.glob("*meter*"))
        consistency = next(
            line for line in text.splitlines() if line.startswith("Consistency:")
        )
        assert "(OK," in consistency and "±" not in consistency

    def test_parties_share_one_host_timeline(self, live_run):
        """Every party stamps the host's monotonic clock: the headers name
        one host and carry no per-party epoch, no alignment file is
        written, and no matched wire span of the raw timeline runs
        backwards."""
        headers = {
            header["party"]: header
            for header, _ in map(read_jsonl_with_header,
                                 map(str, live_run.glob("trace-*.jsonl")))
        }
        assert sorted(headers) == [1, 2, 3, 4]
        assert len({h["host"] for h in headers.values()}) == 1
        assert not any("clock_epoch_s" in h for h in headers.values())
        assert not (live_run / "alignment.json").exists()
        [(_, events)] = run_report.load_run(str(live_run))["traces"]
        spans = wire_spans(events)
        assert spans and min(spans.values()) >= 0

    def test_same_stages_as_a_simulator_trace(self, live_run, tmp_path, capsys):
        main([
            "report", str(tmp_path / "r.md"), "--protocol", "icc0", "--n", "4",
            "--rounds", "3", "--runs", "1", "--trace-dir", str(tmp_path / "sim"),
        ])
        capsys.readouterr()
        [export] = (tmp_path / "sim").glob("*.jsonl")
        simulated = critical_paths(read_jsonl(str(export)), quorum=3)
        loaded = run_report.load_run(str(live_run))
        [(_, events)] = loaded["traces"]
        live = critical_paths(events, quorum=3)
        assert len(live) >= 3
        assert (
            [span.stage for span in live[0].spans]
            == [span.stage for span in simulated[0].spans]
            == list(ICC_STAGES)
        )
        header = next(
            line for line in run_report.generate(**loaded).splitlines()
            if line.startswith("| height |")
        )
        assert [cell.strip() for cell in header.strip("|").split("|")] == [
            "height", "block", *ICC_STAGES, "stage sum", "measured",
        ]

    def test_governor_is_split_from_the_transit(self, live_run):
        """ε = 50 ms used to read as "wire transit 51 ms"."""
        loaded = run_report.load_run(str(live_run))
        [(_, events)] = loaded["traces"]
        means = latency_breakdown(critical_paths(events, quorum=3))["stage_means_s"]
        epsilon = loaded["params"]["epsilon"]
        assert epsilon == 0.05
        assert means["notary_delay"] >= epsilon / 2
        assert means["notary_delay"] > means["block_transit"]
