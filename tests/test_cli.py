"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.analysis import ICC_STAGES


class TestCli:
    def test_versions(self, capsys):
        main(["versions"])
        out = capsys.readouterr().out
        assert "repro 1.0.0" in out
        assert "reed-solomon: self-check OK" in out

    def test_demo(self, capsys):
        main(["demo", "--n", "4", "--rounds", "6", "--delta", "0.05"])
        out = capsys.readouterr().out
        assert "committed" in out
        assert "2.00 δ" in out
        assert "3.00 δ" in out

    def test_demo_deterministic(self, capsys):
        main(["demo", "--n", "4", "--rounds", "5", "--seed", "9"])
        first = capsys.readouterr().out
        main(["demo", "--n", "4", "--rounds", "5", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_trace_runs_and_summarizes(self, capsys):
        main(["trace", "--n", "4", "--rounds", "5", "--delta", "0.05"])
        out = capsys.readouterr().out
        assert "events traced" in out
        assert "icc.block.committed" in out
        header = next(line for line in out.splitlines() if "propose_wait" in line)
        assert header.split() == ["round", "block", *ICC_STAGES, "total"]

    def test_trace_export_and_reload(self, capsys, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        main(["trace", "--n", "4", "--rounds", "5", "--export", path])
        exported = capsys.readouterr().out
        main(["trace", "--input", path])
        reloaded = capsys.readouterr().out
        assert f"wrote" in exported and path in exported
        assert "loaded" in reloaded
        # Same event stream -> identical summary block.
        assert exported.split("\n\n")[1] == reloaded.split("\n\n")[1]

    def test_load_flags_have_one_declaration(self, capsys, monkeypatch):
        """``python -m repro load`` and ``repro.experiments.load.main`` are
        the same parser: they used to declare every flag twice, and
        ``--duration`` had drifted (4.0 here, 2.0 there)."""
        from inspect import signature

        from repro.experiments import load

        seen = []
        monkeypatch.setattr(load, "specs", lambda **kwargs: seen.append(kwargs) or [])
        main(["load"])
        assert load.main([]) == 0
        through_cli, through_module = seen
        assert through_cli == through_module
        assert through_cli["duration"] == 4.0
        assert signature(load.run_point).parameters["duration"].default == 4.0

    @pytest.mark.parametrize("argv", [
        ["bench"], ["profile"],
        ["load", "--bench"], ["load", "--check"], ["load", "--quick"],
        ["shard", "--bench"], ["shard", "--check"], ["shard", "--quick"],
        ["live", "--bench"], ["report", "--suite"], ["report", "--live"],
    ], ids=" ".join)
    def test_second_measuring_stack_is_gone(self, argv, capsys):
        """Performance is measured by ``python3 bench/run.py`` alone (and a
        live run is reported by ``report --load``, like any other)."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error

    def test_live_check(self, capsys):
        """The CI smoke leg: a tiny in-process TCP cluster to height 5."""
        with pytest.raises(SystemExit) as exc:
            main(["live", "--check", "--seed", "3"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "live cluster: n=4" in out
        assert "liveness    : ok" in out
        assert "safety      : ok" in out

    def test_live_inproc_writes_snapshot(self, capsys, tmp_path):
        import json

        path = str(tmp_path / "live.json")
        with pytest.raises(SystemExit) as exc:
            main([
                "live", "--inproc", "--heights", "3", "--load", "16",
                "--seed", "1", "--json", path,
            ])
        assert exc.value.code == 0
        with open(path, encoding="utf-8") as handle:
            snapshot = json.load(handle)
        assert snapshot["cluster"]["transport"] == "tcp-localhost"
        assert snapshot["live"]["live_ok"] is True
        assert snapshot["live"]["min_height"] >= 3

    def test_serve_requires_config_and_index(self):
        with pytest.raises(SystemExit) as exc:
            main(["serve"])
        assert exc.value.code == 2  # argparse usage error

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
