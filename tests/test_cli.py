"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.analysis import critical_paths
from repro.experiments import run_report


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

    def test_report_quick_check_passes(self, capsys, tmp_path):
        """``report --check`` on a fresh suite: heights finalized, stage
        spans telescope, and (no wire spans in a simulator trace) nothing
        received before it was sent."""
        main(["report", str(tmp_path / "r.md"), "--quick", "--check"])
        assert "report --check OK" in capsys.readouterr().out

    def test_one_export_loads_like_its_directory(self, capsys, tmp_path):
        """``--load --trace-dir`` naming one JSONL export: its n is the
        parties in it and its quorum n (an export does not say t), so a
        t = 0 suite's export renders the critical paths its directory
        does."""
        trace_dir = tmp_path / "d"
        main([
            "report", str(tmp_path / "dir.md"), "--protocol", "icc0", "--n", "4",
            "--t", "0", "--rounds", "5", "--runs", "1", "--trace-dir", str(trace_dir),
        ])
        [export] = trace_dir.glob("*.jsonl")
        main([
            "report", str(tmp_path / "one.md"), "--load", "--trace-dir", str(export),
            "--check",
        ])
        assert "report --check OK" in capsys.readouterr().out
        loaded = run_report.load_run(str(export))
        assert loaded["params"] == {"n": 4, "t": 0, "runs": 1}
        [(label, events)] = loaded["traces"]
        assert label == export.stem
        [(_, paths, _)] = run_report.analyse(loaded["traces"], loaded["params"])
        assert paths == critical_paths(events)  # the quorum it infers alone
        by_dir, by_export = (
            (tmp_path / name).read_text().split("## Critical paths")[1].split("##")[0]
            for name in ("dir.md", "one.md")
        )
        assert "| height | block | propose_wait |" in by_export
        assert by_export == by_dir

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
        ["live", "--bench"], ["report", "--suite"], ["report", "--live"],
        ["trace"], ["trace", "--input", "t.jsonl"],
        ["collect", "D"], ["collect", "D", "--check"],
    ], ids=" ".join)
    def test_second_measuring_stack_is_gone(self, argv, capsys):
        """Performance is measured by ``python3 bench/run.py`` alone, and a
        trace is read by ``report`` alone (a live run by ``report --load``,
        like any other)."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error

    @pytest.mark.parametrize("command, minimum", [
        ("experiments --quick --jobs 0", 1),
        ("report --jobs 0", 1),
        ("load --jobs 0", 1),
        ("chaos --jobs 0", 1),
        ("demo --rounds 1", 3),
        ("demo --rounds 2", 3),
        ("demo --n 0", 1),
        ("load --ns 0", 1),
        ("load --ns 4,0", 1),
        ("chaos --count 0", 1),
    ], ids=lambda value: value if isinstance(value, str) else None)
    def test_count_below_its_minimum_is_a_usage_error(self, command, minimum, capsys):
        """A count flag below its minimum used to raise from deep inside the
        run (``jobs must be >= 1``, a division by zero, a ``ClusterConfig``
        error) or, for ``chaos --count 0``, to pass vacuously."""
        argv = command.split()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{argv[-2]}: must be at least {minimum}" in capsys.readouterr().err

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
