"""Documentation hygiene: the link/markdown checker must pass."""

from __future__ import annotations

import importlib.util
import pathlib

CHECKER = pathlib.Path(__file__).resolve().parents[1] / "tools" / "check_docs.py"


def load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocs:
    def test_checker_exists(self):
        assert CHECKER.is_file()

    def test_no_documentation_problems(self):
        module = load_checker()
        problems = module.run()
        assert problems == [], "\n".join(problems)

    def test_markdown_corpus_nonempty(self):
        module = load_checker()
        files = {p.name for p in module.doc_files()}
        assert {"README.md", "DESIGN.md", "EXPERIMENTS.md", "OBSERVABILITY.md"} <= files

    def test_live_transport_names_are_checked(self):
        """The checker must see the live.* registrations and hold
        TRANSPORT.md to them — a rename in the registry without a doc
        update has to fail check_live_docs."""
        module = load_checker()
        live = {n for n in module.registered_event_kinds() if n.startswith("live.")}
        assert {"live.peer.connect", "live.frame.rejected", "live.stat.request"} <= live

    def test_cli_scan_sees_live_subcommands(self):
        module = load_checker()
        assert {"serve", "live"} <= set(module.cli_subcommands())

    def test_codec_scan_sees_the_whole_table(self, tmp_path, monkeypatch):
        """The textual scan and the imported table agree row for row, and a
        tag whose layout is not written down fails the check."""
        from repro.net.codec import _TABLE

        module = load_checker()
        assert module.codec_table() == [
            (f"0x{tag:02x}", cls.__name__) for tag, (cls, _, _) in _TABLE.items()
        ]
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "TRANSPORT.md").write_text(
            "| `0x01` | `Block` | fields |\n`0x02` and `Authenticator` in prose only\n",
            encoding="utf-8",
        )
        table = module.codec_table()
        monkeypatch.setattr(module, "codec_table", lambda: table[:2])
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_codec_docs(problems)
        assert len(problems) == 1 and "0x02 (Authenticator)" in problems[0]

    def test_stale_config_knobs_are_flagged(self, tmp_path, monkeypatch):
        """A removed ClusterConfig option named in prose must fail the
        check; a live field must not."""
        module = load_checker()
        assert "crypto_backend" in module.config_fields()["ClusterConfig"]
        (tmp_path / "README.md").write_text(
            "Tune `crypto_flush_deadline` or ClusterConfig.crypto_batch;\n"
            "`ClusterConfig.extra_party_kwargs` and `crypto_backend` exist.\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_config_docs(problems)
        assert len(problems) == 2
        assert "ClusterConfig.crypto_batch" in problems[0]
        assert "crypto_flush_deadline" in problems[1]

    def test_cluster_names_outside_the_source_are_flagged(self, tmp_path, monkeypatch):
        """A page that still shows a second cluster config, a second builder
        or a wrapper around the one cluster fails; the names that exist, file
        names and the exempt history file do not."""
        module = load_checker()
        source = tmp_path / "src" / "repro" / "core" / "cluster.py"
        source.parent.mkdir(parents=True)
        source.write_text(
            "class ClusterConfig:\n    n: int\n\nclass Cluster:\n"
            "    def check_safety(self): ...\n\ndef build_cluster(config): ...\n",
            encoding="utf-8",
        )
        (tmp_path / "README.md").write_text(
            "`build_cluster(ClusterConfig(...))` returns a `Cluster`; see\n"
            "`tests/net/test_live_cluster.py`.\n```python\n"
            "cluster = build_ghost_cluster(GhostClusterConfig(n=4))\n```\n"
            "The `ClusterWrapper` delegates.\n",
            encoding="utf-8",
        )
        (tmp_path / "ROADMAP.md").write_text(
            "PR 24 folded GhostClusterConfig into ClusterConfig.\n", encoding="utf-8"
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_cluster_names(problems)
        assert [p.split(" names ")[1].split(",")[0] for p in problems] == [
            "ClusterWrapper", "GhostClusterConfig", "build_ghost_cluster",
        ]

    def test_removed_snapshots_and_subcommands_are_flagged(self, tmp_path, monkeypatch):
        """A snapshot file, subcommand, environment variable or module the
        docs still point at after its removal must fail the check; patterns,
        the benchmark's own manifest, a name a package binds and the exempt
        history file must not."""
        module = load_checker()
        cli = tmp_path / "src" / "repro" / "__main__.py"
        cli.parent.mkdir(parents=True)
        cli.write_text(
            'sub.add_parser("demo", help="...")\nKEPT = "REPRO_KEPT"\n', encoding="utf-8"
        )
        (cli.parent / "experiments").mkdir()
        (cli.parent / "experiments" / "run_all.py").write_text("", encoding="utf-8")
        (cli.parent / "pkg").mkdir()
        (cli.parent / "pkg" / "__init__.py").write_text(
            "from .impl import Name\n", encoding="utf-8"
        )
        (tmp_path / "BENCH_kept.json").write_text("{}\n", encoding="utf-8")
        (tmp_path / "README.md").write_text(
            "See `BENCH_gone.json` and BENCH_kept.json; run `python -m\n"
            "repro frobnicate` or `python -m repro demo`.  The six\n"
            "`BENCH_*.json` files and BENCHMARK.json are not names;\n"
            "`python -m repro.experiments.run_all` is not a subcommand.\n"
            "Set `REPRO_GONE=1` or `REPRO_KEPT=1`.\n"
            "See `repro.gone.module` and `repro.pkg.Name.method`.\n",
            encoding="utf-8",
        )
        (tmp_path / "ROADMAP.md").write_text(
            "PR 9 added BENCH_old.json, `python -m repro bench`, REPRO_OLD\n"
            "and repro.old.module.\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_removed_names(problems)
        assert len(problems) == 4
        assert "README.md" in problems[0] and "BENCH_gone.json" in problems[0]
        assert "README.md" in problems[1] and "frobnicate" in problems[1]
        assert "README.md" in problems[2] and "REPRO_GONE" in problems[2]
        assert "README.md" in problems[3] and "repro.gone.module" in problems[3]

    def test_retired_trace_readers_are_flagged(self, tmp_path, monkeypatch):
        """Against the real CLI, a page still showing ``collect`` or
        ``trace`` fails; the ``report`` line that replaces them passes."""
        module = load_checker()
        (tmp_path / "src").symlink_to(module.REPO / "src")
        (tmp_path / "README.md").write_text(
            "```\npython -m repro collect D --check\n"
            "python -m repro trace --input t.jsonl\n"
            "python -m repro report R.md --load --trace-dir D --check\n```\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_removed_names(problems)
        assert [p.split("`")[1] for p in problems] == [
            "python -m repro collect", "python -m repro trace",
        ]

    def test_dotted_names_resolve_past_the_module(self, tmp_path, monkeypatch):
        """Against the real source, the component after a module must be a
        top-level name of it: a deleted class or module fails, a live class
        and an attribute of it pass (what follows a name is not judged)."""
        module = load_checker()
        (tmp_path / "src").symlink_to(module.REPO / "src")
        (tmp_path / "README.md").write_text(
            "`repro.sim.delays.AdversarialDelay`, `repro.crypto.dkg`, "
            "`repro.core.pool.prune`, `repro.sim.delays.MessageAwareDelay`, "
            "`repro.core.pool.MessagePool.prune`, `repro.crypto.unique`\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_removed_names(problems)
        assert [p.split()[2].rstrip(",") for p in problems] == [
            "repro.core.pool.prune", "repro.crypto.dkg", "repro.sim.delays.AdversarialDelay",
        ]

    def test_file_references_must_name_a_definition(self, tmp_path, monkeypatch):
        """A ``path.py::name`` reference that resolves from the repo root,
        ``src/`` or ``src/repro/`` must name a def or class in that file; a
        path that resolves nowhere is not judged."""
        module = load_checker()
        (tmp_path / "src").symlink_to(module.REPO / "src")
        (tmp_path / "tools").symlink_to(module.REPO / "tools")
        (tmp_path / "README.md").write_text(
            "`experiments/properties.py::safety_trial`, "
            "`experiments/properties.py::run_safety_sweep`, "
            "`src/repro/sim/delays.py::AdversarialDelay`, "
            "`tools/check_docs.py::resolves`, `tools/check_docs.py::gone`, "
            "`elsewhere.py::anything`\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_removed_names(problems)
        assert [p.split()[2].rstrip(",") for p in problems] == [
            "experiments/properties.py::run_safety_sweep",
            "src/repro/sim/delays.py::AdversarialDelay",
            "tools/check_docs.py::gone",
        ]

    def test_flags_a_command_does_not_declare_are_flagged(self, tmp_path, monkeypatch):
        """A flag shown in a `python -m repro <cmd>` command line must be
        declared by that command's own `add_arguments`: a removed flag, or
        one only a sibling command of the same module declares, fails.
        Prose outside code and the exempt history file do not."""
        module = load_checker()
        assert {"--config", "--index", "--trace"} <= module.cli_flags()["serve"]
        src = tmp_path / "src" / "repro"
        (src / "net").mkdir(parents=True)
        (src / "__main__.py").write_text(
            'serve = sub.add_parser("serve", help="...")\n'
            '_mount(serve, "repro.net.live", "serve", always_exit=True)\n',
            encoding="utf-8",
        )
        (src / "net" / "live.py").write_text(
            "def add_serve_arguments(parser):\n"
            '    parser.add_argument("--config", required=True)\n'
            '    parser.add_argument(\n        "--trace", default=None)\n\n\n'
            "def add_live_arguments(parser):\n"
            '    parser.add_argument("--json")\n',
            encoding="utf-8",
        )
        (tmp_path / "README.md").write_text(
            "```\npython -m repro serve --config c.json \\\n    --meter m.json\n"
            "python -m repro serve --help | grep --trace\n```\n"
            "Run `python -m repro serve --config FILE\n[--trace PATH] [--json X]`;\n"
            "in prose, python -m repro serve --frob is not a command line.\n",
            encoding="utf-8",
        )
        (tmp_path / "ROADMAP.md").write_text(
            "PR 9 added `python -m repro serve --meter PATH`.\n", encoding="utf-8"
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_removed_names(problems)
        assert [p.split("`")[1] for p in problems] == [
            "python -m repro serve --json", "python -m repro serve --meter",
        ]

    def test_experiment_outside_the_suite_is_flagged(self, tmp_path, monkeypatch):
        """A thirteenth experiment DESIGN.md tabulates but `run_all.suite`
        does not enumerate (a private `main()` beside the runner) fails."""
        module = load_checker()
        assert module.suite_modules()[0] == "table1" and len(module.suite_modules()) == 12
        run_all = tmp_path / "src" / "repro" / "experiments" / "run_all.py"
        run_all.parent.mkdir(parents=True)
        run_all.write_text(
            "def suite(quick):\n    return [\n"
            "        (table1, table1.specs(duration=60.0)),\n"
            "        (bandwidth, bandwidth.specs()),\n    ]\n",
            encoding="utf-8",
        )
        (tmp_path / "DESIGN.md").write_text(
            "| Exp id | claim | Modules |\n|---|---|---|\n"
            "| T1 | Table 1 | `repro.experiments.table1`, ICC1 |\n"
            "| E12 | new | `repro.experiments.thirteenth` |\n"
            "\nElsewhere `repro.experiments.load` is a CLI module.\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_experiment_docs(problems)
        assert len(problems) == 1 and "thirteenth" in problems[0]
