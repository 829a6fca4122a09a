"""Documentation hygiene: the link/markdown checker must pass."""

from __future__ import annotations

import importlib.util
import pathlib
import subprocess
import sys

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
        live = {n for n in module.code_index().kinds if n.startswith("live.")}
        assert {"live.peer.connect", "live.frame.rejected", "live.stat.request"} <= live

    def test_cli_scan_sees_live_subcommands(self):
        module = load_checker()
        assert {"serve", "live"} <= set(module.code_index().cli)

    def test_codec_scan_sees_the_whole_table(self, tmp_path, monkeypatch):
        """The parsed table and the imported one agree row for row, and a
        tag whose layout is not written down fails the check."""
        from repro.net.codec import _TABLE

        module = load_checker()
        index = module.code_index()
        assert index.codec == [
            (f"0x{tag:02x}", cls.__name__) for tag, (cls, _, _) in _TABLE.items()
        ]
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "TRANSPORT.md").write_text(
            "| `0x01` | `Block` | fields |\n`0x02` and `Authenticator` in prose only\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(index, "codec", index.codec[:2])
        monkeypatch.setattr(module, "code_index", lambda: index)
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_codec_docs(problems)
        assert len(problems) == 1 and "0x02 (Authenticator)" in problems[0]

    def test_stale_config_knobs_are_flagged(self, tmp_path, monkeypatch):
        """A removed ClusterConfig option named in prose must fail the
        check; a live field must not."""
        module = load_checker()
        assert "crypto_backend" in module.code_index().fields["ClusterConfig"]
        (tmp_path / "src").symlink_to(module.REPO / "src")
        (tmp_path / "README.md").write_text(
            "Tune `crypto_flush_deadline` or ClusterConfig.crypto_batch;\n"
            "`ClusterConfig.extra_party_kwargs` and `crypto_backend` exist.\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_names(problems)
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
        module.check_names(problems)
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
        module.check_names(problems)
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
        module.check_names(problems)
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
        module.check_names(problems)
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
        module.check_names(problems)
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
        assert {"--config", "--index", "--trace"} <= module.code_index().cli["serve"]
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
        module.check_names(problems)
        assert [p.split("`")[1] for p in problems] == [
            "python -m repro serve --json", "python -m repro serve --meter",
        ]

    def test_experiment_outside_the_suite_is_flagged(self, tmp_path, monkeypatch):
        """A thirteenth experiment DESIGN.md tabulates but `run_all.suite`
        does not enumerate (a private `main()` beside the runner) fails."""
        module = load_checker()
        suite = module.code_index().suite
        assert suite[0] == "table1" and len(suite) == 12
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

    def test_stale_copied_cell_is_flagged(self, tmp_path, monkeypatch):
        """EXPERIMENTS.md's T1/E3/E4/E7/E9/E11 tables copy the quick run's rows: a
        cell that no longer matches names its table and row, while
        thousands separators, bold and the wording around numbers pass."""
        module = load_checker()
        monkeypatch.setattr(module, "REPO", tmp_path)
        self._write_quick_stdout(tmp_path, module)
        for cell, expected in (("0.43", []), ("0.41", ["T1 row 2"])):
            problems = self._check(tmp_path, module, cell=cell, e3b="30.00")
            assert [p.split(" reads ")[0] for p in problems] == [
                f"EXPERIMENTS.md: {where}" for where in expected
            ]

    def test_stale_e7_and_e11_cells_are_flagged(self, tmp_path, monkeypatch):
        """E7 and E11 are full copies of their printed tables too: a drifted
        cell in either names its table and row."""
        module = load_checker()
        monkeypatch.setattr(module, "REPO", tmp_path)
        self._write_quick_stdout(tmp_path, module)
        for e7, e11, expected in (
            ("3.5", "1 961", []),
            ("3.9", "1 961", ["E7 row 1"]),
            ("3.5", "1 960", ["E11 row 1"]),
        ):
            problems = self._check(tmp_path, module, cell="0.43", e3b="30.00", e7=e7, e11=e11)
            assert [p.split(" reads ")[0] for p in problems] == [
                f"EXPERIMENTS.md: {where}" for where in expected
            ]

    def test_second_table_of_a_section_is_checked(self, tmp_path, monkeypatch):
        """E3 holds two copied tables; ``E3/2`` addresses the second, so a
        changed cell there is flagged, and a missing second table too."""
        module = load_checker()
        monkeypatch.setattr(module, "REPO", tmp_path)
        self._write_quick_stdout(tmp_path, module)
        problems = self._check(tmp_path, module, cell="0.43", e3b="31.00")
        assert problems == [
            "EXPERIMENTS.md: E3/2 row 1 reads [['13'], ['31.00']], "
            f"{module.QUICK_STDOUT} prints [['13'], ['30.00']]"
        ]
        doc = tmp_path / "EXPERIMENTS.md"
        text = doc.read_text(encoding="utf-8")
        doc.write_text(text[: text.index("\nAdversarial")] + text[text.index("\n## E4"):], encoding="utf-8")
        problems = []
        module.check_copied_tables(problems)
        assert problems == [f"EXPERIMENTS.md: the E3/2 table is not a copy of {module.QUICK_STDOUT}"]

    def test_stale_chaos_row_is_flagged(self, tmp_path, monkeypatch):
        """FAULTS.md's chaos block shows the CI-pinned command and lines of
        its pinned output: a moved number, or a block showing another
        command, fails the check."""
        module = load_checker()
        monkeypatch.setattr(module, "REPO", tmp_path)
        command, pinned = module.COPIED_OUTPUTS["docs/FAULTS.md"]
        out = tmp_path / pinned
        out.parent.mkdir(parents=True)
        out.write_text(
            "\n== Chaos sweep ==\nprotocol  faults fired  verdict\n"
            "ICC0      delay×1680    OK     \n\nall 1 runs satisfied\n",
            encoding="utf-8",
        )
        (tmp_path / "docs").mkdir()

        def check(shown: str, row: str) -> list[str]:
            (tmp_path / "docs" / "FAULTS.md").write_text(
                f"```console\n$ {shown}\n== Chaos sweep ==\n{row}\n\n"
                "all 1 runs satisfied\n```\n",
                encoding="utf-8",
            )
            problems: list[str] = []
            module.check_copied_outputs(problems)
            return problems

        assert check(command, "ICC0      delay×1680    OK") == []
        assert check(command, "ICC0      delay×2112    OK") == [
            f"docs/FAULTS.md: shows 'ICC0      delay×2112    OK', which {pinned} "
            "does not hold"
        ]
        assert check("python -m repro chaos --seed 0 --count 2", "ICC0      delay×1680    OK") == [
            f"docs/FAULTS.md: no console block shows `{command}`"
        ]

    def test_backticked_names_must_resolve(self, tmp_path, monkeypatch):
        """Against the real source, a deleted name and a member the real
        class lacks fail; a name the Removed table lists, a standard-library
        path, a live member, a metric BENCHMARK.json names, a file name and
        anything inside a fenced block pass."""
        module = load_checker()
        (tmp_path / "src").symlink_to(module.REPO / "src")
        (tmp_path / "BENCHMARK.json").symlink_to(module.REPO / "BENCHMARK.json")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "PERFORMANCE.md").write_text(
            "## Removed\n\n| what | PR | restore from |\n|---|---|---|\n"
            "| `batch_verify_schnorr`, the RLC verifier | 21 | `efa953b` |\n",
            encoding="utf-8",
        )
        (tmp_path / "README.md").write_text(
            "`FixedBaseTable` and `Network._hand_over` are gone; `Network.attach`,\n"
            "`batch_verify_schnorr`, `asyncio.Protocol`, `core.on_receive_ms_per_height`,\n"
            "`registry.py`, `python -m repro demo` and `EventQueue.pop(until)` are not.\n"
            "```python\nFixedBaseTable(g)\n```\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_names(problems)
        assert [p.split("`")[1] for p in problems] == ["FixedBaseTable", "Network._hand_over"]
        assert all(p.startswith("README.md: ") for p in problems)

    def test_a_name_only_prose_mentions_is_flagged(self, tmp_path, monkeypatch):
        """A deleted name that a docstring and an error message still
        mention is not defined by them: it fails, while the def that
        replaced it and a string the code uses whole pass."""
        module = load_checker()
        source = tmp_path / "src" / "repro" / "pool.py"
        source.parent.mkdir(parents=True)
        source.write_text(
            '"""The pool; `prune_below` replaced gone_helper."""\n\n'
            "def prune_below(floor):\n"
            '    """Unlike gone_helper, keeps the floor."""\n'
            '    if floor < 0:\n        raise ValueError("gone_helper took no floor")\n'
            '    return "pool.pruned_total"\n',
            encoding="utf-8",
        )
        (tmp_path / "README.md").write_text(
            "Call `gone_helper` or `prune_below`; it counts `pool.pruned_total`.\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_names(problems)
        assert [p.split("`")[1] for p in problems] == ["gone_helper"]

    def test_checker_runs_as_ci_runs_it(self):
        """CI runs the checker with no PYTHONPATH; ``-I`` also drops the
        working directory and the user site, so a check that imported
        ``repro`` would fail here, not only in CI."""
        result = subprocess.run(
            [sys.executable, "-I", str(CHECKER.relative_to(CHECKER.parents[1]))],
            cwd=CHECKER.parents[1], capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("docs OK")

    @staticmethod
    def _write_quick_stdout(tmp_path, module):
        out = tmp_path / module.QUICK_STDOUT
        out.parent.mkdir(parents=True)
        out.write_text(
            "\n== Table 1: block rate ==\n"
            "subnet          scenario      blocks/s  Mb/s\n"
            "--------------------------------------------\n"
            "13 node subnet  without load  1.10      1234.50\n"
            "40 node subnet  without load  0.43      0.21\n"
            "\n== E3a: synchronous ==\nn  msgs/n^2\n----------\n4  8.00\n"
            "\n== E3b: adversarial ==\nn   msgs/n^2\n-----------\n13  30.00\n"
            "\n== E4: rounds ==\nn  mean gap\n----------\n7  1.45\n"
            "\n== E9: comparison ==\nprotocol  block time\n--------------------\n"
            "ICC0      2.0 δ\n"
            "\n== E7: egress ==\nprotocol  block size S  max node egress\n"
            "--------------------------------------\nICC1      10 KB         3.5 S\n"
            "\n== E11: uplinks ==\nprotocol  round time  vs 1×S floor\n"
            "-----------------------------------\nICC0      1961 ms     24.5×\n",
            encoding="utf-8",
        )

    @staticmethod
    def _check(tmp_path, module, cell, e3b, e7="3.5", e11="1 961"):
        table = (
            "## T1 — Table 1\n\n| subnet | scenario | blocks/s | Mb/s |\n|---|---|---|---|\n"
            "| 13 | without load | **1.10** | 1 234.50 |\n| 40 | without load | {cell} | 0.21 |\n"
            "\n## E3 — messages\n\nSynchronous:\n\n| n | msgs/n² |\n|---|---|\n| 4 | 8.00 |\n"
            "\nAdversarial:\n\n| n | msgs/n² |\n|---|---|\n| 13 | {e3b} |\n"
            "\n## E4 — rounds\n\n| n | mean gap |\n|---|---|\n| 7 | 1.45 |\n"
            "\n## E9 — comparison\n\n| protocol | block time |\n|---|---|\n| ICC0 | 2.0 δ |\n"
            "\n## E7 — egress\n\n| protocol | S | max |\n|---|---|---|\n| ICC1 | 10 KB | {e7} S |\n"
            "\n## E11 — uplinks\n\n| protocol | round time | × floor |\n|---|---|---|\n"
            "| ICC0 | {e11} ms | 24.5× |\n"
        )
        text = table.format(cell=cell, e3b=e3b, e7=e7, e11=e11)
        (tmp_path / "EXPERIMENTS.md").write_text(text, encoding="utf-8")
        problems: list[str] = []
        module.check_copied_tables(problems)
        return problems
