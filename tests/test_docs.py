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
        TRANSPORT.md to them — a rename in the registries without a doc
        update has to fail check_live_docs."""
        module = load_checker()
        names = set(module.registered_metrics()) | set(module.registered_event_kinds())
        live = {n for n in names if n.startswith("live.")}
        assert {"live.connects", "live.peer.connect", "live.frame.rejected"} <= live

    def test_cli_scan_sees_live_subcommands(self):
        module = load_checker()
        assert {"serve", "live"} <= set(module.cli_subcommands())

    def test_stale_config_knobs_are_flagged(self, tmp_path, monkeypatch):
        """A removed ClusterConfig option named in prose must fail the
        check; a live field, or the baselines' own knob, must not."""
        module = load_checker()
        assert "crypto_backend" in module.config_fields()["ClusterConfig"]
        (tmp_path / "README.md").write_text(
            "Tune `crypto_flush_deadline` or ClusterConfig.crypto_batch;\n"
            "`BaselineClusterConfig.crypto_batch` and `crypto_backend` exist.\n",
            encoding="utf-8",
        )
        monkeypatch.setattr(module, "REPO", tmp_path)
        problems: list[str] = []
        module.check_config_docs(problems)
        assert len(problems) == 2
        assert "ClusterConfig.crypto_batch" in problems[0]
        assert "crypto_flush_deadline" in problems[1]
