"""Cross-check docs/OBSERVABILITY.md against the live event registry.

The registry (``repro.obs.registry``) holds each kind's name and payload
fields; the docs page holds what each kind means.  The page must have a
row for every registered kind, and none for kinds that no longer exist;
each row must name every payload field and say what the event means.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.obs import EVENT_KINDS

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"

#: A schema-table row: first column is the backticked kind name.  Prose
#: mentions don't count as documentation — only a table row does, so
#: stale rows for removed kinds are flagged while narrative references
#: to attributes (e.g. ``sim.tracer``) are ignored.
ROW_RE = re.compile(r"^\| `([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)` \|", re.MULTILINE)


def documented_kinds() -> set[str]:
    return set(ROW_RE.findall(DOCS.read_text(encoding="utf-8")))


class TestSchemaDocs:
    def test_docs_page_exists(self):
        assert DOCS.is_file(), "docs/OBSERVABILITY.md is missing"

    def test_every_registered_kind_is_documented(self):
        missing = set(EVENT_KINDS) - documented_kinds()
        assert not missing, f"kinds not documented in OBSERVABILITY.md: {sorted(missing)}"

    def test_no_stale_kinds_in_docs(self):
        stale = documented_kinds() - set(EVENT_KINDS)
        assert not stale, f"OBSERVABILITY.md documents unknown kinds: {sorted(stale)}"

    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_payload_fields_are_documented(self, kind):
        """The doc row for each kind must mention every payload field."""
        fields = EVENT_KINDS[kind]
        text = DOCS.read_text(encoding="utf-8")
        row = next(
            (line for line in text.splitlines() if line.startswith(f"| `{kind}` |")),
            None,
        )
        assert row is not None, f"no table row for {kind}"
        for field in fields:
            assert f"`{field}`" in row, f"{kind}: field {field!r} missing from docs row"

    @pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
    def test_every_kind_has_a_meaning(self, kind):
        """The row's last cell says what the event means: the registry
        holds no description, so this page is the only place it is."""
        lines = DOCS.read_text(encoding="utf-8").splitlines()
        row = next((line for line in lines if line.startswith(f"| `{kind}` |")), None)
        assert row is not None, f"no table row for {kind}"
        cells = re.split(r"(?<!\\)\|", row.strip().strip("|"))
        assert len(cells) == 3, f"{kind}: row has {len(cells)} cells, not Kind | Fields | Meaning"
        assert cells[2].strip(), f"{kind}: empty Meaning cell"
