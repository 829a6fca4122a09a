#!/usr/bin/env python
"""Documentation checks: relative links resolve, markdown is well-formed.

Run from anywhere::

    python tools/check_docs.py

Checks every ``*.md`` file in the repo root and ``docs/``:

* relative links and images point at files/directories that exist
  (external ``http(s)``/``mailto`` targets and pure ``#anchor`` links are
  skipped; ``path#anchor`` links are checked for the path part);
* code fences are balanced (every ``````` opener has a closer);
* no tab characters inside markdown tables (they break column alignment);
* every ``python -m repro`` subcommand registered in
  ``src/repro/__main__.py`` is documented in the README (the parser is
  scanned textually — no import — so the check runs without the package
  installed);
* every metric name registered in ``src/repro/obs/metrics.py`` is
  documented in ``docs/OBSERVABILITY.md`` (same textual scan, no
  import);
* every event kind registered in ``src/repro/obs/registry.py`` is
  documented in ``docs/OBSERVABILITY.md``;
* every concrete ``BENCH_<name>.json`` a checked file names exists, every
  ``python -m repro <name>`` it shows is a registered subcommand, and every
  ``REPRO_*`` environment variable it shows appears somewhere under
  ``src/`` (ROADMAP.md records history and is exempt from this one check);
* every ``repro.experiments.<module>`` named in DESIGN.md's experiment
  table is a module ``run_all.suite`` enumerates (textual scan), so an
  experiment with a private entry point cannot sit beside the suite;
* every ``shard.*`` metric and event kind additionally appears in
  ``docs/SHARDING.md`` (the sharding subsystem's own page must not
  drift from the registries either);
* every ``live.*`` metric and event kind additionally appears in
  ``docs/TRANSPORT.md``, the live transport's reference page;
* every tag of the wire codec's table (``src/repro/net/codec.py``, textual
  scan) has a row in ``docs/TRANSPORT.md``'s layout table naming the tag
  and its type, so a kind cannot be added to the wire without its layout
  being written down;
* the observability CLI surface (``trace``, ``collect``, ``top``) is
  shown as ``python -m repro <name>`` invocations in
  ``docs/OBSERVABILITY.md``, not just the README;
* every ``ClusterConfig.<field>`` and every bare ``crypto_*`` knob named in
  any checked markdown file is a field of that dataclass (textual scan of
  the class body), so a removed option cannot linger in prose;
* every cluster class (``...Cluster...``) or builder (``build_*cluster``,
  ``embed_*cluster``) a checked file names is defined under ``src/repro``
  (textual scan; ROADMAP.md is exempt), so prose cannot keep pointing at an
  assembly that was folded into ``build_cluster``.

Exit status 0 when clean, 1 with one line per problem otherwise.  CI runs
this plus the test-suite; ``tests/test_docs.py`` runs it in-process.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]

#: Generated reference dumps (arxiv retrievals, exemplar snippets, task
#: specs) — not maintained documentation, so not held to these checks.
SKIP = {"PAPERS.md", "SNIPPETS.md", "ISSUE.md", "CHANGES.md"}

#: Inline links/images: [text](target) — target group without title part.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
EXTERNAL = ("http://", "https://", "mailto:")


def doc_files() -> list[pathlib.Path]:
    files = sorted(REPO.glob("*.md"))
    docs = REPO / "docs"
    if docs.is_dir():
        files += sorted(docs.rglob("*.md"))
    return [f for f in files if f.name not in SKIP]


def strip_code(text: str) -> str:
    """Remove fenced code blocks and inline code so links inside them are ignored."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return re.sub(r"`[^`\n]*`", "", text)


def check_links(path: pathlib.Path, problems: list[str]) -> None:
    for target in LINK_RE.findall(strip_code(path.read_text(encoding="utf-8"))):
        if target.startswith(EXTERNAL):
            continue
        if target.startswith("#"):
            continue  # same-page anchor
        target_path = target.split("#", 1)[0]
        if not target_path:
            continue
        resolved = (path.parent / target_path).resolve()
        if not resolved.exists():
            problems.append(f"{path.relative_to(REPO)}: broken link -> {target}")


def check_fences(path: pathlib.Path, problems: list[str]) -> None:
    fences = sum(
        1
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.lstrip().startswith("```")
    )
    if fences % 2:
        problems.append(f"{path.relative_to(REPO)}: unbalanced code fences")


def check_tables(path: pathlib.Path, problems: list[str]) -> None:
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.startswith("|") and "\t" in line:
            problems.append(
                f"{path.relative_to(REPO)}:{lineno}: tab character inside table"
            )


#: ``sub.add_parser("name", ...)`` registrations in the CLI module.
SUBCOMMAND_RE = re.compile(r"""\.add_parser\(\s*["']([a-z0-9-]+)["']""")


def cli_subcommands() -> list[str]:
    """Subcommand names registered in ``src/repro/__main__.py``."""
    cli = REPO / "src" / "repro" / "__main__.py"
    if not cli.is_file():
        return []
    return sorted(set(SUBCOMMAND_RE.findall(cli.read_text(encoding="utf-8"))))


def check_cli_docs(problems: list[str]) -> None:
    """Every CLI subcommand must appear as ``python -m repro <name>`` in README."""
    readme = REPO / "README.md"
    if not readme.is_file():
        problems.append("README.md: missing (cannot check CLI subcommand docs)")
        return
    # Collapse whitespace so invocations wrapped across lines still match.
    text = re.sub(r"\s+", " ", readme.read_text(encoding="utf-8"))
    for name in cli_subcommands():
        if f"python -m repro {name}" not in text:
            problems.append(
                f"README.md: CLI subcommand {name!r} is undocumented "
                f"(no `python -m repro {name}` invocation found)"
            )


#: ``register_metric("name", ...)`` declarations in the metrics module.
METRIC_RE = re.compile(r"""register_metric\(\s*\n?\s*["']([a-z0-9_.]+)["']""")


def registered_metrics() -> list[str]:
    """Metric names registered in ``src/repro/obs/metrics.py``."""
    metrics = REPO / "src" / "repro" / "obs" / "metrics.py"
    if not metrics.is_file():
        return []
    return sorted(set(METRIC_RE.findall(metrics.read_text(encoding="utf-8"))))


def check_metric_docs(problems: list[str]) -> None:
    """Every registered metric must appear backticked in OBSERVABILITY.md."""
    doc = REPO / "docs" / "OBSERVABILITY.md"
    if not doc.is_file():
        if registered_metrics():
            problems.append(
                "docs/OBSERVABILITY.md: missing (cannot check metric docs)"
            )
        return
    text = doc.read_text(encoding="utf-8")
    for name in registered_metrics():
        if f"`{name}`" not in text:
            problems.append(
                f"docs/OBSERVABILITY.md: metric {name!r} is undocumented "
                f"(no `{name}` mention found)"
            )


#: ``register("kind", ...)`` declarations in the event-kind registry.
EVENT_RE = re.compile(r"""(?<!_)register\(\s*\n?\s*["']([a-z0-9_.]+)["']""")


def registered_event_kinds() -> list[str]:
    """Event-kind names registered in ``src/repro/obs/registry.py``."""
    registry = REPO / "src" / "repro" / "obs" / "registry.py"
    if not registry.is_file():
        return []
    return sorted(set(EVENT_RE.findall(registry.read_text(encoding="utf-8"))))


def check_event_docs(problems: list[str]) -> None:
    """Every registered event kind must appear backticked in OBSERVABILITY.md."""
    doc = REPO / "docs" / "OBSERVABILITY.md"
    if not doc.is_file():
        if registered_event_kinds():
            problems.append(
                "docs/OBSERVABILITY.md: missing (cannot check event-kind docs)"
            )
        return
    text = doc.read_text(encoding="utf-8")
    for name in registered_event_kinds():
        if f"`{name}`" not in text:
            problems.append(
                f"docs/OBSERVABILITY.md: event kind {name!r} is undocumented "
                f"(no `{name}` mention found)"
            )


def check_shard_docs(problems: list[str]) -> None:
    """Every ``shard.*`` metric and event kind must appear backticked in
    SHARDING.md, the sharding subsystem's own reference page."""
    shard_names = [
        name
        for name in registered_metrics() + registered_event_kinds()
        if name.startswith("shard.")
    ]
    if not shard_names:
        return
    doc = REPO / "docs" / "SHARDING.md"
    if not doc.is_file():
        problems.append("docs/SHARDING.md: missing (cannot check shard.* docs)")
        return
    text = doc.read_text(encoding="utf-8")
    for name in sorted(set(shard_names)):
        if f"`{name}`" not in text:
            problems.append(
                f"docs/SHARDING.md: shard name {name!r} is undocumented "
                f"(no `{name}` mention found)"
            )


#: A concrete snapshot file name (``BENCH_*.json`` and ``BENCH_{a,b}.json``
#: are patterns, not names) and a CLI invocation, as they appear in prose.
BENCH_FILE_RE = re.compile(r"\bBENCH_[A-Za-z0-9]+\.json\b")
INVOCATION_RE = re.compile(r"python -m repro ([a-z][a-z0-9-]*)")
ENV_VAR_RE = re.compile(r"\bREPRO_[A-Z_]+\b")
#: ROADMAP.md records history: it may name files and commands that are gone.
HISTORY = {"ROADMAP.md"}


def check_removed_names(problems: list[str]) -> None:
    """A ``BENCH_<name>.json`` the docs name must exist, a ``python -m
    repro <name>`` they show must be a registered subcommand and a
    ``REPRO_*`` environment variable they show must appear under ``src/``:
    what the docs point a reader at cannot have been removed."""
    registered = set(cli_subcommands())
    source = "".join(
        module.read_text(encoding="utf-8") for module in (REPO / "src").rglob("*.py")
    )
    for path in doc_files():
        if path.name in HISTORY:
            continue
        # Collapse whitespace so invocations wrapped across lines still match.
        text = re.sub(r"\s+", " ", path.read_text(encoding="utf-8"))
        for name in sorted(set(BENCH_FILE_RE.findall(text))):
            if not (REPO / name).is_file():
                problems.append(
                    f"{path.relative_to(REPO)}: names {name}, which does not exist"
                )
        for name in sorted(set(INVOCATION_RE.findall(text)) - registered):
            problems.append(
                f"{path.relative_to(REPO)}: shows `python -m repro {name}`, "
                f"which is not a registered subcommand"
            )
        for name in sorted(set(ENV_VAR_RE.findall(text))):
            if name not in source:
                problems.append(
                    f"{path.relative_to(REPO)}: shows {name}, which nothing under "
                    f"src/ reads"
                )


#: ``(module, module.specs(`` entries of ``run_all.suite``.
SUITE_ENTRY_RE = re.compile(r"\(\s*(\w+),\s*\1\.specs\(")
EXPERIMENT_MODULE_RE = re.compile(r"`repro\.experiments\.(\w+)`")


def suite_modules() -> list[str]:
    """Experiment modules ``run_all.suite`` enumerates, in table order."""
    module = REPO / "src" / "repro" / "experiments" / "run_all.py"
    if not module.is_file():
        return []
    return SUITE_ENTRY_RE.findall(module.read_text(encoding="utf-8"))


def design_experiment_modules(text: str) -> list[str]:
    """``repro.experiments.<module>`` names in the rows of the table whose
    header starts ``| Exp id``."""
    names: list[str] = []
    in_table = False
    for line in text.splitlines():
        if line.startswith("| Exp id"):
            in_table = True
        elif in_table and not line.startswith("|"):
            break
        elif in_table:
            names.extend(EXPERIMENT_MODULE_RE.findall(line))
    return names


def check_experiment_docs(problems: list[str]) -> None:
    """Every experiment DESIGN.md tabulates runs through the one suite."""
    doc = REPO / "DESIGN.md"
    enumerated = suite_modules()
    if not doc.is_file() or not enumerated:
        return
    for name in design_experiment_modules(doc.read_text(encoding="utf-8")):
        if name not in enumerated:
            problems.append(
                f"DESIGN.md: experiment module `repro.experiments.{name}` is not "
                f"enumerated by run_all.suite (every experiment is specs() + "
                f"tabulate() on the runner)"
            )


#: Observability CLI surface: these subcommands must be shown (as a
#: ``python -m repro <name>`` invocation) in docs/OBSERVABILITY.md, the
#: tracing/metrics reference page, not just in the README.
OBSERVABILITY_CLIS = ("trace", "collect", "top")


def check_observability_cli_docs(problems: list[str]) -> None:
    """The trace/collect/top commands must be documented where the
    observability subsystem is documented."""
    registered = set(cli_subcommands())
    wanted = [name for name in OBSERVABILITY_CLIS if name in registered]
    if not wanted:
        return
    doc = REPO / "docs" / "OBSERVABILITY.md"
    if not doc.is_file():
        problems.append(
            "docs/OBSERVABILITY.md: missing (cannot check observability CLIs)"
        )
        return
    text = re.sub(r"\s+", " ", doc.read_text(encoding="utf-8"))
    for name in wanted:
        if f"python -m repro {name}" not in text:
            problems.append(
                f"docs/OBSERVABILITY.md: observability CLI {name!r} is "
                f"undocumented (no `python -m repro {name}` invocation found)"
            )


def check_live_docs(problems: list[str]) -> None:
    """Every ``live.*`` metric and event kind must appear backticked in
    TRANSPORT.md, the live transport's own reference page."""
    live_names = [
        name
        for name in registered_metrics() + registered_event_kinds()
        if name.startswith("live.")
    ]
    if not live_names:
        return
    doc = REPO / "docs" / "TRANSPORT.md"
    if not doc.is_file():
        problems.append("docs/TRANSPORT.md: missing (cannot check live.* docs)")
        return
    text = doc.read_text(encoding="utf-8")
    for name in sorted(set(live_names)):
        if f"`{name}`" not in text:
            problems.append(
                f"docs/TRANSPORT.md: live transport name {name!r} is "
                f"undocumented (no `{name}` mention found)"
            )


#: Rows of the wire codec's table: ``    0x01: (Block, ...`` or
#: ``    0x02: _certificate(Authenticator, ...``.
CODEC_ROW_RE = re.compile(
    r"^    (0x[0-9a-f]{2}): \(?(?:_\w+\()?([A-Z]\w+)", re.MULTILINE
)


def codec_table() -> list[tuple[str, str]]:
    """``(tag, type name)`` of every row of ``repro.net.codec._TABLE``
    (textual scan, no import)."""
    module = REPO / "src" / "repro" / "net" / "codec.py"
    if not module.is_file():
        return []
    return CODEC_ROW_RE.findall(module.read_text(encoding="utf-8"))


def check_codec_docs(problems: list[str]) -> None:
    """A kind cannot be on the wire without its byte layout written down:
    every codec tag has a row naming it and its type in TRANSPORT.md."""
    table = codec_table()
    doc = REPO / "docs" / "TRANSPORT.md"
    if not table or not doc.is_file():
        return
    rows = [line for line in doc.read_text(encoding="utf-8").splitlines() if line.startswith("|")]
    for tag, name in table:
        if not any(f"`{tag}`" in row and f"`{name}`" in row for row in rows):
            problems.append(
                f"docs/TRANSPORT.md: wire codec tag {tag} ({name}) has no row in "
                f"the layout table (no table line with `{tag}` and `{name}`)"
            )


#: The cluster config dataclass and the module that defines it.
CONFIG_CLASSES = {
    "ClusterConfig": REPO / "src" / "repro" / "core" / "cluster.py",
}
#: Annotated field lines directly inside a class body.
FIELD_RE = re.compile(r"^    ([a-z_][a-z0-9_]*):", re.MULTILINE)
#: ``ClusterConfig.field`` mentions.
CONFIG_ATTR_RE = re.compile(r"\b(\w*ClusterConfig)\.([a-z_][a-z0-9_]*)")
#: Bare ``crypto_*`` option names (not path or module components).
CRYPTO_KNOB_RE = re.compile(r"(?<![\w./])crypto_[a-z0-9_]+\b(?![./])")


def config_fields() -> dict[str, set[str]]:
    """Field names of each cluster config dataclass (textual scan)."""
    fields: dict[str, set[str]] = {}
    for name, module in CONFIG_CLASSES.items():
        if not module.is_file():
            continue
        match = re.search(
            rf"^class {name}\b.*?(?=^\S)", module.read_text(encoding="utf-8"),
            re.MULTILINE | re.DOTALL,
        )
        if match:
            fields[name] = set(FIELD_RE.findall(match.group(0)))
    return fields


def check_config_docs(problems: list[str]) -> None:
    """Config options named in the docs must exist on the dataclasses."""
    fields = config_fields()
    if not fields:
        return
    known = set().union(*fields.values())
    for path in doc_files():
        # Prose only: drop fenced and indented code blocks (module trees,
        # shell transcripts), where crypto_* words are file names.
        text = re.sub(r"```.*?```", "", path.read_text(encoding="utf-8"), flags=re.DOTALL)
        text = re.sub(r"^ {4,}.*$", "", text, flags=re.MULTILINE)
        for owner, attr in CONFIG_ATTR_RE.findall(text):
            if owner in fields and attr not in fields[owner]:
                problems.append(
                    f"{path.relative_to(REPO)}: {owner}.{attr} is not a field of {owner}"
                )
        for knob in sorted(set(CRYPTO_KNOB_RE.findall(text)) - known):
            problems.append(
                f"{path.relative_to(REPO)}: option {knob!r} is not a field of "
                f"{' or '.join(sorted(fields))}"
            )


#: A cluster class or a cluster builder, as prose and code samples name one.
CLUSTER_NAME_RE = re.compile(r"\b(\w*Cluster\w*|(?:build|embed)_\w*cluster)\b")
DEFINITION_RE = re.compile(r"^\s*(?:class|def) (\w+)", re.MULTILINE)


def check_cluster_names(problems: list[str]) -> None:
    """A cluster class or builder the docs name must be defined under
    ``src/repro``: there is one assembly, and a page that still shows a
    second one (or a wrapper around the first) points at nothing."""
    defined: set[str] = set()
    for module in (REPO / "src" / "repro").rglob("*.py"):
        defined.update(DEFINITION_RE.findall(module.read_text(encoding="utf-8")))
    for path in doc_files():
        if path.name in HISTORY:
            continue
        text = path.read_text(encoding="utf-8")
        for name in sorted(set(CLUSTER_NAME_RE.findall(text)) - defined):
            problems.append(
                f"{path.relative_to(REPO)}: names {name}, which is not defined "
                f"under src/repro"
            )


def run() -> list[str]:
    problems: list[str] = []
    for path in doc_files():
        check_links(path, problems)
        check_fences(path, problems)
        check_tables(path, problems)
    check_cli_docs(problems)
    check_observability_cli_docs(problems)
    check_metric_docs(problems)
    check_event_docs(problems)
    check_shard_docs(problems)
    check_live_docs(problems)
    check_codec_docs(problems)
    check_removed_names(problems)
    check_experiment_docs(problems)
    check_config_docs(problems)
    check_cluster_names(problems)
    return problems


def main() -> int:
    problems = run()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"{len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    print(f"docs OK ({len(doc_files())} markdown files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
