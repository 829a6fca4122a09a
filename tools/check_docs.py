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
* every concrete ``BENCH_<name>.json`` a checked file names exists, every
  ``python -m repro <name>`` it shows is a registered subcommand, every
  ``--flag`` shown in such an invocation is declared by that subcommand's
  ``add_arguments`` (textual scan of its ``add_argument`` calls), and every
  ``REPRO_*`` environment variable it shows appears somewhere under
  ``src/``, every dotted ``repro.<a>.<b>…`` path it names resolves down
  to the top-level name after a module, and every ``path.py::name`` whose
  path resolves from the repo root, ``src/`` or ``src/repro/`` names a def
  or class in that file (ROADMAP.md records history and is exempt from
  this one check);
* every ``repro.experiments.<module>`` named in DESIGN.md's experiment
  table is a module ``run_all.suite`` enumerates (textual scan), so an
  experiment with a private entry point cannot sit beside the suite;
* EXPERIMENTS.md's T1, E3 (both), E4, E7, E9 and E11 tables are copies of the
  committed ``experiments --quick`` output
  (``tests/experiments/quick_stdout.txt``): row by row and cell by cell
  they hold the same numbers, thousands separators aside, so a re-pinned
  run cannot leave them stale;
* docs/FAULTS.md's chaos console block shows the command CI pins
  (``python -m repro chaos --seed 0 --count 4 --duration 30 --jobs 2``)
  and only lines of its committed output
  (``tests/faults/chaos_stdout.txt``), trailing blanks aside;
* every ``live.*`` event kind additionally appears in
  ``docs/TRANSPORT.md``, the live transport's reference page;
* every tag of the wire codec's table (``src/repro/net/codec.py``, textual
  scan) has a row in ``docs/TRANSPORT.md``'s layout table naming the tag
  and its type, so a kind cannot be added to the wire without its layout
  being written down;
* the observability CLI surface (``report``, ``top``) is
  shown as ``python -m repro <name>`` invocations in
  ``docs/OBSERVABILITY.md``, not just the README;
* every ``ClusterConfig.<field>`` and every bare ``crypto_*`` knob named in
  any checked markdown file is a field of that dataclass (textual scan of
  the class body), so a removed option cannot linger in prose;
* every cluster class (``...Cluster...``) or builder (``build_*cluster``,
  ``embed_*cluster``) a checked file names is defined under ``src/repro``
  (textual scan; ROADMAP.md is exempt), so prose cannot keep pointing at an
  assembly that was folded into ``build_cluster``;
* every backticked name outside fenced blocks (one with ``_`` or ``.`` in
  it, or a capital after its first letter) resolves against the repo's
  Python, ``BENCHMARK.json``, the standard library or docs/PERFORMANCE.md's
  *Removed* table (``check_code_names``; ROADMAP.md is exempt).  Event
  kinds are held to docs/OBSERVABILITY.md by ``tests/obs/test_schema_docs.py``.

Exit status 0 when clean, 1 with one line per problem otherwise.  Nothing
here imports ``repro``: CI runs this with no ``PYTHONPATH``, and
``tests/test_docs.py`` runs it both in-process and as ``python -I``.
"""

from __future__ import annotations

import ast
import builtins
import functools
import importlib
import json
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


#: ``"kind": (fields...),`` entries of the event-kind table.
EVENT_RE = re.compile(r"""^    ["']([a-z0-9_.]+)["']:""", re.MULTILINE)


def registered_event_kinds() -> list[str]:
    """Event kinds in ``src/repro/obs/registry.py``'s ``EVENT_KINDS``."""
    registry = REPO / "src" / "repro" / "obs" / "registry.py"
    if not registry.is_file():
        return []
    return sorted(set(EVENT_RE.findall(registry.read_text(encoding="utf-8"))))


#: A concrete snapshot file name (``BENCH_*.json`` and ``BENCH_{a,b}.json``
#: are patterns, not names) and a CLI invocation, as they appear in prose.
BENCH_FILE_RE = re.compile(r"\bBENCH_[A-Za-z0-9]+\.json\b")
INVOCATION_RE = re.compile(r"python -m repro ([a-z][a-z0-9-]*)")
ENV_VAR_RE = re.compile(r"\bREPRO_[A-Z_]+\b")
DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
#: ROADMAP.md records history: it may name files and commands that are gone.
HISTORY = {"ROADMAP.md"}

#: ``name = sub.add_parser("cmd", ...)`` and ``_mount(name, "module"[, "cmd"])``
#: in the CLI module.
PARSER_VAR_RE = re.compile(r"""(\w+) = sub\.add_parser\(\s*["']([a-z0-9-]+)["']""")
MOUNT_RE = re.compile(r"""_mount\((\w+), ["']([\w.]+)["'](?:, ["'](\w+)["'])?""")
#: A quoted flag in an ``add_argument`` call.
DECLARED_FLAG_RE = re.compile(r"""["'](--[a-z][a-z0-9-]*)["']""")
#: An invocation and the rest of its command (up to a pipe or a shell
#: separator), and the flags in that rest.
SHOWN_FLAGS_RE = re.compile(r"python -m repro ([a-z][a-z0-9-]*)([^|;&)]*)")
FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][a-z0-9-]*)")


def code_lines(text: str) -> list[str]:
    """The command lines a page shows: each line of a fenced block (a
    trailing backslash continues it) and each inline code span, which may
    wrap across lines of prose."""
    fenced = re.findall(r"```.*?```", text, flags=re.DOTALL)
    lines = [line for block in fenced for line in block.replace("\\\n", " ").splitlines()]
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    return lines + [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]


def cli_flags() -> dict[str, set[str]]:
    """The flags each subcommand declares: the quoted ``--`` names in the
    ``add_arguments`` (or ``add_<cmd>_arguments``) its module hands the
    subparser (textual scan, no import)."""
    cli = REPO / "src" / "repro" / "__main__.py"
    if not cli.is_file():
        return {}
    text = cli.read_text(encoding="utf-8")
    commands = dict(PARSER_VAR_RE.findall(text))
    flags: dict[str, set[str]] = {}
    for var, module, command in MOUNT_RE.findall(text):
        path = (REPO / "src").joinpath(*module.split(".")).with_suffix(".py")
        function = f"add_{command}_arguments" if command else "add_arguments"
        body = re.search(
            rf"^def {function}\(.*?(?=^\S|\Z)", path.read_text(encoding="utf-8"),
            re.MULTILINE | re.DOTALL,
        )
        if var in commands and body:
            flags[commands[var]] = {"--help", *DECLARED_FLAG_RE.findall(body.group(0))}
    return flags


def module_names(module: pathlib.Path) -> set[str]:
    """The names a module binds at top level: imports, assignments,
    functions and classes (parsed, not imported)."""
    names: set[str] = set()
    for node in ast.parse(module.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def package_names(package: pathlib.Path) -> set[str]:
    """The names a package's ``__init__.py`` binds."""
    init = package / "__init__.py"
    return module_names(init) if init.is_file() else set()


def resolves(dotted: str) -> bool:
    """Whether ``repro.<a>.<b>…`` names something under ``src/repro``:
    each component after a package is a submodule, a subpackage or a name
    its ``__init__.py`` binds, and the component after a module is a
    top-level name of that module.  The walk stops at the first name bound
    in a package or module, since what follows is attributes."""
    package = REPO / "src" / "repro"
    parts = dotted.split(".")[1:]
    for i, part in enumerate(parts):
        module = package / f"{part}.py"
        if module.is_file():
            return i + 1 == len(parts) or parts[i + 1] in module_names(module)
        if part in package_names(package):
            return True
        package = package / part
        if not package.is_dir():
            return False
    return True


#: A ``path/to/file.py::name`` reference (pytest's node-id form).
FILE_NAME_RE = re.compile(r"([\w./-]+\.py)::(\w+)")


def defined_in(module: pathlib.Path) -> set[str]:
    """The functions and classes defined anywhere in a module."""
    return {
        node.name
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def missing_definition(path: str, name: str) -> bool:
    """Whether ``path::name`` points at a file that resolves from the repo
    root, ``src/`` or ``src/repro/`` but defines no such function or
    class.  A path that resolves nowhere is not judged."""
    for root in (REPO, REPO / "src", REPO / "src" / "repro"):
        module = root / path
        if module.is_file():
            return name not in defined_in(module)
    return False


def check_removed_names(problems: list[str]) -> None:
    """A ``BENCH_<name>.json`` the docs name must exist, a ``python -m
    repro <name>`` they show must be a registered subcommand, a ``--flag``
    in that invocation must be one the subcommand declares, a ``REPRO_*``
    environment variable they show must appear under ``src/``, a
    ``repro.<a>.<b>…`` path they name must resolve and a ``path.py::name``
    must name a definition of that file: what the docs point a reader at
    cannot have been removed."""
    registered = set(cli_subcommands())
    declared = cli_flags()
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
        for name in sorted(set(DOTTED_RE.findall(text))):
            if not resolves(name):
                problems.append(
                    f"{path.relative_to(REPO)}: names {name}, which does not "
                    f"resolve under src/repro"
                )
        for module, name in sorted(set(FILE_NAME_RE.findall(text))):
            if missing_definition(module, name):
                problems.append(
                    f"{path.relative_to(REPO)}: names {module}::{name}, which "
                    f"{module} does not define"
                )
        shown = {
            (command, flag)
            for line in code_lines(path.read_text(encoding="utf-8"))
            for command, rest in SHOWN_FLAGS_RE.findall(line)
            for flag in FLAG_RE.findall(rest)
        }
        for command, flag in sorted(shown):
            if command in declared and flag not in declared[command]:
                problems.append(
                    f"{path.relative_to(REPO)}: shows `python -m repro {command} "
                    f"{flag}`, which `{command}` does not declare"
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


#: EXPERIMENTS.md tables that copy a table of the quick run's output, with
#: the title that table prints under: a section's first table, or its k-th
#: as ``section/k``.
COPIED_TABLES = {
    "T1": "Table 1:", "E3": "E3a:", "E3/2": "E3b:", "E4": "E4:", "E7": "E7:", "E9": "E9:",
    "E11": "E11:",
}
QUICK_STDOUT = "tests/experiments/quick_stdout.txt"
NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")
THOUSANDS_RE = re.compile(r"(?<=\d)[ ,](?=\d{3}\b)")


def table_after(
    lines: list[str], start: str, markdown: bool, nth: int = 1
) -> list[list[list[str]]]:
    """The numbers of each cell of each body row of the ``nth`` table after
    the line starting ``start``: a markdown table (none past the next
    ``## `` heading), or one ``print_table`` printed (cells two spaces
    apart, rows up to a blank line)."""
    at = next((i for i, line in enumerate(lines) if line.startswith(start)), len(lines))
    rows: list[str] = []
    for line in lines[at + 1 :]:
        if line.startswith("|") if markdown else line:
            rows.append(line.strip().strip("|"))
        elif rows and nth > 1:
            nth, rows = nth - 1, []
        elif rows or not markdown or line.startswith("## "):
            break
    cells = [re.split(r"\|" if markdown else r"\s{2,}", r.strip()) for r in rows[2:]]
    return [[NUMBER_RE.findall(THOUSANDS_RE.sub("", c)) for c in row] for row in cells]


def check_copied_tables(problems: list[str]) -> None:
    """EXPERIMENTS.md's copied tables hold the numbers the quick run prints."""
    doc, out = REPO / "EXPERIMENTS.md", REPO / QUICK_STDOUT
    if not doc.is_file() or not out.is_file():
        return
    for section, title in COPIED_TABLES.items():
        heading, _, nth = section.partition("/")
        copied = table_after(
            doc.read_text(encoding="utf-8").splitlines(), f"## {heading} ", True, int(nth or 1)
        )
        printed = table_after(out.read_text(encoding="utf-8").splitlines(), f"== {title}", False)
        if not printed or len(copied) != len(printed):
            problems.append(f"EXPERIMENTS.md: the {section} table is not a copy of {QUICK_STDOUT}")
        for number, (ours, theirs) in enumerate(zip(copied, printed), 1):
            if ours != theirs:
                problems.append(
                    f"EXPERIMENTS.md: {section} row {number} reads {ours}, "
                    f"{QUICK_STDOUT} prints {theirs}"
                )


#: Console blocks that show a pinned command's output: page -> (the
#: command, the file that pins what it prints).
COPIED_OUTPUTS = {
    "docs/FAULTS.md": (
        "python -m repro chaos --seed 0 --count 4 --duration 30 --jobs 2",
        "tests/faults/chaos_stdout.txt",
    ),
}


def check_copied_outputs(problems: list[str]) -> None:
    """A console block starting ``$ <command>`` exists on the page, and
    every line it shows below that is a line the pinned file holds."""
    for page, (command, pinned) in COPIED_OUTPUTS.items():
        doc, out = REPO / page, REPO / pinned
        if not doc.is_file() or not out.is_file():
            continue
        printed = {line.rstrip() for line in out.read_text(encoding="utf-8").splitlines()}
        blocks = re.findall(r"```console\n(.*?)```", doc.read_text(encoding="utf-8"), re.DOTALL)
        block = next((b for b in blocks if b.startswith(f"$ {command}\n")), None)
        if block is None:
            problems.append(f"{page}: no console block shows `{command}`")
            continue
        for line in block.splitlines()[1:]:
            if line.rstrip() not in printed:
                problems.append(f"{page}: shows {line.strip()!r}, which {pinned} does not hold")


#: Observability CLI surface: these subcommands must be shown (as a
#: ``python -m repro <name>`` invocation) in docs/OBSERVABILITY.md, the
#: tracing/metrics reference page, not just in the README.
OBSERVABILITY_CLIS = ("report", "top")


def check_observability_cli_docs(problems: list[str]) -> None:
    """The report and top commands must be documented where the
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
    """Every ``live.*`` event kind must appear backticked in TRANSPORT.md,
    the live transport's own reference page."""
    live_names = [name for name in registered_event_kinds() if name.startswith("live.")]
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


#: Where the repo's Python lives: what a backticked name may resolve to.
CODE_DIRS = ("src", "bench", "tools", "tests", "benchmarks", "examples")
#: A backticked name (dotted, perhaps called), and a word of a string.
CODE_NAME_RE = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
WORD_RE = re.compile(r"[A-Za-z_]\w*")
#: The page whose ``## Removed`` table lists retired names.
REMOVED_PAGE = "docs/PERFORMANCE.md"


def code_index() -> tuple[set[str], dict[str, list]]:
    """What the repo's Python names, read with ``ast`` (never imported):
    every identifier, attribute, def, class, argument, keyword, imported
    module and string literal (whole, and each word of it); and for each
    class name, the ``(bases, members)`` of every class of that name, a
    base that is not a plain or dotted name being None."""
    names: set[str] = set()
    classes: dict[str, list] = {}
    for folder in CODE_DIRS:
        for module in sorted((REPO / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
                for field in ("id", "attr", "name", "arg", "asname", "module"):
                    if isinstance(value := getattr(node, field, None), str):
                        names.update(value.split("."))
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.update([node.value, *WORD_RE.findall(node.value)])
                if isinstance(node, ast.ClassDef):
                    bases = [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
                    classes.setdefault(node.name, []).append((bases, own_members(node)))
    return names, classes


def own_members(node: ast.ClassDef) -> set[str]:
    """A class's defs, class attributes, dataclass fields and ``self.x``."""
    members = {getattr(item, "name", None) for item in node.body}
    for item in node.body:
        targets = getattr(item, "targets", [getattr(item, "target", None)])
        members.update(target.id for target in targets if isinstance(target, ast.Name))
    members.update(
        sub.attr for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
        and getattr(sub.value, "id", None) == "self"
    )
    return members


def class_members(classes: dict[str, list], name: str, seen: tuple = ()) -> set[str] | None:
    """Every member the classes called ``name`` and their bases define, or
    None when one of them has a base the repo does not define (``object``
    aside): then what the class has is not all written here."""
    if name not in classes or name in seen:
        return None
    found: set[str] = set()
    for bases, members in classes[name]:
        found |= members
        for base in bases:
            inherited = set() if base == "object" else class_members(classes, base, (*seen, name))
            if inherited is None:
                return None
            found |= inherited
    return found


def stdlib_path(dotted: str) -> bool:
    """Whether ``dotted`` is an attribute path of an importable
    standard-library module, or of a builtin."""
    parts = dotted.split(".")
    cut, target = 1, getattr(builtins, parts[0], None)
    if parts[0] in sys.stdlib_module_names:
        for cut in range(len(parts), 0, -1):
            try:
                target = importlib.import_module(".".join(parts[:cut]))
                break
            except ImportError:
                continue
    if target is None:
        return False
    try:
        functools.reduce(getattr, parts[cut:], target)
    except AttributeError:
        return False
    return True


def json_strings(value: object) -> set[str]:
    """Every key and string in a parsed JSON document."""
    if isinstance(value, dict):
        value = [*value, *value.values()]
    if isinstance(value, list):
        return set().union(*map(json_strings, value))
    return {value} if isinstance(value, str) else set()


def code_spans(text: str) -> list[str]:
    """The backticked spans outside fenced blocks that look like code: a
    name with ``_`` or ``.`` in it, or a capital after its first letter."""
    prose = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    matches = (CODE_NAME_RE.fullmatch(span.strip()) for span in re.findall(r"`([^`]+)`", prose))
    names = [m.group(1) for m in matches if m]
    return [n for n in names if "_" in n or "." in n or any(c.isupper() for c in n[1:])]


def removed_names() -> set[str]:
    """The names the first column of the ``## Removed`` table lists."""
    page = REPO / REMOVED_PAGE
    lines = page.read_text(encoding="utf-8").splitlines() if page.is_file() else []
    at = next((i for i, line in enumerate(lines) if line.strip() == "## Removed"), len(lines))
    rows = [line for line in lines[at + 1 :] if line.startswith("|")][2:]
    return {name for row in rows for name in code_spans(row.split("|")[1])}


def check_code_names(problems: list[str]) -> None:
    """A backticked name in the docs must resolve: for ``Class.member`` of a
    class the repo defines in full, a member of it or of its bases;
    otherwise its last component or the whole name among what the repo's
    Python and BENCHMARK.json name, or a standard-library attribute path.
    A name the *Removed* table lists passes."""
    names, classes = code_index()
    manifest = REPO / "BENCHMARK.json"
    if manifest.is_file():
        names |= json_strings(json.loads(manifest.read_text(encoding="utf-8")))
    removed = removed_names()
    for path in doc_files():
        if path.name in HISTORY:
            continue
        for name in sorted(set(code_spans(path.read_text(encoding="utf-8")))):
            parts = name.split(".")
            members = class_members(classes, parts[0]) if len(parts) > 1 else None
            if members is not None:
                ok = parts[1] in members
            else:
                ok = parts[-1] in names or name in names or stdlib_path(name)
            if not (ok or name in removed):
                problems.append(
                    f"{path.relative_to(REPO)}: names `{name}`, which nothing in the "
                    f"repo defines (deleted code goes in {REMOVED_PAGE}'s Removed table)"
                )


def run() -> list[str]:
    problems: list[str] = []
    for path in doc_files():
        check_links(path, problems)
        check_fences(path, problems)
        check_tables(path, problems)
    check_cli_docs(problems)
    check_observability_cli_docs(problems)
    check_live_docs(problems)
    check_codec_docs(problems)
    check_removed_names(problems)
    check_experiment_docs(problems)
    check_copied_tables(problems)
    check_copied_outputs(problems)
    check_config_docs(problems)
    check_cluster_names(problems)
    check_code_names(problems)
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
