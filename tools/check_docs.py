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
* every event kind registered in ``src/repro/obs/registry.py`` is
  documented in ``docs/OBSERVABILITY.md``;
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
  assembly that was folded into ``build_cluster``.

Exit status 0 when clean, 1 with one line per problem otherwise.  CI runs
this plus the test-suite; ``tests/test_docs.py`` runs it in-process.
"""

from __future__ import annotations

import ast
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


def run() -> list[str]:
    problems: list[str] = []
    for path in doc_files():
        check_links(path, problems)
        check_fences(path, problems)
        check_tables(path, problems)
    check_cli_docs(problems)
    check_observability_cli_docs(problems)
    check_event_docs(problems)
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
