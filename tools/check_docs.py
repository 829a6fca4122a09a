#!/usr/bin/env python
"""Documentation checks: what the markdown points at exists, and it is well-formed.

Run from anywhere::

    python tools/check_docs.py

Every ``*.md`` file in the repo root and ``docs/`` but the generated dumps
in ``SKIP`` is held to these rules, one function each:

* ``check_links``: relative links and images point at files or directories
  that exist (``http(s)``/``mailto`` targets and pure ``#anchor`` links are
  skipped; ``path#anchor`` links are checked for the path part);
* ``check_fences``: code fences are balanced (every ``````` opener has a
  closer);
* ``check_tables``: no tab characters inside markdown tables (they break
  column alignment);
* ``check_shown_commands``: README.md shows ``python -m repro <cmd>`` for
  every registered subcommand, and docs/OBSERVABILITY.md for the
  observability ones (``report``, ``top``);
* ``check_live_docs``: every ``live.*`` event kind is backticked in
  docs/TRANSPORT.md, the live transport's reference page;
* ``check_codec_docs``: every tag of the wire codec's table has a row in
  docs/TRANSPORT.md's layout table naming the tag and its type, so a kind
  cannot be on the wire without its layout being written down;
* ``check_experiment_docs``: every ``repro.experiments.<module>`` named in
  DESIGN.md's experiment table is a module ``run_all.suite`` enumerates, so
  an experiment with a private entry point cannot sit beside the suite;
* ``check_copied_tables``: EXPERIMENTS.md's T1, E3 (both), E4, E7, E9 and
  E11 tables hold, row by row and cell by cell, the numbers the committed
  ``experiments --quick`` output (``tests/experiments/quick_stdout.txt``)
  prints, thousands separators aside;
* ``check_copied_outputs``: docs/FAULTS.md's chaos console block shows the
  command CI pins and only lines of its committed output
  (``tests/faults/chaos_stdout.txt``), trailing blanks aside;
* ``check_names``: every name a page points at resolves (``unresolved``
  judges each), unless docs/PERFORMANCE.md's *Removed* table lists it.
  ROADMAP.md records history and is held only to the ``ClusterConfig``
  shape.  The shapes (``page_tokens`` finds them), each judged by one rule:

  - a concrete ``BENCH_<name>.json`` exists at the repo root;
  - ``python -m repro <cmd>`` is a registered subcommand, and a ``--flag``
    a fenced line or inline code span shows in that command line is one
    its ``add_arguments`` (or ``add_<cmd>_arguments``) declares;
  - a ``REPRO_*`` environment variable is a name or string under ``src/``;
  - ``repro.<a>.<b>…`` walks ``src/repro``'s packages and modules to a
    top-level name, and the component after a class the repo defines in
    full is a member of it;
  - ``path.py::name``, where the path is a file from the repo root,
    ``src/`` or ``src/repro/``, names a def or class in that file;
  - ``ClusterConfig.<field>`` and a bare ``crypto_*`` are fields of that
    dataclass, so a removed option cannot linger in prose;
  - a cluster class (``...Cluster...``) or builder (``build_*cluster``,
    ``embed_*cluster``) is defined under ``src/repro``;
  - any other backticked name outside fenced blocks that looks like code
    (``_`` or ``.`` in it, or a capital after its first letter): for
    ``Class.member`` of a class the repo defines in full, a member of it or
    of its bases; otherwise its last component or the whole name is a name
    ``read_code`` found, a key or string of BENCHMARK.json, or a
    standard-library attribute path.

Event kinds are held to docs/OBSERVABILITY.md by
``tests/obs/test_schema_docs.py``.  ``read_code`` reads the repo's Python
once per run, with ``ast``; nothing here imports ``repro``: CI runs this
with no ``PYTHONPATH``, and ``tests/test_docs.py`` runs it both in-process
and as ``python -I``.  Exit status 0 when clean, 1 with one line per
problem otherwise.
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
FENCED_RE = re.compile(r"```.*?```", re.DOTALL)


def doc_files() -> list[pathlib.Path]:
    files = sorted(REPO.glob("*.md"))
    docs = REPO / "docs"
    if docs.is_dir():
        files += sorted(docs.rglob("*.md"))
    return [f for f in files if f.name not in SKIP]


def check_links(path: pathlib.Path, problems: list[str]) -> None:
    prose = re.sub(r"`[^`\n]*`", "", FENCED_RE.sub("", path.read_text(encoding="utf-8")))
    for target in LINK_RE.findall(prose):
        target_path = target.split("#", 1)[0]  # empty for a same-page anchor
        if target.startswith(EXTERNAL) or not target_path:
            continue
        if not (path.parent / target_path).resolve().exists():
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


#: Where the repo's Python lives: what a name in the docs may resolve to.
CODE_DIRS = ("src", "bench", "tools", "tests", "benchmarks", "examples")
#: A flag, as an ``add_argument`` call declares it and a command line shows it.
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


class Code:
    """What the repo's Python holds, as ``read_code`` finds it."""

    def __init__(self) -> None:
        #: Folder -> every identifier, attribute, def, class, argument,
        #: keyword and imported module in it, every file name, and every
        #: string constant of its non-test code (whole: the words of a
        #: docstring or a message are not names); BENCHMARK.json -> its keys
        #: and strings.
        self.names: dict[str, set[str]] = {}
        #: All of ``names``.
        self.known: set[str] = set()
        #: Class name -> ``(bases, members)`` of every class of that name, a
        #: base that is not a plain or dotted name being None.
        self.classes: dict[str, list] = {}
        #: Class name -> the annotated fields of the classes of that name.
        self.fields: dict[str, set[str]] = {}
        #: File (path from the repo root) -> the functions and classes in it.
        self.defs: dict[str, set[str]] = {}
        #: Package or module under ``src`` (dotted) -> what it binds at top
        #: level.
        self.top: dict[str, dict[str, ast.AST]] = {}
        #: CLI subcommand -> the flags its ``add_arguments`` declares (None
        #: when no module is mounted on it).
        self.cli: dict[str, set[str] | None] = {}
        #: The experiment modules ``run_all.suite`` enumerates, in order.
        self.suite: list[str] = []
        #: ``(tag, type name)`` of every row of the wire codec's ``_TABLE``.
        self.codec: list[tuple[str, str]] = []
        #: The trace registry's event kinds.
        self.kinds: list[str] = []


def code_index() -> Code:
    """The index of ``REPO``'s Python: every check reads this one."""
    return read_code(REPO)


@functools.lru_cache(maxsize=1)
def read_code(root: pathlib.Path) -> Code:
    """Parse every ``.py`` file under ``CODE_DIRS`` once (never import it).
    The last root's index is kept, so a run parses each file once."""
    code, cli_tree = Code(), ast.Module(body=[], type_ignores=[])
    for folder in CODE_DIRS:
        names = code.names.setdefault(folder, set())
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            strings = folder != "tests" and not path.name.startswith("test_")
            defs = code.defs.setdefault(path.relative_to(root).as_posix(), set())
            names.add(path.name)
            read_tree(code, tree, names, defs, strings)
            if folder == "src":
                module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
                module = module.removesuffix(".__init__")
                code.top.setdefault(module, {}).update(bindings(tree))
                for i in range(1, module.count(".") + 1):
                    code.top.setdefault(module.rsplit(".", i)[0], {})
                cli_tree = tree if module == "repro.__main__" else cli_tree
    code.cli = read_cli(cli_tree, code.top)
    suite = code.top.get("repro.experiments.run_all", {}).get("suite")
    calls = ast.walk(suite) if suite else []
    code.suite = [node.func.value.id for node in calls if callee(node) == "specs"]
    table = code.top.get("repro.net.codec", {}).get("_TABLE")
    if isinstance(table, ast.Dict):
        code.codec = [
            (f"0x{key.value:02x}", (row.elts if isinstance(row, ast.Tuple) else row.args)[0].id)
            for key, row in zip(table.keys, table.values)
        ]
    kinds = code.top.get("repro.obs.registry", {}).get("EVENT_KINDS")
    code.kinds = [key.value for key in kinds.keys] if isinstance(kinds, ast.Dict) else []
    manifest = root / "BENCHMARK.json"
    if manifest.is_file():
        code.names[manifest.name] = json_strings(json.loads(manifest.read_text(encoding="utf-8")))
    code.known = set().union(*code.names.values())
    return code


#: The fields that hold a name: ``Name.id``, ``Attribute.attr``, the
#: ``name`` of a def, class or import, ``arg``, ``asname`` and
#: ``ImportFrom.module``.
NAME_FIELDS = {"id", "attr", "name", "arg", "asname", "module"}


def read_tree(code: Code, tree: ast.Module, names: set, defs: set, strings: bool) -> None:
    """Add a file's names, string constants (when ``strings``), defs and
    classes to ``code``; a class's members are its defs, class attributes,
    dataclass fields and every ``self.x`` stored inside it."""
    classes, stores, todo = [], [], [tree]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is ast.ClassDef:
            classes.append(node)
        if kind in (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef):
            defs.add(node.name)
        elif kind is ast.Attribute and type(node.ctx) is ast.Store:
            if getattr(node.value, "id", None) == "self":
                stores.append((node.lineno, node.attr))
        for field in node._fields:
            value = getattr(node, field, None)
            if type(value) is list:
                todo.extend(item for item in value if isinstance(item, ast.AST))
            elif isinstance(value, ast.AST):
                todo.append(value)
            elif type(value) is str and field in NAME_FIELDS:
                names.update(value.split("."))
            elif type(value) is str and strings and field == "value":
                names.add(value)
    for node in classes:
        members = {getattr(item, "name", None) for item in node.body}
        for item in node.body:
            targets = getattr(item, "targets", [getattr(item, "target", None)])
            members.update(target.id for target in targets if isinstance(target, ast.Name))
        members.update(a for line, a in stores if node.lineno <= line <= node.end_lineno)
        bases = [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
        code.classes.setdefault(node.name, []).append((bases, members))
        code.fields.setdefault(node.name, set()).update(
            item.target.id for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        )


def bindings(tree: ast.Module) -> dict[str, ast.AST]:
    """What a module binds at top level: a def or class to itself, an
    assigned name to its value, an imported name to the import."""
    bound: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update({(a.asname or a.name).split(".")[0]: node for a in node.names})
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update({t.id: node.value for t in targets if isinstance(t, ast.Name)})
    return bound


def read_cli(tree: ast.Module, top: dict[str, dict[str, ast.AST]]) -> dict[str, set[str] | None]:
    """The subcommands ``sub.add_parser("cmd", ...)`` registers in the CLI
    module, each with the flags of the ``add_arguments`` (or
    ``add_<cmd>_arguments``) that ``_mount(parser, "module"[, "cmd"])``
    hands its parser."""
    cli: dict[str, set[str] | None] = {}
    parsers: dict[str, str] = {}
    mounts = []
    for node in ast.walk(tree):
        if callee(node) == "add_parser":
            cli[node.args[0].value] = None
        if isinstance(node, ast.Assign) and callee(node.value) == "add_parser":
            parsers[node.targets[0].id] = node.value.args[0].value
        if callee(node) == "_mount":
            mounts.append([getattr(a, "id", getattr(a, "value", None)) for a in node.args])
    for parser, module, *command in mounts:
        function = f"add_{command[0]}_arguments" if command else "add_arguments"
        declared = top.get(module, {}).get(function)
        if parser in parsers and declared:
            cli[parsers[parser]] = {"--help"} | {
                node.value for node in ast.walk(declared)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and FLAG_RE.fullmatch(node.value)
            }
    return cli


def callee(node: ast.AST) -> str | None:
    """The name a call calls: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    func = getattr(node, "func", None)
    return getattr(func, "attr", getattr(func, "id", None))


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


#: Pages that must show ``python -m repro <cmd>`` for these subcommands
#: (None: every registered one), where they are registered.
SHOWN_COMMANDS = {"README.md": None, "docs/OBSERVABILITY.md": ("report", "top")}


def check_shown_commands(problems: list[str]) -> None:
    """A subcommand is documented where a reader looks for it."""
    registered = code_index().cli
    for page, wanted in SHOWN_COMMANDS.items():
        doc = REPO / page
        # Collapse whitespace so invocations wrapped across lines still match.
        text = " ".join(doc.read_text(encoding="utf-8").split()) if doc.is_file() else ""
        for name in sorted(set(wanted or registered) & set(registered)):
            if f"python -m repro {name}" not in text:
                problems.append(
                    f"{page}: CLI subcommand {name!r} is undocumented "
                    f"(no `python -m repro {name}` invocation found)"
                )


def check_live_docs(problems: list[str]) -> None:
    """Every ``live.*`` event kind must appear backticked in TRANSPORT.md."""
    doc = REPO / "docs" / "TRANSPORT.md"
    text = doc.read_text(encoding="utf-8") if doc.is_file() else ""
    for name in sorted(name for name in code_index().kinds if name.startswith("live.")):
        if f"`{name}`" not in text:
            problems.append(
                f"docs/TRANSPORT.md: live transport name {name!r} is "
                f"undocumented (no `{name}` mention found)"
            )


def check_codec_docs(problems: list[str]) -> None:
    """Every codec tag has a row naming it and its type in TRANSPORT.md."""
    table = code_index().codec
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


EXPERIMENT_MODULE_RE = re.compile(r"`repro\.experiments\.(\w+)`")


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
    enumerated = code_index().suite
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


#: The shapes of name found anywhere on a page (whitespace collapsed), in
#: the order their problems are reported.  ``BENCH_*.json`` and
#: ``BENCH_{a,b}.json`` are patterns, not names.
TEXT_SHAPES = {
    "bench": re.compile(r"\bBENCH_[A-Za-z0-9]+\.json\b"),
    "command": re.compile(r"python -m repro [a-z][a-z0-9-]*"),
    "env": re.compile(r"\bREPRO_[A-Z_]+\b"),
    "dotted": re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+"),
    "file": re.compile(r"[\w./-]+\.py::\w+"),
    "config": re.compile(
        r"\b\w*ClusterConfig\.[a-z_][a-z0-9_]*|(?<![\w./])crypto_[a-z0-9_]+\b(?![./])"
    ),
    "cluster": re.compile(r"\b(?:\w*Cluster\w*|(?:build|embed)_\w*cluster)\b"),
}
#: A shown invocation and the rest of its command (up to a pipe or a shell
#: separator), and a backticked name (dotted, perhaps called).
SHOWN_COMMAND_RE = re.compile(r"python -m repro ([a-z][a-z0-9-]*)([^|;&)]*)")
CODE_NAME_RE = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
#: ROADMAP.md records history: it may name files and commands that are gone.
HISTORY = {"ROADMAP.md"}
#: The page whose ``## Removed`` table lists retired names.
REMOVED_PAGE = "docs/PERFORMANCE.md"


def page_tokens(text: str) -> dict[str, list[str]]:
    """Each shape's names on a page: ``TEXT_SHAPES`` anywhere; ``flag``, a
    ``python -m repro <cmd> <flag>`` per flag a fenced line (a trailing
    backslash continues it) or an inline code span shows; ``code``, every
    backticked name outside fenced blocks that looks like code."""
    spans = [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", FENCED_RE.sub("", text))]
    blocks = FENCED_RE.findall(text)
    fenced = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    flat = " ".join(text.split())
    found = {shape: pattern.findall(flat) for shape, pattern in TEXT_SHAPES.items()}
    found["flag"] = [
        f"python -m repro {command} {flag}"
        for line in fenced + spans
        for command, rest in SHOWN_COMMAND_RE.findall(line)
        for flag in FLAG_RE.findall(rest)
    ]
    names = [m.group(1) for m in map(CODE_NAME_RE.fullmatch, spans) if m]
    found["code"] = [n for n in names if "_" in n or "." in n or any(c.isupper() for c in n[1:])]
    return found


def removed_names() -> set[str]:
    """The names the first column of the ``## Removed`` table lists."""
    page = REPO / REMOVED_PAGE
    lines = page.read_text(encoding="utf-8").splitlines() if page.is_file() else []
    at = next((i for i, line in enumerate(lines) if line.strip() == "## Removed"), len(lines))
    rows = [line for line in lines[at + 1 :] if line.startswith("|")][2:]
    return {name for row in rows for name in page_tokens(row.split("|")[1])["code"]}


def resolves(code: Code, dotted: str) -> bool:
    """Whether ``repro.<a>.<b>…`` walks down ``src``'s packages and modules
    to its end or to a name one binds at top level, and, when that name is
    a class the repo defines in full, the next component is a member."""
    parts = dotted.split(".")
    for i in range(1, len(parts)):
        if ".".join(parts[: i + 1]) in code.top:
            continue
        members = class_members(code.classes, parts[i]) if i + 1 < len(parts) else None
        bound = parts[i] in code.top.get(".".join(parts[:i]), {})
        return bound and (members is None or parts[i + 1] in members)
    return True


def unresolved(code: Code, shape: str, token: str) -> str | None:
    """Why ``token``, a name of ``shape`` a page shows, points at nothing
    (the rule of each shape is in the module docstring), or None."""
    command, _, flag = token.removeprefix("python -m repro ").partition(" ")
    owner, _, attr = token.rpartition(".")
    if shape == "bench":
        ok, why = (REPO / token).is_file(), "does not exist"
    elif shape == "command":
        ok, why = command in code.cli, "is not a registered subcommand"
    elif shape == "flag":
        ok = not code.cli.get(command) or flag in code.cli[command]
        why = f"`{command}` does not declare"
    elif shape == "env":
        ok, why = token in code.names["src"], "nothing under src/ reads"
    elif shape == "dotted":
        ok, why = resolves(code, token), "does not resolve under src/repro"
    elif shape == "file":
        path, _, name = token.partition("::")
        files = [f"{r}{path}" for r in ("", "src/", "src/repro/") if (REPO / r / path).is_file()]
        ok, why = not files or name in code.defs.get(files[0], ()), f"{path} does not define"
    elif shape == "config":
        ok = owner not in ("", "ClusterConfig") or attr in code.fields.get("ClusterConfig", ())
        why = "is not a field of ClusterConfig"
    elif shape == "cluster":
        ok = any(token in defs for f, defs in code.defs.items() if f.startswith("src/repro/"))
        why = "is not defined under src/repro"
    else:
        parts = token.split(".")
        members = class_members(code.classes, parts[0]) if len(parts) > 1 else None
        if members is not None:
            ok = parts[1] in members
        else:
            ok = parts[-1] in code.known or token in code.known or stdlib_path(token)
        why = f"nothing in the repo defines (deleted code goes in {REMOVED_PAGE}'s Removed table)"
    shown = f"`{token}`" if shape in ("command", "flag", "code") else token
    return None if ok else f"names {shown}, which {why}"


def check_names(problems: list[str]) -> None:
    """Every name a page points at resolves, each by the rule of its shape;
    a name an earlier shape judged is not judged again as ``code``."""
    code, removed = code_index(), removed_names()
    for path in doc_files():
        judged: set[str] = set()
        for shape, found in page_tokens(path.read_text(encoding="utf-8")).items():
            if path.name in HISTORY and shape != "config":
                continue
            for token in sorted(set(found) - judged - removed):
                if why := unresolved(code, shape, token):
                    problems.append(f"{path.relative_to(REPO)}: {why}")
            judged.update(found)


def run() -> list[str]:
    problems: list[str] = []
    for path in doc_files():
        check_links(path, problems)
        check_fences(path, problems)
        check_tables(path, problems)
    check_shown_commands(problems)
    check_live_docs(problems)
    check_codec_docs(problems)
    check_experiment_docs(problems)
    check_copied_tables(problems)
    check_copied_outputs(problems)
    check_names(problems)
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
