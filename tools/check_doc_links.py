#!/usr/bin/env python
"""Check that repository documentation references resolve.

Scans every tracked ``*.md`` file and verifies nine kinds of reference:

* **markdown links** — each relative ``[text](target)`` must point at an
  existing file (anchors and external ``http(s)``/``mailto`` links are
  skipped);
* **source paths** — any ``src/...`` path mentioned anywhere in a doc
  (prose or fenced block) must exist in the tree, so renames can't leave
  the docs pointing at ghosts;
* **CLI commands** — any ``python -m repro <subcommand>`` invocation
  must name a real subcommand, taken from the live argument parser
  (``repro.cli.build_parser``), so the docs can't advertise commands the
  CLI doesn't have;
* **dotted names** — in the reference documentation (``docs/*.md``,
  ``README.md``, ``DESIGN.md``; the logs such as CHANGES.md name the past
  on purpose) every ``repro.<module>[.<attr>...]`` token must resolve by
  import + ``getattr``, so a deleted class can't stay documented;
* **short module paths** — in the same documents, a code span that
  starts ``a.b[.c...]`` where ``repro.a.b`` imports as a module must
  resolve as ``repro.a.b.c...`` (`` `relational.plan.MaintenancePlan` ``),
  unless it is a per-layer metric name of ``BENCHMARK.json``
  (`` `merge.submission.share` ``);
* **bare class names** — in the same documents, a code span that starts
  with a CamelCase name (`` `Name` ``, `` `Name.attr` ``, `` `Name(...)` ``)
  must start with a name some ``repro`` module defines or a builtin,
  unless its sentence says the name is gone or it is one of the few
  names that are not code of ours (``NOT_OURS``);
* **class members** — in the same documents, a code span that starts
  ``Name.attr`` where ``Name`` is a class must name something the class
  has: a method, property, class attribute, slot, dataclass field or a
  ``self.attr =`` assignment in its body (or a base class's), unless its
  sentence says the name is gone;
* **configuration fields** — in the same documents plus
  ``EXPERIMENTS.md``, every keyword written inside a ``SystemConfig(...)``
  call, in prose or in a fenced block, must be a field of the live
  dataclass, so a removed or renamed knob can't survive in the docs;
* **trace kinds** — every kind in the kinds table of
  ``docs/observability.md`` (the table headed ``| kind |``) must be passed
  as a string literal to some ``trace(``, ``record(`` or
  ``record_fields(`` call in ``src/``, so the table can't list records
  nothing emits.

Exits non-zero listing every broken reference — run by the ``docs`` CI
job and usable locally:

    python tools/check_doc_links.py
"""

from __future__ import annotations

import ast
import importlib
import json
import re
import sys
from pathlib import Path

#: inline markdown links: [text](target) — images share the syntax
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: fenced code blocks, where link syntax is not a link
_FENCE = re.compile(r"^(```|~~~)")
#: paths into the source tree, wherever they appear
_SRC_PATH = re.compile(r"\bsrc/[\w./-]+")
#: CLI invocations; group 1 is the subcommand token (absent for bare
#: ``python -m repro`` mentions, which argparse itself rejects)
_CLI = re.compile(r"python -m repro\s+([a-z][a-z-]*)")
#: dotted names into the package (not the tail of a path or longer name)
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")
#: a dotted name at the start of a code span, read as a path into ``repro``
_SHORT_PATH = re.compile(r"[a-z_]\w*(?:\.\w+)+")
#: a last segment that makes the token a file name (``--out repro.json``)
_FILE_SUFFIXES = frozenset({"json", "jsonl", "md", "py", "txt"})
#: an inline code span, and the CamelCase name one may start with (capital
#: first, a lower-case letter somewhere: ``LEVELS`` and ``V1`` are not names
#: of classes)
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_CLASS_NAME = re.compile(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*(?=$|[.(\[])")
#: where one sentence ends, and what a sentence about a deleted name says
_SENTENCE_END = re.compile(r"(?<=[.!?;])\s+")
_SAYS_GONE = re.compile(r"\b(gone|went|deleted|retired|removed|no longer)\b")
#: CamelCase in a code span that is not code of ours: the paper's
#: pseudo-code procedures and the star schema's fact table
NOT_OURS = frozenset({"ProcessRow", "ApplyRows", "Sales"})
#: the start of a configuration call, and a keyword at an argument's start
_CONFIG_CALL = re.compile(r"\bSystemConfig\(")
_KEYWORD = re.compile(r"\s*(\w+)\s*=(?!=)")
#: the document holding the trace kinds table, and the calls that record
TRACE_KINDS_DOC = Path("docs") / "observability.md"
_TRACE_CALLS = frozenset({"trace", "record", "record_fields"})

SKIP_SCHEMES = ("http://", "https://", "mailto:", "#")


def iter_markdown(root: Path):
    for path in sorted(root.rglob("*.md")):
        if any(part.startswith(".") or part in ("build", "dist")
               for part in path.relative_to(root).parts[:-1]):
            continue
        if path == root / "ISSUE.md":
            continue  # the task in progress: it names the files it deletes
        yield path


def cli_subcommands() -> frozenset[str]:
    """The real top-level subcommand names, from the live parser."""
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        if action.choices:
            return frozenset(action.choices)
    raise RuntimeError("repro.cli.build_parser() has no subcommands")


def resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                found = getattr(found, attr)
        except AttributeError:
            return False
        return True
    return False


def is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def metric_names(root: Path) -> frozenset[str]:
    """The per-layer metric names ``BENCHMARK.json`` declares."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return frozenset(metric["name"] for metric in declared["per_layer"])


def unresolved_short_paths(
    text: str, metrics: frozenset[str]
) -> list[tuple[int, str]]:
    """Code spans ``a.b.c`` under a module ``repro.a.b`` that do not resolve."""
    unresolved, in_fence = [], False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
        if in_fence:
            continue
        for span in _CODE_SPAN.findall(line):
            path = _SHORT_PATH.match(span)
            if path is None or path[0] in metrics:
                continue
            module = "repro." + ".".join(path[0].split(".")[:2])
            if is_module(module) and not resolves("repro." + path[0]):
                unresolved.append(
                    (lineno, f"unresolvable name -> repro.{path[0]}")
                )
    return unresolved


def names_checked(path: Path, root: Path) -> bool:
    """Reference documentation, as opposed to a log of past states."""
    return path.parent == root / "docs" or path in (
        root / "README.md", root / "DESIGN.md"
    )


def config_checked(path: Path, root: Path) -> bool:
    """Documents whose ``SystemConfig(...)`` calls a reader may copy."""
    return names_checked(path, root) or path == root / "EXPERIMENTS.md"


def defined_names() -> dict[str, list[object]]:
    """Every name some ``repro`` module defines or imports, plus builtins,
    with the distinct objects bound to it."""
    import builtins
    import pkgutil

    import repro

    names: dict[str, list[object]] = {}
    namespaces = [vars(builtins)]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):  # importing it runs the CLI
            namespaces.append(vars(importlib.import_module(info.name)))
    for namespace in namespaces:
        for name, value in namespace.items():
            bound = names.setdefault(name, [])
            if not any(value is other for other in bound):
                bound.append(value)
    return names


def prose_spans(text: str):
    """``(line, span)`` for every code span in a sentence that does not say
    a name is gone.

    Fenced blocks are executable examples (``tools/run_doc_snippets.py``
    runs them) and are skipped.
    """
    prose, in_fence = [], False
    for line in text.splitlines():
        fence = bool(_FENCE.match(line.strip()))
        prose.append("" if fence or in_fence else line)
        in_fence ^= fence
    lineno = 1
    for paragraph in "\n".join(prose).split("\n\n"):
        at = 0
        for sentence in _SENTENCE_END.split(paragraph):
            start = paragraph.index(sentence, at)
            at = start + len(sentence)
            if _SAYS_GONE.search(sentence):
                continue
            for span in _CODE_SPAN.finditer(sentence):
                line = lineno + paragraph.count("\n", 0, start + span.start())
                yield line, span[1]
        lineno += paragraph.count("\n") + 2


def unknown_bare_names(
    text: str, defined: dict[str, list[object]]
) -> list[tuple[int, str]]:
    """CamelCase names at the start of a code span that nothing defines."""
    unknown = []
    for line, span in prose_spans(text):
        name = _CLASS_NAME.match(span)
        if name and name[0] not in defined and name[0] not in NOT_OURS:
            unknown.append((line, f"no repro module defines -> {name[0]}"))
    return unknown


def instance_attributes(cls: type) -> frozenset[str]:
    """Names assigned as ``self.<name>`` in the bodies of ``cls`` and its bases."""
    import inspect
    import textwrap

    names = set()
    for klass in cls.__mro__:
        try:
            source = textwrap.dedent(inspect.getsource(klass))
        except (OSError, TypeError):
            continue  # a builtin, or a class made at runtime
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                names.add(node.attr)
    return frozenset(names)


def has_member(cls: type, attr: str) -> bool:
    """``cls`` has ``attr``: a method, property, class attribute, slot,
    dataclass field or ``self.attr =`` assignment."""
    return (hasattr(cls, attr)
            or attr in getattr(cls, "__dataclass_fields__", ())
            or attr in instance_attributes(cls))


def unknown_members(
    text: str, defined: dict[str, list[object]]
) -> list[tuple[int, str]]:
    """``Name.attr`` code spans where no class called ``Name`` has ``attr``."""
    unknown = []
    for line, span in prose_spans(text):
        name = _CLASS_NAME.match(span)
        if not name or not span.startswith(".", name.end()):
            continue
        classes = [c for c in defined.get(name[0], ()) if isinstance(c, type)]
        attr = re.match(r"\w+", span[name.end() + 1:])
        if classes and attr and not any(has_member(c, attr[0]) for c in classes):
            unknown.append((line, f"no such member -> {name[0]}.{attr[0]}"))
    return unknown


def config_fields() -> frozenset[str]:
    """The field names of the live ``SystemConfig`` dataclass."""
    import dataclasses

    from repro.system.config import SystemConfig

    return frozenset(f.name for f in dataclasses.fields(SystemConfig))


def unknown_config_keywords(
    text: str, fields: frozenset[str]
) -> list[tuple[int, str]]:
    """Keywords of ``SystemConfig(...)`` calls that name no field.

    Calls may span lines and nest other calls (``cache=CacheConfig(root=d)``):
    only keywords that start an argument of the ``SystemConfig`` call itself
    are checked.  An unclosed call (prose that trails off) is read to the
    end of its paragraph.
    """
    unknown = []
    for call in _CONFIG_CALL.finditer(text):
        at, depth, argument_start = call.end(), 1, True
        while at < len(text) and depth and not text.startswith("\n\n", at):
            if argument_start and depth == 1:
                keyword = _KEYWORD.match(text, at)
                if keyword and keyword[1] not in fields:
                    lineno = text.count("\n", 0, keyword.start(1)) + 1
                    unknown.append(
                        (lineno, f"unknown SystemConfig field -> {keyword[1]}")
                    )
            char = text[at]
            depth += (char in "([{") - (char in ")]}")
            argument_start = char == ","
            at += 1
    return unknown


def emitted_trace_kinds(src: Path) -> frozenset[str]:
    """String literals passed to a recording call anywhere under ``src``."""
    kinds = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name in _TRACE_CALLS:
                kinds.update(arg.value for arg in node.args
                             if isinstance(arg, ast.Constant)
                             and isinstance(arg.value, str))
    return frozenset(kinds)


def unemitted_trace_kinds(
    text: str, emitted: frozenset[str]
) -> list[tuple[int, str]]:
    """Kinds in the ``| kind |`` table's first column that nothing records."""
    unknown, in_table = [], False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("| kind |"):
            in_table = True
            continue
        if not line.startswith("|"):
            in_table = False
        if not in_table:
            continue
        unknown += [
            (lineno, f"trace kind recorded nowhere in src/ -> {kind}")
            for kind in _CODE_SPAN.findall(line.split("|")[1])
            if kind not in emitted
        ]
    return unknown


def broken_references(
    path: Path, root: Path, subcommands: frozenset[str]
) -> list[tuple[int, str]]:
    broken = []
    in_fence = False
    check_names = names_checked(path, root)
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            # markdown links are only links outside fences
            for target in _LINK.findall(line):
                if target.startswith(SKIP_SCHEMES):
                    continue
                relative = target.split("#", 1)[0]
                if not relative:
                    continue
                resolved = (root / relative if relative.startswith("/")
                            else path.parent / relative)
                if not resolved.exists():
                    broken.append((lineno, f"broken link -> {target}"))
        # source paths and CLI commands are checked everywhere: a fenced
        # example referencing a ghost path is just as stale as prose
        for match in _SRC_PATH.findall(line):
            candidate = match.rstrip("./")
            if candidate and not (root / candidate).exists():
                broken.append((lineno, f"missing source path -> {match}"))
        for sub in _CLI.findall(line):
            if sub not in subcommands:
                broken.append((
                    lineno,
                    f"unknown CLI subcommand -> python -m repro {sub} "
                    f"(valid: {', '.join(sorted(subcommands))})",
                ))
        if check_names:
            for dotted in _DOTTED.findall(line):
                if dotted.rsplit(".", 1)[1] in _FILE_SUFFIXES:
                    continue
                if not resolves(dotted):
                    broken.append((lineno, f"unresolvable name -> {dotted}"))
    return broken


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    subcommands = cli_subcommands()
    fields = config_fields()
    defined = defined_names()
    emitted = emitted_trace_kinds(root / "src")
    metrics = metric_names(root)

    failures = 0
    checked = 0
    for path in iter_markdown(root):
        checked += 1
        broken = broken_references(path, root, subcommands)
        if names_checked(path, root):
            broken += unknown_bare_names(path.read_text(), defined)
            broken += unknown_members(path.read_text(), defined)
            broken += unresolved_short_paths(path.read_text(), metrics)
        if config_checked(path, root):
            broken += unknown_config_keywords(path.read_text(), fields)
        if path == root / TRACE_KINDS_DOC:
            broken += unemitted_trace_kinds(path.read_text(), emitted)
        for lineno, message in sorted(broken):
            failures += 1
            print(f"{path.relative_to(root)}:{lineno}: {message}")
    if failures:
        print(f"\n{failures} broken reference(s) across {checked} markdown files")
        return 1
    print(f"ok: all links, src/ paths, CLI commands, dotted, bare and short names, "
          f"class members, SystemConfig fields and trace kinds resolve "
          f"({checked} markdown files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
