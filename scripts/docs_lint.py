#!/usr/bin/env python
"""Documentation lint for the reproduction tree.

Five checks, all enforced by ``make docs-lint`` (and the CI lint job):

1. every Python module under ``src/repro/`` carries a non-empty module
   docstring that names its paper anchor — a Section/Table/Figure
   reference (or the word "paper") tying the code back to Grad & Plessl,
   "Just-in-Time Instruction Set Extension" (RAW/IPDPS 2011);
2. every relative markdown link in the top-level docs (README.md,
   DESIGN.md, EXPERIMENTS.md, ROADMAP.md, docs/*.md) resolves to an
   existing file;
3. README.md links the architecture tour (docs/ARCHITECTURE.md) and the
   dispatch architecture guide (docs/VM.md);
4. every ``python -m repro`` subcommand registered in ``src/repro/cli.py``
   appears in the README's command table — a new subcommand without a
   README row fails the lint;
5. every backticked private or dotted symbol in docs/VM.md that names
   ``repro`` code (``_compile_block``, ``Interpreter._call``,
   ``vm.fusion.FusionPlan``) resolves to a module, ``def`` or ``class``
   under ``src/repro`` (directly or through a ``from repro... import``
   re-export, or to a name assigned there, such as the ``_compiled``
   cache attribute) — renaming or deleting code the VM guide describes
   fails the lint until the guide follows.

Checks 4 and 5 are AST-based (no ``repro`` import: the CI lint job
installs no third-party packages, and ``repro`` pulls numpy/networkx).
The subcommand check understands both registration idioms used in
``cli.py``: direct ``sub.add_parser("name", ...)`` calls and the loop
form ``for name, ... in (("jit", ...), ...): sub.add_parser(name, ...)``.

Exits non-zero listing every violation.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: What counts as a paper anchor inside a module docstring.
ANCHOR = re.compile(r"Section|Table|Figure|Fig\.|paper", re.IGNORECASE)

#: Markdown files whose relative links must resolve.
DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")

#: Inline markdown links: [text](target). Reference-style links are not
#: used in this tree.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Docs whose backticked code symbols must resolve (check 5).
SYMBOL_DOCS = ("docs/VM.md",)

#: Inline code spans; fenced blocks are skipped line by line.
CODE_SPAN = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")

#: A bare or dotted Python name, optionally written as a call: ``f()``.
SYMBOL = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\(\))?")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def check_docstrings() -> list[str]:
    problems: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(REPO)
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:
            problems.append(f"{rel}: does not parse ({exc})")
            continue
        doc = ast.get_docstring(tree)
        if not doc or not doc.strip():
            problems.append(f"{rel}: missing module docstring")
        elif not ANCHOR.search(doc):
            problems.append(
                f"{rel}: module docstring names no paper anchor "
                "(Section/Table/Figure/paper)"
            )
    return problems


def check_links() -> list[str]:
    problems: list[str] = []
    files = [REPO / name for name in DOC_FILES]
    files += sorted((REPO / "docs").glob("*.md"))
    for doc in files:
        if not doc.is_file():
            continue
        for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for target in MD_LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (doc.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{doc.relative_to(REPO)}:{lineno}: broken link "
                        f"-> {target}"
                    )
    return problems


def check_architecture_link() -> list[str]:
    readme = REPO / "README.md"
    if not readme.is_file():
        return ["README.md: missing"]
    text = readme.read_text(encoding="utf-8")
    problems = []
    for target in ("docs/ARCHITECTURE.md", "docs/VM.md"):
        if target not in text:
            problems.append(f"README.md: does not link {target}")
    return problems


def _is_sub_add_parser(node: ast.AST) -> bool:
    """True for a ``sub.add_parser(...)`` call (top-level subcommands only;
    nested subparsers hang off ``runs_sub`` / ``cache_sub``)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_parser"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "sub"
    )


def cli_subcommands() -> set[str]:
    """Every top-level ``python -m repro`` subcommand name in cli.py."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        # Idiom 1: sub.add_parser("analyze", ...)
        if _is_sub_add_parser(node) and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                names.add(arg.value)
        # Idiom 2: for name, ... in (("jit", ...), ("timeline", ...)):
        #              sub.add_parser(name, ...)
        if isinstance(node, ast.For) and any(
            _is_sub_add_parser(call) for call in ast.walk(node)
        ):
            if isinstance(node.iter, (ast.Tuple, ast.List)):
                for elt in node.iter.elts:
                    if isinstance(elt, (ast.Tuple, ast.List)) and elt.elts:
                        first = elt.elts[0]
                        if isinstance(first, ast.Constant) and isinstance(
                            first.value, str
                        ):
                            names.add(first.value)
    return names


def check_cli_coverage() -> list[str]:
    """Every CLI subcommand must appear in the README command table."""
    readme = REPO / "README.md"
    if not readme.is_file():
        return ["README.md: missing"]
    text = readme.read_text(encoding="utf-8")
    problems: list[str] = []
    for name in sorted(cli_subcommands()):
        # `repro bench` must not be satisfied by the `repro bench-vm` row.
        if not re.search(rf"repro {re.escape(name)}(?![\w-])", text):
            problems.append(
                f"README.md: command table has no row for "
                f"`python -m repro {name}`"
            )
    return problems


def repro_modules() -> dict[str, ast.Module]:
    """Parsed ``src/repro`` modules keyed by dotted path (``vm.fusion``;
    a package by its own path)."""
    modules: dict[str, ast.Module] = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = ast.parse(path.read_text(encoding="utf-8"))
    return modules


#: Marks a name that is not defined in the scope looked in.
_MISSING = object()


def _members(node: ast.AST) -> dict[str, ast.AST | str | None]:
    """Names bound directly in *node*'s scope: ``def``/``class``
    statements (mapped to their node), names imported from ``repro``
    (mapped to the dotted path they re-export, ``vm.interpreter.Interpreter``),
    other imported and assigned names and, for a class, the
    ``self.<name>`` attributes its methods assign (mapped to None)."""
    members: dict[str, ast.AST | str | None] = {}
    for child in getattr(node, "body", ()):
        if isinstance(child, _DEFS):
            members[child.name] = child
        elif isinstance(child, (ast.Assign, ast.AnnAssign)):
            targets = getattr(child, "targets", [getattr(child, "target", None)])
            for target in targets:
                if isinstance(target, ast.Name):
                    members.setdefault(target.id, None)
        elif isinstance(child, ast.ImportFrom):
            source = (child.module or "").split(".")
            for alias in child.names:
                path = None
                if child.level == 0 and source[0] == "repro":
                    path = ".".join(source[1:] + [alias.name])
                members.setdefault(alias.asname or alias.name, path)
        elif isinstance(child, ast.Import):
            for alias in child.names:
                members.setdefault(
                    alias.asname or alias.name.split(".")[0], None
                )
    if isinstance(node, ast.ClassDef):
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                members.setdefault(sub.attr, None)
    return members


def _lookup(
    node: ast.AST | str | None, parts: list[str], modules: dict[str, ast.Module]
) -> ast.AST | None | object:
    """What *parts* names inside *node*'s scope: a module, ``def`` or
    ``class`` node, None for a plain value, or :data:`_MISSING`. A value
    has no members to descend into; a re-export is followed to its
    definition."""
    if isinstance(node, str):
        node = _resolve(node.split("."), modules)
    for part in parts:
        if node is _MISSING:
            break
        members = _members(node) if node is not None else {}
        node = members.get(part, _MISSING)
        if isinstance(node, str):
            node = _resolve(node.split("."), modules)
    return node


def _resolve(parts: list[str], modules: dict[str, ast.Module]) -> object:
    """:func:`_lookup` from the longest module prefix of *parts*."""
    for i in range(len(parts), 0, -1):
        module = modules.get(".".join(parts[:i]))
        if module is not None:
            return _lookup(module, parts[i:], modules)
    return _MISSING


def symbol_resolves(name: str, modules: dict[str, ast.Module]) -> bool | None:
    """Whether a doc symbol names existing ``repro`` code.

    ``None`` means the symbol is not ``repro`` code at all (a file name
    like ``BENCH_vm.json``, an attribute like ``self.x``); the caller
    skips it. A dotted name resolves through its longest module prefix
    (``vm.fusion.FusionPlan``, or ``repro.vm.Interpreter`` through the
    package's re-export) or, without one, through a module or class scope
    that binds its first part (``Interpreter._call``). A private bare name
    must be bound in some module or class scope.
    """
    parts = name.removesuffix("()").split(".")
    if parts[0] == "repro":
        parts = parts[1:]
    if any(".".join(parts[:i]) in modules for i in range(1, len(parts) + 1)):
        return _resolve(parts, modules) is not _MISSING
    roots = [
        members[parts[0]]
        for module in modules.values()
        for scope in ast.walk(module)
        if isinstance(scope, (ast.Module, ast.ClassDef))
        for members in [_members(scope)]
        if parts[0] in members
    ]
    if not roots:
        return False if parts[0].startswith("_") else None
    if len(parts) > 1 and all(root is None for root in roots):
        return None  # an attribute of a value, like ``sampler.tick``
    return any(
        _lookup(root, parts[1:], modules) is not _MISSING for root in roots
    )


def check_doc_symbols() -> list[str]:
    """Backticked private/dotted ``repro`` symbols in the VM docs exist."""
    modules = repro_modules()
    problems: list[str] = []
    for name in SYMBOL_DOCS:
        doc = REPO / name
        if not doc.is_file():
            continue
        fenced = False
        for lineno, line in enumerate(
            doc.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if fenced:
                continue
            for span in CODE_SPAN.findall(line):
                if not SYMBOL.fullmatch(span) or span.startswith("__"):
                    continue
                if "." not in span and not span.startswith("_"):
                    continue
                if symbol_resolves(span, modules) is False:
                    problems.append(
                        f"{name}:{lineno}: `{span}` is not defined under "
                        "src/repro"
                    )
    return problems


def main() -> int:
    problems = (
        check_docstrings()
        + check_links()
        + check_architecture_link()
        + check_cli_coverage()
        + check_doc_symbols()
    )
    for problem in problems:
        print(problem)
    if problems:
        print(f"\ndocs-lint: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("docs-lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
