"""Every name the package defines is used somewhere.

A module-level function, class or UPPER_CASE constant, or a non-dunder
method of a module-level class, defined in ``src/mertens_sums`` must be
referenced outside its own definition by some file in ``src/``,
``demos/`` or ``perfbench/``.  References from ``tests/`` do not count, so
a name that only tests read fails too; a re-export in ``__init__`` is a
reference, so the public API passes.  A reference is a loaded name or
attribute, an imported name, or a dotted identifier in a string (the
benchmark tracer names its targets that way).  A method is reached only
through an attribute, so a bare name does not reference it.  An attribute
of something imported from outside the package (``math.pi``, ``mp.pi``)
references nothing here.  Matching is by name otherwise, so the check can
miss a dead helper that shares a name with a live one, but it never flags
a live one.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mertens_sums"
SCANNED = ("src", "demos", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _definitions(path: Path, tree: ast.Module):
    """(name, first line, last line, is method) of each checked definition in one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno, item.end_lineno, True
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node.lineno, node.end_lineno, False


def _foreign_names(tree: ast.Module) -> set[str]:
    """Names one file binds by importing from outside the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names
                         if not a.name.startswith("mertens_sums"))
        elif (isinstance(node, ast.ImportFrom) and not node.level
                and not node.module.startswith("mertens_sums")):
            names.update(a.asname or a.name for a in node.names)
    return names


def _references(tree: ast.Module):
    """(name, line, is bare name) of each reference in one file."""
    foreign = _foreign_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                yield node.attr, node.lineno, False
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno, False


def test_every_package_name_is_referenced():
    trees = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))
    used: dict[str, list[tuple[Path, int, bool]]] = {}
    for path, tree in trees.items():
        for name, line, bare in _references(tree):
            used.setdefault(name, []).append((path, line, bare))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last, method in _definitions(path, trees[path]):
            outside = [(p, line) for p, line, bare in used.get(name, [])
                       if (p != path or not first <= line <= last) and not (method and bare)]
            if not outside:
                unreferenced.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert not unreferenced, "defined but never referenced:\n" + "\n".join(unreferenced)
