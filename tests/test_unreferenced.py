"""Every name the package defines is used somewhere.

A module-level function, class or UPPER_CASE constant, or a non-dunder
method of a module-level class, defined in ``src/mertens_sums`` must be
referenced outside its own definition by some file in ``src/``,
``tests/``, ``demos/`` or ``perfbench/``.  A reference is a loaded name or
attribute, an imported name, or a dotted identifier in a string (the
benchmark tracer names its targets that way).  Matching is by name only,
so the check can miss a dead helper that shares a name with a live one,
but it never flags a live one.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mertens_sums"
SCANNED = ("src", "tests", "demos", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _definitions(path: Path, tree: ast.Module):
    """(name, first line, last line) of each checked definition in one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item.lineno, item.end_lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node.lineno, node.end_lineno


def _references(tree: ast.Module):
    """(name, line) of each reference in one file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def test_every_package_name_is_referenced():
    trees = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            trees[path] = ast.parse(path.read_text(), filename=str(path))
    used: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            used.setdefault(name, []).append((path, line))
    unreferenced = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(path, trees[path]):
            outside = [(p, line) for p, line in used.get(name, [])
                       if p != path or not first <= line <= last]
            if not outside:
                unreferenced.append(f"{path.relative_to(ROOT)}:{first} {name}")
    assert not unreferenced, "defined but never referenced:\n" + "\n".join(unreferenced)
