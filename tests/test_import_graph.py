"""The package's modules import one another one way, at module level.

Every ``from .x import`` or ``from mertens_sums.x import`` in
``src/mertens_sums`` sits at the top level of its module, and the graph of
these intra-package imports has no cycle, so each layer loads whole before
any layer above it.  ``primes`` holds integers only: it imports nothing
that computes in multiprecision.

The other way round, every name that ``perfbench/`` and ``demos/`` import
from the package exists, and so does every entry of ``__all__``.
"""

from __future__ import annotations

import ast
import importlib
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import mertens_sums

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mertens_sums"
CLIENTS = sorted(path.relative_to(ROOT).as_posix()
                 for top in ("perfbench", "demos") for path in (ROOT / top).glob("*.py"))
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _package_imports(tree: ast.Module):
    """(imported module, import node) of each intra-package import in one module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module
        elif node.module.partition(".")[0] == "mertens_sums":
            module = node.module.partition(".")[2]
        else:
            continue
        if module:
            yield module, node
        else:  # ``from . import name``: a submodule, or a name from __init__
            for alias in node.names:
                yield alias.name if alias.name in MODULES else "__init__", node


def _inside_function(tree: ast.Module):
    """Every node that sits in the body of some function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if inner is not node:
                    yield inner


def test_no_package_import_inside_a_function():
    nested = []
    for name, tree in MODULES.items():
        inner = set(map(id, _inside_function(tree)))
        nested += [f"{name}.py:{node.lineno} from {module}"
                   for module, node in _package_imports(tree) if id(node) in inner]
    assert not nested, "package imports inside functions:\n" + "\n".join(nested)


def test_import_graph_is_acyclic():
    graph = {name: {module for module, _ in _package_imports(tree)}
             for name, tree in MODULES.items()}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_primes_imports_no_multiprecision_code():
    tree = MODULES["primes"]
    roots = {alias.name.partition(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
    roots |= {node.module.partition(".")[0] for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and not node.level}
    assert "mpmath" not in roots
    assert {module for module, _ in _package_imports(tree)} == {"errors"}


def _client_imports(tree: ast.Module):
    """(module, name or None) of each import from the package, at any depth of one file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "mertens_sums":
                    yield alias.name, None
        elif (isinstance(node, ast.ImportFrom) and not node.level
                and node.module.partition(".")[0] == "mertens_sums"):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("client", CLIENTS)
def test_client_imports_resolve(client):
    tree = ast.parse((ROOT / client).read_text(), filename=client)
    missing = []
    for module, name in _client_imports(tree):
        owner = importlib.import_module(module)
        if name is not None and not hasattr(owner, name):
            try:  # ``from mertens_sums import cli`` names a submodule
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert not missing, f"{client} imports names the package lacks: {missing}"


def test_public_names_resolve():
    missing = [name for name in mertens_sums.__all__ if not hasattr(mertens_sums, name)]
    assert not missing, f"__all__ lists names the package lacks: {missing}"
    namespace = {}
    exec("from mertens_sums import *", namespace)
    assert set(mertens_sums.__all__) <= namespace.keys()
