"""src/padquat is what the CLI runs.

Read from the source with `ast`, without importing padquat: every module of
the package is one that `padquat.cli` loads, and every public top-level
name, and every public method of a public class, is read by the code of
those modules outside its own definition.  A method counts as read by any
attribute of its name.  `cli.main`, the entry point, and overrides of a
method of a builtin or stdlib base class are exempt.  What only the tests
use lives in the tests (`tests/paper.py`).
"""

import ast
import builtins
import importlib
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "padquat"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}
ENTRY_POINTS = {"cli.main"}
# loaded with the package or run by `python -m padquat`, not imported by the CLI
PACKAGE_FILES = {"__init__", "__main__"}


def _bindings(tree):
    """local name -> (module, name) of each relative import; name is None
    for `from . import module`."""
    return {alias.asname or alias.name:
            (alias.name, None) if node.module is None else (node.module, alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def _cli_modules():
    seen, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module in TREES and module not in seen:
            seen.add(module)
            todo += [source for source, _ in _bindings(TREES[module]).values()]
    return seen


def _reads(users):
    """(module, name) and attribute name -> the (module, line) of each read."""
    reads = defaultdict(list)
    for user in users:
        bound = _bindings(TREES[user])
        for node in ast.walk(TREES[user]):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            where = (user, node.lineno)
            if isinstance(node, ast.Name):
                reads[bound.get(node.id, (user, node.id))].append(where)
            elif isinstance(node, ast.Attribute):
                reads[node.attr].append(where)
                module, name = bound.get(getattr(node.value, "id", None), (None, ""))
                if name is None:  # an attribute of a module
                    reads[module, node.attr].append(where)
    return reads


def _inherited(cls):
    """The attribute names of the builtin or stdlib base classes of `cls`."""
    out = set()
    for base in cls.bases:
        module, _, name = ast.unparse(base).rpartition(".")
        obj = getattr(importlib.import_module(module) if module else builtins, name, None)
        out.update(dir(obj) if isinstance(obj, type) else ())
    return out


def _definitions(module):
    """(qualified name, read key, definition) of each public top-level name
    and each public method of a public class of `module`."""
    for node in TREES[module].body:
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            targets = [getattr(node, "name", None)]
        for name in targets:
            if name and not name.startswith("_"):
                yield f"{module}.{name}", (module, name), node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                        and item.name not in _inherited(node)):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def test_every_module_is_loaded_by_the_cli():
    assert set(TREES) - PACKAGE_FILES == _cli_modules()


def test_arguments_are_checked_by_the_cli_alone():
    # a check of outside input raises CliError, in cli; elsewhere a raise is
    # a certificate's AssertionError, never a check of an argument
    raised = defaultdict(set)
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised[module].add(ast.unparse(exc))
    assert raised.pop("cli") == {"CliError", "SystemExit"}
    assert raised.pop("__main__") == {"SystemExit"}
    assert set().union(*raised.values()) == {"AssertionError"}
    assert "modular" not in {source for source, _ in _bindings(TREES["sequences"]).values()}


def test_every_public_name_is_read_by_the_cli_code():
    reads = _reads(_cli_modules() | PACKAGE_FILES)
    unread = [
        qualified for module in TREES for qualified, key, node in _definitions(module)
        if qualified not in ENTRY_POINTS
        and all(user == module and node.lineno <= line <= node.end_lineno
                for user, line in reads[key])
    ]
    assert unread == []
