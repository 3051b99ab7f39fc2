"""Every name a library module imports is used in that module, only `cli`
imports inside a function, and no library module keeps state: what it binds
at top level is a constant, a type alias or a dunder."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import onecross

LIBRARY = sorted(p for p in Path(onecross.__file__).parent.glob("*.py") if p.name != "__init__.py")
# UPPER_CASE constants, CapWords type aliases and dunders
STATELESS = re.compile(r"_?[A-Z][A-Z0-9_]*|_?[A-Z][a-zA-Z0-9]*|__\w+__")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    assert _unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["os", "c"]


# modules `cli` imports only in the commands that use them, to save set-up time
DEFERRED = {"cli.py": {"layout", "families", "random", "multiprocessing"}}


def _function_imports(source: str) -> set[str]:
    """Modules imported inside a function body."""
    out: set[str] = set()
    for scope in ast.walk(ast.parse(source)):
        if isinstance(scope, ast.FunctionDef):
            for node in ast.walk(scope):
                if isinstance(node, ast.Import):
                    out |= {a.name for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    out.add(node.module)
    return out


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_module_imports_at_top_level(path):
    assert _function_imports(path.read_text(encoding="utf-8")) <= DEFERRED.get(path.name, set())


def test_function_imports_are_reported():
    source = "import os\ndef f():\n    import random\n    from .graph import build\n    def g():\n        import json\n"
    assert _function_imports(source) == {"random", "graph", "json"}


def _module_state(source: str) -> list[str]:
    """Names bound outside any function or class that are not STATELESS."""
    stack, bound = [ast.parse(source)], []
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.append(node.id)
        stack += [c for c in ast.iter_child_nodes(node) if not isinstance(c, SCOPES)]
    return sorted(name for name in bound if not STATELESS.fullmatch(name))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_module_keeps_no_state(path):
    assert _module_state(path.read_text(encoding="utf-8")) == []


def test_module_state_is_reported():
    source = (
        "import weakref\nDart = tuple[int, int]\nGATE = 12\n__all__ = []\n"
        "_live = weakref.WeakValueDictionary()\nif GATE:\n    cache = {}\ndef f():\n    local = 1\n"
    )
    assert _module_state(source) == ["_live", "cache"]


def _calls_named(source: str, name: str) -> int:
    """Calls in source of a function or attribute called `name`."""
    return sum(
        1
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)) == name
    )


def test_library_has_one_left_right_test_site():
    # Euler's edge count runs before the one call; a second would bypass it
    sources = [p.read_text(encoding="utf-8") for p in Path(onecross.__file__).parent.glob("*.py")]
    assert sum(_calls_named(source, "check_planarity") for source in sources) == 1


def test_calls_named_counts_functions_and_attributes():
    assert _calls_named("nx.check_planarity(g)\ncheck_planarity(h)\nf(check_planarity)\n", "check_planarity") == 2
