"""Every name a library module imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import onecross

LIBRARY = sorted(p for p in Path(onecross.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
