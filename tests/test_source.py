"""Checks on the package's source text, made with ``ast``."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "taggedunify"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, ``__future__`` aside."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import importlib\nimport os.path\nimport json\nfrom re import sub as s, match\n"
        "json.dumps(os.path.sep, default=match)\n"
    )
    assert unused_imports(source) == ["importlib", "s"]
