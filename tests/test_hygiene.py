"""Source hygiene checks that need nothing beyond the standard library."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read in the module.

    A name counts as read when it appears as a bare name anywhere (code and
    annotations alike) or is listed in the module's ``__all__``.
    ``from __future__`` imports are directives, not names.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


class TestUnusedImports:
    def test_flags_an_unread_import(self):
        assert unused_imports("import math\nfrom os import path as p\n") == [
            "math (line 1)",
            "p (line 2)",
        ]

    def test_reads_through_attributes_annotations_and_all(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Optional\n"
            "from .a import exported\n"
            "__all__ = ['exported']\n"
            "def f(x: Optional[int]) -> str:\n"
            "    return os.path.join('a', str(x))\n"
        )
        assert unused_imports(source) == []
