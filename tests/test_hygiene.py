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


def public_names_unread(package: Path) -> list[str]:
    """Names in the package's ``__all__`` that no other module of it reads.

    A public name that only the tests call is API kept for the tests alone.
    A name counts as read when it appears as a bare name being loaded in any
    module of the package other than ``__init__.py``.
    """
    public: list[str] = []
    for node in ast.walk(ast.parse((package / "__init__.py").read_text())):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            public = ast.literal_eval(node.value)
    read: set[str] = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    return [name for name in public if name not in read]


def test_every_public_name_is_read_by_the_package():
    assert public_names_unread(ROOT / "src" / "diskcover") == []


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


def test_flags_a_public_name_only_defined(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .m import helper, used\n__all__ = ['helper', 'used']\n"
    )
    (tmp_path / "m.py").write_text(
        "def used():\n    return 1\n\ndef helper():\n    return used()\n"
    )
    assert public_names_unread(tmp_path) == ["helper"]
