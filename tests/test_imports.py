"""Lint check: every name a module imports is read somewhere in that module.

The source and test trees are parsed with `ast`; no linter is needed. A name
counts as read when it appears as a loaded name, inside a quoted annotation,
or in the module's `__all__`. Imports in an `__init__.py` are re-exports and
are accepted as they are.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for tree in ("src", "tests") for p in (ROOT / tree).rglob("*.py"))


def _imported(tree: ast.Module):
    """(bound name, line) for every import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _read(tree: ast.Module) -> set[str]:
    names = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    for ann in annotations:
        for const in ast.walk(ann) if ann is not None else ():
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                names.update(n.id for n in ast.walk(ast.parse(const.value, mode="eval"))
                             if isinstance(n, ast.Name))
    return names


def unused_imports(path: Path) -> list[str]:
    """Each imported name the module never reads, as "line: name"."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read(tree)
    return [f"{line}: {name}" for name, line in _imported(tree) if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_checker_finds_unused_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import os\nimport sys as system\nfrom json import dumps, loads\n"
                   "from typing import List\n"
                   "__all__ = ['helper']\nfrom . import helper\n"
                   "def f(x: 'List[int]'):\n    return dumps(x), os.sep\n",
                   encoding="utf-8")
    assert unused_imports(src) == ["2: system", "3: loads"]
    init = tmp_path / "__init__.py"
    init.write_text("from .mod import f\n", encoding="utf-8")
    assert unused_imports(init) == []
