"""Lint checks: every name a module imports is read somewhere in that module,
and every module-level name and class method `src/cdsa` defines is read
somewhere or exported.

The source and test trees are parsed with `ast`; no linter is needed. A name
counts as read when it appears as a loaded name, inside a quoted annotation,
or in the module's `__all__`. Imports in an `__init__.py` are re-exports and
are accepted as they are. A definition counts as read when some file of
`src/` or `cdsabench/` loads it by name, reads it as an attribute, or names
it in a string (the benchmark's tracer patches functions by name); a method
counts as read when its name is, on whatever object. An attribute read on a
name that `import X` binds, X not the package itself (`np.allclose`,
`np.linalg.norm`), is X's and does not count. Tests do not count, so code
only tests use is reported.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for tree in ("src", "tests") for p in (ROOT / tree).rglob("*.py"))
PACKAGE = ROOT / "src" / "cdsa"
USERS = sorted(p for tree in ("src", "cdsabench") for p in (ROOT / tree).rglob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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
    tree = _parse(path)
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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined(tree: ast.Module):
    """(name, line) of every module-level function, class and assigned name, and
    ("Class.method", line) of every function in a module-level class; dunders aside."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            defs = [(node.name, node.lineno)]
            if isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{item.name}", item.lineno) for item in node.body
                         if isinstance(item, functions)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs = [(n.id, node.lineno) for t in nodes for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, line) for name, line in defs
                    if not _dunder(name.rpartition(".")[2]))


def _uses(tree: ast.Module, package: str) -> set[str]:
    names = _read(tree)
    foreign = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] != package}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def dead_definitions(package: Path, users: list[Path]) -> list[str]:
    """Each module-level name or method of package's modules that no file of users
    reads, as "module.py:line: name"; users include the package, so its `__all__`
    counts."""
    used = set()
    for path in users:
        used |= _uses(_parse(path), package.name)
    return [f"{path.name}:{line}: {name}"
            for path in sorted(package.glob("*.py"))
            for name, line in _defined(_parse(path)) if name.rpartition(".")[2] not in used]


def test_no_dead_definitions():
    assert dead_definitions(PACKAGE, USERS) == []


def test_checker_finds_dead_definitions(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .mod import public\n__all__ = ['public']\n",
                                     encoding="utf-8")
    (pkg / "mod.py").write_text(
        "import os\nLIMIT = 3\nUNUSED, PAIR = 1, 2\n"
        "def public():\n    return helper() + LIMIT\n"
        "def helper():\n    return os.sep\n"
        "def by_name():\n    pass\n"
        "def by_attr():\n    pass\n"
        "class Dead:\n    pass\n"
        "class Live:\n    def __init__(self):\n        pass\n"
        "    def read(self):\n        pass\n    def unread(self):\n        pass\n"
        "    def allclose(self):\n        pass\n    def norm(self):\n        pass\n",
        encoding="utf-8")
    user = tmp_path / "user.py"
    user.write_text("import numpy as np\nimport pkg.mod\npkg.mod.by_attr()\n"
                    "getattr(pkg.mod, 'by_name')()\nPAIR = 0\npkg.mod.Live().read()\n"
                    "np.allclose(0, 0)\nnp.linalg.norm(0)\n", encoding="utf-8")
    assert dead_definitions(pkg, sorted(pkg.glob("*.py")) + [user]) == [
        "mod.py:3: UNUSED", "mod.py:3: PAIR", "mod.py:12: Dead", "mod.py:19: Live.unread",
        "mod.py:21: Live.allclose", "mod.py:23: Live.norm"]
