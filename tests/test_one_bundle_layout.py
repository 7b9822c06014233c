"""Lint check: only cdsa.checkpoint spells the bundle layout.

A bundle stores each model in the file named after its kind, next to its
manifest, and cdsa.checkpoint is the one module that knows those names;
every other module asks it. The check parses the package with `ast`: a
string constant equal to a bundle file name anywhere else fails it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdsa"
CHECKPOINT = PACKAGE / "checkpoint.py"
BUNDLE_NAMES = {"action_score.json", "state_score.json", "invdyn.json", "bc.json",
                "manifest.json"}


def layout_names(path: Path) -> list[str]:
    """Each string constant in the module that is a bundle file name, as "line: name"."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{node.lineno}: {node.value}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in BUNDLE_NAMES]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p != CHECKPOINT),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_the_checkpoint_module_spells_the_bundle_layout(path):
    assert layout_names(path) == []


def test_the_checkpoint_module_names_the_manifest():
    assert [found.split(": ")[1] for found in layout_names(CHECKPOINT)] == ["manifest.json"]


def test_checker_finds_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text('BC = "bc.json"\nfiles = {"invdyn": "invdyn.json"}\n'
                   'path = f"{d}/manifest.json"\nname = f"state_score.json"\n'
                   'open("action_score.json")\nother = "action_score.jsonl"\n'
                   'doc = "stored in bc.json"\nkind = "invdyn"\n', encoding="utf-8")
    assert layout_names(src) == ["1: bc.json", "2: invdyn.json", "4: state_score.json",
                                 "5: action_score.json"]
