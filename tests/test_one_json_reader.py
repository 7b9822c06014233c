"""Lint check: only cdsa.readers decodes JSON.

Every other module reads its JSON through cdsa.readers, so the typing rules
for numbers, integers and arrays live in one place. The check parses the
package with `ast`: a call of json.load or json.loads, or of a
json.JSONDecoder, anywhere else fails it, under any name it is imported as.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdsa"
READER = PACKAGE / "readers.py"
DECODERS = {"load", "loads", "JSONDecoder"}


def json_decoding(path: Path) -> list[str]:
    """Each call in the module that decodes JSON, as "line: name"."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules, names = set(), set()  # local names bound to json and to its decoders
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "json")
        elif isinstance(node, ast.ImportFrom) and node.module in ("json", "json.decoder"):
            names.update(a.asname or a.name for a in node.names if a.name in DECODERS)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in DECODERS
                and isinstance(func.value, ast.Name) and func.value.id in modules):
            found.append(f"{node.lineno}: {func.value.id}.{func.attr}")
        elif isinstance(func, ast.Name) and func.id in names:
            found.append(f"{node.lineno}: {func.id}")
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p != READER),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_the_reader_decodes_json(path):
    assert json_decoding(path) == []


def test_the_reader_is_where_decoding_happens():
    assert json_decoding(READER)


def test_checker_finds_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import json\nimport json as j\nfrom json import loads as parse, dumps\n"
                   "from json.decoder import JSONDecoder\n"
                   "json.load(f)\nj.loads(s)\nparse(s)\nJSONDecoder(parse_int=float)\n"
                   "json.JSONDecoder()\njson.dumps(x)\ndumps(x)\n", encoding="utf-8")
    assert json_decoding(src) == ["5: json.load", "6: j.loads", "7: parse", "8: JSONDecoder",
                                  "9: json.JSONDecoder"]
