"""Every output file is written through cdsa.readers.write_text.

A lint check parses the package with `ast`: outside readers.py, a call of
`open` (the builtin, `io.open` or a path's `.open`) whose mode writes, or
whose mode it cannot read as a constant, fails it, and so does any
`.write_text` or `.write_bytes` call except readers' own. Opening a file to
read (`/proc/self/maps`) and `os.fdopen` on the fork's pipes are allowed.
A second lint requires that every function calling `write_text` is reached,
by name, from some `cdsa` subcommand (a `cmd_*` function of cli.py): a
writer no command calls writes a file format no command makes.

The other tests make each writer fail, by giving it a path under a regular
file, and check that the writer raises its module's error naming the path.
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path

import numpy as np
import pytest

from cdsa.checkpoint import MANIFEST_FILE, CheckpointError, save_bundle, save_model
from cdsa.cli import main
from cdsa.controller import CdsaModels
from cdsa.dataset import Dataset, DatasetError, save_dataset
from cdsa.envs import builtin_spec_path, load_env_spec
from cdsa.evaluation import EpisodeStats, EvalError, emit_report, summarize
from cdsa.invdyn import InvDynModel
from cdsa.neuralcore import Rng, mlp_init
from cdsa.scorefield import ScoreField, ScoreKind
from helpers import identity_norm

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdsa"
WRITER = PACKAGE / "readers.py"
WRITES = {"write_text", "write_bytes"}


def _mode(call: ast.Call, builtin: bool):
    """The mode argument of an open call, or None when it has none."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    # open(file, mode) and io.open(file, mode); a path's .open(mode)
    index = 1 if builtin else 0
    return call.args[index] if len(call.args) > index else None


def file_writing(path: Path) -> list[str]:
    """Each call in the module that opens a file for writing, as "line: name"."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    io_names, readers = set(), set()  # local names bound to io and to cdsa.readers
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            io_names.update(a.asname or a.name for a in node.names if a.name == "io")
            readers.update(a.asname for a in node.names if a.name == "cdsa.readers" and a.asname)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "cdsa"):
            readers.update(a.asname or a.name for a in node.names if a.name == "readers")
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            name, mode = "open", _mode(node, True)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            io_open = isinstance(func.value, ast.Name) and func.value.id in io_names
            name, mode = f"{ast.unparse(func.value)}.open", _mode(node, io_open)
        elif isinstance(func, ast.Attribute) and func.attr in WRITES:
            if not (isinstance(func.value, ast.Name) and func.value.id in readers):
                found.append(f"{node.lineno}: {ast.unparse(func)}")
            continue
        else:
            continue
        if mode is None:
            continue
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")):
            found.append(f"{node.lineno}: {name}")
    return found


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p != WRITER),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_the_reader_module_writes_files(path):
    assert file_writing(path) == []


def test_the_reader_module_is_where_writing_happens():
    assert file_writing(WRITER)


def test_checker_finds_every_form(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import io, os\nimport io as i\nfrom pathlib import Path\nfrom cdsa import readers\n"
        "from . import readers as r\n"
        "open(p)\nopen(p, encoding='utf-8')\nopen(p, 'rb')\nos.fdopen(fd, 'wb')\n"
        "Path(p).open()\nreaders.write_text(p, [s], E, w)\nr.write_text(p, [s], E, w)\n"
        "open(p, 'w')\nopen(p, mode='a')\nopen(p, 'r+')\nio.open(p, 'x')\ni.open(p, 'wb')\n"
        "open(p, mode)\nPath(p).open('wb')\nPath(p).write_text(s)\nPath(p).write_bytes(b)\n",
        encoding="utf-8")
    assert file_writing(src) == [
        "13: open", "14: open", "15: open", "16: io.open", "17: i.open", "18: open",
        "19: Path(p).open", "20: Path(p).write_text", "21: Path(p).write_bytes"]


def unreached_writers(package: Path) -> list[str]:
    """Each function of the package whose body names write_text but that no
    cmd_* function of its cli.py reaches, as "module: name".

    A function reaches every function of the package whose name its body
    reads, as a name or as an attribute (`checkpoint.save_bundle`), and so on
    through those; methods and nested functions count by their own names.
    """
    reads: dict[str, set[str]] = {}  # function name -> the names its body reads
    writers = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            reads.setdefault(node.name, set()).update(names)
            if "write_text" in names:
                writers.add((path.stem, node.name))
    cli = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    todo = [n.name for n in cli.body
            if isinstance(n, ast.FunctionDef) and n.name.startswith("cmd_")]
    reached = set(todo)
    while todo:
        for name in reads[todo.pop()] & reads.keys() - reached:
            reached.add(name)
            todo.append(name)
    return sorted(f"{module}: {name}" for module, name in writers if name not in reached)


def test_every_writer_is_reached_from_a_command():
    assert unreached_writers(PACKAGE) == []


def test_reach_checker_follows_names_and_attributes(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import store\n"
        "def cmd_go(args):\n    return store.save(args)\n"
        "def _unused():\n    write_text(p, [s], E, w)\n", encoding="utf-8")
    (tmp_path / "store.py").write_text(
        "from .readers import write_text\n"
        "def save(x):\n    return _emit(x)\n"
        "def _emit(x):\n    write_text(x, [s], E, w)\n"
        "def export(x):\n    readers.write_text(x, [s], E, w)\n", encoding="utf-8")
    assert unreached_writers(tmp_path) == ["cli: _unused", "store: export"]


# ---------------------------------------------------------------------------
# A failed write raises the writer's module error, naming the file
# ---------------------------------------------------------------------------


@pytest.fixture
def blocked(tmp_path):
    """A path under a regular file: writing it fails with NotADirectoryError."""
    (tmp_path / "file").write_text("", encoding="utf-8")
    return str(tmp_path / "file" / "out")


def _models():
    norm = identity_norm(2, 2)
    rng = Rng(0)
    return CdsaModels(
        action_score=ScoreField(mlp_init(ScoreKind.ACTION.arch.dims(2, 2), 0.1, rng),
                                ScoreKind.ACTION, 0.2, norm),
        state_score=ScoreField(mlp_init(ScoreKind.STATE.arch.dims(2, 2), 0.1, rng),
                               ScoreKind.STATE, 0.2, norm),
        invdyn=InvDynModel(mlp_init(InvDynModel.arch.dims(2, 2), 0.2, rng), norm),
        norm=norm)


def _report(spec=None):
    stats = [EpisodeStats(undiscounted_return=1.0, steps=10, risk_entries=0,
                          reached_goal=False)]
    return summarize(stats, stats, [50], spec=spec)


def _fails(error, target, write):
    with pytest.raises(error, match=f"^.*{re.escape(target)}: cannot write: ") as exc:
        write()
    assert type(exc.value) is error and isinstance(exc.value.__cause__, NotADirectoryError)


def test_model_write_failure_is_a_checkpoint_error(blocked):
    _fails(CheckpointError, blocked, lambda: save_model(_models().invdyn, blocked))


def test_manifest_write_failure_is_a_checkpoint_error(tmp_path):
    # the model files are written; the manifest's name is taken by a directory
    manifest = tmp_path / "bundle" / MANIFEST_FILE
    manifest.mkdir(parents=True)
    with pytest.raises(CheckpointError, match=re.escape(f"{manifest}: cannot write: ")) as exc:
        save_bundle(_models(), str(tmp_path / "bundle"))
    assert isinstance(exc.value.__cause__, IsADirectoryError)


def test_bundle_directory_failure_is_a_checkpoint_error(blocked):
    with pytest.raises(CheckpointError,
                       match=f"^bundle directory {re.escape(blocked)}: cannot make: ") as exc:
        save_bundle(_models(), blocked)
    assert isinstance(exc.value.__cause__, NotADirectoryError)


def test_dataset_write_failure_is_a_dataset_error(blocked):
    data = Dataset(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2), np.ones((2, 2)),
                   np.array([False, True]))
    _fails(DatasetError, blocked, lambda: save_dataset(data, blocked))


def test_report_write_failures_are_eval_errors(tmp_path, blocked):
    _fails(EvalError, blocked, lambda: emit_report(_report(), blocked))
    spec = load_env_spec(builtin_spec_path("linear"))
    _fails(EvalError, blocked,
           lambda: emit_report(_report(spec), str(tmp_path / "r.csv"), blocked))


@pytest.mark.parametrize("command", [
    ["gen-data", "--env", "linear", "--policy", "direct", "--episodes", "2", "--out"],
    ["plot", "--env", "linear", "--out"],
])
def test_cli_write_failure_exits_1_with_one_line(blocked, capsys, command):
    assert main(command + [blocked]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and blocked in err[0], err
    assert not os.path.exists(blocked)
