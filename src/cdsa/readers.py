"""The one place files are read and written, and input files are decoded:
JSON documents, JSON Lines and CSV rows.

Every loader reads through this module, so a number, an integer, a string
from a fixed set or an array of numbers means the same thing in every file
format (docs/FORMATS.md, "JSON values"). Every writer writes its text
through write_text, as UTF-8. Readers and write_text raise the error class
their caller passes, so each loader and writer keeps its module's
exception; the caller prefixes the file, and the line for JSON Lines, to
errors about a field.
"""

from __future__ import annotations

import json
import math

import numpy as np

_REQUIRED = object()

# numpy dtype kinds an array of each element type may convert to
_KINDS = {float: "if", int: "i", bool: "b"}
_WHAT = {float: ("a finite number", "finite numbers"), int: ("an integer", "integers"),
         bool: ("true or false", "true or false values")}


def read_text(path, error, where: str) -> str:
    """The UTF-8 text of the file at path; where names the file in errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{where}: cannot read: {exc}") from exc


def write_text(path, chunks, error, where: str) -> None:
    """Write the strings of chunks, in order, as the UTF-8 text of the file at
    path; where names the file in errors."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise error(f"{where}: cannot write: {exc}") from exc


def decode(text: str, error, where: str) -> dict:
    """The JSON object text holds; where names the text in errors."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or nesting too deep
        raise error(f"{where} is not valid JSON: {exc}") from exc
    if type(obj) is not dict:
        raise error(f"{where} does not hold a JSON object")
    return obj


def read_json(path, error, what: str) -> dict:
    """The JSON object in the file at path; what names the kind of file in errors."""
    where = f"{what} {path}"
    return decode(read_text(path, error, where), error, where)


def _array(value, shape: tuple, kind, error, label: str) -> np.ndarray:
    """value as an array of this shape (None: any length) of kind elements.

    kind float gives a float64 array of finite numbers, int an int64 array
    of integers, bool a bool array.
    """
    try:
        arr = np.array(value)
    except (ValueError, OverflowError):  # ragged nesting, or an integer too large
        arr = None
    ok = (arr is not None and arr.dtype.kind in _KINDS[kind] and arr.ndim == len(shape)
          and all(n is None or n == m for n, m in zip(shape, arr.shape)))
    # true and false convert to 1 and 0 beside numbers, so only then can one hide here
    if ok and kind is not bool and arr.ndim and ((arr == 0) | (arr == 1)).any():
        ok = bool not in set(map(type, np.array(value, dtype=object).ravel()))
    if ok and kind is float:
        arr = arr.astype(np.float64, copy=False)
        ok = bool(np.isfinite(arr).all())
    if not ok:
        if not shape:
            raise error(f"{label!r} must be {_WHAT[kind][0]}, got {value!r}")
        dims = ", ".join("n" if n is None else str(n) for n in shape) + "," * (len(shape) == 1)
        raise error(f"{label!r} must be an array of shape ({dims}) of {_WHAT[kind][1]}")
    return arr


class Fields:
    """One decoded JSON object whose fields are read under the shared rules.

    name is the object's place in its document ("" for the document itself),
    so errors name each field in full, e.g. 'arch.layers[0].w'. A read
    without a default requires the field; a read with one returns it when
    the field is missing, or null where the default is None.
    """

    def __init__(self, obj, error, name: str = ""):
        if type(obj) is not dict:
            raise error(f"{repr(name) if name else 'the document'} must be a JSON object")
        self._obj = obj
        self._error = error
        self._name = name

    def _read(self, key: str, default, rule):
        label = f"{self._name}.{key}" if self._name else key
        value = self._obj.get(key)
        if value is None and (default is None or key not in self._obj):
            if default is _REQUIRED:
                raise self._error(f"missing field {label!r}")
            return default
        return rule(value, label)

    def number(self, key: str, default=_REQUIRED) -> float:
        return self._read(key, default, lambda v, label: float(
            _array(v, (), float, self._error, label)))

    def integer(self, key: str, default=_REQUIRED) -> int:
        return self._read(key, default, lambda v, label: int(
            _array(v, (), int, self._error, label)))

    def array(self, key: str, shape: tuple, kind=float, default=_REQUIRED) -> np.ndarray:
        return self._read(key, default, lambda v, label: _array(
            v, shape, kind, self._error, label))

    def string(self, key: str, choices=None, default=_REQUIRED) -> str:
        def rule(v, label):
            if type(v) is not str or (choices is not None and v not in choices):
                want = ("a string" if choices is None
                        else "one of " + ", ".join(map(repr, choices)))
                raise self._error(f"{label!r} must be {want}, got {v!r}")
            return v
        return self._read(key, default, rule)

    def object(self, key: str, default=_REQUIRED) -> "Fields":
        return self._read(key, default, lambda v, label: Fields(v, self._error, label))

    def objects(self, key: str) -> list["Fields"]:
        def rule(v, label):
            if type(v) is not list:
                raise self._error(f"{label!r} must be a list of JSON objects")
            return [Fields(item, self._error, f"{label}[{i}]") for i, item in enumerate(v)]
        return self._read(key, _REQUIRED, rule)

    def header(self, fmt: str, version: int) -> None:
        """Require the document's format name and integer version."""
        self.string("format", (fmt,))
        got = self.integer("version")
        if got != version:
            raise self._error(f"unsupported 'version' {got}; this reader reads {version}")


def read_csv(path, error) -> tuple[list[str], list[tuple[str, list[str]]]]:
    """The header and the rows of the report CSV at path; blank lines are skipped.

    Each row is (where, fields), where being "path:lineno". A row has as
    many fields as the header, its last field keeping any further commas.
    """
    lines = read_text(path, error, str(path)).splitlines()
    if not lines:
        raise error(f"{path}:1: no header")
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",", len(header) - 1)
        if len(fields) != len(header):
            raise error(f"{path}:{lineno}: {len(fields)} fields, the header has {len(header)}")
        rows.append((f"{path}:{lineno}", fields))
    return header, rows


def parse_field(text: str, kind, error, where: str):
    """One text field (of a CSV row, or a flag) as kind: str, float (a finite
    number) or int."""
    if kind is str:
        return text
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        raise error(f"{where} must be {_WHAT[kind][0]}, got {text!r}")
    return value
