"""Line-delimited JSON helpers shared by every file format in the toolkit.

All record files are JSON Lines: one object per line, blank lines ignored.
Writers stamp a ``schema_version`` field; readers tolerate its absence so
hand-written fixtures stay terse.  Each record type declares one table of
``Field`` specs next to its class: ``validate`` checks rows against it and
``rows`` derives the written rows from it.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from operator import attrgetter
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar, Union

Target = Union[str, Path, IO[str]]

SCHEMA_VERSION = 1

#: Largest magnitude a number field may hold.  The bound also rejects NaN
#: and infinities, and keeps the squares and sums of the statistics finite.
MAX_MAGNITUDE = 1e15

REQUIRED: Any = object()

T = TypeVar("T")


class SchemaError(ValueError):
    """An input file violates the expected record schema."""

    def __init__(self, message: str, *, path: str | Path, line: int | None = None):
        self.line = line
        where = str(path) if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


class Field(NamedTuple):
    """One field of a record table.

    ``of`` is the element type of a list, or the table of a nested object.
    ``choices`` holds the allowed values (of each element, for a list).  A
    field without a default is required; a field whose default is None also
    accepts null.  Ints widen to float; bools are never numbers.  A field
    marked ``omit_default`` is left out of written rows while it holds its
    default.
    """

    name: str
    kind: type
    default: Any = REQUIRED
    of: Any = None
    choices: Sequence[str] | None = None
    omit_default: bool = False


#: ``json.loads`` without its per-call set-up; trailing content is checked by hand.
_raw_decode = json.JSONDecoder().raw_decode


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) pairs; line numbers are 1-based."""
    with open(path, "rb") as fp:
        for lineno, raw in enumerate(fp, start=1):
            try:
                text = raw.decode("utf-8").strip()
                if not text:
                    continue
                obj, end = _raw_decode(text)
            except UnicodeDecodeError:
                raise SchemaError("not UTF-8 text", line=lineno, path=path) from None
            except json.JSONDecodeError as exc:
                msg = ("Unexpected UTF-8 BOM (decode using utf-8-sig)"
                       if text.startswith("\ufeff") else exc.msg)
                raise SchemaError(f"invalid JSON ({msg})", line=lineno, path=path) from exc
            except RecursionError:
                raise SchemaError("invalid JSON (nested too deeply)",
                                  line=lineno, path=path) from None
            if end != len(text):
                raise SchemaError("invalid JSON (Extra data)", line=lineno, path=path)
            if not isinstance(obj, dict):
                raise SchemaError("expected a JSON object", line=lineno, path=path)
            yield lineno, obj


def validate(rows: Iterable[tuple[int, dict]], table: Sequence[Field],
             path: str | Path) -> Iterator[tuple[int, dict]]:
    """Check each (line, object) row against ``table``; yield (line, fields).

    The fields dict holds every name in the table, defaults filled in;
    unknown keys are ignored.  Every failure is a SchemaError at path:line.
    Equal strings share one object: labels repeat on every line.
    """
    strings: dict[str, str] = {}
    for lineno, obj in rows:
        yield lineno, _check(obj, table, path, lineno, strings)


def _check(obj: dict, table: Sequence[Field], path: str | Path, lineno: int,
           strings: dict[str, str]) -> dict:
    out = {}
    for name, kind, default, of, choices, _ in table:
        value = obj.get(name, REQUIRED)
        if value is REQUIRED or value is None and default is None:
            if default is REQUIRED:
                raise SchemaError(f"missing field {name!r}", line=lineno, path=path)
            out[name] = default
            continue
        if type(value) is not kind:
            if kind is not float or type(value) is not int:
                raise SchemaError(f"field {name!r} has wrong type "
                                  f"(got {type(value).__name__})", line=lineno, path=path)
            value = float(value)
        if kind is float or kind is int:
            if not -MAX_MAGNITUDE <= value <= MAX_MAGNITUDE:
                raise SchemaError(f"field {name!r} must be finite and at most "
                                  f"{MAX_MAGNITUDE:g} in magnitude (got {value!r})",
                                  line=lineno, path=path)
        elif kind is dict and of is not None:
            value = _check(value, of, path, lineno, strings)
        elif kind is list and of is not None:
            for element in value:
                if type(element) is not of:
                    raise SchemaError(f"field {name!r} holds an element of wrong type "
                                      f"(got {type(element).__name__})", line=lineno, path=path)
        elif kind is str:
            value = strings.setdefault(value, value)
        if choices is not None:
            for item in value if kind is list else (value,):
                if item not in choices:
                    raise SchemaError(f"field {name!r} has bad value {item!r} (expected "
                                      f"one of {', '.join(choices)})", line=lineno, path=path)
        out[name] = value
    return out


def build(make: Callable[..., T], row: dict, path: str | Path, lineno: int) -> T:
    """``make(**row)``, with a ValueError from a record's own checks at path:line."""
    try:
        return make(**row)
    except ValueError as exc:
        raise SchemaError(str(exc), line=lineno, path=path) from exc


@contextmanager
def open_target(target: Target) -> Iterator[IO[str]]:
    """Yield an open text handle as is, or open a path for writing."""
    if hasattr(target, "write"):
        yield target  # type: ignore[misc]
    else:
        with open(target, "w", encoding="utf-8") as fp:  # type: ignore[arg-type]
            yield fp


def rows(table: Sequence[Field], records: Iterable[Any]) -> Iterator[dict]:
    """The row of each record: ``schema_version``, then ``table``'s fields in order.

    Each field's value is the record attribute of the same name; a field
    marked ``omit_default`` is left out while it holds its default.  A set
    is written as a sorted list and a field with a nested table as an
    object of that table's fields, without ``schema_version``.
    """
    return map(_row_maker(tuple(table), True), records)


@functools.cache
def _row_maker(table: tuple[Field, ...], stamped: bool) -> Callable[[Any], dict]:
    """One table's record-to-row function, built once: one getter for all fields."""
    names = tuple(field.name for field in table)
    keys = ("schema_version", *names) if stamped else names
    get = attrgetter(*names)
    # (name, default or REQUIRED, nested row maker) of the fields a plain copy misses
    fixes = tuple((field.name, field.default if field.omit_default else REQUIRED,
                   _row_maker(field.of, False) if field.kind is dict and field.of else None)
                  for field in table
                  if field.omit_default or field.kind is list or field.kind is dict)

    def make(record: Any) -> dict:
        values = get(record)
        row = dict(zip(keys, (SCHEMA_VERSION, *values) if stamped else values))
        for name, default, nested in fixes:
            value = row[name]
            if value == default:
                del row[name]
            elif nested is not None:
                row[name] = nested(value)
            elif isinstance(value, (set, frozenset)):
                row[name] = sorted(value)
        return row

    return make


def write_jsonl(target: Target, rows: Iterable[dict]) -> None:
    """Write rows line by line; accepts a path or an open text handle."""
    with open_target(target) as fp:
        for row in rows:
            fp.write(json.dumps(row) + "\n")
