"""Line-delimited JSON helpers shared by every file format in the toolkit.

All record files are JSON Lines: one object per line, blank lines ignored.
Writers stamp a ``schema_version`` field; readers tolerate its absence so
hand-written fixtures stay terse.  Each record type is declared once, as a
table of ``Field`` specs.  ``record_class`` makes the record's class from
its table: a dataclass of the table's fields whose constructor runs the
reader's type test and domain rules.  Each table is also compiled once into
a row checker, which ``validate`` runs on the rows read, and a row maker,
which ``rows`` runs on the records written.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from contextlib import contextmanager
from pathlib import Path
from typing import (IO, Any, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence,
                    TypeVar, Union)

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
    ``choices`` holds the allowed values (of each element, for a list), and
    ``minimum`` is the inclusive lower bound of an int or float field.  A
    field without a default is required; a field whose default is None also
    accepts null, which skips its choices and minimum.  Ints widen to float;
    bools are never numbers.  A field marked ``omit_default`` is left out of
    written rows while it holds its default.
    """

    name: str
    kind: type
    default: Any = REQUIRED
    of: Any = None
    choices: Sequence[str] | None = None
    minimum: float | None = None
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
            except ValueError as exc:  # an integer literal too long to convert
                reason = str(exc).partition(";")[0]
                raise SchemaError(f"invalid JSON ({reason})", line=lineno, path=path) from None
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
    unknown keys are ignored.  Fields are checked in table order, so a
    SchemaError at path:line names the first one that fails.  Equal strings
    share one object: labels repeat on every line.
    """
    check = _compiled(tuple(table))
    strings: dict[str, str] = {}
    for lineno, obj in rows:
        yield lineno, check(obj, path, lineno, strings)


def _define(lines: list[str], env: dict[str, Any]) -> Callable:
    """The one function that ``lines`` define, compiled with ``env`` as globals."""
    exec("\n".join(lines), env)
    return env["f"]


@functools.cache
def _compiled(table: tuple[Field, ...]) -> Callable:
    """One table's row checker, built once.

    The source is generated field by field, as ``dataclasses`` builds
    ``__init__``, because a loop that unpacks each field and dispatches on
    its kind for every row costs most of a reader.  A block reads the value,
    handles absence and null, and checks the type, the magnitude, the list
    elements and the domain rules (``choices`` and ``minimum``).
    """
    env = dict(_HELPERS)
    lines = ["def f(obj, path, lineno, strings):", "    get, share = obj.get, strings.setdefault"]
    for i, field in enumerate(table):
        name, kind, default, of, *_ = field
        v = f"v{i}"
        body, domain = _field_tests(i, field, env)
        if kind is str:
            body.append(f"{v} = share({v}, {v})")
        elif kind is dict and of is not None:
            env[f"T{i}"] = _compiled(tuple(of))
            body.append(f"{v} = T{i}({v}, path, lineno, strings)")
        elif kind is list and of is not None:
            env[f"E{i}"] = of
            body += [f"for item in {v}:", f"    if type(item) is not E{i}:",
                     f"        _bad_element(F{i}, item, path, lineno)"]
        if default is REQUIRED:  # _reject names a missing field
            lines.append(f"    {v} = get({name!r}, _MISSING)")
        elif default is None:  # absent and null alike
            lines += [f"    {v} = get({name!r})", f"    if {v} is not None:"]
        else:
            env[f"D{i}"] = default
            lines += [f"    {v} = get({name!r}, _MISSING)", f"    if {v} is _MISSING:",
                      f"        {v} = D{i}", "    else:"]
        indent = "    " if default is REQUIRED else "        "
        lines += [indent + line for line in (*body, *domain)]
    lines.append("    return {%s}" % ", ".join(f"{field.name!r}: v{i}"
                                              for i, field in enumerate(table)))
    return _define(lines, env)


def _field_tests(i: int, field: Field, env: dict[str, Any]) -> tuple[list[str], list[str]]:
    """The type test and the domain rules of field ``i`` on its value ``v{i}``.

    Each test calls a helper on a failure, which builds the message; without
    a path it raises a plain ValueError.  The type test of a number also
    checks its magnitude.  Choices are tested as a frozenset, whose cost
    does not grow with a value's place in the list.
    """
    _, kind, _, _, choices, minimum, _ = field
    v = f"v{i}"
    env[f"F{i}"], env[f"K{i}"] = field, kind
    if kind is float or kind is int:  # _reject returns the float of an int in range
        test = [f"if type({v}) is not K{i} or not "
                f"{-MAX_MAGNITUDE!r} <= {v} <= {MAX_MAGNITUDE!r}:",
                f"    {v} = _reject(F{i}, {v}, path, lineno)"]
    else:
        test = [f"if type({v}) is not K{i}:", f"    _reject(F{i}, {v}, path, lineno)"]
    domain = []
    if choices is not None:
        env[f"C{i}"] = frozenset(choices)
        domain = ([f"for item in {v}:", f"    if item not in C{i}:",
                   f"        _bad_value(F{i}, item, path, lineno)"] if kind is list else
                  [f"if {v} not in C{i}:", f"    _bad_value(F{i}, {v}, path, lineno)"])
    if minimum is not None:
        domain += [f"if {v} < {minimum!r}:", f"    _bad_value(F{i}, {v}, path, lineno)"]
    return test, domain


def record_class(table: Sequence[Field], *, frozen: bool = False) -> Callable[[type], type]:
    """Make the decorated class the dataclass of ``table``'s records.

    The fields are the table's, in its order, with its defaults; those from
    the first one with a default onward are keyword-only.  Each is annotated
    with its table kind, the type a file holds.  A field that the class body
    annotates keeps the body's annotation and default.  The ``__post_init__``
    runs the record check, then the class's own ``__post_init__``.  The
    check runs the reader's tests in table order on the record's attributes,
    skipping None where the field's default is None: the type test of every
    str, int, float and bool field and the domain rules of every field.  It
    raises ValueError with the message the reader gives after ``path:line: ``.
    """
    table = tuple(table)

    def make(cls: type) -> type:
        own = vars(cls).get("__annotations__", {})
        env = {**_HELPERS, "path": None, "lineno": 0, "_rules": vars(cls).get("__post_init__")}
        annotations, kw_only, lines = {}, False, ["def f(self):"]
        for i, field in enumerate(table):
            name = field.name
            default = vars(cls).get(name, REQUIRED) if name in own else field.default
            kw_only = kw_only or default is not REQUIRED
            annotations[name] = own.get(name, field.kind)
            setattr(cls, name, dataclasses.field(
                default=dataclasses.MISSING if default is REQUIRED else default, kw_only=kw_only))
            test, domain = _field_tests(i, field, env)
            body = [*test, *domain] if field.kind in (str, int, float, bool) else domain
            if body:
                lines.append(f"    v{i} = self.{name}")
                if default is None:
                    lines.append(f"    if v{i} is not None:")
                indent = "        " if default is None else "    "
                lines += [indent + line for line in body]
        lines.append("    return None" if env["_rules"] is None else "    _rules(self)")
        cls.__annotations__ = annotations
        cls.__post_init__ = _define(lines, env)
        return dataclasses.dataclass(cls, frozen=frozen)
    return make


def _reject(field: Field, value: Any, path: str | Path | None, lineno: int) -> float:
    """The float of an int in range for a float field; else raise why ``value`` fails."""
    name, kind = field.name, field.kind
    if value is REQUIRED:
        _fail(f"missing field {name!r}", path, lineno)
    if type(value) is not kind and (kind is not float or type(value) is not int):
        _fail(f"field {name!r} has wrong type (got {type(value).__name__})", path, lineno)
    if -MAX_MAGNITUDE <= value <= MAX_MAGNITUDE:  # exact for ints of any size
        return float(value)
    got = value
    if kind is float and type(value) is int:
        try:
            got = float(value)
        except OverflowError:  # beyond float range: shown as an int
            pass
    _fail(f"field {name!r} must be finite and at most {MAX_MAGNITUDE:g} "
          f"in magnitude (got {_shown(got)})", path, lineno)


def _shown(value: Any) -> str:
    """``repr(value)``, but an int of more than 20 digits as its sign, first
    digits and digit count, so a message quoting it stays one short line."""
    text = repr(value)
    digits = text.lstrip("-")
    if type(value) is not int or len(digits) <= 20:
        return text
    return f"{len(digits)}-digit integer {text[:-len(digits)]}{digits[:7]}..."


def _bad_element(field: Field, element: Any, path: str | Path, lineno: int) -> None:
    _fail(f"field {field.name!r} holds an element of wrong type "
          f"(got {type(element).__name__})", path, lineno)


def _bad_value(field: Field, value: Any, path: str | Path | None, lineno: int) -> None:
    """Raise why ``value`` breaks ``field``'s choices or minimum."""
    if field.choices is not None and value not in field.choices:
        _fail(f"field {field.name!r} has bad value {value!r} (expected "
              f"one of {', '.join(field.choices)})", path, lineno)
    _fail(f"field {field.name!r} must be at least {field.minimum:g} "
          f"(got {_shown(value)})", path, lineno)


def _fail(message: str, path: str | Path | None, lineno: int) -> NoReturn:
    """Raise ``message``: a SchemaError at path:line in a reader, a ValueError
    in a record check, which has no path."""
    raise ValueError(message) if path is None else SchemaError(message, line=lineno, path=path)


#: The globals every generated checker starts from.
_HELPERS = {"_MISSING": REQUIRED, "_reject": _reject, "_bad_element": _bad_element,
            "_bad_value": _bad_value}


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
    """One table's record-to-row function, built once: one block per field.

    The fields before the first ``omit_default`` one form a dict literal;
    each later field is stored in turn, only while it differs from its
    default if it is marked so.  Either way the keys keep table order.
    """
    env: dict[str, Any] = {"_SETS": (set, frozenset)}
    head = ["def f(record):"]
    literal = [f"'schema_version': {SCHEMA_VERSION!r}"] if stamped else []
    tail: list[str] = []
    for i, field in enumerate(table):
        v = f"v{i}"
        block = [f"{v} = record.{field.name}"]
        if field.kind is dict and field.of is not None:
            env[f"M{i}"] = _row_maker(tuple(field.of), False)
            block.append(f"{v} = M{i}({v})")
        elif field.kind is list:
            block += [f"if isinstance({v}, _SETS):", f"    {v} = sorted({v})"]
        if field.omit_default:
            env[f"D{i}"] = field.default
            block[1:] = [f"if {v} != D{i}:", *("    " + line for line in block[1:])]
            block.append(f"    row[{field.name!r}] = {v}")
        elif tail:
            block.append(f"row[{field.name!r}] = {v}")
        else:
            literal.append(f"{field.name!r}: {v}")
            head += ["    " + line for line in block]
            continue
        tail += ["    " + line for line in block]
    return _define([*head, "    row = {%s}" % ", ".join(literal), *tail, "    return row"], env)


def write_jsonl(target: Target, rows: Iterable[dict]) -> None:
    """Write rows line by line; accepts a path or an open text handle."""
    with open_target(target) as fp:
        for row in rows:
            fp.write(json.dumps(row) + "\n")
