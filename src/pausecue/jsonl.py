"""Line-delimited JSON helpers shared by every file format in the toolkit.

All record files are JSON Lines: one object per line, blank lines ignored.
Writers stamp a ``schema_version`` field; readers tolerate its absence so
hand-written fixtures stay terse.  Each record type is declared once, as a
table of ``Field`` specs.  ``record_class`` makes the record's class from
its table, keeping the table's names in slots, and compiles its
constructor, which runs the reader's type test and domain rules.  Each
table is also compiled, on first use, into a row checker, which
``validate`` runs on the rows read, and a line maker, which ``lines`` runs
on the records written, writing the line of a row without the row.
A reader checks and builds each record in one step, so no test runs twice
on a row read; a record built in code is still checked by its constructor,
and both end in the class's hook, so the two store the same record for the
same values.  Every value class takes its ``==`` and ``repr`` from
``Record``, and an immutable one its hash and its refusal of assignment
from ``Frozen``; none has an instance dict.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence, Union

Target = Union[str, Path, IO[str]]

SCHEMA_VERSION = 1

#: Largest magnitude a number field may hold.  The bound also rejects NaN
#: and infinities, and keeps the squares and sums of the statistics finite.
MAX_MAGNITUDE = 1e15
#: Why a number beyond that bound is refused, after the name of what holds it.
IN_RANGE = f"must be finite and at most {MAX_MAGNITUDE:g} in magnitude"

REQUIRED: Any = object()


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
    bools are never numbers.
    """

    name: str
    kind: type
    default: Any = REQUIRED
    of: Any = None
    choices: Sequence[str] | None = None
    minimum: float | None = None


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


def validate(rows: Iterable[tuple[int, dict]], table: Sequence[Field], path: str | Path,
             record: type | None = None) -> Iterator[tuple[int, Any]]:
    """Check each (line, object) row against ``table``; yield (line, fields).

    The fields dict holds every name in the table, defaults filled in;
    unknown keys are ignored.  Fields are checked in table order, so a
    SchemaError at path:line names the first one that fails.  Equal strings
    share one object: labels repeat on every line.  Given ``record``, the
    ``record_class`` of ``table``, each row yields its record instead, built
    in the same step: once every field passes, the fields the class converts
    are converted, all are set on a new record in table order and the class's
    own cross-field hook runs, its ValueError raised at path:line.  The field
    tests do not run again.
    """
    check = _compiled(tuple(table), record)
    strings: dict[str, str] = {}
    for lineno, obj in rows:
        yield lineno, check(obj, path, lineno, strings)


def _define(lines: list[str], env: dict[str, Any]) -> Callable:
    """The one function that ``lines`` define, compiled with ``env`` as globals."""
    exec("\n".join(lines), env)
    return env["f"]


@functools.cache
def _compiled(table: tuple[Field, ...], record: type | None = None) -> Callable:
    """One table's row checker, or with ``record`` its reader step, built once.

    The source is generated field by field, as ``record_class`` builds
    ``__init__``, because a loop that unpacks each field and dispatches on
    its kind for every row costs most of a reader.  A block reads the value,
    handles absence and null, and checks the type, the magnitude, the list
    elements and the domain rules (``choices`` and ``minimum``).  The reader
    step makes the record with ``object.__new__`` and stores each field in
    its slot, in table order, as ``__init__`` does.
    """
    env = dict(_HELPERS)
    lines = ["def f(obj, path, lineno, strings):", "    get, share = obj.get, strings.setdefault"]
    for i, field in enumerate(table):
        name, kind, default, of, *_ = field
        v = f"v{i}"
        body, domain = _field_tests(i, field, env, v)
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
    if record is None:
        lines.append("    return {%s}" % ", ".join(f"{field.name!r}: v{i}"
                                                  for i, field in enumerate(table)))
        return _define(lines, env)
    frozen, rules, convert = record._record
    env.update(_new=object.__new__, R=record, _rules=rules, SchemaError=SchemaError)
    for i, field in enumerate(table):
        if field.name in convert:
            env[f"X{i}"] = convert[field.name]
            lines.append(f"    v{i} = X{i}(v{i}, path, lineno)")
    lines.append("    r = _new(R)")
    lines += [f"    _set(r, {field.name!r}, v{i})" if frozen else f"    r.{field.name} = v{i}"
              for i, field in enumerate(table)]
    if rules is not None:
        lines += ["    try:", "        _rules(r)", "    except ValueError as exc:",
                  "        raise SchemaError(str(exc), line=lineno, path=path) from exc"]
    lines.append("    return r")
    return _define(lines, env)


def _field_tests(i: int, field: Field, env: dict[str, Any],
                 v: str) -> tuple[list[str], list[str]]:
    """The type test and the domain rules of field ``i`` on its value, the variable ``v``.

    Each test calls a helper on a failure, which builds the message; without
    a path it raises a plain ValueError.  The type test of a number also
    checks its magnitude.  Choices are tested as a frozenset, whose cost
    does not grow with a value's place in the list.
    """
    _, kind, _, _, choices, minimum = field
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


class Record:
    """Base of every value class.

    ``_fields`` names the constructor's arguments, in order, each kept as
    the attribute of its name; any other attribute is derived from them.
    Every value class keeps these attributes in ``__slots__`` and has no
    instance dict, so assigning any other name raises AttributeError.
    ``==`` holds between two instances of one class whose fields are equal,
    and ``repr`` shows the fields.  A record may be changed, so it is
    unhashable; ``Frozen`` is the immutable kind.  A field assigned after
    construction is not checked again, and the writers assume the
    constructor's types, so a value of another type may make a writer fail
    or write a line that no reader takes.  No setter checks it: a reader
    would then have to store through each slot's ``__set__``, and 30,000
    builds of an 11-field record took 29-31 ms so, against 9-15 ms by
    attribute stores (Python 3.11, a 2-vCPU VM).
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"


class Frozen(Record):
    """Base of the immutable classes: assigning or deleting any attribute
    raises AttributeError, so a constructor sets each one through
    ``object.__setattr__`` (or a slot's own ``__set__``).  ``hash`` is the
    hash of the tuple of the fields' values, so it exists only when every
    field value hashes: an instance that holds a mutable value, such as a
    dict or a ``Record``, raises TypeError as that tuple does.  A pickle or a
    copy is made again by the constructor, given every field by keyword, so
    it runs the same checks.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return _rebuilt, (self.__class__, self._values())

    def __setattr__(self, name: str, value: Any) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise AttributeError(f"cannot delete field {name!r}")


def _rebuilt(cls: type, values: tuple) -> Frozen:
    """A ``cls`` made by its constructor from its ``_fields``' values, each by keyword."""
    return cls(**dict(zip(cls._fields, values)))


def record_class(table: Sequence[Field], *,
                 convert: dict[str, Callable] | None = None) -> Callable[[type], type]:
    """The class of ``table``'s records, made from the decorated ``Record``
    or ``Frozen`` class.

    It is that class rebuilt, as ``dataclass(slots=True)`` rebuilds one: the
    same name, bases and namespace, less ``__dict__`` and ``__weakref__``,
    with the table's names as its ``__slots__`` and its ``_fields``, so a
    record holds its values in slots and carries no instance dict.  A method
    that uses zero-argument ``super()`` or ``__class__`` would still name
    the class it was defined in, so such a class is refused with TypeError.
    Its ``__init__`` is generated and compiled.  That takes the table's
    fields, in its order, with its defaults; those from the first one with a
    default onward are keyword-only.  It runs the reader's tests in table order on its
    arguments, skipping None where the field's default is None: the type
    test of every str, int, float and bool field, which widens an int to
    float as the reader does, and the domain rules of every field.  A
    failure raises ValueError with the message the reader gives after
    ``path:line: ``.  It then sets the attributes in table order, through
    ``object.__setattr__`` in a ``Frozen`` class, and last runs the class's
    own ``__post_init__``, the only place that derives or converts a value
    for readers and constructors alike.  ``convert`` maps a field to the function
    ``validate`` calls as ``f(value, path, lineno)`` to turn its checked
    file value into the attribute.  Only the coded operation needs it: a
    file holds an object and a constructor is given the built operation,
    which a hook could tell apart only by its type.
    """
    table = tuple(table)

    def make(cls: type) -> type:
        namespace = dict(vars(cls))
        for value in namespace.values():
            code = getattr(getattr(value, "fget", None) or getattr(value, "__func__", value),
                           "__code__", None)
            if code is not None and "__class__" in code.co_freevars:
                raise TypeError(f"{cls.__qualname__}.{code.co_name} uses super() or "
                                f"__class__, which would name the class before its rebuild")
        rules = namespace.get("__post_init__")
        frozen = issubclass(cls, Frozen)
        env = {**_HELPERS, "path": None, "lineno": 0, "_rules": rules}
        names = tuple(field.name for field in table)
        params, tests = ["self"], []
        for i, field in enumerate(table):
            name, kind, default = field.name, field.kind, field.default
            if default is REQUIRED:
                params.append(name)
            else:
                params += [f"{name}=D{i}"] if "*" in params else ["*", f"{name}=D{i}"]
                env[f"D{i}"] = default
            test, domain = _field_tests(i, field, env, name)
            body = [*test, *domain] if kind in (str, int, float, bool) else domain
            if body and default is None:
                body = [f"if {name} is not None:", *("    " + line for line in body)]
            tests += body
        exec("\n".join([f"def __init__({', '.join(params)}):",
                        *("    " + line for line in tests),
                        *(f"    _set(self, {name!r}, {name})" if frozen
                          else f"    self.{name} = {name}" for name in names),
                        *(["    _rules(self)"] if rules is not None else [])]), env)
        env["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        for name in ("__dict__", "__weakref__"):
            namespace.pop(name, None)
        namespace.update(__slots__=names, __qualname__=cls.__qualname__, _fields=names,
                         __init__=env["__init__"], _record=(frozen, rules, convert or {}))
        return type(cls)(cls.__name__, cls.__bases__, namespace)
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
    _fail(f"field {name!r} {IN_RANGE} (got {_shown(got)})", path, lineno)


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
            "_bad_value": _bad_value, "_set": object.__setattr__}


@contextmanager
def open_target(target: Target) -> Iterator[IO[str]]:
    """Yield an open text handle as is, or open a path for writing."""
    if hasattr(target, "write"):
        yield target  # type: ignore[misc]
    else:
        with open(target, "w", encoding="utf-8") as fp:  # type: ignore[arg-type]
            yield fp


def lines(table: Sequence[Field], records: Iterable[Any]) -> Iterator[str]:
    """The JSON line of each record: ``schema_version``, then ``table``'s fields in order.

    Each field's value is the record attribute of the same name.  A set is
    written as a sorted list and a field with a nested table as an object
    of that table's fields, without ``schema_version``.
    """
    return map(_line_maker(tuple(table)), records)


#: Source that writes the value ``{}`` of each scalar kind as ``json.dumps`` does.
_TEXT = {str: "_q({})", int: "_i({})", float: "_f({})", bool: '"true" if {} else "false"'}


@functools.cache
def _line_maker(table: tuple[Field, ...]) -> Callable[[Any], str]:
    """One table's record-to-line function, built once: one f-string that
    writes each field by one conversion, the bytes ``json.dumps`` writes of
    the row.  A str goes through its escaper, ``encode_basestring_ascii``.
    An int field holds an int, never a bool, and a float field a finite
    float within ``MAX_MAGNITUDE``, which ``json.dumps`` writes as their
    ``repr``.  A bool is ``true`` or ``false``, and a None where the
    default is None ``null``.  Each value is read into a local first."""
    env = {"_q": encode_basestring_ascii, "_i": int.__repr__, "_f": float.__repr__,
           "_SETS": (set, frozenset)}
    reads: list[str] = []

    def members(table: tuple[Field, ...], record: str) -> str:
        out = []
        for name, kind, default, of, *_ in table:
            reads.append(f"    v{len(reads)} = {record}.{name}")
            value = f"v{len(reads) - 1}"
            if kind is dict:
                out.append(f'"{name}": {{{{%s}}}}' % members(tuple(of), value))
                continue
            expr = (f'"[" + ", ".join([{_TEXT[of].format("x")} for x in (sorted({value}) if '
                    f'isinstance({value}, _SETS) else {value})]) + "]"' if kind is list
                    else _TEXT[kind].format(value))
            if default is None:
                expr = f'"null" if {value} is None else {expr}'
            out.append(f'"{name}": {{{expr}}}')
        return ", ".join(out)

    line = f'"schema_version": {SCHEMA_VERSION!r}, {members(table, "record")}'
    return _define(["def f(record):", *reads, "    return f'{{%s}}\\n'" % line], env)


def write_jsonl(target: Target, lines: Iterable[str]) -> None:
    """Write lines as they are; accepts a path or an open text handle."""
    with open_target(target) as fp:
        fp.writelines(lines)
