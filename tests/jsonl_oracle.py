"""Reference row checker and row maker: the interpreted versions.

``validate`` walks each row's ``Field`` table field by field, unpacking
every spec and dispatching on its ``kind`` for every row; ``rows`` zips the
record's attributes into a dict and then fixes the fields a plain copy
misses.  One known defect is kept: an integer beyond float range in a float
field raises ``OverflowError`` from ``float(value)`` instead of a
SchemaError.  They serve only as the oracle the differential tests compare
``pausecue.jsonl`` against.
"""

from __future__ import annotations

import functools
from operator import attrgetter

from pausecue.jsonl import MAX_MAGNITUDE, REQUIRED, SCHEMA_VERSION, SchemaError


def validate(rows, table, path):
    strings = {}
    for lineno, obj in rows:
        yield lineno, _check(obj, table, path, lineno, strings)


def _check(obj, table, path, lineno, strings):
    out = {}
    for name, kind, default, of, choices, minimum, _ in table:
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
        if minimum is not None and value < minimum:
            raise SchemaError(f"field {name!r} must be at least {minimum:g} (got {value!r})",
                              line=lineno, path=path)
        out[name] = value
    return out


def rows(table, records):
    return map(_row_maker(tuple(table), True), records)


@functools.cache
def _row_maker(table, stamped):
    names = tuple(field.name for field in table)
    keys = ("schema_version", *names) if stamped else names
    get = attrgetter(*names)
    fixes = tuple((field.name, field.default if field.omit_default else REQUIRED,
                   _row_maker(field.of, False) if field.kind is dict and field.of else None)
                  for field in table
                  if field.omit_default or field.kind is list or field.kind is dict)

    def make(record):
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
