"""Test inputs made from the record tables: the one place the tests learn
what a valid or an invalid row is, read off each ``jsonl.Field`` table as
``jsonl._compiled`` reads it (and as Hypothesis's ``st.from_type`` reads a
type), so a field added to a table reaches every test that draws from here.
The tables are the specification under test, so a wrong choice list would
be drawn as valid: the goldens, the fixtures and ``jsonl_oracle`` stay the
independent check.
"""

from __future__ import annotations

import functools
import math
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from hypothesis import assume, reject
from hypothesis import strategies as st

from conftest import FIXTURES, read_trace
from pausecue.focus import OP_KINDS, TRACE_FIELDS, TraceStep, operation, write_trace
from pausecue.fragments import (CODED_FIELDS, FUNCTION_FIELDS, TOKEN_FIELDS, AnnotatedToken,
                                CodedRecord, read_coded, read_transcript, write_coded)
from pausecue.jsonl import MAX_MAGNITUDE, REQUIRED, Field, lines, write_jsonl
from pausecue.lexicon import (DATA_DIR, ENTRY_FIELDS, CueEntry, DuplicateSurface, Lexicon,
                              load_lexicon, normalize)
from pausecue.pauses import PAUSE_FIELDS, PauseRecord, read_pauses, write_pauses
from pausecue.replication import PAUSES_FILE, RECORDS_FILE

#: Any code point, lone surrogates (category Cs) included, as a JSON reader
#: may give them, and the characters ``json`` escapes.
CHARACTERS = st.characters(exclude_categories=()) | st.sampled_from('"\\\n\x00\x1f\x7f\u2028')
#: Floats whose shortest repr takes each form: -0.0, subnormal, exponent and bound.
FLOAT_EDGES = st.sampled_from([-0.0, 5e-324, 1e-7, MAX_MAGNITUDE, -MAX_MAGNITUDE])
#: Ints beyond float range, up to the decoder's 4,300-digit limit.
OVERSIZED = st.sampled_from([2**1024, -(10**400), int("9" * 4300)])
#: Numbers at and beyond the magnitude bound.
EDGES = st.sampled_from([10**15, 10**15 + 1, -10**15, -10**15 - 1, 1e15, -1.0000000000000002e15,
                         2**53 + 1, 2**1023, float("nan"), float("inf"), -float("inf")])
#: An override that leaves an optional field out of every row.
ABSENT = st.nothing()


def _scalars(kind: type, choices, minimum) -> st.SearchStrategy:
    """Values of a str, int, float or bool field that its checks accept; an
    int for a float field too, which a reader widens."""
    if choices is not None:
        return st.sampled_from(choices)
    if kind is str:
        return st.text(CHARACTERS, max_size=4) | st.sampled_from(LABELS)
    if kind is bool:
        return st.booleans()
    low = -MAX_MAGNITUDE if minimum is None else minimum
    ints = st.integers(math.ceil(low), 10**15)
    if kind is int:
        return ints
    return st.floats(low, MAX_MAGNITUDE) | FLOAT_EDGES.filter(lambda x: x >= low) | ints


def _values(field: Field) -> st.SearchStrategy:
    _, kind, default, of, choices, minimum = field
    if kind is dict:
        value = rows(of)
    elif kind is list:
        value = st.lists(_scalars(of, choices, None), max_size=3)
    else:
        value = _scalars(kind, choices, minimum)
    return value | st.none() if default is None else value


@functools.cache  # records asks for one on every draw
def rows(table: tuple[Field, ...], **overrides: st.SearchStrategy) -> st.SearchStrategy[dict]:
    """Valid JSON rows of ``table``, as the decoder gives them: every
    required field and some of the optional ones.  A keyword names a field
    and gives the strategy of its value instead (``ABSENT`` leaves it out)."""
    unknown = set(overrides) - {field.name for field in table}
    if unknown:
        raise TypeError(f"no field {sorted(unknown)} in the table")
    values = {field.name: overrides[field.name] if field.name in overrides else _values(field)
              for field in table}
    return st.fixed_dictionaries(
        {field.name: values[field.name] for field in table if field.default is REQUIRED},
        optional={field.name: values[field.name] for field in table
                  if field.default is not REQUIRED})


# Each class's cross-field rules, met by changing a drawn row.

def _operation(draw, row: dict) -> None:
    # drawn as a pair: Initiate and Retain never pop, Return and Replace do
    row["pops"] = 0 if row["kind"] in ("Initiate", "Retain") else draw(st.integers(1, 10**15))


def _token(draw, row: dict) -> None:
    if row.get("start_s") is not None and row.get("end_s") is not None:
        span = draw(st.integers(0, 10**6) | st.floats(0, 1e6))
        row["end_s"] = min(row["start_s"] + span, MAX_MAGNITUDE)


def _coded(draw, row: dict) -> None:
    _operation(draw, row["operation"])
    row.pop("segments_affected", None)  # derived
    row.pop("marked", None)  # derived


def _pause(draw, row: dict) -> None:
    row.pop("reported_duration_s", None)  # derived


def _worded(form: str) -> str:
    return form if normalize(form) else form + "a"


def _entry(draw, row: dict) -> None:
    # some operation is a candidate, and every form keeps a word once normalized
    row["candidate_ops"] = row["candidate_ops"] or [draw(st.sampled_from(OP_KINDS))]
    row["surface"] = _worded(row["surface"])
    row["variants"] = [_worded(form) for form in row.get("variants", ())]


def _trace_step(index: int, kind: str, pops: int) -> TraceStep:
    return TraceStep(operation(kind, pops), index)


_RULES: dict[Callable, Callable] = {AnnotatedToken: _token, CodedRecord: _coded,
                                    PauseRecord: _pause, CueEntry: _entry,
                                    _trace_step: _operation}


@st.composite
def arguments(draw, table, cls, **overrides: st.SearchStrategy) -> dict[str, Any]:
    """Keyword arguments of ``cls`` for every field of ``table``, from a row
    of ``rows(table, **overrides)`` changed to meet ``cls``'s rules across
    fields: a field the row leaves out has its default, a list is given as a
    list, a tuple or a set, and a nested object is converted as the reader
    converts it."""
    row = draw(rows(table, **overrides))
    if cls in _RULES:
        _RULES[cls](draw, row)
    convert = getattr(cls, "_record", (None, None, {}))[2]
    args = {}
    for field in table:
        value = row.get(field.name, field.default)
        if field.name in convert:
            value = convert[field.name]({inner.name: value.get(inner.name, inner.default)
                                         for inner in field.of}, None, 0)
        elif field.kind is list and value is not None:
            value = draw(st.sampled_from([value, tuple(value), set(value)]))
        args[field.name] = value
    return args


@st.composite
def records(draw, table, cls, **overrides: st.SearchStrategy):
    """Records ``cls`` makes from ``arguments(table, cls, **overrides)``; a
    draw that breaks a rule those do not meet is rejected."""
    try:
        return cls(**draw(arguments(table, cls, **overrides)))
    except ValueError:
        reject()


@st.composite
def files(draw, name: str):
    """The records of one file of record type ``name`` that its reader takes
    back as they are: at least one, a transcript's timed tokens starting in
    order and no two lexicon forms normalized alike."""
    kind = TYPES[name]
    found = draw(st.lists(records(kind.table, kind.make), min_size=1, max_size=4))
    if name == "token":  # the timed tokens sorted among their own places
        timed = iter(sorted((token for token in found if token.start_s is not None),
                            key=attrgetter("start_s")))
        found = [next(timed) if token.start_s is not None else token for token in found]
    if name == "entry":
        try:
            Lexicon(found)
        except DuplicateSurface:
            assume(False)
    return found


#: Per kind, values of other types that a field of that kind rejects; a bool
#: is never a number.
WRONG_TYPES = {str: (5,), int: (1.5, True), float: ("x", False), bool: (1, "yes"),
               list: ("x",), dict: ([],)}
#: Per number kind, values beyond the magnitude bound.
BEYOND = {float: (math.nan, math.inf, 1e16), int: (10**16,)}
#: The kinds whose values a record's constructor checks the type of.
SCALARS = (str, int, float, bool)


def example(table) -> dict:
    """The smallest valid row of ``table``: its required fields alone, each
    the first of its choices, its minimum, or a plain value of its kind."""
    row = {}
    for name, kind, default, of, choices, minimum in table:
        if default is not REQUIRED:
            continue
        if kind is dict:
            row[name] = example(of)
        elif kind is list:
            row[name] = [] if choices is None else [choices[0]]
        elif choices is not None:
            row[name] = choices[0]
        else:
            row[name] = {str: "x", bool: False, int: math.ceil(minimum or 0),
                         float: float(minimum or 0)}[kind]
    return row


class BadRow(NamedTuple):
    """A row that breaks field ``name`` (dotted in a nested table) with
    ``value`` and ``fault``; a reader's ``message`` after ``path:line: ``,
    and whether a record's constructor given ``value`` says the same."""

    name: str
    field: Field
    fault: str
    value: Any
    row: dict
    message: str
    built: bool


def bad_rows(table) -> list[BadRow]:
    """Rows that each break one field of ``example(table)``: missing, of a
    wrong type (a bool for a number among them), beyond the magnitude bound,
    with a wrong list element, outside the choices, below the minimum, or so
    in a nested object."""
    return list(_faults(tuple(table), example(table)))


def _faults(table, base: dict):
    for field in table:
        name, kind, default, of, choices, minimum = field
        if default is REQUIRED:
            yield BadRow(name, field, "missing", None,
                         {key: value for key, value in base.items() if key != name},
                         f"missing field {name!r}", False)
        # (fault, value, what is wrong with it, whether the constructor checks it)
        faults = [("type", value, f"has wrong type (got {type(value).__name__})",
                   kind in SCALARS) for value in WRONG_TYPES[kind]]
        faults += [("range", value, f"must be finite and at most 1e+15 in magnitude (got "
                    f"{value!r})", True) for value in BEYOND.get(kind, ())]
        if kind is list:
            element = WRONG_TYPES[of][0]
            faults.append(("element", [element], f"holds an element of wrong type (got "
                           f"{type(element).__name__})", False))
        if choices is not None:
            faults.append(("choice", ["bogus"] if kind is list else "bogus",
                           f"has bad value 'bogus' (expected one of {', '.join(choices)})", True))
        if minimum is not None:
            value = minimum - 1 if kind is int else minimum - 0.5
            faults.append(("minimum", value, f"must be at least {minimum:g} (got {value!r})", True))
        for fault, value, wrong, built in faults:
            yield BadRow(name, field, fault, value, {**base, name: value},
                         f"field {name!r} {wrong}", built)
        if kind is dict:
            for inner in _faults(tuple(of), base.get(name) or example(of)):
                yield inner._replace(name=f"{name}.{inner.name}", row={**base, name: inner.row},
                                     built=False)


class RecordType(NamedTuple):
    """A table, its record maker (given a row's fields by keyword), reader,
    writer and a file of its records that ships with the code."""

    table: tuple[Field, ...]
    make: Callable | None
    read: Callable | None
    write: Callable | None
    source: Path | None


TYPES = {
    "token": RecordType(TOKEN_FIELDS, AnnotatedToken, read_transcript,
                        lambda target, tokens: write_jsonl(target, lines(TOKEN_FIELDS, tokens)),
                        FIXTURES / "directions_intro.jsonl"),
    "coded": RecordType(CODED_FIELDS, CodedRecord, read_coded, write_coded,
                        DATA_DIR / RECORDS_FILE),
    "pause": RecordType(PAUSE_FIELDS, PauseRecord, read_pauses, write_pauses,
                        DATA_DIR / PAUSES_FILE),
    "entry": RecordType(ENTRY_FIELDS, CueEntry, lambda path: list(load_lexicon(path).entries),
                        lambda target, entries: write_jsonl(target, lines(ENTRY_FIELDS, entries)),
                        DATA_DIR / "lexicon.jsonl"),
    "trace": RecordType(TRACE_FIELDS, _trace_step, read_trace, write_trace, None),
    "function": RecordType(FUNCTION_FIELDS, None, None, None, None),
}
#: The types whose records are of a class that ``jsonl.record_class`` makes.
RECORD_TYPES = {name: kind for name, kind in TYPES.items() if hasattr(kind.make, "_record")}

#: Every choice of every table, and two values no table allows.
LABELS = sorted({choice for kind in TYPES.values()
                 for table in (kind.table, *(f.of for f in kind.table if f.kind is dict))
                 for field in table for choice in field.choices or ()} | {"bogus", ""})
#: Any JSON value, the labels and the numbers beyond the bound among them.
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | EDGES | OVERSIZED
    | st.text(max_size=4) | st.sampled_from(LABELS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "pops", "x"]), inner, max_size=2),
    max_leaves=4)
