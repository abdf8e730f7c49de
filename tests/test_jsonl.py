"""Rows are checked and written from the Field tables: contracts and round trips.

The compiled row checker agrees with the interpreted one in ``jsonl_oracle``
on every table: the same fields in the same order, or the same error
message, on mutated rows.  The compiled line maker writes, on generated
records, the line ``json.dumps`` writes of the interpreted row.
Generated valid records of every type read back equal after writing; the
bundled coded records and pauses read and write back to the same bytes.
The bundled lexicon lists some ``candidate_ops`` in an order a set does not
keep, so its first rewrite differs from it in that order alone and is
byte-stable from then on.  Each record class is made from its table: its
fields are the table's, and its constructor rejects a wrong type, a number
out of range and a bad value with the reader's message.  A record its
constructor builds is the record read back from its row.
"""

import inspect
import io
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jsonl_oracle
from conftest import read_trace, state, value_classes
from pausecue.focus import (OP_KINDS, TRACE_FIELDS, FocusingOperation, OpKind, TraceStep,
                            segments_affected, write_trace)
from pausecue.fragments import (ACCENTS, BOUNDARIES, CODED_FIELDS, CONSTITUENTS,
                                FUNCTION_FIELDS, FUNCTION_LABELS, PHONATIONS, PITCH_RANGES,
                                TOKEN_FIELDS, TOKEN_FLAGS, TURN_POSITIONS, AnnotatedToken,
                                CodedRecord, read_coded, read_transcript, write_coded)
from pausecue.jsonl import (MAX_MAGNITUDE, REQUIRED, Field, Record, SchemaError, lines,
                            record_class, validate, write_jsonl)
from pausecue.lexicon import (ENTRY_FIELDS, ORDINAL_RANKS, TOKEN_CLASSES, CueEntry,
                              DuplicateSurface, Lexicon, load_lexicon)
from pausecue.pauses import (POSITIONS, PAUSE_FIELDS, PauseRecord, read_pauses, round_tenth,
                             write_pauses)

DATA = Path(__file__).parent.parent / "src" / "pausecue" / "data"
FIXTURES = Path(__file__).parent / "fixtures"

FUZZ = settings(settings.get_profile("fuzz"), max_examples=60)

NUMBERS = st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE)
DURATIONS = st.floats(0, 1e6)
INDICES = st.integers(-10**15, 10**15)
WORDS = st.from_regex(r"[a-z][a-z'-]{0,6}( [a-z]{1,6})?", fullmatch=True)
#: Any code point, lone surrogates (category Cs) included, as a JSON reader
#: may give them, and the characters ``json`` escapes.
CHARACTERS = st.characters(exclude_categories=()) | st.sampled_from('"\\\n\x00\x1f\x7f\u2028')
#: Floats whose shortest repr takes each form: -0.0, subnormal, exponent and bound.
FLOAT_EDGES = st.sampled_from([-0.0, 5e-324, 1e-7, MAX_MAGNITUDE, -MAX_MAGNITUDE])


def _operation(kind: OpKind, pops: int) -> FocusingOperation:
    return FocusingOperation(kind, 0 if kind in (OpKind.INITIATE, OpKind.RETAIN) else pops)


OPERATIONS = st.builds(_operation, st.sampled_from(OpKind), st.integers(1, 50))


@st.composite
def transcripts(draw):
    tokens, start = [], draw(DURATIONS)
    for _ in range(draw(st.integers(1, 6))):
        timed = draw(st.booleans())
        start += draw(DURATIONS) if timed else 0.0
        tokens.append(AnnotatedToken(
            surface=draw(st.text(CHARACTERS, max_size=6)), speaker=draw(st.text(CHARACTERS, max_size=3)),
            accent=draw(st.sampled_from(ACCENTS)), boundary=draw(st.sampled_from(BOUNDARIES)),
            phonation=draw(st.sampled_from(PHONATIONS)),
            pitch_range=draw(st.sampled_from(PITCH_RANGES)),
            pause_before_s=draw(DURATIONS),
            flags=draw(st.frozensets(st.sampled_from(TOKEN_FLAGS))),
            topic=draw(st.text(CHARACTERS, max_size=3)),
            start_s=start if timed else None,
            end_s=start + draw(DURATIONS) if timed and draw(st.booleans()) else None))
    return tokens


@st.composite
def coded_records(draw):
    op = draw(OPERATIONS)
    constituent = draw(st.sampled_from(CONSTITUENTS))
    return CodedRecord(
        fragment_index=draw(INDICES), pause_before_s=draw(st.none() | DURATIONS),
        initial_constituent=constituent, operation=op,
        embedding_depth=draw(st.integers(1, 10**15)), segments_affected=segments_affected(op),
        prior_function=draw(st.sampled_from(FUNCTION_LABELS)),
        subsequent_function=draw(st.sampled_from(FUNCTION_LABELS)),
        turn_position=draw(st.sampled_from(TURN_POSITIONS)), marked=constituent != "unmarked",
        initial_token=draw(st.text(CHARACTERS, max_size=6)))


PAUSES = st.builds(lambda raw, **kw: PauseRecord(raw_duration_s=raw,
                                                 reported_duration_s=round_tenth(raw), **kw),
                   DURATIONS, start_s=NUMBERS, position=st.sampled_from(POSITIONS),
                   suspect=st.booleans())

ENTRIES = st.builds(
    CueEntry, surface=WORDS, gloss=st.text(CHARACTERS, max_size=6),
    candidate_ops=st.frozensets(st.sampled_from(OpKind), min_size=1),
    ordinal_rank=st.none() | st.sampled_from(ORDINAL_RANKS),
    token_class=st.sampled_from(TOKEN_CLASSES), display=st.text(CHARACTERS, max_size=6),
    connective=st.booleans(), corpus_derived=st.booleans(),
    variants=st.lists(WORDS, max_size=2).map(tuple))


def test_rows_follow_the_table():
    class Record:
        kind, count, tags, words, note, nested = "a", 3, frozenset("gfedcba"), (), "", None

    inner = (Field("kind", str), Field("count", int))
    table = (Field("count", int), Field("kind", str), Field("tags", list, (), of=str),
             Field("words", list, (), of=str), Field("note", str, None))
    record = Record()
    assert list(lines(table, [record])) == [
        '{"schema_version": 1, "count": 3, "kind": "a", '
        '"tags": ["a", "b", "c", "d", "e", "f", "g"], "words": [], "note": ""}\n']
    record.note, record.nested = None, Record()
    nested = (*table, Field("nested", dict, of=inner))
    assert list(lines(nested, [record])) == [
        '{"schema_version": 1, "count": 3, "kind": "a", '
        '"tags": ["a", "b", "c", "d", "e", "f", "g"], "words": [], "note": null, '
        '"nested": {"kind": "a", "count": 3}}\n']


@FUZZ
@given(tokens=transcripts())
def test_transcript_read_write_round_trip(tmp_path_factory, tokens):
    path = tmp_path_factory.mktemp("tokens") / "t.jsonl"
    write_jsonl(path, lines(TOKEN_FIELDS, tokens))
    assert read_transcript(path) == tokens


@FUZZ
@given(records=st.lists(coded_records(), max_size=5))
def test_coded_read_write_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("coded") / "c.jsonl"
    write_coded(path, records)
    assert read_coded(path) == records


@FUZZ
@given(records=st.lists(PAUSES, max_size=5))
def test_pauses_read_write_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("pauses") / "p.jsonl"
    write_pauses(path, records)
    assert read_pauses(path) == records


@FUZZ
@given(trace=st.lists(st.tuples(OPERATIONS, INDICES), max_size=6))
def test_trace_read_write_round_trip(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("trace") / "t.jsonl"
    write_trace(path, trace)
    assert read_trace(path) == trace


@FUZZ
@given(entries=st.lists(ENTRIES, min_size=1, max_size=5))
def test_lexicon_read_write_round_trip(tmp_path_factory, entries):
    try:
        lexicon = Lexicon(entries)
    except DuplicateSurface:
        assume(False)
    path = tmp_path_factory.mktemp("lexicon") / "l.jsonl"
    write_jsonl(path, lines(ENTRY_FIELDS, lexicon.entries))
    assert load_lexicon(path).entries == lexicon.entries


def _written(write, records) -> bytes:
    sink = io.StringIO()
    write(sink, records)
    return sink.getvalue().encode()


def test_replication_builders_get_the_derived_columns(corpus_records, corpus_pauses):
    for record in corpus_records:
        assert record.segments_affected == segments_affected(record.operation)
        assert record.marked == (record.initial_constituent != "unmarked")
    for pause in corpus_pauses:
        assert pause.reported_duration_s == round_tenth(pause.raw_duration_s)


def test_bundled_corpus_writes_back_byte_for_byte():
    for name, read, write in (("replication_records.jsonl", read_coded, write_coded),
                              ("replication_pauses.jsonl", read_pauses, write_pauses)):
        assert _written(write, read(DATA / name)) == (DATA / name).read_bytes(), name


def test_written_lines_keep_their_bytes():
    assert _written(write_trace, [(FocusingOperation(OpKind.REPLACE, 1), 2)]) == \
        b'{"schema_version": 1, "index": 2, "kind": "Replace", "pops": 1}\n'


# ---------------------------------------------------------------------------
# Differential tests against the interpreted checker and row maker
# ---------------------------------------------------------------------------

TABLES = {"token": TOKEN_FIELDS, "coded": CODED_FIELDS, "pause": PAUSE_FIELDS,
          "trace": TRACE_FIELDS, "entry": ENTRY_FIELDS, "function": FUNCTION_FIELDS}
LABELS = sorted({*OP_KINDS, *FUNCTION_LABELS, *TOKEN_FLAGS, *ACCENTS, "bogus", ""})
#: Ints beyond float range, up to the decoder's 4,300-digit limit.
OVERSIZED = st.sampled_from([2**1024, -(10**400), int("9" * 4300)])
#: Numbers at and beyond the magnitude bound.
EDGES = st.sampled_from([10**15, 10**15 + 1, -10**15, -10**15 - 1, 1e15, -1.0000000000000002e15,
                         2**53 + 1, 2**1023, float("nan"), float("inf"), -float("inf")])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | EDGES | OVERSIZED
    | st.text(max_size=4) | st.sampled_from(LABELS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "pops", "x"]), inner, max_size=2),
    max_leaves=4)
#: Numbers just below, at and just above the tables' minimums: 0 for the
#: float fields, 1 for the int field.
BOUNDS = (-5e-324, -0.0, 0, 0.0, 5e-324, 1, 2)
MUTATIONS = st.one_of(OVERSIZED, EDGES, st.sampled_from(BOUNDS), st.sampled_from(LABELS),
                      st.lists(st.sampled_from(LABELS) | EDGES, max_size=3), JSON_VALUES)


def _valid_value(field: Field):
    """Values ``field`` accepts, as the JSON decoder gives them."""
    _, kind, default, of, choices, minimum = field
    words = (st.sampled_from(choices) if choices else
             st.text(CHARACTERS, max_size=4) | st.sampled_from(LABELS))
    ints, floats = INDICES, NUMBERS | FLOAT_EDGES
    if minimum is not None:
        ints = st.integers(math.ceil(minimum), 10**15)
        floats = st.floats(minimum, MAX_MAGNITUDE) | FLOAT_EDGES.filter(lambda x: x >= minimum)
    if kind is dict:
        value = _valid_row(of)
    elif kind is list:
        value = st.lists(words, max_size=3)
    else:
        value = {str: words, bool: st.booleans(), int: ints, float: floats | ints}[kind]
    return value | st.none() if default is None else value


def _valid_row(table):
    return st.fixed_dictionaries(
        {field.name: _valid_value(field) for field in table if field.default is REQUIRED},
        optional={field.name: _valid_value(field) for field in table
                  if field.default is not REQUIRED})


def _outcome(validate_rows, table, obj):
    """The checked fields as JSON text, keys in order, or the error message."""
    try:
        [(_, fields)] = validate_rows([(7, obj)], table, "in.jsonl")
    except SchemaError as exc:
        return str(exc)
    return json.dumps(fields)


@settings(settings.get_profile("fuzz"))
@pytest.mark.parametrize("table", TABLES.values(), ids=TABLES)
@given(data=st.data())
def test_checker_agrees_with_the_interpreted_one(table, data):
    obj = data.draw(_valid_row(table))
    nested = [name for name, value in obj.items() if isinstance(value, dict)]
    owner = obj[data.draw(st.sampled_from(nested))] if nested and data.draw(st.booleans()) else obj
    lists = sorted(key for key, value in owner.items() if isinstance(value, list))
    how = data.draw(st.sampled_from(["delete", "set", "set", "append", "bound"]))
    bounded = [field.name for field in table if field.minimum is not None]
    if how == "bound" and bounded:  # every number near one field's minimum
        key = data.draw(st.sampled_from(bounded))
        for value in BOUNDS:
            row = {**obj, key: value}
            assert _outcome(validate, table, row) == _outcome(jsonl_oracle.validate, table, row)
        return
    if how == "append" and lists:  # a bad element after good ones
        key = data.draw(st.sampled_from(lists))
        owner[key].append(data.draw(st.sampled_from(LABELS) | MUTATIONS))
    else:
        key = data.draw(st.sampled_from(sorted({*owner, *(f.name for f in table), "x"})))
        if how == "delete":
            owner.pop(key, None)
        else:
            owner[key] = data.draw(MUTATIONS)
    try:
        expected = _outcome(jsonl_oracle.validate, table, obj)
    except OverflowError:  # the interpreted checker's crash on an int beyond float range
        expected = (f"in.jsonl:7: field {key!r} must be finite and at most 1e+15 in magnitude "
                    f"(got {owner[key]!r})")
    assert _outcome(validate, table, obj) == _shortened(expected)


def _shortened(message: str) -> str:
    """``message`` with a quoted int of more than 20 digits in the checker's short form."""
    return re.sub(r"\(got (-?)(\d{21,})\)$",
                  lambda m: f"(got {len(m[2])}-digit integer {m[1]}{m[2][:7]}...)", message)


def _as_record(fields: dict, data):
    """A record holding checked ``fields``: lists maybe as sets, nested tables as records."""
    values = {}
    for name, value in fields.items():
        if isinstance(value, dict):
            value = _as_record(value, data)
        elif isinstance(value, list):
            value = data.draw(st.sampled_from([value, tuple(value), frozenset(value)]))
        values[name] = value
    return SimpleNamespace(**values)


RECORDS = {"token": transcripts(), "coded": st.lists(coded_records(), max_size=3),
           "pause": st.lists(PAUSES, max_size=3),
           "trace": st.lists(st.tuples(OPERATIONS, INDICES).map(TraceStep._make), max_size=3),
           "entry": st.lists(ENTRIES, max_size=3), "function": st.just([])}


@FUZZ
@pytest.mark.parametrize("name", TABLES)
@given(data=st.data())
def test_row_maker_agrees_with_the_interpreted_one(name, data):
    """Each written line is ``json.dumps`` of the interpreted row: strings
    with any code point, floats of every repr form, lists given as lists,
    tuples and sets."""
    table = TABLES[name]
    records = data.draw(RECORDS[name])
    for _ in range(data.draw(st.integers(0, 2))):
        [(_, fields)] = validate([(1, data.draw(_valid_row(table)))], table, "in.jsonl")
        records.append(_as_record(fields, data))
    assert list(lines(table, records)) == [json.dumps(row) + "\n"
                                           for row in jsonl_oracle.rows(table, records)]


# ---------------------------------------------------------------------------
# Domain rules: the constructor and the reader give one message
# ---------------------------------------------------------------------------

#: Per table that builds a record class: the class, a valid record's fields
#: and the reader.
BUILT = {
    "token": (TOKEN_FIELDS, AnnotatedToken, dict(surface="so"), read_transcript),
    "coded": (CODED_FIELDS, CodedRecord,
              dict(fragment_index=0, pause_before_s=0.2, initial_constituent="unmarked",
                   operation=FocusingOperation(OpKind.INITIATE, 0), embedding_depth=1,
                   segments_affected=1, prior_function="topical",
                   subsequent_function="topical", turn_position="continuing", marked=False),
              read_coded),
    "pause": (PAUSE_FIELDS, PauseRecord,
              dict(start_s=0.5, raw_duration_s=0.2, reported_duration_s=0.2), read_pauses),
    "entry": (ENTRY_FIELDS, CueEntry,
              dict(surface="so", candidate_ops=frozenset({OpKind.RETURN}), gloss=""),
              load_lexicon),
}
#: Per table in BUILT, a bundled file of its records.
SOURCES = {"token": FIXTURES / "directions_intro.jsonl",
           "coded": DATA / "replication_records.jsonl",
           "pause": DATA / "replication_pauses.jsonl", "entry": DATA / "lexicon.jsonl"}
DOMAIN_FIELDS = [pytest.param(name, field, id=f"{name}-{field.name}")
                 for name, (table, *_) in BUILT.items() for field in table
                 if field.choices is not None or field.minimum is not None]


def test_every_record_type_is_built():
    # the record laws below cover every class that a table declares
    assert {make for _, make, _, _ in BUILT.values()} == {
        cls for cls in value_classes().values() if "_record" in vars(cls)}


def test_every_domain_rule_is_covered():
    named = {(p.values[0], p.values[1].name) for p in DOMAIN_FIELDS}
    assert {name for name, _ in named} == set(BUILT)
    assert sum(1 for p in DOMAIN_FIELDS if p.values[1].minimum is not None) == 5


@pytest.mark.parametrize("name, field", DOMAIN_FIELDS)
def test_constructor_and_reader_reject_a_bad_value_alike(tmp_path, name, field):
    table, make, fields, read = BUILT[name]
    if field.choices is not None:
        bad = ["bogus"] if field.kind is list else "bogus"
        message = (f"field {field.name!r} has bad value 'bogus' "
                   f"(expected one of {', '.join(field.choices)})")
    else:
        bad = field.minimum - 1 if field.kind is int else -0.5
        message = f"field {field.name!r} must be at least {field.minimum:g} (got {bad!r})"
    with pytest.raises(ValueError) as raised:
        make(**{**fields, field.name: bad})
    assert str(raised.value) == message
    [row] = jsonl_oracle.rows(table, [make(**fields)])
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(row) + "\n" + json.dumps({**row, field.name: bad}) + "\n")
    with pytest.raises(SchemaError) as raised:
        read(path)
    assert str(raised.value) == f"{path}:2: {message}"
    if field.default is None:  # null skips the rule
        make(**{**fields, field.name: None})


NUMBER_FIELDS = [pytest.param(name, field, bad, id=f"{name}-{field.name}-{bad!r}")
                 for name, (table, *_) in BUILT.items() for field in table
                 if field.kind in (int, float)
                 for bad in ((math.nan, math.inf, 1e16) if field.kind is float else (10**16,))]


def test_every_number_field_is_covered():
    assert {p.values[0] for p in NUMBER_FIELDS} == {"token", "coded", "pause"}
    assert len({(p.values[0], p.values[1].name) for p in NUMBER_FIELDS}) == 10


@pytest.mark.parametrize("name, field, bad", NUMBER_FIELDS)
def test_constructor_and_reader_reject_a_number_out_of_range_alike(tmp_path, name, field, bad):
    table, make, fields, read = BUILT[name]
    message = (f"field {field.name!r} must be finite and at most 1e+15 in magnitude "
               f"(got {bad!r})")
    with pytest.raises(ValueError) as raised:
        make(**{**fields, field.name: bad})
    assert str(raised.value) == message
    [row] = jsonl_oracle.rows(table, [make(**fields)])
    path = tmp_path / "in.jsonl"
    # json writes the floats as NaN, Infinity and 1e+16
    path.write_text(json.dumps(row) + "\n" + json.dumps({**row, field.name: bad}) + "\n")
    with pytest.raises(SchemaError) as raised:
        read(path)
    assert str(raised.value) == f"{path}:2: {message}"


#: Per scalar kind, values of other types that a field of that kind rejects;
#: a bool never counts as a number.
WRONG_TYPES = {str: (5,), int: (1.5, True), float: ("x", False), bool: (1, "yes")}
TYPE_FIELDS = [pytest.param(name, field, bad, id=f"{name}-{field.name}-{bad!r}")
               for name, (table, *_) in BUILT.items() for field in table
               if field.kind in WRONG_TYPES for bad in WRONG_TYPES[field.kind]]


def test_every_scalar_field_is_covered():
    assert {p.values[0] for p in TYPE_FIELDS} == set(BUILT)
    assert len({(p.values[0], p.values[1].name) for p in TYPE_FIELDS}) == 32


@pytest.mark.parametrize("name, field, bad", TYPE_FIELDS)
def test_constructor_and_reader_reject_a_wrong_type_alike(tmp_path, name, field, bad):
    table, make, fields, read = BUILT[name]
    message = f"field {field.name!r} has wrong type (got {type(bad).__name__})"
    with pytest.raises(ValueError) as raised:
        make(**{**fields, field.name: bad})
    assert str(raised.value) == message
    [row] = jsonl_oracle.rows(table, [make(**fields)])
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(row) + "\n" + json.dumps({**row, field.name: bad}) + "\n")
    with pytest.raises(SchemaError) as raised:
        read(path)
    assert str(raised.value) == f"{path}:2: {message}"


#: Per case: the table, the changes to a valid row for lines 1 and 2, and
#: the message for line 2.  The rules that span fields, each alone and each
#: behind a field rule, which is tested first.
CROSS_FIELD = [
    pytest.param("token", {}, {"start_s": 1.0, "end_s": 0.5},
                 "end_s 0.5 precedes start_s 1", id="token-end-before-start"),
    pytest.param("token", {"start_s": 1.0}, {"start_s": 0.5},
                 "start_s 0.5 precedes the previous token's 1", id="token-start-goes-back"),
    pytest.param("token", {}, {"start_s": 1.0, "end_s": 0.5, "accent": "bogus"},
                 "field 'accent' has bad value 'bogus' (expected one of Hstar, Lstar, "
                 "deaccented, unmarked)", id="token-end-before-start-and-bad-accent"),
    pytest.param("coded", {}, {"segments_affected": 2},
                 "segments_affected 2 inconsistent with Initiate(0)",
                 id="coded-segments-affected"),
    pytest.param("coded", {}, {"marked": True},
                 "marked true contradicts initial_constituent 'unmarked'", id="coded-marked"),
    pytest.param("coded", {}, {"operation": {"kind": "Retain", "pops": 1}},
                 "Retain must have pop_count 0, got 1", id="coded-malformed-operation"),
    pytest.param("coded", {}, {"operation": {"kind": "Retain", "pops": 1}, "embedding_depth": 0},
                 "field 'embedding_depth' must be at least 1 (got 0)",
                 id="coded-malformed-operation-and-bad-depth"),
    pytest.param("pause", {}, {"reported_duration_s": 0.3},
                 "reported_duration_s 0.3 is not raw_duration_s 0.2 rounded to a tenth (0.2)",
                 id="pause-reported-duration"),
    pytest.param("entry", {}, {"surface": "now", "candidate_ops": []},
                 "entry 'now' has empty candidate_ops", id="entry-empty-candidate-ops"),
]


@pytest.mark.parametrize("name, first, second, message", CROSS_FIELD)
def test_reader_rejects_a_cross_field_fault_at_its_line(tmp_path, name, first, second, message):
    table, make, fields, read = BUILT[name]
    [row] = jsonl_oracle.rows(table, [make(**fields)])
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps({**row, **first}) + "\n" + json.dumps({**row, **second}) + "\n")
    with pytest.raises(SchemaError) as raised:
        read(path)
    assert str(raised.value) == f"{path}:2: {message}"


def _rebuilt(record, table):
    """``record`` built again by its constructor from its own attributes."""
    return type(record)(**{field.name: getattr(record, field.name) for field in table})


def read_records(name):
    """The records a reader of table ``name`` in BUILT builds from its bundled file."""
    records = BUILT[name][3](SOURCES[name])
    return records.entries if isinstance(records, Lexicon) else records


@pytest.mark.parametrize("name", BUILT)
def test_reader_builds_what_the_constructor_builds(name):
    """Each record a reader builds in one step equals the constructor's
    record of its attributes and holds the same attributes."""
    table = BUILT[name][0]
    records = read_records(name)
    assert len(records) > 10
    for record in records:
        built = _rebuilt(record, table)
        assert record == built
        assert state(record) == state(built)
        assert list(state(record)) == [field.name for field in table]


def test_constructor_takes_an_int_for_a_float_as_the_reader_does():
    token = AnnotatedToken("so", pause_before_s=1, start_s=0, end_s=2)
    assert (token.pause_before_s, token.start_s, token.end_s) == (1, 0, 2)
    assert PauseRecord(0, 1).reported_duration_s == 1.0


#: Whole numbers or not, as a reader takes them for a float field.
TIMES = st.integers(0, 10**6) | st.floats(0, 1e6)


def _collections(elements, **sizes):
    """Lists of ``elements``, each given as a list, a tuple or a set, which a
    reader's list field takes alike."""
    return st.lists(elements, **sizes).flatmap(
        lambda items: st.sampled_from([items, tuple(items), set(items)]))


@st.composite
def _constructed_tokens(draw):
    start = draw(st.none() | TIMES)
    return AnnotatedToken(
        draw(st.text(CHARACTERS, max_size=6)), speaker=draw(st.text(CHARACTERS, max_size=3)),
        accent=draw(st.sampled_from(ACCENTS)), boundary=draw(st.sampled_from(BOUNDARIES)),
        phonation=draw(st.sampled_from(PHONATIONS)),
        pitch_range=draw(st.sampled_from(PITCH_RANGES)), pause_before_s=draw(TIMES),
        flags=draw(_collections(st.sampled_from(TOKEN_FLAGS), max_size=3)),
        topic=draw(st.text(CHARACTERS, max_size=3)), start_s=start,
        end_s=None if start is None or draw(st.booleans()) else start + draw(TIMES))


#: Per table in BUILT, records made by their constructors from values a
#: reader accepts, derived fields left out.
CONSTRUCTED = {
    "token": _constructed_tokens(),
    "coded": st.builds(
        CodedRecord, fragment_index=INDICES, pause_before_s=st.none() | TIMES,
        initial_constituent=st.sampled_from(CONSTITUENTS), initial_token=st.text(CHARACTERS, max_size=6),
        operation=OPERATIONS, embedding_depth=st.integers(1, 10**15),
        prior_function=st.sampled_from(FUNCTION_LABELS),
        subsequent_function=st.sampled_from(FUNCTION_LABELS),
        turn_position=st.sampled_from(TURN_POSITIONS)),
    "pause": st.builds(PauseRecord, TIMES, TIMES, position=st.sampled_from(POSITIONS),
                       suspect=st.booleans()),
    "entry": st.builds(
        CueEntry, WORDS, gloss=st.text(CHARACTERS, max_size=6),
        candidate_ops=_collections(st.sampled_from(OP_KINDS), min_size=1, max_size=4),
        token_class=st.sampled_from(TOKEN_CLASSES), display=st.text(CHARACTERS, max_size=6),
        ordinal_rank=st.none() | st.sampled_from(ORDINAL_RANKS), connective=st.booleans(),
        corpus_derived=st.booleans(), variants=_collections(WORDS, max_size=2)),
}


@FUZZ
@pytest.mark.parametrize("name", CONSTRUCTED)
@given(data=st.data())
def test_a_constructed_record_is_the_record_read_back(name, data):
    """A constructor stores what a reader stores: sets, tuples and floats."""
    table, make, _, _ = BUILT[name]
    record = data.draw(CONSTRUCTED[name])
    [line] = lines(table, [record])
    [(_, again)] = validate([(1, json.loads(line))], table, "in.jsonl", make)
    assert again == record
    if name == "entry":
        assert hash(again) == hash(record)
    assert list(lines(table, [again])) == [line]


RECORD_TABLES = [pytest.param(make, table, id=name)
                 for name, (table, make, *_) in BUILT.items()]


@pytest.mark.parametrize("make, table", RECORD_TABLES)
def test_record_defaults_equal_the_table_defaults(make, table):
    params = list(inspect.signature(make).parameters.values())
    assert [param.name for param in params] == [field.name for field in table]
    first_default = min(i for i, field in enumerate(table) if field.default is not REQUIRED)
    for i, (declared, field) in enumerate(zip(params, table)):
        default = REQUIRED if declared.default is inspect.Parameter.empty else declared.default
        assert default == field.default, field.name
        assert (declared.kind is inspect.Parameter.KEYWORD_ONLY) is (i >= first_default), \
            field.name


class _Super(Record):
    def __post_init__(self):
        super().__init__()


class _NamesItsClass(Record):
    @property
    def kind(self):
        return __class__.__name__


@pytest.mark.parametrize("cls, method", [(_Super, "__post_init__"), (_NamesItsClass, "kind")])
def test_a_record_method_that_names_its_class_is_refused(cls, method):
    # the rebuilt class is a new class, which the method's __class__ cell would not name
    with pytest.raises(TypeError,
                       match=rf"^{cls.__qualname__}\.{method} uses super\(\) or __class__, "):
        record_class([Field("a", int)])(cls)


def test_unflagged_tokens_share_one_empty_flag_set():
    # one empty frozenset per token would cost 216 bytes and a tracked object each
    read = read_transcript(SOURCES["token"])
    unflagged = [token.flags for token in read if not token.flags]
    unflagged += [AnnotatedToken("so").flags, AnnotatedToken("go", flags=[]).flags]
    assert len(unflagged) > 10
    assert all(flags is unflagged[0] for flags in unflagged)
    assert AnnotatedToken("so", flags=["coordination"]).flags == {"coordination"}
