"""Rows are checked and written from the Field tables: contracts and round trips.

The compiled row checker and row maker agree with the interpreted ones in
``jsonl_oracle`` on every table: the same fields in the same order, or the
same error message, on mutated rows; the same rows on generated records.
Generated valid records of every type read back equal after writing; the
bundled coded records and pauses read and write back to the same bytes.
The bundled lexicon lists some ``candidate_ops`` in an order a set does not
keep, so its first rewrite differs from it in that order alone and is
byte-stable from then on.
"""

import io
import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jsonl_oracle
from pausecue.cli import FUNCTION_FIELDS
from pausecue.focus import (OP_KINDS, TRACE_FIELDS, FocusingOperation, OpKind, TraceStep,
                            read_trace, segments_affected, write_trace)
from pausecue.fragments import (ACCENTS, BOUNDARIES, CODED_FIELDS, CONSTITUENTS,
                                FUNCTION_LABELS, PHONATIONS, PITCH_RANGES, TOKEN_FIELDS,
                                TOKEN_FLAGS, TURN_POSITIONS, AnnotatedToken, CodedRecord,
                                read_coded, read_transcript, write_coded, write_transcript)
from pausecue.jsonl import MAX_MAGNITUDE, REQUIRED, Field, SchemaError, rows, validate
from pausecue.lexicon import (ENTRY_FIELDS, ORDINAL_RANKS, TOKEN_CLASSES, CueEntry,
                              DuplicateSurface, Lexicon, bundled_lexicon, load_lexicon,
                              write_lexicon)
from pausecue.pauses import POSITIONS, PAUSE_FIELDS, PauseRecord, read_pauses, write_pauses

DATA = Path(__file__).parent.parent / "src" / "pausecue" / "data"

FUZZ = settings(settings.get_profile("fuzz"), max_examples=60)

NUMBERS = st.floats(-MAX_MAGNITUDE, MAX_MAGNITUDE)
DURATIONS = st.floats(0, 1e6)
INDICES = st.integers(-10**15, 10**15)
WORDS = st.from_regex(r"[a-z][a-z'-]{0,6}( [a-z]{1,6})?", fullmatch=True)


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
            surface=draw(st.text(max_size=6)), speaker=draw(st.text(max_size=3)),
            accent=draw(st.sampled_from(ACCENTS)), boundary=draw(st.sampled_from(BOUNDARIES)),
            phonation=draw(st.sampled_from(PHONATIONS)),
            pitch_range=draw(st.sampled_from(PITCH_RANGES)),
            pause_before_s=draw(DURATIONS),
            flags=draw(st.frozensets(st.sampled_from(TOKEN_FLAGS))),
            topic=draw(st.text(max_size=3)),
            start_s=start if timed else None,
            end_s=start + draw(DURATIONS) if timed and draw(st.booleans()) else None))
    return tokens


@st.composite
def coded_records(draw):
    op = draw(OPERATIONS)
    return CodedRecord(
        fragment_index=draw(INDICES), pause_before_s=draw(st.none() | NUMBERS),
        initial_constituent=draw(st.sampled_from(CONSTITUENTS)), operation=op,
        embedding_depth=draw(st.integers(1, 10**15)), segments_affected=segments_affected(op),
        prior_function=draw(st.sampled_from(FUNCTION_LABELS)),
        subsequent_function=draw(st.sampled_from(FUNCTION_LABELS)),
        turn_position=draw(st.sampled_from(TURN_POSITIONS)), marked=draw(st.booleans()),
        initial_token=draw(st.text(max_size=6)))


PAUSES = st.builds(PauseRecord, start_s=NUMBERS, raw_duration_s=NUMBERS,
                   reported_duration_s=NUMBERS, position=st.sampled_from(POSITIONS),
                   suspect=st.booleans())

ENTRIES = st.builds(
    CueEntry, surface=WORDS, gloss=st.text(max_size=6),
    candidate_ops=st.frozensets(st.sampled_from(OpKind), min_size=1),
    ordinal_rank=st.none() | st.sampled_from(ORDINAL_RANKS),
    token_class=st.sampled_from(TOKEN_CLASSES), display=st.text(min_size=1, max_size=6),
    connective=st.booleans(), corpus_derived=st.booleans(),
    variants=st.lists(WORDS, max_size=2).map(tuple))


def test_rows_follow_the_table():
    class Record:
        kind, count, tags, words, note, nested = "a", 3, frozenset("gfedcba"), (), "", None

    inner = (Field("kind", str), Field("count", int))
    table = (Field("count", int), Field("kind", str), Field("tags", list, (), of=str),
             Field("words", list, (), of=str), Field("note", str, "", omit_default=True))
    record = Record()
    assert list(rows(table, [record])) == [
        {"schema_version": 1, "count": 3, "kind": "a", "tags": list("abcdefg"), "words": ()}]
    record.note, record.nested = "n", Record()
    nested = (*table, Field("nested", dict, of=inner))
    [row] = rows(nested, [record])
    assert list(row) == ["schema_version", "count", "kind", "tags", "words", "note", "nested"]
    assert row["nested"] == {"kind": "a", "count": 3}


@FUZZ
@given(tokens=transcripts())
def test_transcript_read_write_round_trip(tmp_path_factory, tokens):
    path = tmp_path_factory.mktemp("tokens") / "t.jsonl"
    write_transcript(path, tokens)
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
    write_lexicon(path, lexicon)
    assert load_lexicon(path).entries == lexicon.entries


def _written(write, records) -> bytes:
    sink = io.StringIO()
    write(sink, records)
    return sink.getvalue().encode()


def test_bundled_corpus_writes_back_byte_for_byte():
    for name, read, write in (("replication_records.jsonl", read_coded, write_coded),
                              ("replication_pauses.jsonl", read_pauses, write_pauses)):
        assert _written(write, read(DATA / name)) == (DATA / name).read_bytes(), name


def test_written_lines_keep_their_bytes():
    plain = AnnotatedToken("so")
    timed = AnnotatedToken("go", topic="route", flags=frozenset({"turn_initial", "coordination"}),
                           start_s=1.5, end_s=2.0)
    assert _written(write_transcript, [plain, timed]).decode().splitlines() == [
        '{"schema_version": 1, "surface": "so", "speaker": "A", "accent": "unmarked", '
        '"boundary": "none", "phonation": "normal", "pitch_range": "normal", '
        '"pause_before_s": 0.0, "flags": []}',
        '{"schema_version": 1, "surface": "go", "speaker": "A", "accent": "unmarked", '
        '"boundary": "none", "phonation": "normal", "pitch_range": "normal", '
        '"pause_before_s": 0.0, "flags": ["coordination", "turn_initial"], '
        '"topic": "route", "start_s": 1.5, "end_s": 2.0}']
    assert _written(write_trace, [(FocusingOperation(OpKind.REPLACE, 1), 2)]) == \
        b'{"schema_version": 1, "index": 2, "kind": "Replace", "pops": 1}\n'


def _ops_sorted(line: str) -> dict:
    entry = json.loads(line)
    entry["candidate_ops"].sort()
    return entry


def test_bundled_lexicon_is_stable_after_one_rewrite(tmp_path):
    path = tmp_path / "lexicon.jsonl"
    write_lexicon(path, bundled_lexicon())
    first = path.read_bytes()
    lines = first.decode().splitlines()
    bundled = (DATA / "lexicon.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == [_ops_sorted(line) for line in bundled]
    assert lines[9] == (
        '{"schema_version": 1, "surface": "to begin with", "gloss": "ordinal, first in a '
        'series", "candidate_ops": ["Initiate"], "token_class": "cue_phrase", '
        '"display": "Ordinal", "ordinal_rank": "first"}')
    write_lexicon(path, load_lexicon(path))
    assert path.read_bytes() == first


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
MUTATIONS = st.one_of(OVERSIZED, EDGES, st.sampled_from(LABELS),
                      st.lists(st.sampled_from(LABELS) | EDGES, max_size=3), JSON_VALUES)


def _valid_value(field: Field):
    """Values ``field`` accepts, as the JSON decoder gives them."""
    _, kind, default, of, choices, _ = field
    words = st.sampled_from(choices) if choices else st.text(max_size=4) | st.sampled_from(LABELS)
    if kind is dict:
        value = _valid_row(of)
    elif kind is list:
        value = st.lists(words, max_size=3)
    else:
        value = {str: words, bool: st.booleans(), int: INDICES, float: NUMBERS | INDICES}[kind]
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
    how = data.draw(st.sampled_from(["delete", "set", "set", "append"]))
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
    assert _outcome(validate, table, obj) == expected


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
    table = TABLES[name]
    records = data.draw(RECORDS[name])
    for _ in range(data.draw(st.integers(0, 2))):
        [(_, fields)] = validate([(1, data.draw(_valid_row(table)))], table, "in.jsonl")
        records.append(_as_record(fields, data))
    made, expected = list(rows(table, records)), list(jsonl_oracle.rows(table, records))
    assert made == expected
    assert [json.dumps(row) for row in made] == [json.dumps(row) for row in expected]
