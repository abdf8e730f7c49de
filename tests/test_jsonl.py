"""Rows are checked and written from the Field tables: contracts and round trips.

The inputs come from ``strategies``, which reads the same tables.  The
compiled row checker agrees with the interpreted one in ``jsonl_oracle``
on every table: the same fields in the same order, or the same error
message, on mutated rows.  The compiled line maker writes, on generated
records, the line ``json.dumps`` writes of the interpreted row.  A file of
records their constructor built reads back as the same records, for every
record type; the bundled coded records and pauses read and write back to
the same bytes.  The bundled lexicon lists some ``candidate_ops`` in an
order a set does not keep, so its first rewrite differs from it in that
order alone and is byte-stable from then on.  Each record class is made
from its table: its fields are the table's, and its constructor rejects
each bad row that a reader rejects for a field's type, magnitude, choices
or minimum with the reader's message.  A record its constructor builds is
the record read back from its row.
"""

import inspect
import io
import json
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jsonl_oracle
from conftest import state, value_classes
from pausecue.focus import FocusingOperation, OpKind, write_trace
from pausecue.fragments import (TOKEN_FIELDS, AnnotatedToken, read_coded, read_transcript,
                                write_coded)
from pausecue.jsonl import (REQUIRED, Field, Frozen, Record, SchemaError, lines, record_class,
                            validate, write_jsonl)
from pausecue.lexicon import DATA_DIR, ENTRY_FIELDS, Lexicon, load_lexicon
from pausecue.pauses import PauseRecord, read_pauses, write_pauses
from strategies import (EDGES, LABELS, OVERSIZED, RECORD_TYPES, SCALARS, TYPES, VALUES, bad_rows,
                        example, files, records, rows)

FUZZ = settings(settings.get_profile("fuzz"), max_examples=60)


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


def _written(write, records) -> bytes:
    sink = io.StringIO()
    write(sink, records)
    return sink.getvalue().encode()


def test_bundled_corpus_writes_back_byte_for_byte():
    for name, read, write in (("replication_records.jsonl", read_coded, write_coded),
                              ("replication_pauses.jsonl", read_pauses, write_pauses)):
        assert _written(write, read(DATA_DIR / name)) == (DATA_DIR / name).read_bytes(), name


def test_written_lines_keep_their_bytes():
    assert _written(write_trace, [(FocusingOperation(OpKind.REPLACE, 1), 2)]) == \
        b'{"schema_version": 1, "index": 2, "kind": "Replace", "pops": 1}\n'


@FUZZ
@pytest.mark.parametrize("name", [name for name, kind in TYPES.items() if kind.read])
@given(data=st.data())
def test_a_constructed_record_is_the_record_read_back(tmp_path_factory, name, data):
    """A file of records that their constructor built reads back as those
    records and writes back to its own bytes: a constructor stores what a
    reader stores, sets, tuples and floats."""
    kind = TYPES[name]
    made = data.draw(files(name))
    path = tmp_path_factory.mktemp(name) / "in.jsonl"
    kind.write(path, made)
    again = kind.read(path)
    assert again == made
    if isinstance(made[0], Frozen):
        assert list(map(hash, again)) == list(map(hash, made))
    assert _written(kind.write, again) == path.read_bytes()


# The same round trip through each type's public reader and writer by name.

@FUZZ
@given(tokens=files("token"))
def test_transcript_read_write_round_trip(tmp_path_factory, tokens):
    path = tmp_path_factory.mktemp("tokens") / "t.jsonl"
    write_jsonl(path, lines(TOKEN_FIELDS, tokens))
    assert read_transcript(path) == tokens


@FUZZ
@given(coded=files("coded"))
def test_coded_read_write_round_trip(tmp_path_factory, coded):
    path = tmp_path_factory.mktemp("coded") / "c.jsonl"
    write_coded(path, coded)
    assert read_coded(path) == coded


@FUZZ
@given(pauses=files("pause"))
def test_pauses_read_write_round_trip(tmp_path_factory, pauses):
    path = tmp_path_factory.mktemp("pauses") / "p.jsonl"
    write_pauses(path, pauses)
    assert read_pauses(path) == pauses


@FUZZ
@given(entries=files("entry"))
def test_lexicon_read_write_round_trip(tmp_path_factory, entries):
    lexicon = Lexicon(entries)
    path = tmp_path_factory.mktemp("lexicon") / "l.jsonl"
    write_jsonl(path, lines(ENTRY_FIELDS, lexicon.entries))
    assert load_lexicon(path).entries == lexicon.entries


# ---------------------------------------------------------------------------
# Differential tests against the interpreted checker and row maker
# ---------------------------------------------------------------------------

TABLES = {name: kind.table for name, kind in TYPES.items()}
#: Numbers just below, at and just above the tables' minimums: 0 for the
#: float fields, 1 for the int field.
BOUNDS = (-5e-324, -0.0, 0, 0.0, 5e-324, 1, 2)
MUTATIONS = st.one_of(OVERSIZED, EDGES, st.sampled_from(BOUNDS), st.sampled_from(LABELS),
                      st.lists(st.sampled_from(LABELS) | EDGES, max_size=3), VALUES)


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
    obj = data.draw(rows(table))
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


@FUZZ
@pytest.mark.parametrize("name", TABLES)
@given(data=st.data())
def test_row_maker_agrees_with_the_interpreted_one(name, data):
    """Each written line is ``json.dumps`` of the interpreted row: strings
    with any code point, floats of every repr form, lists given as lists,
    tuples and sets."""
    table, make = TYPES[name][:2]
    made = data.draw(st.lists(records(table, make), max_size=3)) if make else []
    for _ in range(data.draw(st.integers(0, 2))):
        [(_, fields)] = validate([(1, data.draw(rows(table)))], table, "in.jsonl")
        made.append(_as_record(fields, data))
    assert list(lines(table, made)) == [json.dumps(row) + "\n"
                                        for row in jsonl_oracle.rows(table, made)]


# ---------------------------------------------------------------------------
# Domain rules: the constructor and the reader give one message
# ---------------------------------------------------------------------------

def _case_id(name, case):
    if case.fault in ("choice", "minimum"):
        return f"{name}-{case.name}"
    return f"{name}-{case.name}-{'missing' if case.fault == 'missing' else repr(case.value)}"


#: Each bad row of each record type.
BAD_ROWS = [pytest.param(name, case, id=_case_id(name, case))
            for name, kind in RECORD_TYPES.items() for case in bad_rows(kind.table)]


def _top_level(fault):
    """(record type, field) of each bad row of ``fault`` in a field of the type's own table."""
    return [(p.values[0], p.values[1].field) for p in BAD_ROWS
            if p.values[1].fault == fault and "." not in p.values[1].name]


def test_every_record_type_is_built():
    # the record laws below cover every class that a table declares
    assert {kind.make for kind in RECORD_TYPES.values()} == {
        cls for cls in value_classes().values() if "_record" in vars(cls)}


def test_every_domain_rule_is_covered():
    assert {name for name, _ in _top_level("choice") + _top_level("minimum")} == set(RECORD_TYPES)
    assert len(_top_level("minimum")) == 5


def test_every_number_field_is_covered():
    ranged = set(_top_level("range"))
    assert {name for name, _ in ranged} == {"token", "coded", "pause"}
    assert len(ranged) == 10


def test_every_scalar_field_is_covered():
    typed = {(name, field) for name, field in _top_level("type") if field.kind in SCALARS}
    assert {name for name, _ in typed} == set(RECORD_TYPES)
    assert len(typed) == 32


def _rejection_test(faults):
    """The test that the constructor and the reader reject the bad rows of
    ``faults`` alike: the constructor, where it checks the fault, with the
    reader's message, and the reader at the row's line, after a good row."""
    @pytest.mark.parametrize("name, case", [p for p in BAD_ROWS if p.values[1].fault in faults])
    def test(tmp_path, name, case):
        table, make, read = TYPES[name][:3]
        base = example(table)
        if case.built:
            [(_, record)] = validate([(1, base)], table, "in.jsonl", make)
            fields = {field.name: getattr(record, field.name) for field in table}
            with pytest.raises(ValueError) as raised:
                make(**{**fields, case.name: case.value})
            assert str(raised.value) == case.message
            if case.field.default is None:  # null skips the rule
                make(**{**fields, case.name: None})
        path = tmp_path / "in.jsonl"
        path.write_text(json.dumps(base) + "\n" + json.dumps(case.row) + "\n")
        with pytest.raises(SchemaError) as raised:
            read(path)
        assert str(raised.value) == f"{path}:2: {case.message}"
    return test


# One test under the three names its cases have long had.  A bad value
# takes the missing fields too, and a wrong type the wrong list elements.
test_constructor_and_reader_reject_a_bad_value_alike = _rejection_test(
    {"choice", "minimum", "missing"})
test_constructor_and_reader_reject_a_number_out_of_range_alike = _rejection_test({"range"})
test_constructor_and_reader_reject_a_wrong_type_alike = _rejection_test({"type", "element"})


#: Per case: the record type, the changes to its ``example`` row for lines 1
#: and 2, and the message for line 2.  The rules that span fields, each alone and each
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
    pytest.param("coded", {}, {"initial_constituent": "unmarked", "marked": True},
                 "marked true contradicts initial_constituent 'unmarked'", id="coded-marked"),
    pytest.param("coded", {}, {"operation": {"kind": "Replace", "pops": 10**15}},
                 "segments_affected 1000000000000001 of Replace(1000000000000000) must be "
                 "finite and at most 1e+15 in magnitude", id="coded-derived-segments-affected"),
    pytest.param("coded", {}, {"operation": {"kind": "Retain", "pops": 1}},
                 "Retain must have pop_count 0, got 1", id="coded-malformed-operation"),
    pytest.param("coded", {}, {"operation": {"kind": "Retain", "pops": 1}, "embedding_depth": 0},
                 "field 'embedding_depth' must be at least 1 (got 0)",
                 id="coded-malformed-operation-and-bad-depth"),
    pytest.param("pause", {}, {"raw_duration_s": 0.2, "reported_duration_s": 0.3},
                 "reported_duration_s 0.3 is not raw_duration_s 0.2 rounded to a tenth (0.2)",
                 id="pause-reported-duration"),
    pytest.param("entry", {}, {"surface": "now", "candidate_ops": []},
                 "entry 'now' has empty candidate_ops", id="entry-empty-candidate-ops"),
]


@pytest.mark.parametrize("name, first, second, message", CROSS_FIELD)
def test_reader_rejects_a_cross_field_fault_at_its_line(tmp_path, name, first, second, message):
    table, _, read = TYPES[name][:3]
    row = example(table)
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps({**row, **first}) + "\n" + json.dumps({**row, **second}) + "\n")
    with pytest.raises(SchemaError) as raised:
        read(path)
    assert str(raised.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_reader_builds_what_the_constructor_builds(name):
    """Each record a reader builds in one step equals the constructor's
    record of its attributes and holds the same attributes."""
    table, _, read, _, source = TYPES[name]
    found = read(source)
    assert len(found) > 10
    for record in found:
        built = type(record)(**{field.name: getattr(record, field.name) for field in table})
        assert record == built
        assert state(record) == state(built)
        assert list(state(record)) == [field.name for field in table]


def test_constructor_takes_an_int_for_a_float_as_the_reader_does():
    token = AnnotatedToken("so", pause_before_s=1, start_s=0, end_s=2)
    assert (token.pause_before_s, token.start_s, token.end_s) == (1, 0, 2)
    assert PauseRecord(0, 1).reported_duration_s == 1.0


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_record_defaults_equal_the_table_defaults(name):
    table, make = TYPES[name][:2]
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
    read = read_transcript(TYPES["token"].source)
    unflagged = [token.flags for token in read if not token.flags]
    unflagged += [AnnotatedToken("so").flags, AnnotatedToken("go", flags=[]).flags]
    assert len(unflagged) > 10
    assert all(flags is unflagged[0] for flags in unflagged)
    assert AnnotatedToken("so", flags=["coordination"]).flags == {"coordination"}
