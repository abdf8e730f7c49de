"""Fragment boundaries, class precedence, pause alignment and coding."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fragments_oracle
import pauses_oracle as oracle
from conftest import rebuilt
from pausecue import fragments
from pausecue.classifier import segment_discourse
from pausecue.focus import FocusingOperation, OpKind, segments_affected
from pausecue.fragments import (ACCENTS, BOUNDARIES, PHONATIONS, PITCH_RANGES, TOKEN_FIELDS,
                                TOKEN_FLAGS, AnnotatedToken, CodedRecord,
                                EmptyTranscript, LengthMismatch, MisalignedPause, code,
                                fragmentize, read_coded, read_transcript, write_coded,
                                write_coded_tsv, TSV_COLUMNS)
from pausecue.jsonl import SchemaError, rows, write_jsonl
from pausecue.lexicon import CueEntry, Lexicon, bundled_lexicon
from pausecue.pauses import PauseRecord, round_tenth

FIXTURES = Path(__file__).parent / "fixtures"
INITIATE = FocusingOperation(OpKind.INITIATE)
RETAIN = FocusingOperation(OpKind.RETAIN)


def tok(surface, **kw):
    return AnnotatedToken(surface=surface, **kw)


# ---------------------------------------------------------------------------
# fragmentize
# ---------------------------------------------------------------------------

def test_cue_with_pause_is_one_cue_fragment():
    tokens = [tok("So", pause_before_s=0.1), tok("you"), tok("go"), tok("left")]
    frags = fragmentize(tokens)
    assert len(frags) == 1
    assert frags[0].initial_token_class == "cue_phrase"
    assert frags[0].initial_cue.surface == "so"
    assert frags[0].pause_before_s == pytest.approx(0.1)


def test_plain_speech_is_one_unmarked_fragment():
    frags = fragmentize([tok("you"), tok("go"), tok("left")])
    assert len(frags) == 1
    assert frags[0].initial_token_class == "unmarked"
    assert frags[0].pause_before_s == 0.0


def test_acknowledgment_then_filled_pause():
    tokens = [tok("Ok", boundary="fall"), tok("um"), tok("so"), tok("go")]
    frags = fragmentize(tokens)
    assert [f.initial_token_class for f in frags] == ["acknowledgment", "filled_pause"]
    # "so" right after the filler is not utterance-initial, hence not a cue
    assert frags[1].surfaces == ("um", "so", "go")


def test_pause_alone_opens_unmarked_fragment():
    tokens = [tok("you"), tok("go"), tok("left", boundary="fall"),
              tok("then", pause_before_s=0.4), tok("turn")]
    frags = fragmentize(tokens)
    assert [f.initial_token_class for f in frags] == ["unmarked", "unfilled_pause"]
    assert frags[1].pause_before_s == pytest.approx(0.4)


def test_subthreshold_pause_does_not_split():
    tokens = [tok("you"), tok("go", pause_before_s=0.04), tok("left")]
    assert len(fragmentize(tokens)) == 1


def test_multiword_cue_spans_tokens():
    tokens = [tok("to"), tok("begin"), tok("with"), tok("walk")]
    frags = fragmentize(tokens)
    assert len(frags) == 1
    assert frags[0].initial_cue.ordinal_rank == "first"


def test_midspeech_acknowledgment_word_does_not_split():
    tokens = [tok("that"), tok("is"), tok("good"), tok("stuff")]
    assert len(fragmentize(tokens)) == 1


def test_boundary_after_phrase_final_lets_ack_fire():
    tokens = [tok("that"), tok("is"), tok("it", boundary="fall"),
              tok("good"), tok("stuff")]
    frags = fragmentize(tokens)
    assert [f.initial_token_class for f in frags] == ["unmarked", "acknowledgment"]


def test_coordinating_and_does_not_split():
    tokens = [tok("turn", boundary="fall"),
              tok("and", flags=frozenset({"coordination"})), tok("walk")]
    assert len(fragmentize(tokens)) == 1


def test_empty_transcript_rejected():
    with pytest.raises(EmptyTranscript):
        fragmentize([])


def test_lossless_partition():
    tokens = [tok("ok"), tok("um"), tok("so"), tok("you", pause_before_s=0.3),
              tok("go"), tok("left")]
    frags = fragmentize(tokens)
    flattened = [t.surface for f in frags for t in f.tokens]
    assert flattened == [t.surface for t in tokens]


# ---------------------------------------------------------------------------
# pause record alignment
# ---------------------------------------------------------------------------

def timed_tokens():
    return [tok("you", start_s=0.0, end_s=0.2),
            tok("go", start_s=0.2, end_s=0.4),
            tok("left", start_s=0.9, end_s=1.1, boundary="fall"),
            tok("then", start_s=1.15, end_s=1.3)]


def test_aligned_pause_overrides_token_annotation():
    pause = PauseRecord(start_s=0.4, raw_duration_s=0.5, reported_duration_s=0.5)
    frags = fragmentize(timed_tokens(), [pause])
    assert [f.initial_token_class for f in frags] == ["unmarked", "unfilled_pause"]
    assert frags[1].surfaces[0] == "left"
    assert frags[1].pause_before_s == pytest.approx(0.5)


def test_misaligned_pause_reports_nearest_token():
    pause = PauseRecord(start_s=0.95, raw_duration_s=0.05, reported_duration_s=0.1)
    with pytest.raises(MisalignedPause, match="left") as caught:
        fragmentize(timed_tokens(), [pause])
    assert (caught.value.blamed, caught.value.index) == ("pauses", 0)


def test_two_pauses_on_one_gap_rejected():
    pauses = [PauseRecord(start_s=0.4, raw_duration_s=0.5, reported_duration_s=0.5),
              PauseRecord(start_s=0.45, raw_duration_s=0.47, reported_duration_s=0.5)]
    with pytest.raises(MisalignedPause, match=r"0\.400s and 0\.450s .*'left'") as caught:
        fragmentize(timed_tokens(), pauses)
    assert (caught.value.blamed, caught.value.index) == ("pauses", 1)


def test_alignment_requires_timings():
    pause = PauseRecord(start_s=0.4, raw_duration_s=0.5, reported_duration_s=0.5)
    with pytest.raises(MisalignedPause, match="timing") as caught:
        fragmentize([tok("you", start_s=0.0), tok("go")], [pause])
    assert (caught.value.blamed, caught.value.index) == ("transcript", 1)


def test_alignment_requires_ordered_timings():
    tokens = [tok("you", start_s=0.5), tok("go", start_s=0.2)]
    pause = PauseRecord(start_s=0.0, raw_duration_s=0.2, reported_duration_s=0.2)
    with pytest.raises(MisalignedPause, match="token 1 starts at 0.200s, before") as caught:
        fragmentize(tokens, [pause])
    assert (caught.value.blamed, caught.value.index) == ("transcript", 1)


def outcome(fn, *args):
    try:
        return fn(*args)
    except MisalignedPause as exc:
        return type(exc), str(exc), exc.blamed, exc.index


#: Dyadic times, so midpoints between two starts are exactly equidistant.
GRID = st.integers(0, 64).map(lambda k: k / 32)
#: Starts below 0.1, where a difference can round to the same value for two starts.
TINY = st.sampled_from([0.0, 1e-20, 2e-20, 5e-17, 1e-3, 0.05, 0.0625])
OFFSETS = st.sampled_from([0.0, 1 / 64, -1 / 64, 3 / 64, -3 / 64, 1 / 16, -1 / 16, 0.05,
                           -0.05, 0.5])


@st.composite
def timed_alignment(draw):
    starts = sorted(draw(st.lists(GRID | TINY | st.floats(0.0, 3.0), min_size=1,
                                  max_size=12)))
    tokens = [tok(f"w{i}", start_s=t) for i, t in enumerate(starts)]
    ends = []
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(starts) - 1))
        j = min(i + 1, len(starts) - 1)
        ends.append(draw(st.sampled_from([starts[i] + draw(OFFSETS),
                                          (starts[i] + starts[j]) / 2])
                         | st.floats(-1.0, 4.0) | TINY))
    pauses = [PauseRecord(start_s=end - duration, raw_duration_s=duration,
                          reported_duration_s=round_tenth(duration))
              for end, duration in zip(ends, draw(st.lists(
                  st.sampled_from([0.125, 0.25, 1e-3, 0.1]), min_size=len(ends),
                  max_size=len(ends))))]
    return tokens, pauses


@given(timed_alignment())
@settings(settings.get_profile("fuzz"))
def test_alignment_equals_linear_scan(case):
    # equal starts, pauses equidistant from two starts, pauses on one gap
    tokens, pauses = case
    assert outcome(fragments._align_pauses, tokens, pauses) == \
        outcome(oracle.align_pauses, tokens, pauses)


def test_alignment_tie_takes_earliest_start():
    tokens = [tok("a", start_s=0.0), tok("b", start_s=1.0), tok("c", start_s=1.0),
              tok("d", start_s=1.0625)]
    for end, index in ((1.03125, 1), (1.0, 1), (0.0, 0), (1.0625, 3)):
        pause = PauseRecord(start_s=end - 0.5, raw_duration_s=0.5, reported_duration_s=0.5)
        assert list(fragments._align_pauses(tokens, [pause])) == [index]
    # 0.05 - 1e-20 and 0.05 - 2e-20 both round to 0.05: the earlier start wins
    tokens = [tok("a", start_s=1e-20), tok("b", start_s=2e-20)]
    pause = PauseRecord(start_s=0.0, raw_duration_s=0.05, reported_duration_s=0.1)
    assert list(fragments._align_pauses(tokens, [pause])) == [0]
    assert list(oracle.align_pauses(tokens, [pause])) == [0]


# ---------------------------------------------------------------------------
# one pass against the per-position oracle
# ---------------------------------------------------------------------------

#: A lexicon with a multi-word marker sharing its first word with a one-word
#: one, and one marker of each other class.
CUSTOM = Lexicon([
    CueEntry(surface="well", candidate_ops=frozenset({OpKind.REPLACE})),
    CueEntry(surface="by the way", candidate_ops=frozenset({OpKind.INITIATE})),
    CueEntry(surface="by", candidate_ops=frozenset({OpKind.RETAIN}), connective=True),
    CueEntry(surface="hm", candidate_ops=frozenset({OpKind.RETAIN}),
             token_class="acknowledgment"),
    CueEntry(surface="erm", candidate_ops=frozenset({OpKind.RETAIN}),
             token_class="filled_pause"),
])
#: Markers, the words of multi-word markers, punctuated and punctuation-only
#: forms, and plain words.
SURFACES = ["so", "So,", "and", "But", "ok", "Okay.", "uh-huh", "um", "er", "well", "now",
            "to", "begin", "with", "you", "know", "y'know", "i", "mean", "first", "of", "all",
            "in", "the", "place", "good", "by", "way", "hm", "erm", "...", ",", "--", "",
            "go", "left"]
#: Pauses on both sides of the 0.1 s threshold after rounding to a tenth.
PAUSE_S = st.sampled_from([0.0, 0.0, 0.04, 0.05, 0.1, 0.15, 0.3])


@st.composite
def transcripts_with_pauses(draw):
    """Tokens, timed one second apart or untimed, and pause records ending
    on some of their gaps when timed."""
    n = draw(st.integers(1, 14))
    timed = draw(st.booleans())
    tokens = [tok(draw(st.sampled_from(SURFACES)), speaker=draw(st.sampled_from("AB")),
                  accent=draw(st.sampled_from(ACCENTS)),
                  boundary=draw(st.sampled_from(BOUNDARIES)),
                  phonation=draw(st.sampled_from(PHONATIONS)),
                  pitch_range=draw(st.sampled_from(PITCH_RANGES)),
                  topic=draw(st.sampled_from(["", "", "t1", "t2"])),
                  flags=draw(st.frozensets(st.sampled_from(TOKEN_FLAGS))),
                  pause_before_s=draw(PAUSE_S), start_s=float(i) if timed else None)
              for i in range(n)]
    gaps = sorted(draw(st.sets(st.integers(0, n - 1)))) if timed else []
    pauses = [PauseRecord(start_s=gap - duration, raw_duration_s=duration)
              for gap, duration in zip(gaps, draw(st.lists(PAUSE_S, min_size=len(gaps),
                                                           max_size=len(gaps))))]
    return tokens, pauses or None


@pytest.mark.parametrize("lexicon", [bundled_lexicon(), CUSTOM], ids=["bundled", "custom"])
@given(case=transcripts_with_pauses())
@settings(settings.get_profile("fuzz"))
def test_fragmentize_equals_the_per_position_oracle(lexicon, case):
    tokens, pauses = case
    got = fragmentize(tokens, pauses, lexicon)
    expected = fragments_oracle.fragmentize(tokens, pauses, lexicon)
    assert got == expected
    assert all(a.initial_cue is b.initial_cue for a, b in zip(got, expected))
    # == leaves features out, so they are checked against a from-scratch pass
    assert [f.features for f in got] == \
        [fragments_oracle.token_features(f.tokens) for f in got]
    assert [f.topic for f in got] == [fragments_oracle.topic(f.tokens) for f in got]


def test_token_features_are_found_once_per_fragment(monkeypatch):
    # fragmentize finds them; the classifier reads every fragment three times
    # (prior, current, subsequent) and must not find them again
    seen = []

    def counted(tokens):
        seen.append(tokens)
        return token_features(tokens)

    token_features = fragments._token_features
    monkeypatch.setattr(fragments, "_token_features", counted)
    frags = fragmentize(read_transcript(FIXTURES / "directions_resume.jsonl"))
    segment_discourse(frags)
    assert len(frags) > 2
    assert seen == [f.tokens for f in frags]


def test_fragments_are_frozen():
    frag, = fragmentize([tok("go", topic="route"), tok("it", phonation="creaky")])
    tokens = frag.tokens
    with pytest.raises(AttributeError):
        frag.tokens = (tok("left"),)
    assert frag.tokens is tokens
    assert (frag.features.pronoun, frag.features.creaky_final, frag.topic) == \
        (True, True, "route")
    again = rebuilt(frag, tokens=(tok("left", pitch_range="reduced"), tok("there", topic="hall")))
    assert again.features == fragments_oracle.token_features(again.tokens)
    assert (again.features.pronoun, again.features.reduced_range, again.topic) == \
        (False, True, "hall")
    assert frag.topic == "route"


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def coarse(frags):
    return [(f.index, f.initial_token_class, f.surfaces, f.pause_before_s) for f in frags]


def flatten(frags):
    """The fragments' tokens in order, each fragment's first token carrying
    the fragment's effective preceding pause."""
    return [rebuilt(tok, pause_before_s=frag.pause_before_s) if j == 0 else tok
            for frag in frags for j, tok in enumerate(frag.tokens)]


VOCAB = ["so", "ok", "um", "you", "go", "left", "now", "and", "the", "wall"]


@given(st.lists(st.tuples(st.sampled_from(VOCAB),
                          st.sampled_from([0.0, 0.0, 0.2]),
                          st.sampled_from(["none", "none", "fall"])),
                min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_refragmentizing_serialized_output_is_fixed_point(specs):
    tokens = [tok(s, pause_before_s=p, boundary=b) for s, p, b in specs]
    frags = fragmentize(tokens)
    again = fragmentize(flatten(frags))
    assert coarse(again) == coarse(frags)


@pytest.mark.parametrize("lexicon", [bundled_lexicon(), CUSTOM], ids=["bundled", "custom"])
@given(case=transcripts_with_pauses())
@settings(settings.get_profile("fuzz"))
def test_refragmentizing_with_the_same_pause_records_is_fixed_point(lexicon, case):
    tokens, pauses = case
    frags = fragmentize(tokens, pauses, lexicon)
    assert coarse(fragmentize(flatten(frags), pauses, lexicon)) == coarse(frags)


def test_refragmentizing_needs_the_pause_records():
    # a detected 0.04 s pause overrides the 0.5 s annotated before "left",
    # which is not fragment-initial and so keeps its annotation when flattened
    tokens = [tok("go", start_s=0.0), tok("left", start_s=1.0, pause_before_s=0.5),
              tok("there", start_s=2.0)]
    pauses = [PauseRecord(start_s=0.96, raw_duration_s=0.04)]
    frags = fragmentize(tokens, pauses)
    flat = flatten(frags)
    assert len(frags) == 1
    assert len(fragmentize(flat)) == 2
    assert coarse(fragmentize(flat, pauses)) == coarse(frags)


# ---------------------------------------------------------------------------
# code
# ---------------------------------------------------------------------------

def test_code_filled_pause_initiate():
    tokens = [tok("you"), tok("go"), tok("um"), tok("on")]
    frags = fragmentize(tokens)
    ops = [INITIATE, INITIATE]
    records = code(frags, ops)
    rec = records[1]
    assert rec.initial_constituent == "filled_pause"
    assert rec.marked
    assert rec.embedding_depth == 2
    assert rec.segments_affected == 1
    assert rec.initial_token == "Filled Pause"


def test_code_unmarked_retain():
    tokens = [tok("you"), tok("go", pause_before_s=0.0), tok("left"),
              tok("on", pause_before_s=0.2), tok("ahead")]
    frags = fragmentize(tokens)
    ops = [INITIATE, RETAIN]
    records = code(frags, ops)
    rec = records[1]
    assert rec.initial_constituent == "unmarked"
    assert not rec.marked
    assert rec.segments_affected == 0
    assert rec.pause_before_s == pytest.approx(0.2)


def test_code_marked_count_matches_constituents():
    tokens = [tok("ok"), tok("um"), tok("so"), tok("you", pause_before_s=0.3),
              tok("go")]
    frags = fragmentize(tokens)
    ops = [INITIATE] + [RETAIN] * (len(frags) - 1)
    records = code(frags, ops)
    marked = [r for r in records if r.marked]
    assert len(marked) == sum(
        1 for r in records
        if r.initial_constituent in ("cue_phrase", "acknowledgment", "filled_pause"))


def test_code_turn_positions():
    tokens = [tok("hello", speaker="A", boundary="fall"),
              tok("ok", speaker="B"), tok("go", speaker="B")]
    frags = fragmentize(tokens)
    ops = [INITIATE, RETAIN]
    records = code(frags, ops)
    assert records[0].turn_position == "initiating"
    assert records[1].turn_position == "initiating"  # speaker change


def test_code_function_labels():
    tokens = [tok("you"), tok("go"), tok("um"), tok("on")]
    frags = fragmentize(tokens)
    ops = [INITIATE, RETAIN]
    records = code(frags, ops,
                   functions=[("topical", "closure"), ("repair", "topical")])
    assert records[0].subsequent_function == "closure"
    assert records[1].prior_function == "repair"


def test_code_length_mismatch():
    frags = fragmentize([tok("you"), tok("go")])
    with pytest.raises(LengthMismatch):
        code(frags, [INITIATE, RETAIN])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_transcript_roundtrip(tmp_path):
    tokens = [tok("So", pause_before_s=0.1, accent="deaccented",
                  flags=frozenset({"turn_initial"}), topic="route"),
              tok("go", boundary="fall")]
    path = tmp_path / "transcript.jsonl"
    write_jsonl(path, rows(TOKEN_FIELDS, tokens))
    again = read_transcript(path)
    assert again == tokens


def test_transcript_schema_error_carries_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"surface": "so"}\n{"surface": "go", "accent": "H"}\n')
    with pytest.raises(SchemaError) as info:
        read_transcript(path)
    assert info.value.line == 2


def test_coded_roundtrip_and_tsv(tmp_path, corpus_records):
    path = tmp_path / "coded.jsonl"
    write_coded(path, corpus_records)
    again = read_coded(path)
    assert again == corpus_records

    tsv = tmp_path / "coded.tsv"
    write_coded_tsv(tsv, corpus_records[:3])
    lines = tsv.read_text().splitlines()
    assert lines[0].split("\t") == list(TSV_COLUMNS)
    assert len(lines[0].split("\t")) == 9
    assert lines[1].split("\t")[2] == "cue_phrase"


def test_coded_rejects_inconsistent_segments_affected(tmp_path):
    row = ('{"fragment_index": 0, "pause_before_s": 0.1, '
           '"initial_constituent": "unmarked", '
           '"operation": {"kind": "Replace", "pops": 2}, "embedding_depth": 1, '
           '"segments_affected": 1, "prior_function": "topical", '
           '"subsequent_function": "topical", "turn_position": "initiating", '
           '"marked": false}')
    path = tmp_path / "bad.jsonl"
    path.write_text(row + "\n")
    with pytest.raises(SchemaError, match="segments_affected"):
        read_coded(path)


def test_coded_record_rejects_inconsistent_segments_affected(tmp_path):
    fields = dict(fragment_index=0, pause_before_s=0.1, initial_constituent="unmarked",
                  operation=FocusingOperation(OpKind.REPLACE, 2), embedding_depth=1,
                  segments_affected=1, prior_function="topical",
                  subsequent_function="topical", turn_position="initiating", marked=False)
    message = "segments_affected 1 inconsistent with Replace(2)"
    with pytest.raises(ValueError, match=fr"^{re.escape(message)}$"):
        CodedRecord(**fields)
    CodedRecord(**{**fields, "segments_affected": 3})
    # the reader reports the record's own check at path:line
    path = tmp_path / "bad.jsonl"
    path.write_text('\n{"fragment_index": 0, "initial_constituent": "unmarked", '
                    '"operation": {"kind": "Replace", "pops": 2}, "embedding_depth": 1, '
                    '"segments_affected": 1}\n')
    with pytest.raises(SchemaError) as excinfo:
        read_coded(path)
    assert str(excinfo.value) == f"{path}:2: {message}"


@pytest.mark.parametrize("operation", ["Initiate", {"kind": "Initiate", "pops": 0}, None])
def test_coded_record_refuses_an_operation_that_is_not_one(operation):
    # the reader builds the operation from its object; a constructor must be given one
    with pytest.raises(ValueError, match=fr"^field 'operation' has wrong type "
                                         fr"\(got {type(operation).__name__}\)$"):
        CodedRecord(fragment_index=0, pause_before_s=0.1, initial_constituent="unmarked",
                    embedding_depth=1, operation=operation)


def test_coded_record_derives_marked_from_the_constituent():
    fields = dict(fragment_index=0, pause_before_s=0.1, initial_constituent="unmarked",
                  operation=FocusingOperation(OpKind.INITIATE, 0), embedding_depth=1,
                  segments_affected=1, prior_function="topical",
                  subsequent_function="topical", turn_position="initiating", marked=None)
    assert CodedRecord(**fields).marked is False
    assert CodedRecord(**{**fields, "initial_constituent": "filled_pause"}).marked is True
    with pytest.raises(ValueError, match="^marked true contradicts initial_constituent "
                                         "'unmarked'$"):
        CodedRecord(**{**fields, "marked": True})
    with pytest.raises(ValueError, match="^marked false contradicts"):
        CodedRecord(**{**fields, "initial_constituent": "cue_phrase", "marked": False})


def test_coded_record_derives_the_columns_left_out():
    op = FocusingOperation(OpKind.REPLACE, 2)
    fields = dict(fragment_index=0, pause_before_s=0.1, initial_constituent="cue_phrase",
                  operation=op, embedding_depth=1)
    record = CodedRecord(**fields)
    assert (record.segments_affected, record.marked) == (segments_affected(op), True) == (3, True)
    assert record == CodedRecord(**fields, segments_affected=None, marked=None)
    # the other columns default as in CODED_FIELDS
    assert (record.prior_function, record.subsequent_function, record.turn_position,
            record.initial_token) == ("topical", "topical", "continuing", "")


@pytest.mark.parametrize("given", ["absent", "null"])
def test_coded_line_without_segments_affected_reads_as_code_makes_it(tmp_path, given):
    frags = fragmentize([tok("so"), tok("um"), tok("on", pause_before_s=0.4)])
    records = code(frags, [INITIATE, FocusingOperation(OpKind.REPLACE, 1), RETAIN])
    path = tmp_path / "coded.jsonl"
    write_coded(path, records)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        if given == "absent":
            del row["segments_affected"]
        else:
            row["segments_affected"] = None
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert read_coded(path) == records


def test_code_derives_segments_affected_and_marked():
    tokens = [tok("you", boundary="fall"), tok("so"), tok("um"),
              tok("on", pause_before_s=0.4), tok("go")]
    frags = fragmentize(tokens)
    ops = [INITIATE, FocusingOperation(OpKind.REPLACE, 1), RETAIN, INITIATE]
    records = code(frags, ops)
    assert [r.initial_constituent for r in records] == [
        "unmarked", "cue_phrase", "filled_pause", "unmarked"]
    assert [r.segments_affected for r in records] == [segments_affected(op) for op in ops]
    assert [r.marked for r in records] == [False, True, True, False]
