"""Fragment boundaries, class precedence, pause alignment and coding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pausecue.focus import FocusingOperation, OpKind, build_tree
from pausecue.fragments import (AnnotatedToken, CodedRecord, EmptyTranscript,
                                LengthMismatch, MisalignedPause, code,
                                fragmentize, fragments_to_tokens, read_coded,
                                read_transcript, write_coded, write_coded_tsv,
                                write_transcript, TSV_COLUMNS)
from pausecue.jsonl import SchemaError
from pausecue.pauses import PauseRecord

INITIATE = FocusingOperation(OpKind.INITIATE)
RETAIN = FocusingOperation(OpKind.RETAIN)


def tok(surface, **kw):
    return AnnotatedToken(surface=surface, **kw)


def ops_tree(ops):
    trace = [(op, i) for i, op in enumerate(ops)]
    return build_tree(trace)


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
    with pytest.raises(MisalignedPause, match="left"):
        fragmentize(timed_tokens(), [pause])


def test_two_pauses_on_one_gap_rejected():
    pauses = [PauseRecord(start_s=0.4, raw_duration_s=0.5, reported_duration_s=0.5),
              PauseRecord(start_s=0.45, raw_duration_s=0.47, reported_duration_s=0.5)]
    with pytest.raises(MisalignedPause, match=r"0\.400s and 0\.450s .*'left'"):
        fragmentize(timed_tokens(), pauses)


def test_alignment_requires_timings():
    pause = PauseRecord(start_s=0.4, raw_duration_s=0.5, reported_duration_s=0.5)
    with pytest.raises(MisalignedPause, match="timing"):
        fragmentize([tok("you"), tok("go")], [pause])


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

VOCAB = ["so", "ok", "um", "you", "go", "left", "now", "and", "the", "wall"]


@given(st.lists(st.tuples(st.sampled_from(VOCAB),
                          st.sampled_from([0.0, 0.0, 0.2]),
                          st.sampled_from(["none", "none", "fall"])),
                min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_refragmentizing_serialized_output_is_fixed_point(specs):
    tokens = [tok(s, pause_before_s=p, boundary=b) for s, p, b in specs]
    frags = fragmentize(tokens)
    again = fragmentize(fragments_to_tokens(frags))
    assert [(f.index, f.initial_token_class, f.surfaces, f.pause_before_s)
            for f in again] == \
           [(f.index, f.initial_token_class, f.surfaces, f.pause_before_s)
            for f in frags]


# ---------------------------------------------------------------------------
# code
# ---------------------------------------------------------------------------

def test_code_filled_pause_initiate():
    tokens = [tok("you"), tok("go"), tok("um"), tok("on")]
    frags = fragmentize(tokens)
    ops = [INITIATE, INITIATE]
    records = code(frags, ops, ops_tree(ops))
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
    records = code(frags, ops, ops_tree(ops))
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
    records = code(frags, ops, ops_tree(ops))
    marked = [r for r in records if r.marked]
    assert len(marked) == sum(
        1 for r in records
        if r.initial_constituent in ("cue_phrase", "acknowledgment", "filled_pause"))


def test_code_turn_positions():
    tokens = [tok("hello", speaker="A", boundary="fall"),
              tok("ok", speaker="B"), tok("go", speaker="B")]
    frags = fragmentize(tokens)
    ops = [INITIATE, RETAIN]
    records = code(frags, ops, ops_tree(ops))
    assert records[0].turn_position == "initiating"
    assert records[1].turn_position == "initiating"  # speaker change
    overridden = code(frags, ops, ops_tree(ops), turns={1: "continuing"})
    assert overridden[1].turn_position == "continuing"


def test_code_function_labels():
    tokens = [tok("you"), tok("go"), tok("um"), tok("on")]
    frags = fragmentize(tokens)
    ops = [INITIATE, RETAIN]
    records = code(frags, ops, ops_tree(ops),
                   functions=[("topical", "closure"), ("repair", "topical")])
    assert records[0].subsequent_function == "closure"
    assert records[1].prior_function == "repair"


def test_code_length_mismatch():
    frags = fragmentize([tok("you"), tok("go")])
    with pytest.raises(LengthMismatch):
        code(frags, [INITIATE, RETAIN], ops_tree([INITIATE]))


def test_code_rejects_tree_from_other_operations():
    tokens = [tok("you"), tok("go"), tok("on", pause_before_s=0.3), tok("ahead")]
    frags = fragmentize(tokens)
    wrong_tree = ops_tree([INITIATE, INITIATE])
    with pytest.raises(LengthMismatch, match="tree"):
        code(frags, [INITIATE, RETAIN], wrong_tree)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_transcript_roundtrip(tmp_path):
    tokens = [tok("So", pause_before_s=0.1, accent="deaccented",
                  flags=frozenset({"turn_initial"}), topic="route"),
              tok("go", boundary="fall")]
    path = tmp_path / "transcript.jsonl"
    write_transcript(path, tokens)
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
