"""Lexicon inventory, lookup normalization, and the cue/non-cue cascade."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexicon_oracle as oracle
from pausecue.focus import OpKind
from pausecue.jsonl import SchemaError, lines, write_jsonl
from pausecue.lexicon import (ENTRY_FIELDS, CueContext, CueEntry, Lexicon, MissingAnnotation,
                              bundled_lexicon, judge_cue_use, load_lexicon, normalize)

LEX = bundled_lexicon()

EXPECTED_MAPPINGS = {
    "and": {OpKind.RETAIN, OpKind.RETURN},
    "but": {OpKind.RETAIN, OpKind.REPLACE, OpKind.RETURN},
    "i mean": {OpKind.INITIATE, OpKind.RETAIN},
    "so": {OpKind.RETURN, OpKind.REPLACE},
    "because": {OpKind.INITIATE},
    "now": {OpKind.REPLACE},
    "well": {OpKind.REPLACE},
    "you know": {OpKind.RETAIN, OpKind.INITIATE},
}


def test_marker_candidate_sets():
    for surface, expected in EXPECTED_MAPPINGS.items():
        entry = LEX.lookup(surface)
        assert entry is not None, surface
        assert set(entry.candidate_ops) == expected, surface


def test_ordinal_candidate_sets():
    for surface in ("to begin with", "in the first place", "first of all"):
        entry = LEX.lookup(surface)
        assert entry.ordinal_rank == "first"
        assert set(entry.candidate_ops) == {OpKind.INITIATE}
    for surface in ("secondly", "finally"):
        entry = LEX.lookup(surface)
        assert entry.ordinal_rank == "subsequent"
        assert set(entry.candidate_ops) == {OpKind.REPLACE}


def test_oh_is_corpus_derived_retain():
    entry = LEX.lookup("oh")
    assert entry.corpus_derived
    assert set(entry.candidate_ops) == {OpKind.RETAIN}


def test_token_classes_present():
    assert LEX.lookup("ok").token_class == "acknowledgment"
    assert LEX.lookup("good").token_class == "acknowledgment"
    assert LEX.lookup("um").token_class == "filled_pause"
    assert LEX.lookup("uh").token_class == "filled_pause"


def test_inventory_is_exactly_the_replication_set():
    expected = set(EXPECTED_MAPPINGS) | {
        "oh", "to begin with", "in the first place", "first of all",
        "secondly", "finally", "ok", "sure", "uh-huh", "good", "um", "uh",
    }
    assert {normalize(entry.surface) for entry in LEX.entries} == expected


def test_lookup_normalizes_case_and_punctuation():
    assert LEX.lookup("Now,").surface == "now"
    assert LEX.lookup("SO").surface == "so"
    assert LEX.lookup("Uh-huh!").surface == "uh-huh"
    assert normalize("  Well,  ") == "well"


def test_lookup_variants():
    assert LEX.lookup("y'know").surface == "you know"
    assert LEX.lookup("okay").surface == "ok"


def test_lookup_misses_nonmarkers():
    assert LEX.lookup("the") is None
    assert LEX.lookup("left") is None


def test_match_span_prefers_longest():
    surfaces = ["to", "begin", "with", "the", "tour"]
    entry, width = LEX.match_span(surfaces, 0)
    assert entry.surface == "to begin with"
    assert width == 3
    assert LEX.match_span(surfaces, 3) is None


#: A lexicon whose keys include a double space (an inner punctuation word)
#: and multi-word keys sharing first words.
CUSTOM = Lexicon([
    CueEntry(surface="well", gloss="", candidate_ops=frozenset({OpKind.REPLACE})),
    CueEntry(surface="by the way", gloss="", candidate_ops=frozenset({OpKind.INITIATE}),
             variants=("BY THE . WAY",)),
    CueEntry(surface="by", gloss="", candidate_ops=frozenset({OpKind.RETAIN})),
    CueEntry(surface="you know what", gloss="", candidate_ops=frozenset({OpKind.RETURN}),
             variants=("you . know",)),
])
WORDS = sorted({word for lexicon in (LEX, CUSTOM) for key in lexicon._index
                for word in key.split()})
TOKENS = st.one_of(
    st.sampled_from(WORDS),
    st.sampled_from(WORDS).map(str.upper),
    st.sampled_from(["...", ",", "", " ", "so,", "(now)", "you . know", "by  the",
                     "the\tway", "Y'KNOW!", "-", "'", "uh-huh."]),
    st.tuples(st.sampled_from(WORDS), st.sampled_from(WORDS)).map(" ".join),
    st.text(alphabet="ab .,'-", max_size=4),
)


@pytest.mark.parametrize("lexicon", [LEX, CUSTOM], ids=["bundled", "custom"])
@given(tokens=st.lists(TOKENS, min_size=1, max_size=12))
@settings(settings.get_profile("fuzz"))
def test_match_span_equals_normalizing_lookup(lexicon, tokens):
    surfaces = [normalize(token) for token in tokens]
    for i in range(len(surfaces)):
        assert lexicon.match_span(surfaces, i) == oracle.match_span(lexicon, surfaces, i)


def test_match_span_counts_empty_surfaces_in_width():
    surfaces = [normalize(token) for token in ("...", "by", ",", "the", "way")]
    # "..." and "," add nothing to the key but count in the width, and a
    # span holds at most max_words tokens, so "by , the way" is not reached
    assert CUSTOM.match_span(surfaces, 0) == (CUSTOM.lookup("by"), 3)
    assert CUSTOM.match_span(surfaces, 1) == (CUSTOM.lookup("by"), 2)
    assert CUSTOM.match_span(surfaces, 2) is None
    assert CUSTOM.match_span(surfaces, 3) is None


def test_duplicate_surfaces_rejected():
    entry = LEX.lookup("so")
    with pytest.raises(ValueError):
        Lexicon([entry, entry])


@pytest.mark.parametrize("form, variants, empty", [
    (",", (), ","), ("", (), ""), ("well", ("...",), "..."), ("well", ("oh well", " ?! "), " ?! ")],
    ids=["comma", "empty", "variant", "second-variant"])
def test_forms_that_normalize_to_nothing_are_rejected(tmp_path, form, variants, empty):
    # such a form could never match a word: alone in a lexicon it left
    # max_words at 0, and beside other entries it matched bare punctuation
    message = f"entry {form!r}: form {empty!r} has no word once normalized"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CueEntry(form, candidate_ops=["Return"], variants=variants)
    path = tmp_path / "lexicon.jsonl"
    path.write_text('{"surface": "so", "candidate_ops": ["Return"]}\n'
                    + json.dumps({"surface": form, "candidate_ops": ["Return"],
                                  "variants": list(variants)}) + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        load_lexicon(path)


# ---------------------------------------------------------------------------
# judge_cue_use
# ---------------------------------------------------------------------------

def ctx(**kw):
    kw.setdefault("utterance_initial", True)
    return CueContext(**kw)


def test_noninitial_candidate_is_never_cue():
    judgment = judge_cue_use(LEX.lookup("now"), ctx(utterance_initial=False))
    assert not judgment.is_cue
    assert judgment.rule_fired == "position"


def test_coordinating_and_is_conjunction_not_cue():
    judgment = judge_cue_use(LEX.lookup("and"), ctx(coordination=True))
    assert not judgment.is_cue
    assert judgment.rule_fired == "conjunction_test"


def test_conjunction_test_precedes_intonation():
    judgment = judge_cue_use(LEX.lookup("but"),
                             ctx(coordination=True, accents=("deaccented",)))
    assert not judgment.is_cue
    assert judgment.rule_fired == "conjunction_test"


def test_deaccented_initial_now_is_cue():
    judgment = judge_cue_use(LEX.lookup("now"), ctx(accents=("deaccented",)))
    assert judgment.is_cue
    assert judgment.rule_fired == "intonation"


def test_all_lstar_span_is_cue():
    judgment = judge_cue_use(LEX.lookup("you know"),
                             ctx(accents=("Lstar", "unmarked")))
    assert judgment.is_cue
    assert judgment.rule_fired == "intonation"


def test_hstar_span_falls_through_intonation():
    judgment = judge_cue_use(LEX.lookup("now"), ctx(accents=("Hstar",)))
    assert judgment.rule_fired == "none"
    assert judgment.is_cue  # non-connective default


def test_own_intonational_phrase_is_cue():
    judgment = judge_cue_use(LEX.lookup("and"),
                             ctx(coordination=False, accents=("Hstar",),
                                 own_intonational_phrase=True))
    assert judgment.is_cue
    assert judgment.rule_fired == "intonation"


def test_default_rejects_unannotated_connective():
    judgment = judge_cue_use(LEX.lookup("and"), ctx())
    assert not judgment.is_cue
    assert judgment.rule_fired == "none"


def test_default_accepts_unannotated_nonconnective():
    judgment = judge_cue_use(LEX.lookup("well"), ctx())
    assert judgment.is_cue
    assert judgment.rule_fired == "none"


def test_missing_annotation_raises():
    with pytest.raises(MissingAnnotation):
        judge_cue_use(LEX.lookup("now"), CueContext(utterance_initial=None))


# ---------------------------------------------------------------------------
# file round trip
# ---------------------------------------------------------------------------

def test_lexicon_roundtrip(tmp_path):
    path = tmp_path / "lexicon.jsonl"
    write_jsonl(path, lines(ENTRY_FIELDS, LEX.entries))
    again = load_lexicon(path)
    assert again.entries == LEX.entries
    assert set(again.lookup("so").candidate_ops) == {OpKind.RETURN, OpKind.REPLACE}


def test_library_entry_derives_its_display(tmp_path):
    # an empty display means the capitalized surface, built or read alike
    entry = CueEntry(surface="so", gloss="", candidate_ops=frozenset({OpKind.RETURN}))
    assert entry.display == "So"
    assert CueEntry(surface="so", gloss="", candidate_ops=frozenset({OpKind.RETURN}),
                    display="SO").display == "SO"
    path = tmp_path / "lexicon.jsonl"
    write_jsonl(path, lines(ENTRY_FIELDS, [entry]))
    assert load_lexicon(path).entries == (entry,)


def test_variants_given_as_a_set_are_sorted(tmp_path):
    # a set's order changes with the hash seed; a list or tuple keeps its own
    forms = ("so then", "soo", "sooo", "so so", "so now", "and so")
    for given in ({"sooo", "so then", "soo", "so so", "so now", "and so"}, frozenset(forms)):
        entry = CueEntry("so", candidate_ops=["Return"], variants=given)
        assert entry.variants == tuple(sorted(forms))
        path = tmp_path / "lexicon.jsonl"
        write_jsonl(path, lines(ENTRY_FIELDS, [entry]))
        assert load_lexicon(path).entries == (entry,)
    for given in (list(forms), forms):
        assert CueEntry("so", candidate_ops=["Return"], variants=given).variants == forms


def test_empty_candidate_ops_rejected():
    with pytest.raises(ValueError):
        CueEntry(surface="x", gloss="", candidate_ops=frozenset())
