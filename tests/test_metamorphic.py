"""Metamorphic relations over the command line (Chen, Cheung and Yiu, 1998).

Each test runs ``segment`` and ``code`` in-process through ``cli.main`` on
a drawn transcript twice, with inputs related in a way that must leave
named outputs unchanged, and needs no oracle for what those outputs are.

* Weight scale: multiplying every evidence-row weight by 2**k, k in
  [-4, 4], leaves the trace, the tree and the coded files unchanged.  Every
  score is a sum of row weights, times bonuses, so it scales by the same
  factor; only a power of two keeps each rounded sum and product, and so
  each tie, exactly scaled.  Other factors are not intended to hold.
* Idle lexicon entries: entries whose normalized forms share no word with
  the transcript change no output file, however many words they span.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from pausecue.classifier import ROW_KEYS
from pausecue.cli import main
from pausecue.fragments import (ACCENTS, BOUNDARIES, FUNCTION_LABELS, PHONATIONS,
                                PITCH_RANGES, TOKEN_FLAGS, fragmentize, read_transcript)
from pausecue.lexicon import DATA_DIR, TOKEN_CLASSES, bundled_lexicon

RELATION = settings(settings.get_profile("fuzz"), max_examples=60)

#: Bundled cue phrases, single and multiword, among plain words and topics.
VOCABULARY = ["so", "now", "and", "but", "well", "you", "know", "i", "mean", "ok", "um",
              "because", "first", "of", "all", "finally", "oh", "the", "route", "hall",
              "it", "which", "where", "wall", "turns", "left"]
#: Words no transcript draws from VOCABULARY, for the idle lexicon entries.
IDLE_WORDS = ["zebra", "quartz", "plinth", "vex", "oxbow", "fjord", "glyph"]

TOKENS = st.fixed_dictionaries(
    {"surface": st.sampled_from(VOCABULARY)},
    optional={"speaker": st.sampled_from(["A", "B"]),
              "accent": st.sampled_from(ACCENTS),
              "boundary": st.sampled_from(BOUNDARIES),
              "phonation": st.sampled_from(PHONATIONS),
              "pitch_range": st.sampled_from(PITCH_RANGES),
              "pause_before_s": st.sampled_from([0.0, 0.1, 0.2, 0.4, 0.7]),
              "flags": st.lists(st.sampled_from(TOKEN_FLAGS), max_size=2, unique=True),
              "topic": st.sampled_from(["", "route", "hall"])})
TRANSCRIPTS = st.lists(TOKENS, min_size=1, max_size=30)


def outputs(directory: Path, argv: list[str]) -> dict[str, bytes]:
    """Run ``segment`` and then ``code`` with ``argv``; every file they write."""
    out = directory / f"out{len(list(directory.glob('out*')))}"
    for command in ("segment", "code"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main([command, *argv, "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def write_lines(path: Path, rows) -> str:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return str(path)


@RELATION
@given(tokens=TRANSCRIPTS, data=st.data(),
       weights=st.fixed_dictionaries({key: st.floats(0.05, 20) for key in ROW_KEYS}),
       bonuses=st.tuples(st.floats(0.5, 4), st.floats(0.5, 4)), k=st.integers(-4, 4))
def test_scaling_every_row_weight_by_a_power_of_two_changes_no_decision(
        tokens, data, weights, bonuses, k):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        transcript = write_lines(tmp / "t.jsonl", tokens)
        n = len(fragmentize(read_transcript(transcript), None, bundled_lexicon()))
        functions = write_lines(tmp / "functions.jsonl", [
            {"fragment_index": i, "prior": data.draw(st.sampled_from(FUNCTION_LABELS)),
             "subsequent": data.draw(st.sampled_from(FUNCTION_LABELS))}
            for i in data.draw(st.sets(st.integers(0, n - 1), max_size=3))])
        settings_lines = (f"candidate_bonus = {bonuses[0]!r}\n"
                          f"impending_bonus = {bonuses[1]!r}\n")
        runs = []
        for factor in (1.0, 2.0 ** k):
            conf = tmp / f"w{len(runs)}.conf"
            conf.write_text("".join(f"{key} = {weight * factor!r}\n"
                                    for key, weight in weights.items()) + settings_lines)
            files = outputs(tmp, [transcript, "--functions", functions, "--weights", str(conf)])
            runs.append({name: content for name, content in files.items()
                         if not name.endswith(".audit.jsonl")})  # the audit shows the scores
    assert runs[0] == runs[1]


@st.composite
def idle_entries(draw):
    """Lexicon rows whose forms are drawn from IDLE_WORDS only, no two alike."""
    phrases = draw(st.lists(st.lists(st.sampled_from(IDLE_WORDS), min_size=1, max_size=5)
                            .map(" ".join), min_size=1, max_size=5, unique=True))
    rows = []
    while phrases:
        surface, variants = phrases[0], phrases[1:draw(st.integers(1, len(phrases)))]
        rows.append({"surface": surface.upper() if draw(st.booleans()) else surface,
                     "candidate_ops": draw(st.lists(st.sampled_from(
                         ["Initiate", "Retain", "Return", "Replace"]), min_size=1, unique=True)),
                     "token_class": draw(st.sampled_from(TOKEN_CLASSES)),
                     "ordinal_rank": draw(st.sampled_from([None, "first", "subsequent"])),
                     "connective": draw(st.booleans()), "variants": variants})
        phrases = phrases[1 + len(variants):]
    return rows


@RELATION
@given(tokens=TRANSCRIPTS, extra=idle_entries(), at=st.integers(0, 20))
def test_lexicon_entries_that_match_no_word_change_no_output(tokens, extra, at):
    bundled = [json.loads(line) for line in
               (DATA_DIR / "lexicon.jsonl").read_text(encoding="utf-8").splitlines()]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        transcript = write_lines(tmp / "t.jsonl", tokens)
        lexicon = write_lines(tmp / "lexicon.jsonl", bundled[:at] + extra + bundled[at:])
        assert outputs(tmp, [transcript]) == outputs(tmp, [transcript, "--lexicon", lexicon])
