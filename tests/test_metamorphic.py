"""Metamorphic relations over the command line (Chen, Cheung and Yiu, 1998).

Each test runs ``segment`` and ``code``, or ``stats``, in-process through
``cli.main`` on a drawn input twice, with inputs related in a way that must
leave named outputs unchanged, and needs no oracle for what those outputs are.

* Weight scale: multiplying every evidence-row weight by 2**k, k in
  [-4, 4], leaves the trace, the tree and the coded files unchanged.  Every
  score is a sum of row weights, times bonuses, so it scales by the same
  factor; only a power of two keeps each rounded sum and product, and so
  each tie, exactly scaled.  Other factors are not intended to hold.
* Idle lexicon entries: entries whose normalized forms share no word with
  the transcript change no output file, however many words they span.
* Speaker renaming: renaming the speakers one to one changes no output
  file.  A speaker is only ever compared with the one before.
* Prefix locality: cutting the transcript at the start of fragment k+2
  leaves the trace, audit and coded lines of fragments 0..k unchanged.  A
  fragment is classified from itself and its two neighbours, so fragment
  k+1, which loses the one after it, may change.  The exact precondition is
  that no lexicon match that begins before the cut runs past it, as "i mean"
  does when the cut falls before "mean"; only the last ``max_words`` - 1
  tokens before the cut can begin one.  Then the cut transcript has the same
  fragment starts before the cut.
* Pauses given two ways: a pause file that restates some of a timed
  transcript's whole-tenth pauses at their gaps, each measured and ending up
  to 0.04 s off, changes no output of ``code``.  The tokens start at least
  0.1 s apart, so each pause aligns to its own gap.
* Splitting a coded file: cutting it into its dialogues, each written
  anew, and joining them in the same order changes no ``stats`` byte.  In
  any other order the mean tables, the count panels and the pause panel
  stay the same, since every mean sums its values in sorted order.  The
  three tests sum in record order, so only their last bits may move, and
  so may the histogram averages when they come from the records' own
  pauses rather than a pause inventory.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pausecue.classifier import ROW_KEYS
from pausecue.cli import main
from pausecue.fragments import (ACCENTS, BOUNDARIES, CONSTITUENTS, FUNCTION_LABELS,
                                PHONATIONS, PITCH_RANGES, TOKEN_FLAGS, fragmentize, read_coded,
                                read_transcript, write_coded)
from pausecue.lexicon import DATA_DIR, TOKEN_CLASSES, bundled_lexicon, normalize
from test_golden import run_case

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
#: Names a renaming gives the speakers A and B, A and B among them.
NAMES = ["A", "B", "C", "speaker 2", "\u00e9", ""]


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


@RELATION
@given(tokens=st.lists(TOKENS, min_size=2, max_size=30), at=st.integers(1, 29),
       names=st.permutations(NAMES))
def test_renaming_the_speakers_one_to_one_changes_no_output(tokens, at, names):
    first = tokens[0].get("speaker", "A")  # a token without a speaker is A's
    at = 1 + at % (len(tokens) - 1)
    tokens = [*tokens[:at], {**tokens[at], "speaker": "B" if first == "A" else "A"},
              *tokens[at + 1:]]  # both speakers talk
    rename = {"A": names[0], "B": names[1]}
    renamed = [{**token, "speaker": rename[token.get("speaker", "A")]} for token in tokens]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = []
        for name, rows in (("named", tokens), ("renamed", renamed)):
            (tmp / name).mkdir()
            runs.append(outputs(tmp, [write_lines(tmp / name / "t.jsonl", rows)]))
    assert runs[0] == runs[1]


@RELATION
@given(tokens=st.lists(TOKENS, min_size=3, max_size=30), data=st.data())
def test_cutting_the_transcript_two_fragments_on_changes_no_earlier_fragment(tokens, data):
    lexicon = bundled_lexicon()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        transcript = write_lines(tmp / "t.jsonl", tokens)
        read = read_transcript(transcript)
        fragments = fragmentize(read, None, lexicon)
        assume(len(fragments) >= 3)
        k = data.draw(st.integers(0, len(fragments) - 3))
        cut = sum(len(fragment.tokens) for fragment in fragments[:k + 2])
        surfaces = [normalize(token.surface) for token in read]
        matches = {i: lexicon.match_span(surfaces, i)
                   for i in range(max(0, cut - lexicon.max_words + 1), cut)}
        assume(all(match is None or i + match[1] <= cut for i, match in matches.items()))
        whole = outputs(tmp, [transcript])
        (tmp / "cut").mkdir()
        head = outputs(tmp, [write_lines(tmp / "cut" / "t.jsonl", tokens[:cut])])
    # one line per fragment in each file, after the header line of the TSV
    for name, lines in (("t.trace.jsonl", k + 1), ("t.audit.jsonl", k + 1),
                        ("t.coded.jsonl", k + 1), ("t.coded.tsv", k + 2)):
        assert head[name].splitlines()[:lines] == whole[name].splitlines()[:lines], name


@st.composite
def restated_pauses(draw):
    """A timed transcript, and pause rows that restate some of its pauses."""
    tokens, pauses = [], []
    start = 100  # the clock, in hundredths of a second
    for token in draw(st.lists(TOKENS, min_size=1, max_size=30)):
        tenths = round(token.get("pause_before_s", 0.0) * 10)
        start += 10 * tenths + draw(st.integers(10, 60))
        tokens.append({**token, "start_s": start / 100})
        if draw(st.booleans()):
            off, late = draw(st.integers(-4 if tenths else 0, 4)), draw(st.integers(-4, 4))
            pauses.append({"start_s": (start + late - 10 * tenths - off) / 100,
                           "raw_duration_s": (10 * tenths + off) / 100})
    return tokens, pauses


@RELATION
@given(case=restated_pauses())
def test_restating_the_annotated_pauses_in_a_pause_file_changes_no_output(case):
    tokens, pauses = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = ["code", write_lines(tmp / "t.jsonl", tokens)]
        runs = []
        for out, extra in ((tmp / "plain", []),
                           (tmp / "paused", ["--pauses", write_lines(tmp / "p.jsonl", pauses)])):
            out.mkdir()
            runs.append(run_case([*argv, *extra, "--out", str(out)], out))
    assert runs[0] == runs[1]


#: One coded row without its index: the fields ``stats`` reads, the others
#: left to their defaults.  Few pause values make constant cells.
CODED_ROWS = st.fixed_dictionaries(
    {"pause_before_s": st.sampled_from([None, 0.0, -0.0, 0.1, 0.2, 0.3, 0.35, 0.7, 1.25]),
     "initial_constituent": st.sampled_from(CONSTITUENTS),
     "operation": st.sampled_from([{"kind": "Initiate", "pops": 0}, {"kind": "Retain", "pops": 0},
                                   {"kind": "Return", "pops": 1}, {"kind": "Return", "pops": 2},
                                   {"kind": "Replace", "pops": 1}]),
     "embedding_depth": st.integers(1, 3)},
    optional={"initial_token": st.sampled_from(["And", "So", "Now", "Anyway", ""])})
PAUSE_ROWS = st.fixed_dictionaries(
    {"start_s": st.just(0.0), "raw_duration_s": st.sampled_from([0.0, 0.06, 0.15, 0.3, 0.44]),
     "position": st.sampled_from(["fragment_initial", "fragment_internal"])})


def stats_outputs(coded: Path, pauses: str | None, forms=("text", "json")) -> dict[str, bytes]:
    """Run ``stats`` on ``coded`` in each of ``forms``; every report's bytes."""
    reports = {}
    for form in forms:
        report = coded.parent / f"report.{form}"
        argv = ["stats", str(coded), "--format", form, "--out", str(report)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + (["--pauses", pauses] if pauses else [])) == 0
        reports[form] = report.read_bytes()
    return reports


@RELATION
@given(dialogues=st.lists(st.lists(CODED_ROWS, min_size=1, max_size=8), min_size=2, max_size=5),
       pauses=st.none() | st.lists(PAUSE_ROWS, min_size=1, max_size=5), data=st.data())
def test_splitting_a_coded_file_into_dialogues_keeps_every_mean_and_count(
        dialogues, pauses, data):
    assume(any(row["pause_before_s"] is not None for rows in dialogues for row in rows))
    order = data.draw(st.permutations(range(len(dialogues))))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        coded = tmp / "coded.jsonl"
        inventory = write_lines(tmp / "pauses.jsonl", pauses) if pauses is not None else None
        write_lines(coded, [{"fragment_index": index, **row}
                            for rows in dialogues for index, row in enumerate(rows)])
        whole = stats_outputs(coded, inventory)
        parts = []  # each dialogue, from its fragment 0, written on its own
        for record in read_coded(coded):
            if record.fragment_index == 0:
                parts.append([])
            parts[-1].append(record)
        for k, records in enumerate(parts):
            write_coded(tmp / f"part{k}.jsonl", records)
        texts = [(tmp / f"part{k}.jsonl").read_text(encoding="utf-8") for k in range(len(parts))]
        coded.write_text("".join(texts), encoding="utf-8")
        assert stats_outputs(coded, inventory) == whole
        coded.write_text("".join(texts[k] for k in order), encoding="utf-8")
        permuted = stats_outputs(coded, inventory, forms=("json",))
    tables = [json.loads(run["json"])["tables"] for run in (whole, permuted)]
    if pauses is None:  # the records' own pauses are averaged in record order
        before, after = (t["pause_histogram"].pop("averages") for t in tables)
        assert before.keys() == after.keys()
        assert all(math.isclose(before[k], after[k], rel_tol=1e-12) if before[k] is not None
                   else after[k] is None for k in before)
    assert json.dumps(tables[0], sort_keys=True) == json.dumps(tables[1], sort_keys=True)
