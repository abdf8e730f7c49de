"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -s to see
them); the `pausecue replicate` command prints the same kind of per-check
report for the table criteria.
"""

import math
import random

import pytest

import focus_oracle
from conftest import FIXTURES, RATE, build_signal, write_wav
from pausecue import replication
from pausecue.classifier import segment_discourse
from pausecue.focus import FocusStack, FocusingOperation, OpKind, apply, build_tree
from pausecue.fragments import fragmentize, read_transcript
from pausecue.lexicon import CueContext, bundled_lexicon, judge_cue_use
from pausecue.pauses import detect_pauses, frame_energy
from pausecue.stats import (anova_one_way, compute_report, f_sf, pearson,
                            t_test_pooled, t_two_sided)
from test_focus import naive_depth_trajectory, random_valid_trace
from test_stats import f_pdf, oracle_anova, oracle_pearson, oracle_t_pooled, t_pdf


# ---------------------------------------------------------------------------
# 1. table-mean replication
# ---------------------------------------------------------------------------

def test_c1_table_mean_replication(bundled_corpus):
    records, _ = bundled_corpus
    report = compute_report(records)
    table5 = report.by_token_and_operation
    for (row, op), (mean, count) in replication.TOKEN_OPERATION_CELLS.items():
        stat = table5.cell(row, op)
        assert stat is not None, (row, op)
        assert stat.count == count
        assert abs(round(stat.mean, 2) - mean) <= 0.005

    table4 = report.by_operation
    for op, expected in replication.OPERATION_MEANS.items():
        stat = table4.row_margins[op]
        assert stat.count == replication.OPERATION_COUNTS[op]
        assert abs(stat.mean - expected) <= 0.01

    table6 = report.by_marking
    marked = table6.row_margins["Marked"]
    unmarked = table6.row_margins["Unmarked"]
    assert marked.count == 44 and abs(marked.mean - 0.24) <= 0.01
    assert unmarked.count == 56 and abs(unmarked.mean - 0.33) <= 0.01
    print("PASS criterion 1: table cell means and margins replicate")


# ---------------------------------------------------------------------------
# 2. distribution replication
# ---------------------------------------------------------------------------

def test_c2_distribution_replication(bundled_corpus):
    records, pauses = bundled_corpus
    from pausecue.stats import table_distributions
    panel = table_distributions(records, pauses).operation_marked
    expected = {("Initiate", "marked"): 13, ("Initiate", "unmarked"): 10,
                ("Retain", "marked"): 18, ("Retain", "unmarked"): 37,
                ("Return", "marked"): 6, ("Return", "unmarked"): 5,
                ("Replace", "marked"): 7, ("Replace", "unmarked"): 4}
    for (op, mark), count in expected.items():
        assert panel.cell(op, mark) == count
    assert panel.total == 100
    print("PASS criterion 2: operation-by-marking counts match exactly")


# ---------------------------------------------------------------------------
# 3. statistical-test df fidelity and directions
# ---------------------------------------------------------------------------

def test_c3_df_fidelity_and_directions(bundled_corpus):
    records, pauses = bundled_corpus
    report = compute_report(records, pauses)
    assert (report.anova.df_between, report.anova.df_within) == (3, 96)
    assert report.t_test.df == 98
    assert any("T(96)" in note for note in report.notes)
    # direction checks; the published F=7.31, r=.357, t=1.58 magnitudes are
    # not reproducible from cell-mean reconstruction
    assert report.t_test.mean_b > report.t_test.mean_a  # unmarked > marked
    assert report.correlation.r > 0
    table4 = report.by_operation
    replace = table4.row_margins["Replace"].mean
    for op in ("Initiate", "Retain", "Return"):
        assert replace > table4.row_margins[op].mean
    print("PASS criterion 3: dfs reported, discrepancy noted, directions hold")


# ---------------------------------------------------------------------------
# 4. statistics oracle equivalence
# ---------------------------------------------------------------------------

def test_c4_oracle_equivalence():
    rng = random.Random(90125)
    for _ in range(120):
        groups = [[rng.uniform(0, 4) for _ in range(rng.randint(2, 7))]
                  for _ in range(rng.randint(2, 5))]
        f, df_b, df_w = oracle_anova(groups)
        result = anova_one_way(groups)
        assert abs(result.F - f) <= 1e-9
        assert (result.df_between, result.df_within) == (df_b, df_w)

        n = rng.randint(3, 10)
        x = [rng.uniform(-1, 1) for _ in range(n)]
        y = [rng.uniform(-1, 1) for _ in range(n)]
        assert abs(pearson(x, y).r - oracle_pearson(x, y)) <= 1e-9

        a = [rng.uniform(0, 2) for _ in range(rng.randint(2, 8))]
        b = [rng.uniform(0, 2) for _ in range(rng.randint(2, 8))]
        assert abs(t_test_pooled(a, b).t - oracle_t_pooled(a, b)) <= 1e-9
        assert abs(anova_one_way([a, b]).F - t_test_pooled(a, b).t ** 2) <= 1e-9

    from scipy.integrate import quad
    for df1, df2 in ((2, 8), (3, 96), (5, 30)):
        for stat in (0.4, 1.3, 3.7):
            numeric = quad(f_pdf, 0, stat, args=(df1, df2), limit=200)[0]
            assert abs(1 - f_sf(stat, df1, df2) - numeric) <= 1e-6
    for df in (4, 24, 96):
        for stat in (0.3, 1.58, 2.9):
            numeric = 0.5 + quad(t_pdf, 0, stat, args=(df,), limit=200)[0]
            assert abs(1 - t_two_sided(stat, df) / 2 - numeric) <= 1e-6
    print("PASS criterion 4: oracle agreement at 1e-9, CDFs at 1e-6")


# ---------------------------------------------------------------------------
# 5. stack-engine property suite
# ---------------------------------------------------------------------------

def test_c5_ten_thousand_random_traces():
    rng = random.Random(20240811)
    for _ in range(10_000):
        trace = random_valid_trace(rng)
        stack = FocusStack()
        depths = []
        for op, i in trace:
            stack = apply(stack, op, i)  # would raise on underflow
            depths.append(stack.depth)
        trajectory, pushes, pops = naive_depth_trajectory(trace)
        assert depths == trajectory
        assert stack.depth == pushes - pops
        tree = build_tree(trace)
        assert len(tree.nodes) == pushes
        assert tree == focus_oracle.build_tree(trace)
    print("PASS criterion 5: 10000 random traces replay and match the naive simulator")


# ---------------------------------------------------------------------------
# 6. worked-example segmentation
# ---------------------------------------------------------------------------

def test_c6_worked_example_segmentation():
    tokens = read_transcript(FIXTURES / "directions_intro.jsonl")
    result = segment_discourse(fragmentize(tokens))
    kinds = [op.kind.value for op, _ in result.trace]
    assert kinds[1:] == ["Replace", "Initiate", "Initiate"]

    tokens = read_transcript(FIXTURES / "directions_resume.jsonl")
    result = segment_discourse(fragmentize(tokens))
    kinds = [op.kind.value for op, _ in result.trace]
    assert kinds[2:] == ["Return", "Retain"]
    print("PASS criterion 6: worked examples segment as published")


# ---------------------------------------------------------------------------
# 7. pause detection
# ---------------------------------------------------------------------------

def test_c7_pause_detection(tmp_path):
    from pausecue.pauses import read_wav

    segments = [("noise", 0.3, 0.0008), ("tone", 0.4), ("silence", 0.18),
                ("tone", 0.4), ("silence", 0.42), ("tone", 0.4),
                ("silence", 0.90), ("tone", 0.4), ("silence", 2.0),
                ("tone", 0.4), ("noise", 0.3, 0.0008)]
    signal = build_signal(segments)

    reported_by_gain = []
    for gain_db in (0.0, -12.0, 12.0):
        path = tmp_path / f"gain_{gain_db:+.0f}db.wav"
        write_wav(path, (10 ** (gain_db / 20)) * signal, RATE)
        samples, rate = read_wav(path)
        records = detect_pauses(frame_energy(samples, rate))
        reported_by_gain.append([r.reported_duration_s for r in records])
    assert reported_by_gain[0] == pytest.approx([0.2, 0.4, 0.9, 2.0])
    assert reported_by_gain[1] == reported_by_gain[0]
    assert reported_by_gain[2] == reported_by_gain[0]

    closure = [("tone", 0.3), ("silence", 0.06), ("tone", 0.3),
               ("silence", 0.42), ("tone", 0.5)]
    path = tmp_path / "closure.wav"
    write_wav(path, build_signal(closure), RATE)
    samples, rate = read_wav(path)
    spans = [(0.0, 0.66), (1.08, 1.58)]
    kept = detect_pauses(frame_energy(samples, rate), word_spans=spans)
    assert [r.reported_duration_s for r in kept] == pytest.approx([0.4])
    print("PASS criterion 7: inserted silences recovered from WAV fixtures, "
          "closures excluded, gain-invariant")


# ---------------------------------------------------------------------------
# 8. cue-lexicon conformance
# ---------------------------------------------------------------------------

def test_c8_cue_lexicon_conformance():
    lex = bundled_lexicon()
    expected = {
        "and": {"Retain", "Return"},
        "but": {"Retain", "Replace", "Return"},
        "i mean": {"Initiate", "Retain"},
        "so": {"Return", "Replace"},
        "because": {"Initiate"},
        "now": {"Replace"},
        "well": {"Replace"},
        "you know": {"Retain", "Initiate"},
        "to begin with": {"Initiate"},
        "secondly": {"Replace"},
    }
    for surface, ops in expected.items():
        entry = lex.lookup(surface)
        assert {op.value for op in entry.candidate_ops} == ops, surface

    conj = judge_cue_use(lex.lookup("and"),
                         CueContext(utterance_initial=True, coordination=True))
    assert not conj.is_cue and conj.rule_fired == "conjunction_test"
    cue = judge_cue_use(lex.lookup("now"),
                        CueContext(utterance_initial=True, accents=("deaccented",)))
    assert cue.is_cue and cue.rule_fired == "intonation"
    print("PASS criterion 8: marker mappings and the cue cascade conform")
