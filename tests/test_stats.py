"""Statistics: tables, tests, p-values, and oracle cross-checks."""

import json
import math
import random
from functools import reduce
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import stats_oracle
from conftest import rebuilt
from pausecue.fragments import CONSTITUENTS, CodedRecord
from pausecue.focus import FocusingOperation, OpKind
from pausecue.pauses import PAUSE_FIELDS, PauseRecord
from pausecue.report import render_json, render_text
from pausecue.stats import (ZeroVariance, anova_one_way, compute_report, f_sf,
                            grouped_means, ordered_sum, pearson, reg_inc_beta,
                            t_test_pooled, t_two_sided, table_distributions)
from strategies import records


# ---------------------------------------------------------------------------
# independent oracles (straight transcriptions of the definitions)
# ---------------------------------------------------------------------------

def oracle_anova(groups):
    all_values = [x for g in groups for x in g]
    grand = sum(all_values) / len(all_values)
    ss_between = 0.0
    ss_within = 0.0
    for g in groups:
        m = sum(g) / len(g)
        ss_between += len(g) * (m - grand) ** 2
        for x in g:
            ss_within += (x - m) ** 2
    df_b = len(groups) - 1
    df_w = len(all_values) - len(groups)
    return (ss_between / df_b) / (ss_within / df_w), df_b, df_w


def oracle_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)) * \
        math.sqrt(sum((b - my) ** 2 for b in y))
    return num / den


def oracle_t_pooled(a, b):
    na, nb = len(a), len(b)
    ma, mb = sum(a) / na, sum(b) / nb
    ssa = sum((v - ma) ** 2 for v in a)
    ssb = sum((v - mb) ** 2 for v in b)
    sp2 = (ssa + ssb) / (na + nb - 2)
    return (ma - mb) / math.sqrt(sp2 * (1 / na + 1 / nb))


def f_pdf(x, d1, d2):
    log_b = math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2)
    return math.exp((d1 / 2) * math.log(d1 / d2) + (d1 / 2 - 1) * math.log(x)
                    - ((d1 + d2) / 2) * math.log1p(d1 * x / d2) - log_b)


def t_pdf(x, df):
    log_c = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) \
        - 0.5 * math.log(df * math.pi)
    return math.exp(log_c - ((df + 1) / 2) * math.log1p(x * x / df))


# ---------------------------------------------------------------------------
# anova / pearson / t basics
# ---------------------------------------------------------------------------

def test_anova_identical_groups():
    result = anova_one_way([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
    assert result.F == 0.0
    assert result.p == 1.0


def test_anova_three_groups_matches_oracle():
    groups = [[1, 2, 3], [2, 3, 4], [5, 6, 7]]
    result = anova_one_way(groups)
    f, df_b, df_w = oracle_anova(groups)
    assert result.F == pytest.approx(f, abs=1e-9)
    assert (result.df_between, result.df_within) == (df_b, df_w)


def test_anova_preconditions():
    with pytest.raises(ValueError):
        anova_one_way([[1.0, 2.0]])
    with pytest.raises(ValueError):
        anova_one_way([[1.0], []])
    with pytest.raises(ValueError):
        anova_one_way([[1.0], [2.0]])


def test_anova_zero_within_nonzero_between():
    result = anova_one_way([[1.0, 1.0], [2.0, 2.0]])
    assert result.F == math.inf
    assert result.p == 0.0


def test_pearson_perfect_lines():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson(xs, [2 * x + 1 for x in xs]).r == pytest.approx(1.0)
    assert pearson(xs, [-x for x in xs]).r == pytest.approx(-1.0)


def test_pearson_six_points_matches_oracle():
    x = [0.1, 0.5, 0.2, 0.9, 0.4, 0.7]
    y = [1.0, 2.2, 0.8, 3.1, 1.4, 2.0]
    assert pearson(x, y).r == pytest.approx(oracle_pearson(x, y), abs=1e-12)


def test_pearson_errors():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ZeroVariance):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_t_equal_samples():
    result = t_test_pooled([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.t == 0.0
    assert result.p == pytest.approx(1.0)
    assert result.df == 4


def test_t_matches_oracle():
    a, b = [1.0, 2.0, 3.0], [2.0, 3.0, 4.0]
    result = t_test_pooled(a, b)
    assert result.t == pytest.approx(oracle_t_pooled(a, b), abs=1e-9)
    assert result.df == 4


def test_t_zero_variance():
    with pytest.raises(ZeroVariance):
        t_test_pooled([1.0, 1.0], [1.0, 1.0])


# Constant samples whose float mean is not exact (0.1 * 3 / 3 != 0.1) leave
# rounding error in the sums of squares; constancy is read from the values.

def test_anova_equal_constant_groups_with_inexact_mean():
    result = anova_one_way([[0.1] * 3, [0.1] * 3, [0.1] * 7])
    assert (result.F, result.p) == (0.0, 1.0)


def test_anova_differing_constant_groups_with_inexact_mean():
    result = anova_one_way([[0.1] * 3, [0.2] * 3])
    assert (result.F, result.p) == (math.inf, 0.0)


def test_t_constant_samples_with_inexact_mean():
    with pytest.raises(ZeroVariance, match="pooled variance is zero$"):
        t_test_pooled([0.1] * 3, [0.2] * 3)


def test_pearson_constant_sample_with_inexact_mean():
    with pytest.raises(ZeroVariance):
        pearson([1.0, 2.0, 3.0], [0.1] * 3)


#: Added left to right from 0, the 1.0 is lost beside 1e16 and the sum is
#: 0.0; a compensated sum, which built-in ``sum`` is from Python 3.12, keeps it.
CANCELLING = [1e16, 1.0, -1e16]


def bits(value):
    """A sum's type and exact bits, which tell signed zeros and NaNs apart."""
    return type(value), value.hex() if isinstance(value, float) else value


#: Ints beyond a C long, every float (subnormals, infinities), signed zeros,
#: +-1e308, and cancelling pairs, whose sums a compensated adder would change.
SUMMAND = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=False),
                    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 0.1]))
SUMMANDS = st.lists(st.one_of(SUMMAND.map(lambda v: [v]), SUMMAND.map(lambda v: [v, -v])),
                    max_size=12).map(lambda chunks: [v for chunk in chunks for v in chunk])


@settings(settings.get_profile("fuzz"))
@given(values=SUMMANDS)
def test_ordered_sum_adds_left_to_right_from_int_zero_bit_for_bit(values):
    expected = bits(reduce(add, values, 0))
    assert bits(ordered_sum(values)) == expected
    assert bits(ordered_sum(iter(values))) == expected


def test_float_sums_add_left_to_right_on_every_interpreter():
    assert ordered_sum(CANCELLING) == 0.0
    assert bits(ordered_sum([])) == (int, 0)  # as sum() starts
    table = grouped_means({("a", "x"): CANCELLING, ("b", "x"): [1.0, 2.0]}, ["a", "b"], ["x"])
    assert table.cell("a", "x").mean == table.row_margins["a"].mean == 0.0
    assert table.grand.mean == 0.4  # sorted -1e16, 1.0, 1.0, 2.0, 1e16: only 2.0 is kept
    t = t_test_pooled(CANCELLING, [0.0, 1.0])
    assert (t.mean_a, t.mean_b) == (0.0, 0.5)
    # group sums 0.0 and 1.0, so the grand mean is 0.2 and ss_between 0.3; the
    # within sum of squares is 2e32, and F = 0.3 / (2e32 / 3)
    assert anova_one_way([CANCELLING, [0.0, 1.0]]).F == pytest.approx(4.5e-33, rel=1e-9)


def test_randomized_oracle_agreement():
    rng = random.Random(424242)
    for _ in range(150):
        k = rng.randint(2, 4)
        groups = [[rng.uniform(0, 3) for _ in range(rng.randint(2, 8))]
                  for _ in range(k)]
        result = anova_one_way(groups)
        f, df_b, df_w = oracle_anova(groups)
        assert result.F == pytest.approx(f, abs=1e-9)

        n = rng.randint(3, 12)
        x = [rng.uniform(-2, 2) for _ in range(n)]
        y = [rng.uniform(-2, 2) for _ in range(n)]
        assert pearson(x, y).r == pytest.approx(oracle_pearson(x, y), abs=1e-9)

        a = [rng.uniform(0, 1) for _ in range(rng.randint(2, 9))]
        b = [rng.uniform(0, 1) for _ in range(rng.randint(2, 9))]
        assert t_test_pooled(a, b).t == pytest.approx(oracle_t_pooled(a, b), abs=1e-9)


def test_two_group_anova_equals_t_squared():
    rng = random.Random(11)
    for _ in range(100):
        a = [rng.uniform(0, 1) for _ in range(rng.randint(2, 9))]
        b = [rng.uniform(0, 1) for _ in range(rng.randint(2, 9))]
        f = anova_one_way([a, b]).F
        t = t_test_pooled(a, b).t
        assert f == pytest.approx(t * t, abs=1e-9)
        assert anova_one_way([a, b]).p == pytest.approx(t_test_pooled(a, b).p, abs=1e-9)


# ---------------------------------------------------------------------------
# p-values: monotonicity and quadrature cross-check
# ---------------------------------------------------------------------------

def test_p_monotone_in_statistic():
    for df in ((3, 96), (1, 98), (2, 10)):
        ps = [anova_p for anova_p in
              (reg_inc_beta(df[1] / 2, df[0] / 2, df[1] / (df[1] + df[0] * f))
               for f in (0.5, 1.0, 2.0, 4.0, 8.0))]
        assert ps == sorted(ps, reverse=True)
    for df in (5, 96):
        ps = [t_two_sided(t, df) for t in (0.2, 0.8, 1.58, 3.0, 6.0)]
        assert ps == sorted(ps, reverse=True)


def test_cdfs_match_numerical_integration():
    # the CDFs are read off the tails the statistics call: 1 - f_sf for F,
    # half of t_two_sided beyond |t| on either side for t
    from scipy.integrate import quad
    for df1, df2 in ((1, 5), (3, 96), (2, 10), (6, 40)):
        for stat in (0.3, 1.0, 2.5, 7.31):
            numeric, err = quad(f_pdf, 0, stat, args=(df1, df2), limit=200)
            assert err < 1e-7
            assert 1 - f_sf(stat, df1, df2) == pytest.approx(numeric, abs=1e-6)
    for df in (2, 10, 96):
        for stat in (-2.5, -0.7, 0.4, 1.58, 3.2):
            numeric, err = quad(t_pdf, 0, abs(stat), args=(df,), limit=200)
            assert err < 1e-7
            tail = t_two_sided(stat, df) / 2
            expected = 0.5 + numeric if stat >= 0 else 0.5 - numeric
            assert (1 - tail if stat >= 0 else tail) == pytest.approx(expected, abs=1e-6)


def test_known_reference_p_values():
    # spot values from standard tables
    assert t_two_sided(1.58, 96) == pytest.approx(0.1174, abs=5e-4)
    assert reg_inc_beta(48.0, 1.5, 96 / (96 + 3 * 7.31)) < 0.001  # F(3,96)=7.31


# ---------------------------------------------------------------------------
# grouped means and panels
# ---------------------------------------------------------------------------

def make_record(i, token, op_kind, pops, pause, constituent="cue_phrase"):
    op = FocusingOperation(OpKind(op_kind), pops)
    return CodedRecord(
        fragment_index=i, pause_before_s=pause, initial_constituent=constituent,
        initial_token=token if constituent == "cue_phrase" else "",
        operation=op, embedding_depth=1,
        segments_affected=op.pop_count + op.pushes,
        prior_function="topical", subsequent_function="topical",
        turn_position="continuing", marked=constituent != "unmarked")


def test_json_report_writes_infinite_f_as_null():
    records = ([make_record(i, "So", "Initiate", 0, 0.2) for i in range(3)]
               + [make_record(i, "So", "Retain", 0, 0.5) for i in range(3, 6)])
    report = compute_report(records)
    assert report.anova.F == math.inf
    assert "F(1, 4) = inf, p < .001" in render_text(report)

    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    payload = json.loads(render_json(report), parse_constant=reject)
    assert payload["tests"]["anova"]["F"] is None
    assert payload["notes"][-1].startswith("ANOVA F is infinite")


def test_margins_are_count_weighted():
    table = grouped_means({("A", "x"): [1.0, 3.0], ("A", "y"): [8.0], ("B", "x"): [4.0]},
                          row_order=("A", "B"), col_order=("x", "y"))
    assert table.cell("A", "x").mean == pytest.approx(2.0)
    assert table.row_margins["A"].mean == pytest.approx(4.0)   # (1+3+8)/3
    assert table.col_margins["x"].mean == pytest.approx(8 / 3)
    assert table.grand.mean == pytest.approx(4.0)
    assert table.grand.count == 4
    assert table.cell("B", "y") is None


def test_single_record_margins():
    records = [make_record(0, "So", "Retain", 0, 0.3)]
    table = compute_report(records).by_token_and_operation
    assert table.cell("So", "Retain").mean == pytest.approx(0.3)
    assert table.row_margins["So"].mean == pytest.approx(0.3)
    assert table.col_margins["Retain"].mean == pytest.approx(0.3)
    assert table.grand.mean == pytest.approx(0.3)


def test_all_zero_pauses():
    records = [make_record(i, "And", "Retain", 0, 0.0) for i in range(4)]
    table = compute_report(records).by_operation
    assert table.row_margins["Retain"].mean == 0.0


def test_permutation_invariance(corpus_records):
    rng = random.Random(3)
    shuffled = list(corpus_records)
    rng.shuffle(shuffled)
    base = compute_report(corpus_records).by_token_and_operation
    perm = compute_report(shuffled).by_token_and_operation
    assert base.cells == perm.cells
    assert base.grand == perm.grand
    dist_a = table_distributions(corpus_records)
    dist_b = table_distributions(shuffled)
    assert dist_a.operation_marked.cells == dist_b.operation_marked.cells


def test_empty_records_distribution_panel():
    dist = table_distributions([])
    assert dist.operation_marked.total == 0
    assert dist.token_position.total == 0
    assert dist.pause_panel.bins == ()


# ---------------------------------------------------------------------------
# published-table values on the bundled corpus
# ---------------------------------------------------------------------------

def test_operation_marked_counts(corpus_records):
    panel = table_distributions(corpus_records).operation_marked
    assert panel.cell("Retain", "marked") == 18
    assert panel.cell("Retain", "unmarked") == 37
    assert panel.col_total("marked") == 44
    assert panel.col_total("unmarked") == 56


def test_pause_histogram_uses_inventory(corpus_records, corpus_pauses):
    panel = table_distributions(corpus_records, corpus_pauses).pause_panel
    assert panel.totals["fragment_initial"] == 41
    assert panel.totals["fragment_internal"] == 62
    assert panel.averages["fragment_initial"] == pytest.approx(0.422, abs=0.01)
    assert panel.averages["fragment_internal"] == pytest.approx(0.224, abs=0.01)
    assert panel.count(0.4, "fragment_initial") == 11


def test_operation_means(corpus_records):
    table = compute_report(corpus_records).by_operation
    replace = table.row_margins["Replace"]
    assert replace.mean == pytest.approx(0.65, abs=1e-9)
    assert replace.count == 11
    initiate = table.row_margins["Initiate"]
    assert initiate.mean == pytest.approx(0.32, abs=0.005)
    assert initiate.count == 23


def test_token_table_margins(corpus_records):
    table = compute_report(corpus_records).by_token_and_operation
    so = table.row_margins["So"]
    assert so.mean == pytest.approx(0.13, abs=1e-9)
    assert so.count == 5
    filled = table.row_margins["Filled Pause"]
    assert round(filled.mean, 2) == pytest.approx(0.14)
    assert filled.count == 11


def test_marked_unmarked_aggregates(corpus_records):
    table = compute_report(corpus_records).by_marking
    marked = table.row_margins["Marked"]
    unmarked = table.row_margins["Unmarked"]
    assert marked.mean == pytest.approx(0.24, abs=0.01)
    assert marked.count == 44
    assert unmarked.mean == pytest.approx(0.33, abs=0.01)
    assert unmarked.count == 56
    cell = table.cell("Unmarked", "Replace")
    assert cell.mean == pytest.approx(1.15, abs=1e-9)
    assert cell.count == 4


def test_marked_rows_recombine_from_token_cells(corpus_records):
    report = compute_report(corpus_records)
    token_table, marking_table = report.by_token_and_operation, report.by_marking
    for op in ("Initiate", "Retain", "Return", "Replace"):
        mass = 0.0
        count = 0
        for row in token_table.row_order:
            if row == "Unmarked":
                continue
            cell = token_table.cell(row, op)
            if cell is not None:
                mass += cell.mean * cell.count
                count += cell.count
        cell = marking_table.cell("Marked", op)
        if count:
            assert cell.count == count
            assert cell.mean == pytest.approx(mass / count, abs=1e-12)
        else:
            assert cell is None


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def test_compute_report_on_corpus(corpus_records, corpus_pauses):
    report = compute_report(corpus_records, corpus_pauses)
    assert (report.anova.df_between, report.anova.df_within) == (3, 96)
    assert report.t_test.df == 98
    assert report.correlation.r > 0
    assert report.correlation.n == 100
    assert report.t_test.mean_b > report.t_test.mean_a
    assert any("T(96)" in note for note in report.notes)


def test_records_without_pause_are_excluded(corpus_records):
    broken = list(corpus_records)
    rec = broken[0]
    broken[0] = rebuilt(rec, pause_before_s=None)
    report = compute_report(broken)
    assert report.excluded_records == 1
    assert any("excluded" in note for note in report.notes)


# ---------------------------------------------------------------------------
# differential: the one-pass report against the straightforward one
# ---------------------------------------------------------------------------

def outcome(compute, records, pauses):
    try:
        return compute(records, pauses).to_dict()
    except ValueError as exc:
        return repr(exc)


def test_report_equals_oracle_on_corpus(corpus_records, corpus_pauses):
    for pauses in (None, corpus_pauses):
        report = compute_report(corpus_records, pauses).to_dict()
        assert report == stats_oracle.compute_report(corpus_records, pauses).to_dict()


#: Repeated values make constant cells and groups; rounding keeps pauses
#: realistic; -0.0 passes the readers' ``minimum=0.0`` rule.
PAUSE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.35, 1.0]),
                         st.floats(0.0, 5.0).map(lambda v: round(v, 3)))
#: Constituents of mixed, all marked and all unmarked record sets.
MARKINGS = [CONSTITUENTS, [c for c in CONSTITUENTS if c != "unmarked"], ["unmarked"]]


@st.composite
def record_sets(draw):
    """Records over a few operations, some unmeasured, some cells constant,
    and some sets of one operation kind or of one marking only."""
    kinds = draw(st.lists(st.sampled_from(list(OpKind)), min_size=1, max_size=4,
                          unique=True))
    constituents = draw(st.sampled_from(MARKINGS))
    constant = {kind: draw(PAUSE_VALUES) for kind in kinds if draw(st.booleans())}
    records = []
    for i in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(kinds))
        pops = 0 if kind in (OpKind.INITIATE, OpKind.RETAIN) else draw(st.integers(1, 3))
        constituent = draw(st.sampled_from(constituents))
        token = draw(st.sampled_from(["And", "So", "Now", "Anyway", ""]))
        if draw(st.integers(0, 5)) == 0:
            pause = None
        else:
            pause = constant[kind] if kind in constant else draw(PAUSE_VALUES)
        records.append(make_record(i, token, kind.value, pops, pause, constituent))
    return records


@settings(settings.get_profile("fuzz"))
@given(records=record_sets(),
       pauses=st.none() | st.lists(records(PAUSE_FIELDS, PauseRecord,
                                           raw_duration_s=PAUSE_VALUES), max_size=6))
def test_report_equals_oracle_on_generated_records(records, pauses):
    assert outcome(compute_report, records, pauses) == \
        outcome(stats_oracle.compute_report, records, pauses)


@settings(settings.get_profile("fuzz"))
@given(records=record_sets())
def test_tables_sharing_pools_equal_tables_summing_each_pool_on_its_own(records):
    assume(any(rec.pause_before_s is not None for rec in records))
    report = compute_report(records)
    oracle = stats_oracle.compute_report(records)  # every pool sorted and summed anew
    unshared = report._replace(by_operation=oracle.by_operation,
                               by_token_and_operation=oracle.by_token_and_operation,
                               by_marking=oracle.by_marking)
    assert render_json(report) == render_json(unshared)  # bytes show a signed zero
    # a pool of the same values is one statistic: the grands are every value,
    # by_operation's cells are its row margins, and its column margin is the
    # grand and its cells the other tables' column margins
    by_op, by_token, by_marking = (report.by_operation, report.by_token_and_operation,
                                   report.by_marking)
    assert by_op.grand is by_token.grand is by_marking.grand is by_op.col_margins["ALL"]
    for (kind, _), stat in by_op.cells.items():
        assert stat is by_op.row_margins[kind] is by_token.col_margins[kind] \
            is by_marking.col_margins[kind]
