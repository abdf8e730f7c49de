"""Straightforward reference for ``stats.compute_report``.

Each table is built on its own from (row, col, value) triples and each test
sample by its own list comprehension, and the ANOVA recomputes a group mean
for every element.  The production path groups the records in one pass and
must give exactly the same report.  Float sums add left to right from 0,
as the report's do on every interpreter: built-in ``sum`` is compensated
from Python 3.12.
"""

import math
from functools import reduce
from operator import add

from pausecue.focus import OP_KINDS, OpKind
from pausecue.pauses import round_tenth
from pausecue.stats import (CANONICAL_TOKEN_ROWS, TAIL_TOKEN_ROWS, AnovaResult, CellStat,
                            CountPanel, DistributionTables, GroupedMeans,
                            PausePanel, StatsReport, ZeroVariance, f_sf, pearson,
                            t_test_pooled)


def total(values):
    return reduce(add, values, 0)


def stat(values):
    ordered = sorted(values)
    n = len(ordered)
    mean = total(ordered) / n
    sd = None
    if n >= 2:
        sd = math.sqrt(total((v - mean) ** 2 for v in ordered) / (n - 1))
    return CellStat(mean=mean, count=n, sd=sd)


def grouped_means(triples, row_order, col_order):
    by_cell, by_row, by_col, everything = {}, {}, {}, []
    for row, col, value in triples:
        by_cell.setdefault((row, col), []).append(value)
        by_row.setdefault(row, []).append(value)
        by_col.setdefault(col, []).append(value)
        everything.append(value)
    if not everything:
        raise ValueError("no values to aggregate")
    return GroupedMeans(
        cells={key: stat(vals) for key, vals in by_cell.items()},
        row_margins={row: stat(vals) for row, vals in by_row.items()},
        col_margins={col: stat(vals) for col, vals in by_col.items()},
        grand=stat(everything), row_order=tuple(row_order), col_order=tuple(col_order))


def token_rows(records):
    present = {rec.row_label() for rec in records}
    head = [row for row in CANONICAL_TOKEN_ROWS if row in present]
    extras = sorted(present - set(CANONICAL_TOKEN_ROWS) - set(TAIL_TOKEN_ROWS))
    tail = [row for row in TAIL_TOKEN_ROWS if row in present]
    return tuple(head + extras + tail)


def table_distributions(records, pauses):
    op_cells, token_cells = {}, {}
    for rec in records:
        mark = "marked" if rec.marked else "unmarked"
        op_key = (rec.operation.kind.value, mark)
        op_cells[op_key] = op_cells.get(op_key, 0) + 1
        pos = "internal" if rec.operation.kind is OpKind.RETAIN else "initial"
        tok_key = (rec.row_label(), pos)
        token_cells[tok_key] = token_cells.get(tok_key, 0) + 1
    if pauses is not None:
        hist_pairs = [(round_tenth(p.reported_duration_s), p.position) for p in pauses]
    else:
        hist_pairs = [(round_tenth(rec.pause_before_s), "fragment_initial")
                      for rec in records if rec.pause_before_s is not None]
    counts = {}
    sums = {"fragment_initial": 0.0, "fragment_internal": 0.0}
    totals = {"fragment_initial": 0, "fragment_internal": 0}
    for bin_s, position in hist_pairs:
        counts[(bin_s, position)] = counts.get((bin_s, position), 0) + 1
        totals[position] += 1
        sums[position] += bin_s
    averages = {pos: (sums[pos] / totals[pos] if totals[pos] else None) for pos in totals}
    return DistributionTables(
        operation_marked=CountPanel(cells=op_cells, row_order=OP_KINDS,
                                    col_order=("marked", "unmarked")),
        token_position=CountPanel(cells=token_cells, row_order=token_rows(records),
                                  col_order=("initial", "internal")),
        pause_panel=PausePanel(bins=tuple(sorted({b for b, _ in hist_pairs})),
                               counts=counts, totals=totals, averages=averages))


def anova_one_way(groups):
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    n_total = sum(len(g) for g in groups)
    k = len(groups)
    if n_total <= k:
        raise ValueError("need more observations than groups")
    df_between, df_within = k - 1, n_total - k
    if all(len(set(g)) == 1 for g in groups):
        if len({g[0] for g in groups}) == 1:
            return AnovaResult(F=0.0, df_between=df_between, df_within=df_within, p=1.0)
        return AnovaResult(F=math.inf, df_between=df_between, df_within=df_within, p=0.0)
    grand = total(total(g) for g in groups) / n_total
    ss_between = total(len(g) * (total(g) / len(g) - grand) ** 2 for g in groups)
    ss_within = total(total((x - total(g) / len(g)) ** 2 for x in g) for g in groups)
    if ss_within == 0.0:
        f = 0.0 if ss_between == 0.0 else math.inf
        return AnovaResult(F=f, df_between=df_between, df_within=df_within,
                           p=1.0 if f == 0.0 else 0.0)
    f = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(F=f, df_between=df_between, df_within=df_within,
                       p=f_sf(f, df_between, df_within))


def compute_report(records, pauses=None, config_note=""):
    if not records:
        raise ValueError("no records to analyze")
    measured = [rec for rec in records if rec.pause_before_s is not None]
    excluded = len(records) - len(measured)
    notes = []
    if excluded:
        notes.append(f"{excluded} record(s) without a measured pause were excluded")

    distributions = table_distributions(measured, pauses)
    by_op = grouped_means([(rec.operation.kind.value, "ALL", rec.pause_before_s)
                           for rec in measured], OP_KINDS, ("ALL",))
    by_token = grouped_means([(rec.row_label(), rec.operation.kind.value, rec.pause_before_s)
                              for rec in measured], token_rows(measured), OP_KINDS)
    by_marking = grouped_means([("Marked" if rec.marked else "Unmarked",
                                 rec.operation.kind.value, rec.pause_before_s)
                                for rec in measured], ("Marked", "Unmarked"), OP_KINDS)

    anova = None
    groups = [[rec.pause_before_s for rec in measured if rec.operation.kind.value == op]
              for op in OP_KINDS]
    try:
        anova = anova_one_way([g for g in groups if g])
    except ValueError as exc:
        notes.append(f"ANOVA skipped: {exc}")

    correlation = None
    try:
        correlation = pearson([float(rec.segments_affected) for rec in measured],
                              [rec.pause_before_s for rec in measured])
    except (ValueError, ZeroVariance) as exc:
        notes.append(f"correlation skipped: {exc}")

    t_test = None
    try:
        t_test = t_test_pooled([rec.pause_before_s for rec in measured if rec.marked],
                               [rec.pause_before_s for rec in measured if not rec.marked])
    except (ValueError, ZeroVariance) as exc:
        notes.append(f"marked/unmarked t-test skipped: {exc}")
    if t_test is not None:
        notes.append(f"pooled t-test df = {t_test.df} "
                     f"({t_test.n_a} marked vs {t_test.n_b} unmarked); "
                     "the published analysis reports T(96)")
    notes.append("token panel: initial = the operation changed the stack, "
                 "internal = Retain; the published split (45/54) is not "
                 "derivable from the coded fields")
    if pauses is not None:
        notes.append("pause histogram drawn from the measured pause inventory, "
                     "which is larger than the fragment inventory")
    return StatsReport(n_records=len(records), excluded_records=excluded,
                       distributions=distributions, by_operation=by_op,
                       by_token_and_operation=by_token, by_marking=by_marking,
                       anova=anova, correlation=correlation, t_test=t_test,
                       notes=notes, config_note=config_note)
