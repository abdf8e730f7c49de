"""Statistics over coded records: grouped means, counts, and the three tests.

Regenerates the published summary tables (operation and marker counts, mean
pause durations by operation, by initial token and operation, and by
marked/unmarked status) and runs a one-way ANOVA, a Pearson correlation and
a pooled two-sample t-test over pause durations.

p-values are computed from the regularized incomplete beta function,
evaluated by continued fraction (modified Lentz).  For the F distribution,
    P(F > f) = I_x(d2/2, d1/2)      with x = d2 / (d2 + d1 f),
and for Student's t (two-sided),
    p = I_x(df/2, 1/2)              with x = df / (df + t^2).
The Pearson p-value uses the transform t = r sqrt((n-2) / (1-r^2)).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence

from .focus import OP_KINDS, OpKind
from .fragments import ROW_LABELS, CodedRecord
from .pauses import PauseRecord, ordered_sum, round_tenth

CANONICAL_TOKEN_ROWS = ("And", "But", "Now", "Oh", "So", "Well", "Y'know", "Ordinal")
TAIL_TOKEN_ROWS = tuple(ROW_LABELS.values())
#: An operation kind's name; the enum's ``.value`` property is slower per record.
_KIND_NAME = {kind: kind.value for kind in OpKind}


class ZeroVariance(Exception):
    """A test that needs spread was handed constant data."""


# ---------------------------------------------------------------------------
# Regularized incomplete beta (continued fraction) and the derived p-values
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz iteration."""
    max_iter = 300
    eps = 3e-15
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the even step, then the odd one
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (tiny if abs(d) < tiny else d)
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_sf(f: float, df1: int, df2: int) -> float:
    """Upper tail of the F distribution."""
    if f <= 0:
        return 1.0
    if math.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return reg_inc_beta(df2 / 2.0, df1 / 2.0, x)


def t_two_sided(t: float, df: int) -> float:
    """Two-sided p-value for Student's t."""
    if t == 0:
        return 1.0
    x = df / (df + t * t)
    return reg_inc_beta(df / 2.0, 0.5, x)


# ---------------------------------------------------------------------------
# Result containers
# ---------------------------------------------------------------------------

class CellStat(NamedTuple):
    mean: float
    count: int
    sd: float | None = None


class GroupedMeans(NamedTuple):
    """Cell means with count-weighted row, column and grand margins."""

    cells: dict[tuple[str, str], CellStat]
    row_margins: dict[str, CellStat]
    col_margins: dict[str, CellStat]
    grand: CellStat
    row_order: tuple[str, ...]
    col_order: tuple[str, ...]

    def cell(self, row: str, col: str) -> CellStat | None:
        return self.cells.get((row, col))

    def to_dict(self) -> dict:
        return {
            "rows": list(self.row_order),
            "cols": list(self.col_order),
            "cells": {row: {col: self.cells[(row, col)]._asdict()
                            for col in self.col_order if (row, col) in self.cells}
                      for row in self.row_order},
            "row_margins": {row: stat._asdict() for row, stat in self.row_margins.items()},
            "col_margins": {col: stat._asdict() for col, stat in self.col_margins.items()},
            "grand": self.grand._asdict(),
        }


class AnovaResult(NamedTuple):
    F: float
    df_between: int
    df_within: int
    p: float


class CorrResult(NamedTuple):
    r: float
    n: int
    p: float


class TTestResult(NamedTuple):
    t: float
    df: int
    p: float
    mean_a: float
    mean_b: float
    sd_a: float
    sd_b: float
    n_a: int
    n_b: int


def _pooled(runs: Sequence[tuple[float, ...]], shared: dict) -> CellStat:
    """The statistic of the pool of the sorted ``runs``, summed in sorted order
    so that it holds under permutation.  ``shared`` maps each pool already
    seen to its statistic, and a pool of the same values reuses it."""
    ordered = runs[0] if len(runs) == 1 else tuple(sorted(chain.from_iterable(runs)))
    stat = shared.get(ordered)
    if stat is None:
        n = len(ordered)
        mean = ordered_sum(ordered) / n
        sd = (math.sqrt(ordered_sum((v - mean) ** 2 for v in ordered) / (n - 1))
              if n >= 2 else None)
        stat = shared[ordered] = CellStat(mean=mean, count=n, sd=sd)
    return stat


def grouped_means(cells: Mapping[tuple[str, str], Sequence[float]],
                  row_order: Sequence[str], col_order: Sequence[str],
                  shared: dict | None = None) -> GroupedMeans:
    """Build a table of cell means from the values of each nonempty (row, col) cell.

    Absent cells stay absent rather than reading as zero.  Margins are
    count-weighted, so permuting the input leaves every statistic unchanged.
    ``compute_report`` passes its three tables one ``shared`` map, so a pool
    that two of them hold is computed once.
    """
    if not cells:
        raise ValueError("no values to aggregate")
    shared = {} if shared is None else shared
    # margins pool sorted runs, which sort as cheap merges
    ordered = {key: tuple(sorted(vals)) for key, vals in cells.items()}
    rows: dict[str, list[tuple[float, ...]]] = {}
    cols: dict[str, list[tuple[float, ...]]] = {}
    for (row, col), vals in ordered.items():
        rows.setdefault(row, []).append(vals)
        cols.setdefault(col, []).append(vals)
    return GroupedMeans(
        cells={key: _pooled([vals], shared) for key, vals in ordered.items()},
        row_margins={row: _pooled(runs, shared) for row, runs in rows.items()},
        col_margins={col: _pooled(runs, shared) for col, runs in cols.items()},
        grand=_pooled(list(ordered.values()), shared),
        row_order=tuple(row_order),
        col_order=tuple(col_order),
    )


# ---------------------------------------------------------------------------
# Distribution panels
# ---------------------------------------------------------------------------

class CountPanel(NamedTuple):
    cells: dict[tuple[str, str], int]
    row_order: tuple[str, ...]
    col_order: tuple[str, ...]

    def cell(self, row: str, col: str) -> int:
        return self.cells.get((row, col), 0)

    def row_total(self, row: str) -> int:
        return sum(self.cell(row, col) for col in self.col_order)

    def col_total(self, col: str) -> int:
        return sum(self.cell(row, col) for row in self.row_order)

    @property
    def total(self) -> int:
        return sum(self.cells.values())

    def to_dict(self) -> dict:
        return {"rows": list(self.row_order), "cols": list(self.col_order),
                "cells": {row: {col: self.cell(row, col) for col in self.col_order}
                          for row in self.row_order}}


class PausePanel(NamedTuple):
    """Histogram of reported pause durations at 0.1 s bins by position."""

    bins: tuple[float, ...]
    counts: dict[tuple[float, str], int]
    totals: dict[str, int]
    averages: dict[str, float | None]

    def count(self, bin_s: float, position: str) -> int:
        return self.counts.get((bin_s, position), 0)

    def to_dict(self) -> dict:
        return {
            "bins": list(self.bins),
            "initial": [self.count(b, "fragment_initial") for b in self.bins],
            "internal": [self.count(b, "fragment_internal") for b in self.bins],
            "totals": dict(self.totals),
            "averages": dict(self.averages),
        }


class DistributionTables(NamedTuple):
    operation_marked: CountPanel
    token_position: CountPanel
    pause_panel: PausePanel

    def to_dict(self) -> dict:
        return {"operation_marked_counts": self.operation_marked.to_dict(),
                "token_position_counts": self.token_position.to_dict(),
                "pause_histogram": self.pause_panel.to_dict()}


def _token_rows(present: Iterable[str]) -> tuple[str, ...]:
    """Order token rows: canonical cue rows, other cues sorted, then the tail rows."""
    present = set(present)
    head = [row for row in CANONICAL_TOKEN_ROWS if row in present]
    extras = sorted(present - set(CANONICAL_TOKEN_ROWS) - set(TAIL_TOKEN_ROWS))
    tail = [row for row in TAIL_TOKEN_ROWS if row in present]
    return tuple(head + extras + tail)


def table_distributions(records: Sequence[CodedRecord],
                        pauses: Sequence[PauseRecord] | None = None) -> DistributionTables:
    """Count panels for operations, initial tokens and pause durations.

    The token panel splits rows into segment-initial fragments (the
    operation changed the stack) and segment-internal ones (Retain).  The
    pause histogram prefers a measured pause inventory when one is supplied;
    otherwise it bins the records' own preceding pauses, which are
    fragment-initial by construction.
    """
    op_cells: dict[tuple[str, str], int] = {}
    token_cells: dict[tuple[str, str], int] = {}
    for rec in records:
        kind = rec.operation.kind
        op_key = (_KIND_NAME[kind], "marked" if rec.marked else "unmarked")
        op_cells[op_key] = op_cells.get(op_key, 0) + 1
        tok_key = (rec.row_label(), "internal" if kind is OpKind.RETAIN else "initial")
        token_cells[tok_key] = token_cells.get(tok_key, 0) + 1

    if pauses is not None:
        hist_pairs = ((round_tenth(p.reported_duration_s), p.position) for p in pauses)
    else:
        hist_pairs = ((round_tenth(rec.pause_before_s), "fragment_initial")
                      for rec in records if rec.pause_before_s is not None)
    counts: dict[tuple[float, str], int] = {}
    sums: dict[str, float] = {"fragment_initial": 0.0, "fragment_internal": 0.0}
    totals: dict[str, int] = {"fragment_initial": 0, "fragment_internal": 0}
    for bin_s, position in hist_pairs:
        counts[(bin_s, position)] = counts.get((bin_s, position), 0) + 1
        totals[position] += 1
        sums[position] += bin_s
    bins = tuple(sorted({b for b, _ in counts}))
    averages = {pos: (sums[pos] / totals[pos] if totals[pos] else None)
                for pos in totals}

    return DistributionTables(
        operation_marked=CountPanel(cells=op_cells, row_order=OP_KINDS,
                                    col_order=("marked", "unmarked")),
        token_position=CountPanel(cells=token_cells,
                                  row_order=_token_rows(row for row, _ in token_cells),
                                  col_order=("initial", "internal")),
        pause_panel=PausePanel(bins=bins, counts=counts, totals=totals,
                               averages=averages),
    )


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def anova_one_way(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """Classical one-way fixed-effects ANOVA.

    Constant groups are detected from the values, before any rounding sum:
    if every group is constant, equal constants yield F = 0 and p = 1 and
    differing ones an infinite F with p = 0, rather than an exception or a
    finite F made of rounding error.
    """
    if len(groups) < 2:
        raise ValueError("need at least two groups")
    if any(len(g) == 0 for g in groups):
        raise ValueError("groups must be nonempty")
    n_total = sum(len(g) for g in groups)
    k = len(groups)
    if n_total <= k:
        raise ValueError("need more observations than groups")

    df_between = k - 1
    df_within = n_total - k
    if all(min(g) == max(g) for g in groups):
        if all(g[0] == groups[0][0] for g in groups):
            return AnovaResult(F=0.0, df_between=df_between, df_within=df_within, p=1.0)
        return AnovaResult(F=math.inf, df_between=df_between, df_within=df_within, p=0.0)

    sums = [ordered_sum(g) for g in groups]
    means = [total / len(g) for total, g in zip(sums, groups)]
    grand = ordered_sum(sums) / n_total
    ss_between = ordered_sum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ss_within = ordered_sum(ordered_sum((x - m) ** 2 for x in g) for g, m in zip(groups, means))
    if ss_within == 0.0:  # spread too small to square without underflow
        if ss_between == 0.0:
            return AnovaResult(F=0.0, df_between=df_between, df_within=df_within, p=1.0)
        return AnovaResult(F=math.inf, df_between=df_between, df_within=df_within, p=0.0)
    f = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(F=f, df_between=df_between, df_within=df_within,
                       p=f_sf(f, df_between, df_within))


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrResult:
    """Sample Pearson correlation with a t-transform p-value."""
    if len(x) != len(y):
        raise ValueError("samples must have equal length")
    n = len(x)
    if n < 3:
        raise ValueError("need at least three pairs")
    if min(x) == max(x) or min(y) == max(y):
        raise ZeroVariance("correlation undefined for constant samples")
    mx = ordered_sum(x) / n
    my = ordered_sum(y) / n
    sxx = ordered_sum((v - mx) ** 2 for v in x)
    syy = ordered_sum((v - my) ** 2 for v in y)
    if sxx == 0.0 or syy == 0.0:  # spread too small to square without underflow
        raise ZeroVariance("correlation undefined for constant samples")
    sxy = ordered_sum((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return CorrResult(r=r, n=n, p=0.0)
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return CorrResult(r=r, n=n, p=t_two_sided(t, n - 2))


def t_test_pooled(a: Sequence[float], b: Sequence[float]) -> TTestResult:
    """Two-sample t-test with pooled variance, two-sided p, df = n_a + n_b - 2."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each group needs at least two observations")
    if min(a) == max(a) and min(b) == max(b):
        if a[0] == b[0]:
            raise ZeroVariance("pooled variance is zero and the means agree")
        raise ZeroVariance("pooled variance is zero")
    na, nb = len(a), len(b)
    ma = ordered_sum(a) / na
    mb = ordered_sum(b) / nb
    ssa = ordered_sum((v - ma) ** 2 for v in a)
    ssb = ordered_sum((v - mb) ** 2 for v in b)
    df = na + nb - 2
    pooled_var = (ssa + ssb) / df
    if pooled_var == 0.0:  # spread too small to square without underflow
        if ma == mb:
            raise ZeroVariance("pooled variance is zero and the means agree")
        raise ZeroVariance("pooled variance is zero")
    se = math.sqrt(pooled_var * (1.0 / na + 1.0 / nb))
    t = (ma - mb) / se
    sd_a = math.sqrt(ssa / (na - 1))
    sd_b = math.sqrt(ssb / (nb - 1))
    return TTestResult(t=t, df=df, p=t_two_sided(t, df), mean_a=ma, mean_b=mb,
                       sd_a=sd_a, sd_b=sd_b, n_a=na, n_b=nb)


# ---------------------------------------------------------------------------
# Full report assembly
# ---------------------------------------------------------------------------

class StatsReport(NamedTuple):
    n_records: int
    excluded_records: int
    distributions: DistributionTables
    by_operation: GroupedMeans
    by_token_and_operation: GroupedMeans
    by_marking: GroupedMeans
    anova: AnovaResult | None
    correlation: CorrResult | None
    t_test: TTestResult | None
    notes: list[str]
    config_note: str = ""

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "config": self.config_note,
            "n_records": self.n_records,
            "excluded_records": self.excluded_records,
            "tables": {
                **self.distributions.to_dict(),
                "mean_pause_by_operation": self.by_operation.to_dict(),
                "mean_pause_by_token_and_operation": self.by_token_and_operation.to_dict(),
                "marked_unmarked": self.by_marking.to_dict(),
            },
            "tests": {
                "anova": self.anova._asdict() if self.anova else None,
                "pearson": self.correlation._asdict() if self.correlation else None,
                "t_test": self.t_test._asdict() if self.t_test else None,
            },
            "notes": list(self.notes),
        }


def compute_report(records: Sequence[CodedRecord],
                   pauses: Sequence[PauseRecord] | None = None,
                   config_note: str = "") -> StatsReport:
    """Aggregate every table and test; degenerate inputs drop a test with a note.

    The one place that groups pauses into tables: ``pausecue stats`` prints
    the report and ``replication.run_checks`` checks it.
    """
    if not records:
        raise ValueError("no records to analyze")
    # One pass fills the cells of the three pause-mean tables, keyed by (row,
    # col), and the samples of the three tests, skipping the records without
    # a measured pause.  The per-operation cells, in record order, are also
    # the ANOVA groups.  The t-test and Pearson samples keep record order as
    # well; the segments affected stay ints, whose sums are as exact as their
    # floats'.
    measured: list[CodedRecord] = []
    op_cells: dict[tuple[str, str], list[float]] = {}
    token_cells: dict[tuple[str, str], list[float]] = {}
    marking_cells: dict[tuple[str, str], list[float]] = {}
    durations: list[float] = []
    affected: list[int] = []
    marked: list[float] = []
    unmarked: list[float] = []
    for rec in records:
        value = rec.pause_before_s
        if value is None:
            continue
        measured.append(rec)
        kind = _KIND_NAME[rec.operation.kind]
        op_cells.setdefault((kind, "ALL"), []).append(value)
        token_cells.setdefault((rec.row_label(), kind), []).append(value)
        mark = "Marked" if rec.marked else "Unmarked"
        marking_cells.setdefault((mark, kind), []).append(value)
        (marked if rec.marked else unmarked).append(value)
        durations.append(value)
        affected.append(rec.segments_affected)
    excluded = len(records) - len(measured)
    notes: list[str] = []
    if excluded:
        notes.append(f"{excluded} record(s) without a measured pause were excluded")

    distributions = table_distributions(measured, pauses)
    # each grand is every value, and the other tables' column margins are by_op's cells
    shared: dict = {}
    by_op = grouped_means(op_cells, OP_KINDS, ("ALL",), shared)
    by_token = grouped_means(token_cells, _token_rows(row for row, _ in token_cells),
                             OP_KINDS, shared)
    by_marking = grouped_means(marking_cells, ("Marked", "Unmarked"), OP_KINDS, shared)

    anova = None
    try:
        anova = anova_one_way([op_cells[(op, "ALL")] for op in OP_KINDS
                               if (op, "ALL") in op_cells])
    except ValueError as exc:
        notes.append(f"ANOVA skipped: {exc}")

    correlation = None
    try:
        correlation = pearson(affected, durations)
    except (ValueError, ZeroVariance) as exc:
        notes.append(f"correlation skipped: {exc}")

    t_test = None
    try:
        t_test = t_test_pooled(marked, unmarked)
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
