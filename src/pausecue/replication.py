"""Bundled replication corpus and the checks run against it.

The original per-fragment data behind the published tables was never
released, so the bundled corpus is reconstructed from the token-by-operation
panel: each cell contributes ``count`` records whose preceding pause equals
the cell mean.  That reproduces every published cell mean and count exactly
while collapsing the within-cell variance, which is why the published F, r
and t values themselves are declared non-reproducible; their degrees of
freedom, signs and orderings are checked instead.

The measured-pause inventory is reconstructed the same way from the
published duration histogram (41 fragment-initial and 62 fragment-internal
pauses).  ``scripts/build_replication_corpus.py`` turns the cells and the
histogram below into the files in ``pausecue/data/``; every command reads
those files.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .fragments import CodedRecord, read_measured
from .lexicon import DATA_DIR
from .pauses import PauseRecord, read_pauses
from .stats import CellStat, StatsReport

RECORDS_FILE = "replication_records.jsonl"
PAUSES_FILE = "replication_pauses.jsonl"

#: (initial token row, operation) -> (mean preceding pause, record count).
TOKEN_OPERATION_CELLS: dict[tuple[str, str], tuple[float, int]] = {
    ("And", "Initiate"): (0.43, 3), ("And", "Retain"): (0.25, 2),
    ("And", "Return"): (0.25, 2),
    ("But", "Retain"): (0.70, 1), ("But", "Return"): (0.00, 1),
    ("But", "Replace"): (0.10, 1),
    ("Now", "Replace"): (0.55, 2),
    ("Oh", "Retain"): (0.00, 2),
    ("So", "Retain"): (0.15, 2), ("So", "Return"): (0.15, 2),
    ("So", "Replace"): (0.05, 1),
    ("Well", "Replace"): (0.20, 2),
    ("Y'know", "Initiate"): (0.40, 2),
    ("Ordinal", "Initiate"): (0.40, 1),
    ("Acknowledgment", "Initiate"): (0.10, 1), ("Acknowledgment", "Retain"): (0.20, 7),
    ("Acknowledgment", "Replace"): (0.90, 1),
    ("Filled Pause", "Initiate"): (0.23, 6), ("Filled Pause", "Retain"): (0.05, 4),
    ("Filled Pause", "Return"): (0.00, 1),
    ("Unmarked", "Initiate"): (0.35, 10), ("Unmarked", "Retain"): (0.23, 37),
    ("Unmarked", "Return"): (0.40, 5), ("Unmarked", "Replace"): (1.15, 4),
}

#: Published per-operation pause means at full printed precision.
OPERATION_MEANS = {"Initiate": 0.3217, "Retain": 0.2091,
                   "Return": 0.2545, "Replace": 0.6500}
OPERATION_COUNTS = {"Initiate": 23, "Retain": 55, "Return": 11, "Replace": 11}

#: Published operation counts split by marked/unmarked fragments.
OPERATION_MARKED_COUNTS = {
    ("Initiate", "marked"): 13, ("Initiate", "unmarked"): 10,
    ("Retain", "marked"): 18, ("Retain", "unmarked"): 37,
    ("Return", "marked"): 6, ("Return", "unmarked"): 5,
    ("Replace", "marked"): 7, ("Replace", "unmarked"): 4,
}

MARKED_MEAN, MARKED_N = 0.24, 44
UNMARKED_MEAN, UNMARKED_N = 0.33, 56

#: Published pause-duration histogram (reported seconds -> count).
PAUSE_HIST_INITIAL = {0.0: 5, 0.1: 6, 0.2: 3, 0.3: 4, 0.4: 11, 0.5: 1,
                      0.6: 3, 0.7: 4, 0.8: 1, 0.9: 1, 1.7: 1, 2.0: 1}
PAUSE_HIST_INTERNAL = {0.0: 15, 0.1: 11, 0.2: 15, 0.3: 5, 0.4: 5, 0.5: 5,
                       0.6: 4, 0.7: 2}
PAUSE_AVG_INITIAL = 0.422
PAUSE_AVG_INTERNAL = 0.224


def load_bundled(corpus_dir: str | Path | None = None
                 ) -> tuple[list[CodedRecord], list[PauseRecord]]:
    """Load the corpus in ``corpus_dir``, or the bundled one in ``pausecue/data/``.

    The package must be installed as files.
    """
    base = DATA_DIR if corpus_dir is None else Path(corpus_dir)
    return read_measured(base / RECORDS_FILE), read_pauses(base / PAUSES_FILE)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _measured(value: CellStat | float | None) -> str:
    """A measured mean (with its count, for a cell) as a failed check prints it."""
    if value is None:
        return "none"
    if isinstance(value, CellStat):
        return f"{value.mean:.3f}/n={value.count}"
    return f"{value:.3f}"


def run_checks(report: StatsReport) -> list[CheckResult]:
    """Compare the tables of ``report``, as ``pausecue stats`` prints it,
    against the published values.

    Cell means are checked to 0.005 after two-decimal rounding, margins and
    aggregates to 0.01; counts and degrees of freedom must match exactly.
    The published F, r and t magnitudes depend on unreleased per-record data
    and are checked for degrees of freedom, sign and ordering only.  A
    failed check states what was measured.
    """
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name=name, passed=passed, detail=detail))

    table5 = report.by_token_and_operation
    bad = []
    for (row, op_name), (mean, count) in sorted(TOKEN_OPERATION_CELLS.items()):
        stat = table5.cell(row, op_name)
        if stat is None or stat.count != count or abs(round(stat.mean, 2) - mean) > 0.005:
            bad.append(f"{row}/{op_name} {_measured(stat)} (published {mean:.2f}/n={count})")
    bad += [f"{row}/{op_name} {_measured(stat)} (published none)"
            for (row, op_name), stat in table5.cells.items()
            if (row, op_name) not in TOKEN_OPERATION_CELLS]
    add("token-operation-cells", not bad,
        f"{len(TOKEN_OPERATION_CELLS)} cells within 0.005"
        + (f"; mismatched: {', '.join(bad)}" if bad else ""))

    margins = report.by_operation.row_margins
    bad = []
    for op_name, expected in OPERATION_MEANS.items():
        stat = margins.get(op_name)
        if stat is None or stat.count != OPERATION_COUNTS[op_name] \
                or abs(stat.mean - expected) > 0.01:
            bad.append(f"{op_name} {_measured(stat)} "
                       f"(published {expected}/n={OPERATION_COUNTS[op_name]})")
    add("operation-margins", not bad,
        "per-operation means within 0.01 of published values"
        + (f"; mismatched: {', '.join(bad)}" if bad else ""))

    marked = report.by_marking.row_margins.get("Marked")
    unmarked = report.by_marking.row_margins.get("Unmarked")
    ok = (marked is not None and unmarked is not None
          and marked.count == MARKED_N and unmarked.count == UNMARKED_N
          and abs(marked.mean - MARKED_MEAN) <= 0.01
          and abs(unmarked.mean - UNMARKED_MEAN) <= 0.01)
    published = (f"marked {MARKED_MEAN}/n={MARKED_N}, unmarked {UNMARKED_MEAN}/n={UNMARKED_N} "
                 "within 0.01")
    add("marked-unmarked-aggregates", ok,
        published if ok else f"marked {_measured(marked)}, unmarked {_measured(unmarked)}; "
                             f"published {published}")

    counts = report.distributions.operation_marked
    bad = [f"{op_name}/{mark} {counts.cell(op_name, mark)} (published {expected})"
           for (op_name, mark), expected in OPERATION_MARKED_COUNTS.items()
           if counts.cell(op_name, mark) != expected]
    if counts.total != 100:
        bad.append(f"total {counts.total} (published 100)")
    add("operation-marked-counts", not bad,
        "operation by marked/unmarked counts match exactly"
        + (f"; mismatched: {', '.join(bad)}" if bad else ""))

    anova = report.anova
    df = None if anova is None else (anova.df_between, anova.df_within)
    add("anova-df", df == (3, 96), "df (3, 96)" if df == (3, 96)
        else f"got {df}, expected (3, 96)")

    t_test = report.t_test
    ok = t_test is not None and t_test.df == 98
    add("t-df", ok, "pooled df 98 reported; the published analysis reports T(96)" if ok
        else f"pooled df {None if t_test is None else t_test.df}, expected 98; "
             "the published analysis reports T(96)")

    marked_mean = None if t_test is None else t_test.mean_a
    unmarked_mean = None if t_test is None else t_test.mean_b
    replace = margins.get("Replace")
    others = {op_name: margins.get(op_name) for op_name in ("Initiate", "Retain", "Return")}
    ok = (t_test is not None and unmarked_mean > marked_mean
          and replace is not None
          and all(o is not None and replace.mean > o.mean for o in others.values()))
    add("directions", ok,
        "unmarked mean exceeds marked; Replace mean exceeds every other operation" if ok
        else f"unmarked mean {_measured(unmarked_mean)} vs marked {_measured(marked_mean)}; "
             f"Replace mean {_measured(replace)} vs "
             + ", ".join(f"{op_name} {_measured(o)}" for op_name, o in others.items()))

    corr = report.correlation
    ok = corr is not None and corr.r > 0
    add("correlation-sign", ok,
        f"pause duration rises with segments affected (r = {corr.r:.3f})" if ok
        else f"r = {_measured(None if corr is None else corr.r)}, expected > 0")

    panel = report.distributions.pause_panel
    n_initial, n_internal = panel.totals["fragment_initial"], panel.totals["fragment_internal"]
    avg_initial = panel.averages["fragment_initial"]
    avg_internal = panel.averages["fragment_internal"]
    ok = (n_initial == 41 and n_internal == 62
          and avg_initial is not None and abs(avg_initial - PAUSE_AVG_INITIAL) <= 0.01
          and avg_internal is not None and abs(avg_internal - PAUSE_AVG_INTERNAL) <= 0.01)
    published = (f"41 initial pauses averaging {PAUSE_AVG_INITIAL}, 62 internal averaging "
                 f"{PAUSE_AVG_INTERNAL}")
    add("pause-panel", ok,
        published if ok else f"{n_initial} initial pauses averaging {_measured(avg_initial)}, "
                             f"{n_internal} internal averaging {_measured(avg_internal)}; "
                             f"published {published}")

    return checks
