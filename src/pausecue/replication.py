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
pauses).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .focus import operation
from .fragments import ROW_LABELS, CodedRecord, read_coded, write_coded
from .pauses import PauseRecord, read_pauses, write_pauses
from .stats import (CANONICAL_TOKEN_ROWS, OP_ORDER, TAIL_TOKEN_ROWS, compute_report,
                    table_distributions)

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

ROW_ORDER = CANONICAL_TOKEN_ROWS + TAIL_TOKEN_ROWS

ROW_CONSTITUENT = {label: constituent for constituent, label in ROW_LABELS.items()}

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

#: (pops, embedding depth) of each reconstructed operation.
_POPS_DEPTH_BY_OP = {"Initiate": (0, 2), "Retain": (0, 2), "Return": (1, 1), "Replace": (1, 1)}


def build_records() -> list[CodedRecord]:
    """Reconstruct the 100 coded records from the token-by-operation cells."""
    records: list[CodedRecord] = []
    index = 0
    for row in ROW_ORDER:
        for op_name in OP_ORDER:
            cell = TOKEN_OPERATION_CELLS.get((row, op_name))
            if cell is None:
                continue
            mean, count = cell
            pops, depth = _POPS_DEPTH_BY_OP[op_name]
            op = operation(op_name, pops)
            constituent = ROW_CONSTITUENT.get(row, "cue_phrase")
            for _ in range(count):
                records.append(CodedRecord(
                    fragment_index=index,
                    pause_before_s=mean,
                    initial_constituent=constituent,
                    initial_token=row if constituent == "cue_phrase" else "",
                    operation=op,
                    embedding_depth=depth,
                    turn_position="initiating" if index == 0 else "continuing",
                ))
                index += 1
    return records


def build_pauses() -> list[PauseRecord]:
    """Reconstruct the measured-pause inventory from the published histogram."""
    records: list[PauseRecord] = []
    start = 0.0
    for position, hist in (("fragment_initial", PAUSE_HIST_INITIAL),
                           ("fragment_internal", PAUSE_HIST_INTERNAL)):
        for duration in sorted(hist):
            for _ in range(hist[duration]):
                records.append(PauseRecord(start_s=start, raw_duration_s=duration,
                                           position=position))
                start += duration + 1.0
    return records


def load_bundled(corpus_dir: str | Path | None = None
                 ) -> tuple[list[CodedRecord], list[PauseRecord]]:
    """Load the bundled corpus, or one from ``corpus_dir`` when given."""
    if corpus_dir is not None:
        base = Path(corpus_dir)
        return read_coded(base / RECORDS_FILE), read_pauses(base / PAUSES_FILE)
    package = resources.files("pausecue")
    with resources.as_file(package.joinpath(f"data/{RECORDS_FILE}")) as path:
        records = read_coded(path)
    with resources.as_file(package.joinpath(f"data/{PAUSES_FILE}")) as path:
        pauses = read_pauses(path)
    return records, pauses


def write_corpus(directory: str | Path) -> tuple[Path, Path]:
    """Regenerate the corpus files (used by the build script)."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    records_path = base / RECORDS_FILE
    pauses_path = base / PAUSES_FILE
    write_coded(records_path, build_records())
    write_pauses(pauses_path, build_pauses())
    return records_path, pauses_path


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_checks(records, pauses) -> list[CheckResult]:
    """Compare regenerated tables against the published values.

    Cell means are checked to 0.005 after two-decimal rounding, margins and
    aggregates to 0.01; counts and degrees of freedom must match exactly.
    The published F, r and t magnitudes depend on unreleased per-record data
    and are checked for degrees of freedom, sign and ordering only.
    """
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(CheckResult(name=name, passed=passed, detail=detail))

    report = compute_report(records, pauses)
    table5 = report.by_token_and_operation
    bad = []
    for (row, op_name), (mean, count) in sorted(TOKEN_OPERATION_CELLS.items()):
        stat = table5.cell(row, op_name)
        if stat is None or stat.count != count or abs(round(stat.mean, 2) - mean) > 0.005:
            bad.append(f"{row}/{op_name}")
    extra = [key for key in table5.cells if key not in TOKEN_OPERATION_CELLS]
    add("token-operation-cells", not bad and not extra,
        f"{len(TOKEN_OPERATION_CELLS)} cells within 0.005"
        + (f"; mismatched: {bad + extra}" if bad or extra else ""))

    table4 = report.by_operation
    bad = []
    for op_name, expected in OPERATION_MEANS.items():
        stat = table4.row_margins.get(op_name)
        if stat is None or stat.count != OPERATION_COUNTS[op_name] \
                or abs(stat.mean - expected) > 0.01:
            bad.append(op_name)
    add("operation-margins", not bad,
        "per-operation means within 0.01 of published values"
        + (f"; mismatched: {bad}" if bad else ""))

    table6 = report.by_marking
    marked = table6.row_margins.get("Marked")
    unmarked = table6.row_margins.get("Unmarked")
    ok = (marked is not None and unmarked is not None
          and marked.count == MARKED_N and unmarked.count == UNMARKED_N
          and abs(marked.mean - MARKED_MEAN) <= 0.01
          and abs(unmarked.mean - UNMARKED_MEAN) <= 0.01)
    add("marked-unmarked-aggregates", ok,
        f"marked {MARKED_MEAN}/n={MARKED_N}, unmarked {UNMARKED_MEAN}/n={UNMARKED_N} "
        "within 0.01")

    dist = table_distributions(records, pauses)
    bad = [f"{op_name}/{mark}" for (op_name, mark), expected
           in OPERATION_MARKED_COUNTS.items()
           if dist.operation_marked.cell(op_name, mark) != expected]
    ok = not bad and dist.operation_marked.total == 100
    add("operation-marked-counts", ok,
        "operation by marked/unmarked counts match exactly"
        + (f"; mismatched: {bad}" if bad else ""))

    anova = report.anova
    ok = anova is not None and (anova.df_between, anova.df_within) == (3, 96)
    add("anova-df", ok,
        "df (3, 96)" if ok else f"got {None if anova is None else (anova.df_between, anova.df_within)}")

    t_test = report.t_test
    ok = t_test is not None and t_test.df == 98
    add("t-df", ok, "pooled df 98 reported; the published analysis reports T(96)")

    ok = (t_test is not None and t_test.mean_b > t_test.mean_a)
    replace_margin = table4.row_margins.get("Replace")
    others = [table4.row_margins.get(op_name) for op_name in ("Initiate", "Retain", "Return")]
    ok = ok and replace_margin is not None and all(
        o is not None and replace_margin.mean > o.mean for o in others)
    add("directions", ok,
        "unmarked mean exceeds marked; Replace mean exceeds every other operation")

    corr = report.correlation
    ok = corr is not None and corr.r > 0
    add("correlation-sign", ok,
        f"pause duration rises with segments affected (r = "
        f"{corr.r:.3f})" if corr is not None else "correlation not computed")

    panel = dist.pause_panel
    ok = (panel.totals.get("fragment_initial") == 41
          and panel.totals.get("fragment_internal") == 62
          and panel.averages.get("fragment_initial") is not None
          and abs(panel.averages["fragment_initial"] - PAUSE_AVG_INITIAL) <= 0.01
          and panel.averages.get("fragment_internal") is not None
          and abs(panel.averages["fragment_internal"] - PAUSE_AVG_INTERNAL) <= 0.01)
    add("pause-panel", ok,
        f"41 initial pauses averaging {PAUSE_AVG_INITIAL}, 62 internal averaging "
        f"{PAUSE_AVG_INTERNAL}")

    return checks
