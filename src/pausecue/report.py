"""Aligned-text rendering of a StatsReport.

Display rounding follows the published formats: four decimals in the
per-operation table, two decimals in the token and marked/unmarked tables,
three decimals for the pause-histogram averages.  Underlying statistics keep
full precision; only the rendering rounds.
"""

from __future__ import annotations

import json
import math

from .stats import CellStat, CountPanel, GroupedMeans, StatsReport


def _fmt_p(p: float) -> str:
    if p < 0.0005:
        return "p < .001"
    return f"p = {p:.3f}".replace("0.", ".", 1)


def _grid(header: list[str], body: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in [header] + body) for i in range(len(header))]
    lines = []
    for row in [header] + body:
        cells = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        lines.append("  " + "  ".join(cells).rstrip())
    return lines


def _mean_cell(stat: CellStat | None, decimals: int) -> str:
    if stat is None:
        return "--"
    return f"{stat.mean:.{decimals}f} {stat.count:>3d}"


def _means_grid(table: GroupedMeans, decimals: int) -> list[str]:
    header = [""] + list(table.col_order) + ["ALL"]
    body = []
    for row in table.row_order:
        cells = [_mean_cell(table.cell(row, col), decimals) for col in table.col_order]
        cells.append(_mean_cell(table.row_margins.get(row), decimals))
        body.append([row] + cells)
    margin = [_mean_cell(table.col_margins.get(col), decimals) for col in table.col_order]
    margin.append(_mean_cell(table.grand, decimals))
    body.append(["ALL"] + margin)
    return _grid(header, body)


def _count_grid(panel: CountPanel, labels: tuple[str, ...]) -> list[str]:
    """Counts with row and column totals; labels head the panel's columns in order."""
    body = [[row] + [str(panel.cell(row, col)) for col in panel.col_order]
            + [str(panel.row_total(row))] for row in panel.row_order]
    body.append(["ALL"] + [str(panel.col_total(col)) for col in panel.col_order]
                + [str(panel.total)])
    return _grid([""] + list(labels) + ["ALL"], body)


def render_text(report: StatsReport) -> str:
    lines: list[str] = []
    out = lines.append

    out("pause and cue-phrase statistics")
    out("===============================")
    out(f"records analyzed: {report.n_records - report.excluded_records}"
        + (f" (excluded without measured pause: {report.excluded_records})"
           if report.excluded_records else ""))
    out("")

    out("Focusing operation by marked/unmarked fragments (counts)")
    lines += _count_grid(report.distributions.operation_marked, ("Marked", "Unmarked"))
    out("")

    out("Fragment-initial token by segment position (counts)")
    out("  (initial = the operation changed the stack; internal = Retain)")
    lines += _count_grid(report.distributions.token_position, ("Initial", "Internal"))
    out("")

    out("Unfilled pause durations (0.1 s bins)")
    pauses = report.distributions.pause_panel
    header = ["Seconds", "Initial", "Internal"]
    body = [[f"{b:.1f}", str(pauses.count(b, "fragment_initial")),
             str(pauses.count(b, "fragment_internal"))] for b in pauses.bins]
    body.append(["Count", str(pauses.totals.get("fragment_initial", 0)),
                 str(pauses.totals.get("fragment_internal", 0))])
    avg_i = pauses.averages.get("fragment_initial")
    avg_n = pauses.averages.get("fragment_internal")
    body.append(["Average",
                 "--" if avg_i is None else f"{avg_i:.3f}",
                 "--" if avg_n is None else f"{avg_n:.3f}"])
    lines += _grid(header, body)
    out("")

    out("Mean pause duration by focusing operation (seconds)")
    table = report.by_operation
    header = ["Operation", "N", "Mean", "SD"]
    body = []
    for row in table.row_order:
        stat = table.row_margins.get(row)
        if stat is None:
            body.append([row, "0", "--", "--"])
        else:
            body.append([row, str(stat.count), f"{stat.mean:.4f}",
                         "--" if stat.sd is None else f"{stat.sd:.4f}"])
    lines += _grid(header, body)
    out("")

    out("Mean pause duration by initial token and operation (seconds; count follows mean)")
    lines += _means_grid(report.by_token_and_operation, decimals=2)
    out("")

    out("Mean pause duration by marking and operation (seconds; count follows mean)")
    lines += _means_grid(report.by_marking, decimals=2)
    out("")

    out("Statistical tests")
    if report.anova is not None:
        a = report.anova
        f_str = "inf" if a.F == float("inf") else f"{a.F:.2f}"
        out(f"  one-way ANOVA, pause duration by operation: "
            f"F({a.df_between}, {a.df_within}) = {f_str}, {_fmt_p(a.p)}")
    else:
        out("  one-way ANOVA: not computed")
    if report.correlation is not None:
        c = report.correlation
        out(f"  Pearson correlation, pause duration by segments affected: "
            f"r = {c.r:.3f}, n = {c.n}, {_fmt_p(c.p)}")
    else:
        out("  Pearson correlation: not computed")
    if report.t_test is not None:
        t = report.t_test
        out(f"  pooled t-test, marked vs unmarked pause duration: "
            f"t({t.df}) = {t.t:.2f}, {_fmt_p(t.p)}")
        out(f"    marked mean {t.mean_a:.2f} (sd {t.sd_a:.2f}, n {t.n_a}); "
            f"unmarked mean {t.mean_b:.2f} (sd {t.sd_b:.2f}, n {t.n_b})")
    else:
        out("  pooled t-test: not computed")
    out("")

    if report.notes:
        out("Notes")
        for note in report.notes:
            out(f"  - {note}")
        out("")
    if report.config_note:
        out(f"config: {report.config_note}")
    return "\n".join(lines) + "\n"


def render_json(report: StatsReport) -> str:
    """JSON rendering; an infinite ANOVA F, which JSON cannot hold, is written as null."""
    data = report.to_dict()
    anova = data["tests"]["anova"]
    if anova is not None and math.isinf(anova["F"]):
        anova["F"] = None
        data["notes"].append("ANOVA F is infinite (every group is constant and the "
                             "group means differ); written as null")
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
