"""Output checks, written independently of the program under test.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output passed.  Nothing here imports ``pausecue``: the fragment
rule, the stack-depth replay and the test statistics are recomputed from
the published rules, the lexicon data file and ``scipy.stats``.
"""

from __future__ import annotations

import json
import math
import string
from bisect import bisect_left
from pathlib import Path

LEXICON = "src/pausecue/data/lexicon.jsonl"
OP_ORDER = ("Initiate", "Retain", "Return", "Replace")
PUSHES = {"Initiate": 1, "Replace": 1, "Retain": 0, "Return": 0}
ALIGN_TOL = 0.05         # s, pause end to token start
FRAME_S = 0.01           # s, the detector's default analysis frame
STAT_TOL = 1e-9
_STRIP = string.punctuation.replace("'", "").replace("-", "")


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def round_tenth(x: float) -> float:
    return math.floor(x * 10.0 + 0.5 + 1e-9) / 10.0


def _norm(surface: str) -> str:
    return " ".join(part.strip(_STRIP) for part in surface.lower().split()).strip()


class FragmentRule:
    """Straight-line count of fragment-initial tokens (the documented rule).

    A fragment opens at the first token, at a filled pause, at an
    acknowledgment in boundary position, at a cue phrase that passes the
    position / conjunction / intonation cascade, and at an unfilled pause
    that rounds to 0.1 s or more.
    """

    def __init__(self, lexicon_rows: list[dict]):
        self.index = {}
        for row in lexicon_rows:
            for form in (row["surface"], *row.get("variants", [])):
                self.index[_norm(form)] = row
        self.max_words = max(len(key.split()) for key in self.index)

    def count(self, tokens: list[dict], pauses: list[dict] | None = None) -> int:
        pause_before = [tok.get("pause_before_s", 0.0) for tok in tokens]
        if pauses:
            by_start = {round(tok["start_s"] * 100): i for i, tok in enumerate(tokens)}
            for p in pauses:
                i = by_start.get(round((p["start_s"] + p["raw_duration_s"]) * 100))
                if i is not None:
                    pause_before[i] = p.get("reported_duration_s",
                                            round_tenth(p["raw_duration_s"]))
        surfaces = [_norm(tok["surface"]) for tok in tokens]
        starts = 0
        for i, tok in enumerate(tokens):
            paused = round_tenth(pause_before[i]) >= 0.1
            boundary = (i == 0 or "turn_initial" in tok.get("flags", ())
                        or tokens[i - 1].get("boundary", "none") != "none" or paused)
            if i == 0 or self._opens(tokens, surfaces, i, boundary) or paused:
                starts += 1
        return starts

    def _opens(self, tokens, surfaces, i, boundary) -> bool:
        for width in range(min(self.max_words, len(tokens) - i), 0, -1):
            entry = self.index.get(" ".join(surfaces[i:i + width]))
            if entry is None:
                continue
            kind = entry.get("token_class", "cue_phrase")
            if kind == "filled_pause":
                return True
            if kind == "acknowledgment":
                return boundary
            return boundary and self._is_cue(entry, tokens[i:i + width])
        return False

    @staticmethod
    def _is_cue(entry: dict, span: list[dict]) -> bool:
        flags = span[0].get("flags", ())
        connective = entry.get("connective", False)
        if connective and "coordination" in flags:
            return False
        accents = [tok.get("accent", "unmarked") for tok in span]
        if all(a == "deaccented" for a in accents):
            return True
        starred = [a for a in accents if a in ("Hstar", "Lstar")]
        if starred and all(a == "Lstar" for a in starred):
            return True
        if "own_intonational_phrase" in flags:
            return True
        return not connective


def replay_depths(rows: list[dict]) -> list[int] | str:
    """Embedding depth after each record's operation, from an empty stack."""
    depth = 0
    depths = []
    for row in rows:
        op = row["operation"]
        if op["pops"] > depth:
            return f"fragment {row['fragment_index']}: pops {op['pops']} at depth {depth}"
        depth += PUSHES[op["kind"]] - op["pops"]
        depths.append(max(1, depth))
    return depths


def check_coded(rows: list[dict], tsv_lines: int, expected_fragments: int) -> list[str]:
    """One record per fragment, consecutive indices, replayed depths."""
    failures = []
    if len(rows) != expected_fragments:
        failures.append(f"{len(rows)} coded records for {expected_fragments} fragments")
    if [row["fragment_index"] for row in rows] != list(range(len(rows))):
        failures.append("fragment_index is not consecutive from 0")
    if tsv_lines != len(rows) + 1:
        failures.append(f"TSV has {tsv_lines} lines for {len(rows)} records")
    depths = replay_depths(rows)
    if isinstance(depths, str):
        return failures + [depths]
    bad = [row["fragment_index"] for row, d in zip(rows, depths)
           if row["embedding_depth"] != d]
    if bad:
        failures.append(f"embedding_depth differs from replay at fragments {bad[:5]}")
    return failures


def _close(got, want) -> bool:
    return got is not None and math.isclose(got, want, rel_tol=STAT_TOL, abs_tol=STAT_TOL)


def check_stats(report: dict, rows: list[dict]) -> list[str]:
    """ANOVA, Pearson and pooled t against scipy.stats on the measured records."""
    # Imported here, after the timed loop, so scipy stays out of peak_rss_mb.
    from scipy import stats as sps

    measured = [row for row in rows if row.get("pause_before_s") is not None]
    failures = []
    if report.get("n_records") != len(rows):
        failures.append(f"n_records {report.get('n_records')} != {len(rows)}")
    tests = report.get("tests", {})
    groups = [[row["pause_before_s"] for row in measured if row["operation"]["kind"] == op]
              for op in OP_ORDER]
    anova = sps.f_oneway(*[g for g in groups if g])
    corr = sps.pearsonr([float(row["segments_affected"]) for row in measured],
                        [row["pause_before_s"] for row in measured])
    ttest = sps.ttest_ind([row["pause_before_s"] for row in measured if row["marked"]],
                          [row["pause_before_s"] for row in measured if not row["marked"]],
                          equal_var=True)
    for name, keys, want in (("anova", ("F", "p"), (anova.statistic, anova.pvalue)),
                             ("pearson", ("r", "p"), (corr.statistic, corr.pvalue)),
                             ("t_test", ("t", "p"), (ttest.statistic, ttest.pvalue))):
        got = tests.get(name) or {}
        for key, value in zip(keys, want):
            if not _close(got.get(key), float(value)):
                failures.append(f"{name}.{key} = {got.get(key)} but scipy gives {value}")
    return failures


def check_text_report(text: str, report: dict) -> list[str]:
    """The text rendering agrees with the JSON report it was drawn from."""
    anova = report["tests"]["anova"]
    n = report["n_records"] - report["excluded_records"]
    expected = (f"records analyzed: {n}",
                f"F({anova['df_between']}, {anova['df_within']}) = {anova['F']:.2f}")
    return [f"text report lacks {line!r}" for line in expected if line not in text]


def check_pauses(detected: list[dict], planted: list[list[float]],
                 tokens: list[dict]) -> list[str]:
    """Detected pauses equal the planted silences, each aligned to a token."""
    failures = []
    if len(detected) != len(planted):
        failures.append(f"{len(detected)} pauses detected, {len(planted)} planted")
    off = [i for i, (p, (start, _)) in enumerate(zip(detected, planted))
           if abs(p["start_s"] - start) > FRAME_S + 1e-9]
    if off:
        failures.append(f"pause starts off by more than one frame at {off[:5]}")
    starts = sorted(tok["start_s"] for tok in tokens)
    unaligned = [i for i, p in enumerate(detected)
                 if not _near(starts, p["start_s"] + p["raw_duration_s"])]
    if unaligned:
        failures.append(f"pauses align to no token at {unaligned[:5]}")
    return failures


def _near(sorted_starts: list[float], t: float) -> bool:
    k = bisect_left(sorted_starts, t)
    return any(abs(sorted_starts[j] - t) <= ALIGN_TOL
               for j in (k - 1, k) if 0 <= j < len(sorted_starts))
