"""Discourse-marker lexicon and cue/non-cue disambiguation.

The lexicon is a data-driven table (one JSON object per line) mapping each
marker to the focusing operations it tends to signal.  The bundled copy is
frozen to the inventory used for the replication runs; pass an alternative
file to experiment with additional markers.

Candidate-operation sets are priors for the classifier, never hard
constraints: the mappings are suggestive, not deterministic.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .focus import OP_KINDS, OpKind
from .jsonl import (Field, SchemaError, Target, build, iter_jsonl, record_class, rows,
                    validate, write_jsonl)

TOKEN_CLASSES = ("cue_phrase", "acknowledgment", "filled_pause")
ORDINAL_RANKS = ("first", "subsequent")
RULES = ("position", "conjunction_test", "intonation", "none")

_STRIP = string.punctuation.replace("'", "").replace("-", "")


class MissingAnnotation(Exception):
    """A cue judgment was requested without the annotations it needs."""


def normalize(surface: str) -> str:
    """Lowercase and strip surrounding punctuation; inner ' and - survive."""
    return " ".join(part.strip(_STRIP) for part in surface.lower().split()).strip()


ENTRY_FIELDS = (
    Field("surface", str),
    Field("gloss", str, ""),
    Field("candidate_ops", list, of=str, choices=OP_KINDS),
    Field("token_class", str, "cue_phrase", choices=TOKEN_CLASSES),
    Field("display", str, ""),  # empty: the capitalized surface
    Field("ordinal_rank", str, None, choices=ORDINAL_RANKS, omit_default=True),
    Field("connective", bool, False, omit_default=True),
    Field("corpus_derived", bool, False, omit_default=True),
    Field("variants", list, (), of=str, omit_default=True),
)


@record_class(ENTRY_FIELDS, frozen=True)
class CueEntry:
    """One lexicon row.

    candidate_ops is the nonempty set of focusing operations the marker tends
    to signal.  ordinal_rank distinguishes first uses of ordinal phrases
    (which open a segment) from subsequent uses (which replace one).
    corpus_derived marks sets read off the observed distribution rather than
    the marker's conversational role.  An empty display derives the
    capitalized surface.
    """

    def __post_init__(self) -> None:
        if not self.display:
            object.__setattr__(self, "display", self.surface.capitalize())
        if not self.candidate_ops:
            raise ValueError(f"entry {self.surface!r} has empty candidate_ops")


class DuplicateSurface(ValueError):
    """Two lexicon forms normalize alike; ``position`` indexes the later entry."""

    def __init__(self, key: str, position: int):
        super().__init__(f"duplicate lexicon surface {key!r}")
        self.position = position


@dataclass(frozen=True)
class CueJudgment:
    """Outcome of the cue/non-cue cascade; rule_fired is ``none`` only when
    the judgment fell through to the positional default."""

    is_cue: bool
    rule_fired: str

    def __post_init__(self) -> None:
        if self.rule_fired not in RULES:
            raise ValueError(f"bad rule {self.rule_fired!r}")


@dataclass(frozen=True)
class CueContext:
    """Annotations available for judging one candidate span.

    utterance_initial is required.  coordination is only meaningful for the
    connectives (and, but); accents are the per-token accent labels of the
    span; own_intonational_phrase marks a span uttered as its own phrase.
    """

    utterance_initial: Optional[bool]
    coordination: Optional[bool] = None
    accents: Optional[tuple[str, ...]] = None
    own_intonational_phrase: Optional[bool] = None


class Lexicon:
    """In-memory marker table with exact and variant lookup."""

    def __init__(self, entries: Iterable[CueEntry]):
        self.entries = tuple(entries)
        self._index: dict[str, CueEntry] = {}
        for position, entry in enumerate(self.entries):
            for form in (entry.surface, *entry.variants):
                key = normalize(form)
                if key in self._index:
                    raise DuplicateSurface(key, position)
                self._index[key] = entry
        self.max_words = max((len(k.split()) for k in self._index), default=1)
        self._first_words = frozenset(key.partition(" ")[0] for key in self._index)

    def lookup(self, surface: str) -> CueEntry | None:
        """Exact lookup of a normalized surface form; None when absent."""
        return self._index.get(normalize(surface))

    def match_span(self, surfaces: Sequence[str], start: int) -> tuple[CueEntry, int] | None:
        """Longest lexicon match beginning at ``start``; returns (entry, n_tokens).

        ``surfaces`` must already be normalized (see ``normalize``); they are
        joined but not normalized again.  A surface that normalized to "" still
        counts in the span's width.  A span whose first word begins no key is
        rejected without a lookup.
        """
        first = surfaces[start]
        if first and first.partition(" ")[0] not in self._first_words:
            return None
        for width in range(min(self.max_words, len(surfaces) - start), 0, -1):
            # split() drops empty surfaces and the double spaces that an inner
            # punctuation word leaves, as a second normalize would
            entry = self._index.get(" ".join(" ".join(surfaces[start:start + width]).split()))
            if entry is not None:
                return entry, width
        return None

    def surfaces(self) -> frozenset[str]:
        return frozenset(normalize(e.surface) for e in self.entries)


def judge_cue_use(entry: CueEntry, context: CueContext) -> CueJudgment:
    """Cue/non-cue cascade for one candidate span.

    1. A candidate that is not utterance- or segment-initial is never a cue.
    2. An initial connective supplying syntactic coordination of two related
       propositions is a conjunction, not a cue.
    3. Otherwise the span is a cue if it is deaccented, carries only L*
       accents, or forms a complete intonational phrase.
    4. Default: non-connective markers in initial position count as cues;
       connectives without supporting annotation do not.
    """
    if context.utterance_initial is None:
        raise MissingAnnotation("utterance_initial flag is required")
    if not context.utterance_initial:
        return CueJudgment(is_cue=False, rule_fired="position")
    if entry.connective and context.coordination:
        return CueJudgment(is_cue=False, rule_fired="conjunction_test")

    accents = context.accents
    if accents:
        if all(a == "deaccented" for a in accents):
            return CueJudgment(is_cue=True, rule_fired="intonation")
        starred = [a for a in accents if a in ("Hstar", "Lstar")]
        if starred and all(a == "Lstar" for a in starred):
            return CueJudgment(is_cue=True, rule_fired="intonation")
    if context.own_intonational_phrase:
        return CueJudgment(is_cue=True, rule_fired="intonation")

    return CueJudgment(is_cue=not entry.connective, rule_fired="none")


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def load_lexicon(path: str | Path) -> Lexicon:
    entries, lines = [], []
    for lineno, row in validate(iter_jsonl(path), ENTRY_FIELDS, path):
        row["candidate_ops"] = frozenset(map(OpKind, row["candidate_ops"]))
        row["variants"] = tuple(row["variants"])
        entries.append(build(CueEntry, row, path, lineno))
        lines.append(lineno)
    if not entries:
        raise SchemaError("lexicon file holds no entries", path=path)
    try:
        return Lexicon(entries)
    except DuplicateSurface as exc:
        raise SchemaError(str(exc), line=lines[exc.position], path=path) from exc


def write_lexicon(target: Target, lexicon: Lexicon) -> None:
    write_jsonl(target, rows(ENTRY_FIELDS, lexicon.entries))


def bundled_lexicon() -> Lexicon:
    """The replication lexicon shipped with the package."""
    ref = resources.files("pausecue").joinpath("data/lexicon.jsonl")
    with resources.as_file(ref) as path:
        return load_lexicon(path)
