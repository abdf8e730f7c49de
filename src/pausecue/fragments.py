"""Speech-fragment segmentation and per-fragment coding.

A transcript is a flat sequence of annotated tokens.  A new speech fragment
opens at every occurrence of one of five fragment-initial token classes: an
unfilled pause (reported at 0.1 s or more), a filled pause, a cue phrase, an
acknowledgment form, or (for the very first token) the unmarked case.  The
fragment runs until the next initial token, so the fragments partition the
transcript losslessly.

When several classes land on the same token, lexical marking wins over
silence: cue_phrase > acknowledgment > filled_pause > unfilled_pause.  A
fragment opened by a pause plus a cue phrase is a cue_phrase fragment whose
pause_before_s is the pause.

Coding assembles one record per fragment: the preceding pause, the initial
constituent, the co-occurring focusing operation, embedding depth, segments
affected, the annotator-supplied discourse functions of the neighboring
fragments, and turn position.  A fragment is marked when it begins with a
cue phrase, an acknowledgment form or a filled pause.
"""

from __future__ import annotations

from bisect import bisect_left
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .focus import (OPERATION_FIELDS, FocusingOperation, FocusStack, apply,
                    operation_from_row, segments_affected)
from .jsonl import (Field, Frozen, Record, SchemaError, Target, iter_jsonl, open_target,
                    record_class, rows, validate, write_jsonl)
from .lexicon import CueContext, CueEntry, Lexicon, bundled_lexicon, judge_cue_use, normalize
from .pauses import PauseRecord, round_tenth

ACCENTS = ("Hstar", "Lstar", "deaccented", "unmarked")
BOUNDARIES = ("none", "fall", "continuation_rise")
PHONATIONS = ("normal", "creaky")
PITCH_RANGES = ("normal", "expanded", "reduced")
TOKEN_FLAGS = ("coordination", "nonpronominal_repetition",
               "own_intonational_phrase", "turn_initial")
_NO_FLAGS: frozenset[str] = frozenset()  # shared by unflagged tokens, not one set each

INITIAL_CLASSES = ("unfilled_pause", "filled_pause", "cue_phrase",
                   "acknowledgment", "unmarked")
CONSTITUENTS = ("cue_phrase", "acknowledgment", "filled_pause", "unmarked")
FUNCTION_LABELS = ("cue_phrase", "acknowledgment", "closure", "filled_pause",
                   "repair", "topical")
TURN_POSITIONS = ("initiating", "continuing")

#: Lower-cased surfaces that count as pronominal reference.
PRONOUNS = frozenset("""
    i me my mine you your yours he him his she her hers it its we us our ours
    they them their theirs this that these those
    i'm i'll i've you're you'll you've he's she's it's that's we're we'll
    they're they'll there's
""".split())

#: Pause-to-token alignment tolerance in seconds.
ALIGN_TOL = 0.05


class EmptyTranscript(Exception):
    """fragmentize was handed no tokens."""


class MisalignedPause(Exception):
    """A pause record does not land on any token gap.

    ``blamed`` names the input at fault, ``"pauses"`` or ``"transcript"``,
    and ``index`` the 0-based position of the offending record in it.
    """

    def __init__(self, message: str, blamed: str, index: int):
        super().__init__(message)
        self.blamed = blamed
        self.index = index


class LengthMismatch(Exception):
    """Fragments and operations differ in length."""


TOKEN_FIELDS = (
    Field("surface", str),
    Field("speaker", str, "A"),
    Field("accent", str, "unmarked", choices=ACCENTS),
    Field("boundary", str, "none", choices=BOUNDARIES),
    Field("phonation", str, "normal", choices=PHONATIONS),
    Field("pitch_range", str, "normal", choices=PITCH_RANGES),
    Field("pause_before_s", float, 0.0, minimum=0.0),
    Field("flags", list, (), of=str, choices=TOKEN_FLAGS),
    Field("topic", str, ""),
    Field("start_s", float, None),
    Field("end_s", float, None),
)


@record_class(TOKEN_FIELDS)
class AnnotatedToken(Record):
    """One transcript token with its prosodic annotations.

    pause_before_s is the annotated silent interval preceding the token.
    topic is an optional annotator-supplied topic id used when resolving how
    far a Return or Replace pops.  start_s/end_s are optional timings used
    to align separately detected pause records.
    """

    def __post_init__(self) -> None:
        if self.start_s is not None and self.end_s is not None and self.end_s < self.start_s:
            raise ValueError(f"end_s {self.end_s:g} precedes start_s {self.start_s:g}")
        self.flags = frozenset(self.flags) or _NO_FLAGS


class TokenFeatures(NamedTuple):
    """What the classifier reads off a fragment's tokens, found in one pass."""

    creaky: bool  # some token has creaky phonation
    creaky_before_last: bool  # some token other than the last one does
    creaky_final: bool  # the last token does
    reduced_range: bool
    expanded_range: bool
    repetition: bool  # some token is flagged nonpronominal_repetition
    pronoun: bool  # some surface, lower-cased, is in PRONOUNS
    hstar: int  # tokens accented H*
    lstar: int  # tokens accented L*
    topic: str  # the first non-empty token topic, else ""


def _token_features(tokens: Sequence[AnnotatedToken]) -> TokenFeatures:
    creaky = hstar = lstar = 0
    reduced = expanded = repetition = pronoun = False
    topic = ""
    for tok in tokens:
        if tok.phonation == "creaky":
            creaky += 1
        pitch_range = tok.pitch_range
        if pitch_range == "reduced":
            reduced = True
        elif pitch_range == "expanded":
            expanded = True
        accent = tok.accent
        if accent == "Lstar":
            lstar += 1
        elif accent == "Hstar":
            hstar += 1
        if tok.flags and "nonpronominal_repetition" in tok.flags:
            repetition = True
        if not pronoun and tok.surface.lower() in PRONOUNS:
            pronoun = True
        topic = topic or tok.topic
    creaky_final = tokens[-1].phonation == "creaky"
    return TokenFeatures(creaky > 0, creaky > creaky_final, creaky_final, reduced, expanded,
                         repetition, pronoun, hstar, lstar, topic)


class SpeechFragment(Frozen):
    """A token span opened by one fragment-initial token.

    ``speaker`` is the first token's, and ``features`` is found in one token
    pass when the fragment is made; it serves the classifier as the prior,
    current and subsequent neighbor.  Both are derived, so they are left out
    of ``==``, ``hash`` and ``repr``.  Fragments are frozen, so both always
    match the tokens: a fragment with other tokens is a new
    ``SpeechFragment``, whose constructor derives them again.
    """

    _fields = ("index", "tokens", "initial_token_class", "initial_cue", "pause_before_s")

    def __init__(self, index: int, tokens: tuple[AnnotatedToken, ...],
                 initial_token_class: str, initial_cue: CueEntry | None,
                 pause_before_s: float) -> None:
        if not tokens:
            raise ValueError("fragment must hold at least one token")
        if initial_token_class not in INITIAL_CLASSES:
            raise ValueError(f"bad initial class {initial_token_class!r}")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "speaker", tokens[0].speaker)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "initial_token_class", initial_token_class)
        object.__setattr__(self, "initial_cue", initial_cue)
        object.__setattr__(self, "pause_before_s", pause_before_s)
        object.__setattr__(self, "features", _token_features(tokens))

    @property
    def surfaces(self) -> tuple[str, ...]:
        return tuple(tok.surface for tok in self.tokens)

    @property
    def topic(self) -> str:
        return self.features.topic

    @property
    def final_boundary(self) -> str:
        return self.tokens[-1].boundary


#: Token-table row of each constituent other than a cue phrase.
ROW_LABELS = {"acknowledgment": "Acknowledgment", "filled_pause": "Filled Pause",
              "unmarked": "Unmarked"}


CODED_FIELDS = (
    Field("fragment_index", int),
    Field("pause_before_s", float, None, minimum=0.0),
    Field("initial_constituent", str, choices=CONSTITUENTS),
    Field("initial_token", str, ""),
    Field("operation", dict, of=OPERATION_FIELDS),
    Field("embedding_depth", int, minimum=1),
    Field("segments_affected", int, None),  # absent: the operation's pops plus pushes
    Field("prior_function", str, "topical", choices=FUNCTION_LABELS),
    Field("subsequent_function", str, "topical", choices=FUNCTION_LABELS),
    Field("turn_position", str, "continuing", choices=TURN_POSITIONS),
    Field("marked", bool, None),  # absent: marked unless the constituent is unmarked
)


@record_class(CODED_FIELDS, convert={"operation": operation_from_row})
class CodedRecord(Record):
    """The per-fragment coding row used for statistics.

    initial_token carries the display label of the opening marker (for
    example "And" or "Filled Pause") so token-level tables can be rebuilt;
    it is empty for unmarked fragments.  pause_before_s of None means the
    pause was never measured; such records are excluded from statistics.
    segments_affected is the operation's pops plus pushes, and marked is
    True exactly when initial_constituent is not "unmarked"; None derives
    each so, and any other value is rejected.
    """

    def __post_init__(self) -> None:
        op = self.operation
        if not isinstance(op, FocusingOperation):
            raise ValueError(f"field 'operation' has wrong type (got {type(op).__name__})")
        affected = segments_affected(op)
        if self.segments_affected is None:
            self.segments_affected = affected
        elif self.segments_affected != affected:
            raise ValueError(f"segments_affected {self.segments_affected} inconsistent with "
                             f"{op.kind.value}({op.pop_count})")
        marked = self.initial_constituent != "unmarked"
        if self.marked is None:
            self.marked = marked
        elif self.marked != marked:
            raise ValueError(f"marked {str(self.marked).lower()} contradicts "
                             f"initial_constituent {self.initial_constituent!r}")

    def row_label(self) -> str:
        """Display row used by token-level tables."""
        if self.initial_constituent == "cue_phrase":
            return self.initial_token or "Cue"
        return ROW_LABELS[self.initial_constituent]


# ---------------------------------------------------------------------------
# Fragmentation
# ---------------------------------------------------------------------------

def _align_pauses(tokens: Sequence[AnnotatedToken],
                  pauses: Sequence[PauseRecord]) -> dict[int, PauseRecord]:
    """Map each pause record to the token gap it precedes.

    Alignment needs token timings in order; a pause whose end matches no
    token start within ALIGN_TOL is misaligned and reported with the nearest
    token, and so is a second pause on a gap that already holds one.  Each
    pause takes the token whose start is nearest its end, the earliest one
    among equally near starts, found by bisection.
    """
    timed = [tok.start_s for tok in tokens]
    if None in timed:
        raise MisalignedPause("tokens carry no start_s timing; "
                              "cannot align detected pauses", "transcript", timed.index(None))
    for i in range(1, len(timed)):
        if timed[i] < timed[i - 1]:
            raise MisalignedPause(f"token {i} starts at {timed[i]:.3f}s, before the "
                                  f"previous token; cannot align detected pauses",
                                  "transcript", i)
    aligned: dict[int, PauseRecord] = {}
    for k, pause in enumerate(pauses):
        best_i = _nearest_start(timed, pause.end_s)
        if abs(pause.end_s - timed[best_i]) <= ALIGN_TOL:
            if best_i in aligned:
                raise MisalignedPause(
                    f"pauses at {aligned[best_i].start_s:.3f}s and {pause.start_s:.3f}s "
                    f"both align to the gap before {tokens[best_i].surface!r} "
                    f"(index {best_i})", "pauses", k)
            aligned[best_i] = pause
            continue
        nearest = min(range(len(tokens)),
                      key=lambda i: min(abs(pause.start_s - timed[i]),
                                        abs(pause.end_s - timed[i])))
        raise MisalignedPause(
            f"pause at {pause.start_s:.3f}s ({pause.raw_duration_s:.3f}s) matches no "
            f"token gap; nearest token is {tokens[nearest].surface!r} "
            f"(index {nearest}, start {timed[nearest]:.3f}s)", "pauses", k)
    return aligned


def _nearest_start(starts: Sequence[float], t: float) -> int:
    """The lowest index ``i`` minimising ``abs(t - starts[i])`` over sorted starts.

    Above ``t`` the first start at or after it is nearest.  Below ``t`` the
    distance falls as the start rises, but rounding can make several starts
    equally near, so the earliest start with the least distance is found by
    a second bisection; it wins a tie with the start above.
    """
    above = bisect_left(starts, t)
    if above == 0:
        return 0
    gap = t - starts[above - 1]
    below = bisect_left(starts, -gap, 0, above, key=lambda s: s - t)
    if above == len(starts) or gap <= abs(t - starts[above]):
        return below
    return above


def fragmentize(transcript: Sequence[AnnotatedToken],
                pauses: Sequence[PauseRecord] | None = None,
                lexicon: Lexicon | None = None) -> list[SpeechFragment]:
    """Partition a transcript into speech fragments.

    Detected pause records, when given, are aligned to token gaps by timing
    and override the tokens' annotated pause_before_s at the aligned gaps.
    A cue phrase or an acknowledgment is utterance- or segment-initial when
    it opens the transcript or a turn, or follows a boundary tone or a pause
    reported at 0.1 s or more.
    """
    if not transcript:
        raise EmptyTranscript("transcript holds no tokens")
    lexicon = lexicon or bundled_lexicon()

    pause_before = [tok.pause_before_s for tok in transcript]
    if pauses:
        for i, record in _align_pauses(transcript, pauses).items():
            pause_before[i] = record.reported_duration_s
    paused = [round_tenth(pause) >= 0.1 for pause in pause_before]

    forms = {surface: normalize(surface) for surface in {tok.surface for tok in transcript}}
    surfaces = [forms[tok.surface] for tok in transcript]
    starts: list[tuple[int, str, CueEntry | None]] = []
    for i, tok in enumerate(transcript):
        match = lexicon.match_span(surfaces, i)
        if match is not None:
            entry, width = match
            kind = entry.token_class
            # Hesitation fillers have no non-hesitation reading, so they
            # open a fragment wherever they occur.
            opens = kind == "filled_pause"
            if not opens:
                flags = tok.flags
                opens = (i == 0 or "turn_initial" in flags
                         or transcript[i - 1].boundary != "none" or paused[i])
                if kind == "cue_phrase":
                    opens = judge_cue_use(entry, CueContext(
                        utterance_initial=opens, coordination="coordination" in flags,
                        accents=tuple(t.accent for t in transcript[i:i + width]),
                        own_intonational_phrase="own_intonational_phrase" in flags)).is_cue
            if opens:
                starts.append((i, kind, entry))
                continue
        if paused[i]:
            starts.append((i, "unfilled_pause", None))
    if not starts or starts[0][0] != 0:
        starts.insert(0, (0, "unmarked", None))

    fragments: list[SpeechFragment] = []
    for k, (start, cls, entry) in enumerate(starts):
        end = starts[k + 1][0] if k + 1 < len(starts) else len(transcript)
        fragments.append(SpeechFragment(k, tuple(transcript[start:end]), cls, entry,
                                        pause_before[start]))
    return fragments


# ---------------------------------------------------------------------------
# Coding
# ---------------------------------------------------------------------------

_CLASS_TO_CONSTITUENT = {
    "cue_phrase": "cue_phrase",
    "acknowledgment": "acknowledgment",
    "filled_pause": "filled_pause",
    "unfilled_pause": "unmarked",   # silence alone leaves a fragment unmarked
    "unmarked": "unmarked",
}


def code(fragments: Sequence[SpeechFragment],
         ops: Sequence[FocusingOperation],
         functions: Sequence[tuple[str, str]] | None = None) -> list[CodedRecord]:
    """Assemble one CodedRecord per fragment.

    ops must be the fragment-aligned focusing operations (one each); the
    stack is replayed to recover the embedding depth at each fragment.
    prior/subsequent discourse functions are annotator-supplied and default
    to topical.  Turn position derives from speaker change.
    """
    if len(fragments) != len(ops):
        raise LengthMismatch(f"{len(fragments)} fragments vs {len(ops)} operations")
    if functions is not None and len(functions) != len(fragments):
        raise LengthMismatch(f"{len(fragments)} fragments vs {len(functions)} function labels")

    records: list[CodedRecord] = []
    stack = FocusStack()
    for i, (frag, op) in enumerate(zip(fragments, ops)):
        stack = apply(stack, op, i)
        # A discourse-final Return can empty the stack; the fragment then
        # operates at the level of the segment it just closed.
        depth = max(1, stack.depth)

        prior_fn, subsequent_fn = ("topical", "topical")
        if functions is not None:
            prior_fn, subsequent_fn = functions[i]

        if i == 0 or frag.speaker != fragments[i - 1].speaker \
                or "turn_initial" in frag.tokens[0].flags:
            turn = "initiating"
        else:
            turn = "continuing"

        constituent = _CLASS_TO_CONSTITUENT[frag.initial_token_class]
        records.append(CodedRecord(
            fragment_index=i,
            pause_before_s=frag.pause_before_s,
            initial_constituent=constituent,
            initial_token=(frag.initial_cue.display if frag.initial_cue is not None
                           and constituent != "unmarked" else ""),
            operation=op,
            embedding_depth=depth,
            prior_function=prior_fn,
            subsequent_function=subsequent_fn,
            turn_position=turn,
        ))
    return records


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def read_transcript(path: str | Path) -> list[AnnotatedToken]:
    """Read a transcript; timed tokens must not start before earlier ones."""
    tokens = []
    last_start = float("-inf")
    for lineno, token in validate(iter_jsonl(path), TOKEN_FIELDS, path, AnnotatedToken):
        tokens.append(token)
        start = token.start_s
        if start is not None:
            if start < last_start:
                raise SchemaError(f"start_s {start:g} precedes the previous token's "
                                  f"{last_start:g}", line=lineno, path=path)
            last_start = start
    if not tokens:
        raise SchemaError("transcript holds no tokens", path=path)
    return tokens


def read_coded(path: str | Path) -> list[CodedRecord]:
    return [record for _, record in validate(iter_jsonl(path), CODED_FIELDS, path, CodedRecord)]


def read_measured(path: str | Path) -> list[CodedRecord]:
    """Read coded records for analysis, which needs at least one measured pause."""
    records = read_coded(path)
    if all(rec.pause_before_s is None for rec in records):
        raise SchemaError("no record with a measured pause_before_s", path=path)
    return records


def write_coded(target: Target, records: Iterable[CodedRecord]) -> None:
    write_jsonl(target, rows(CODED_FIELDS, records))


#: Column order of the spreadsheet mirror: the nine coded fields.
TSV_COLUMNS = ("fragment_index", "pause_before_s", "initial_constituent",
               "operation", "embedding_depth", "segments_affected",
               "prior_function", "subsequent_function", "turn_position")


def write_coded_tsv(target: Target, records: Iterable[CodedRecord]) -> None:
    """Tab-separated mirror of the coded records for spreadsheet inspection."""
    with open_target(target) as fp:
        fp.write("\t".join(TSV_COLUMNS) + "\n")
        for rec in records:
            op = rec.operation.kind.value
            if rec.operation.pop_count:
                op += f"({rec.operation.pop_count})"
            pause = "" if rec.pause_before_s is None else f"{rec.pause_before_s:g}"
            fp.write("\t".join([str(rec.fragment_index), pause, rec.initial_constituent,
                                 op, str(rec.embedding_depth), str(rec.segments_affected),
                                 rec.prior_function, rec.subsequent_function,
                                 rec.turn_position]) + "\n")
