"""Reference fragmentation: the per-position version.

``fragmentize`` normalizes every token's surface, and for every position
works out the boundary test before it knows whether the lexicon matched and
rounds the preceding pause once in the boundary test and again for the
unfilled-pause test.  It serves only as the oracle the differential tests
compare ``pausecue.fragments.fragmentize`` against.
"""

from __future__ import annotations

from typing import Sequence

from pausecue.fragments import (AnnotatedToken, EmptyTranscript, SpeechFragment,
                                _align_pauses)
from pausecue.lexicon import (CueContext, CueEntry, Lexicon, bundled_lexicon, judge_cue_use,
                              normalize)
from pausecue.pauses import PauseRecord, round_tenth


def _at_boundary(tokens: Sequence[AnnotatedToken], i: int,
                 pause_before: Sequence[float]) -> bool:
    """Operational utterance/segment-initial test for position ``i``."""
    if i == 0 or "turn_initial" in tokens[i].flags:
        return True
    if tokens[i - 1].boundary != "none":
        return True
    return round_tenth(pause_before[i]) >= 0.1


def _classify_position(tokens: Sequence[AnnotatedToken], i: int,
                       surfaces: Sequence[str], pause_before: Sequence[float],
                       lexicon: Lexicon) -> tuple[str | None, CueEntry | None]:
    """Initial-token class firing at position ``i`` and its lexicon entry."""
    boundary = _at_boundary(tokens, i, pause_before)
    match = lexicon.match_span(surfaces, i)
    if match is not None:
        entry, width = match
        if entry.token_class == "cue_phrase":
            span = tokens[i:i + width]
            context = CueContext(
                utterance_initial=boundary,
                coordination="coordination" in tokens[i].flags,
                accents=tuple(tok.accent for tok in span),
                own_intonational_phrase="own_intonational_phrase" in tokens[i].flags,
            )
            if judge_cue_use(entry, context).is_cue:
                return "cue_phrase", entry
        elif entry.token_class == "acknowledgment":
            if boundary:
                return "acknowledgment", entry
        elif entry.token_class == "filled_pause":
            # Hesitation fillers have no non-hesitation reading, so they
            # open a fragment wherever they occur.
            return "filled_pause", entry
    if round_tenth(pause_before[i]) >= 0.1:
        return "unfilled_pause", None
    return None, None


def fragmentize(transcript: Sequence[AnnotatedToken],
                pauses: Sequence[PauseRecord] | None = None,
                lexicon: Lexicon | None = None) -> list[SpeechFragment]:
    """Partition a transcript into speech fragments.

    Detected pause records, when given, are aligned to token gaps by timing
    and override the tokens' annotated pause_before_s at the aligned gaps.
    """
    if not transcript:
        raise EmptyTranscript("transcript holds no tokens")
    lexicon = lexicon or bundled_lexicon()

    pause_before = [tok.pause_before_s for tok in transcript]
    if pauses:
        for i, record in _align_pauses(transcript, pauses).items():
            pause_before[i] = record.reported_duration_s

    surfaces = [normalize(tok.surface) for tok in transcript]
    starts: list[tuple[int, str, CueEntry | None]] = []
    for i in range(len(transcript)):
        cls, entry = _classify_position(transcript, i, surfaces, pause_before, lexicon)
        if i == 0:
            starts.append((0, cls or "unmarked", entry))
        elif cls is not None:
            starts.append((i, cls, entry))

    fragments: list[SpeechFragment] = []
    for k, (start, cls, entry) in enumerate(starts):
        end = starts[k + 1][0] if k + 1 < len(starts) else len(transcript)
        tokens = tuple(transcript[start:end])
        fragments.append(SpeechFragment(
            index=k,
            speaker=tokens[0].speaker,
            tokens=tokens,
            initial_token_class=cls,
            initial_cue=entry,
            pause_before_s=pause_before[start],
        ))
    return fragments
