"""Focusing-operation classification from lexical and prosodic evidence.

Evidence is gathered from the prior, current and subsequent speech fragments.
Each matched feature indicates a stack primitive rather than a full
operation:

* ``pop``  - a segment is being closed (falling final intonation or closure
  in the prior fragment; segues, expanded pitch range, a return to normal
  phonation, or So/But in the current or subsequent fragment),
* ``push`` - subordinate new material is being opened (pronominal reference,
  reduced pitch range, nonstandard phonation, many L* accents, relative
  clauses, Now / Y'know / ordinal phrases),
* ``null`` - the current segment simply continues (a phrase-final
  continuation rise on the prior fragment),
* ``impending_pop`` - the current fragment itself winds down (falling final,
  acknowledgment, prompt, lexical closure, creaky ending); it retains now
  but primes a pop on the next fragment.

Primitive totals map onto operations: push evidence alone argues Initiate,
pop alone argues Return, pop and push together argue Replace, and null or
impending evidence argues Retain.  Cue-phrase candidate sets act as soft
priors: a multiplicative bonus, never a veto, except that a single-operation
marker corroborated by any consistent evidence is taken at its word.  Score
ties resolve toward the least disruptive operation (Retain, then Initiate,
Return, Replace).
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _q
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .focus import (FocusStack, FocusingOperation, LinguisticTree, OpKind,
                    TIE_ORDER, apply, build_tree, operation)
from .fragments import SpeechFragment
from .jsonl import (IN_RANGE, MAX_MAGNITUDE, SCHEMA_VERSION, Frozen, SchemaError, Target,
                    write_jsonl)

#: (source, feature) -> (config row key, stack primitive).
TABLE_ROWS: dict[tuple[str, str], tuple[str, str]] = {
    ("prior", "falling_final"): ("prior_pop", "pop"),
    ("prior", "acknowledgment"): ("prior_pop", "pop"),
    ("prior", "lexical_closure"): ("prior_pop", "pop"),
    ("prior", "continuation_rise"): ("prior_null", "null"),
    ("current", "pronominalization"): ("current_push", "push"),
    ("current", "reduced_range"): ("current_push", "push"),
    ("current", "nonstandard_phonation"): ("current_push", "push"),
    ("current", "many_Lstar"): ("current_push", "push"),
    ("current", "relative_clause"): ("current_push", "push"),
    ("current", "cue_now_yknow_ordinal"): ("current_push", "push"),
    ("current", "nonpronominal_repetition"): ("current_pop", "pop"),
    ("current", "expanded_range"): ("current_pop", "pop"),
    ("current", "normal_phonation_return"): ("current_pop", "pop"),
    ("current", "cue_so_but"): ("current_pop", "pop"),
    ("current", "falling_final"): ("current_impending", "impending_pop"),
    ("current", "acknowledgment"): ("current_impending", "impending_pop"),
    ("current", "prompt"): ("current_impending", "impending_pop"),
    ("current", "lexical_closure"): ("current_impending", "impending_pop"),
    ("current", "creaky_final"): ("current_impending", "impending_pop"),
    ("subsequent", "nonpronominal_repetition"): ("subsequent_pop", "pop"),
    ("subsequent", "expanded_range"): ("subsequent_pop", "pop"),
    ("subsequent", "normal_phonation_return"): ("subsequent_pop", "pop"),
    ("subsequent", "cue_so_but_now_subsequent"): ("subsequent_pop", "pop"),
}

#: The config row keys, in the order of their first row.
ROW_KEYS = tuple(dict.fromkeys(row_key for row_key, _ in TABLE_ROWS.values()))

SUBORDINATORS = frozenset(
    "if who whom whose which where when while that".split())

RETAIN, INITIATE, RETURN, REPLACE = (OpKind.RETAIN, OpKind.INITIATE, OpKind.RETURN,
                                     OpKind.REPLACE)


class EvidenceItem(Frozen):
    """One matched evidence row and its weight, kept as a float as
    ClassifierConfig keeps its weights; ``primitive`` is looked up in
    TABLE_ROWS, so it stays out of ``==``, ``hash`` and ``repr``."""

    _fields = ("source", "feature", "weight")
    __slots__ = (*_fields, "primitive")

    def __init__(self, source: str, feature: str, weight: float = 1.0) -> None:
        if (source, feature) not in TABLE_ROWS:
            raise ValueError(f"unknown evidence row ({source}, {feature})")
        if weight <= 0:
            raise ValueError("weight must be positive")
        if not weight <= MAX_MAGNITUDE:  # also NaN
            raise ValueError(f"weight {IN_RANGE}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "feature", feature)
        object.__setattr__(self, "primitive", TABLE_ROWS[(source, feature)][1])
        object.__setattr__(self, "weight", float(weight))


class ClassifierConfig(Frozen):
    """Evidence-row weights and classifier bonuses.

    All rows start at weight 1.  candidate_bonus multiplies the scores of a
    marker's candidate operations; impending_bonus multiplies Return/Replace
    when the previous fragment primed a pop.  lstar_threshold is the
    proportion of accented tokens that must carry L* before the
    parenthetical reading fires (an interpretation knob, not an observed
    constant).  weights may omit a row but may name no key outside
    ROW_KEYS; the config keeps its own copy holding every row, so configs
    that weigh each row alike compare equal.  items holds one shared
    EvidenceItem per evidence row, built with the config, which rejects
    every number load_weights would reject; it is left out of ``==``,
    ``hash`` and ``repr``.  A config is unhashable, as its weights are.
    """

    _fields = ("weights", "candidate_bonus", "impending_bonus", "lstar_threshold")
    __slots__ = (*_fields, "items")

    def __init__(self, weights: Mapping[str, float] = MappingProxyType({}),
                 candidate_bonus: float = 2.0, impending_bonus: float = 2.0,
                 lstar_threshold: float = 0.5) -> None:
        for key in weights:
            if key not in ROW_KEYS:
                raise ValueError(f"unknown weight key {key!r}")
        for key, value in zip(SETTING_KEYS, (candidate_bonus, impending_bonus, lstar_threshold)):
            if not -MAX_MAGNITUDE <= value <= MAX_MAGNITUDE:
                raise ValueError(f"{key} {IN_RANGE}")
        weights = {key: float(weights.get(key, 1.0)) for key in ROW_KEYS}
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "candidate_bonus", candidate_bonus)
        object.__setattr__(self, "impending_bonus", impending_bonus)
        object.__setattr__(self, "lstar_threshold", lstar_threshold)
        object.__setattr__(self, "items", {
            row: EvidenceItem(*row, weights[row_key])
            for row, (row_key, _) in TABLE_ROWS.items()})


#: The ClassifierConfig values other than the row weights, each a weights-file key.
SETTING_KEYS = ClassifierConfig._fields[1:]

DEFAULT_CONFIG = ClassifierConfig()


def load_weights(path: str | Path) -> ClassifierConfig:
    """Read a ``key = value`` text config; unknown or repeated keys, values
    that are not finite and row weights that are not positive are rejected."""
    extras = {key: getattr(DEFAULT_CONFIG, key) for key in SETTING_KEYS}
    weights = {}
    seen = set()
    # undecodable bytes turn into U+FFFD, which no key or number accepts
    with open(path, encoding="utf-8", errors="replace") as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError("expected 'key = value'", line=lineno, path=path)
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in ROW_KEYS and key not in extras:
                raise SchemaError(f"unknown key {key!r}", line=lineno, path=path)
            if key in seen:
                raise SchemaError(f"duplicate key {key!r}", line=lineno, path=path)
            seen.add(key)
            try:
                number = float(value)
            except ValueError:
                raise SchemaError(f"bad number {value!r}", line=lineno, path=path) from None
            if not -MAX_MAGNITUDE <= number <= MAX_MAGNITUDE:
                raise SchemaError(f"{key} {IN_RANGE}", line=lineno, path=path)
            if key in extras:
                extras[key] = number
            elif number <= 0:
                raise SchemaError(f"weight {key} must be positive", line=lineno, path=path)
            else:
                weights[key] = number
    return ClassifierConfig(weights=weights, **extras)


class Classification(NamedTuple):
    """Ranked outcome for one fragment.

    operation is the argmax of alternatives.  low_confidence marks the
    no-evidence default.  singleton_boosted records that a single-operation
    marker corroborated by evidence decided the call; tie_break_applied that
    the top two scores were equal.
    """

    operation: FocusingOperation
    score: float
    alternatives: tuple[tuple[FocusingOperation, float], ...]
    evidence_used: tuple[EvidenceItem, ...]
    low_confidence: bool = False
    singleton_boosted: bool = False
    tie_break_applied: bool = False
    prior_disagreement: bool = False


# ---------------------------------------------------------------------------
# Evidence extraction
# ---------------------------------------------------------------------------

def _cue_surface(frag: SpeechFragment) -> str:
    if frag.initial_cue is not None and frag.initial_token_class == "cue_phrase":
        return frag.initial_cue.surface
    return ""


def extract_evidence(prior: SpeechFragment | None,
                     current: SpeechFragment,
                     subsequent: SpeechFragment | None,
                     *,
                     prior_function: str | None = None,
                     current_function: str | None = None,
                     config: ClassifierConfig = DEFAULT_CONFIG) -> list[EvidenceItem]:
    """Collect one evidence item per matched feature.

    Absent neighbors contribute nothing.  Discourse-function features
    (lexical closure, prompts) fire only from annotator-supplied labels;
    they are never inferred from the words themselves.
    """
    item = config.items
    items: list[EvidenceItem] = []

    if prior is not None:
        if prior.final_boundary == "fall":
            items.append(item["prior", "falling_final"])
        if prior.initial_token_class == "acknowledgment" or prior_function == "acknowledgment":
            items.append(item["prior", "acknowledgment"])
        if prior_function == "closure":
            items.append(item["prior", "lexical_closure"])
        if prior.final_boundary == "continuation_rise":
            items.append(item["prior", "continuation_rise"])

    feats = current.features
    if feats.pronoun:
        items.append(item["current", "pronominalization"])
    if feats.reduced_range:
        items.append(item["current", "reduced_range"])
    if feats.creaky_before_last:
        items.append(item["current", "nonstandard_phonation"])
    accented = feats.hstar + feats.lstar
    if accented >= 2 and feats.lstar / accented > config.lstar_threshold:
        items.append(item["current", "many_Lstar"])
    if current.tokens[0].surface.lower() in SUBORDINATORS:
        items.append(item["current", "relative_clause"])
    cue = _cue_surface(current)
    if cue in ("now", "you know") or (current.initial_cue is not None
                                      and current.initial_cue.ordinal_rank is not None):
        items.append(item["current", "cue_now_yknow_ordinal"])
    if feats.repetition:
        items.append(item["current", "nonpronominal_repetition"])
    if feats.expanded_range:
        items.append(item["current", "expanded_range"])
    if prior is not None and prior.features.creaky and not feats.creaky:
        items.append(item["current", "normal_phonation_return"])
    if cue in ("so", "but"):
        items.append(item["current", "cue_so_but"])
    if current.final_boundary == "fall":
        items.append(item["current", "falling_final"])
    if current.initial_token_class == "acknowledgment":
        items.append(item["current", "acknowledgment"])
    if current_function == "acknowledgment" and current.initial_token_class != "acknowledgment":
        items.append(item["current", "prompt"])
    if current_function == "closure":
        items.append(item["current", "lexical_closure"])
    if feats.creaky_final:
        items.append(item["current", "creaky_final"])

    if subsequent is not None:
        later = subsequent.features
        if later.repetition:
            items.append(item["subsequent", "nonpronominal_repetition"])
        if later.expanded_range:
            items.append(item["subsequent", "expanded_range"])
        if feats.creaky and not later.creaky:
            items.append(item["subsequent", "normal_phonation_return"])
        if _cue_surface(subsequent) in ("so", "but", "now"):
            items.append(item["subsequent", "cue_so_but_now_subsequent"])

    return items


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def resolve_pop_count(kind: OpKind, stack: FocusStack, *, topic: str = "") -> int:
    """How many spaces a Return or Replace pops.

    A non-empty ``topic`` anchors the pop: the links are walked from the top
    to the nearest open space labelled with it, and a Return pops the spaces
    above that space (at least one) while a Replace pops them and the space
    itself.  Otherwise the evidence rarely says how many segments closed, so
    one pop is assumed.
    """
    if kind is not RETURN and kind is not REPLACE:
        return 0
    if topic:
        link, above = stack.link, 0
        while link is not None and link[0].dsp_label != topic:
            link, above = link[1], above + 1
        if link is not None:
            return max(1, above) if kind is RETURN else above + 1
    return 1


def classify(evidence: Sequence[EvidenceItem],
             prior_ops: frozenset[OpKind] | None,
             stack: FocusStack,
             *,
             topic: str = "",
             lookahead_pop: bool = False,
             config: ClassifierConfig = DEFAULT_CONFIG) -> Classification:
    """Rank the four operations against the evidence.

    With an empty stack only Initiate is feasible.  With no evidence at all
    the null operation Retain wins by default at score 0 and the result is
    flagged low-confidence.  Pop counts are read off the stack's open
    spaces, so every alternative can be applied to it; a repeated ``topic``
    anchors them (see ``resolve_pop_count``).
    """
    # start at int 0 and add in evidence order, as sum() does: the audit
    # writes an empty total as 0
    pop_w = push_w = null_w = imp_w = 0
    for it in evidence:
        primitive = it.primitive
        if primitive == "pop":
            pop_w += it.weight
        elif primitive == "push":
            push_w += it.weight
        elif primitive == "null":
            null_w += it.weight
        else:
            imp_w += it.weight

    raw = {RETAIN: null_w + imp_w, INITIATE: push_w, RETURN: pop_w, REPLACE: pop_w + push_w}
    scores = dict(raw)
    if lookahead_pop:
        scores[RETURN] *= config.impending_bonus
        scores[REPLACE] *= config.impending_bonus
    if prior_ops:
        for kind in prior_ops:
            scores[kind] *= config.candidate_bonus

    singleton_boosted = False
    if prior_ops and len(prior_ops) == 1:
        (kind,) = tuple(prior_ops)
        if raw[kind] > 0:
            rivals = max(score for other, score in scores.items() if other is not kind)
            if scores[kind] <= rivals:
                scores[kind] = rivals + raw[kind]
                singleton_boosted = True

    # TIE_ORDER lists the kinds least disruptive first; the sort is stable
    feasible = TIE_ORDER if stack.depth else (INITIATE,)
    ranked_kinds = sorted(feasible, key=lambda k: -scores[k])
    top = ranked_kinds[0]
    tie_break = len(ranked_kinds) > 1 and scores[ranked_kinds[1]] == scores[top]

    alternatives = tuple([
        (operation(kind, resolve_pop_count(kind, stack, topic=topic)), scores[kind])
        for kind in ranked_kinds])

    # positional, in field order: eight keywords cost more to bind, once per fragment
    return Classification(alternatives[0][0], scores[top], alternatives, tuple(evidence),
                          not evidence, singleton_boosted, tie_break,
                          bool(prior_ops) and top not in prior_ops)


class SegmentationResult(NamedTuple):
    trace: list[tuple[FocusingOperation, int]]
    tree: LinguisticTree
    classifications: list[Classification]


def segment_discourse(fragments: Sequence[SpeechFragment],
                      *,
                      functions: Sequence[tuple[str, str]] | None = None,
                      config: ClassifierConfig = DEFAULT_CONFIG) -> SegmentationResult:
    """Classify every fragment while replaying the focus stack.

    The first fragment necessarily opens the discourse (the stack is empty,
    so only Initiate is feasible).  Impending-pop evidence on one fragment
    carries a lookahead bonus into the next.  A pushed space is labelled
    with its fragment's topic, which anchors the pops of a repetition.  The
    emitted trace always replays cleanly through the stack engine.
    """
    if not fragments:
        raise ValueError("no fragments to segment")
    if functions is not None and len(functions) != len(fragments):
        raise ValueError(f"{len(fragments)} fragments vs {len(functions)} "
                         "function-label pairs")

    stack = FocusStack()
    trace: list[tuple[FocusingOperation, int]] = []
    classifications: list[Classification] = []
    lookahead = False
    for i, frag in enumerate(fragments):
        prior = fragments[i - 1] if i > 0 else None
        subsequent = fragments[i + 1] if i + 1 < len(fragments) else None
        prior_fn = None
        current_fn = None
        if functions is not None:
            # each pair labels the speech around fragment i, so the current
            # fragment's own function is read off its neighbors' labels
            prior_fn = functions[i][0]
            if i > 0:
                current_fn = functions[i - 1][1]
            elif i + 1 < len(functions):
                current_fn = functions[i + 1][0]
        evidence = extract_evidence(prior, frag, subsequent,
                                    prior_function=prior_fn,
                                    current_function=current_fn,
                                    config=config)
        candidates = None
        if frag.initial_cue is not None and frag.initial_cue.token_class == "cue_phrase" \
                and frag.initial_token_class == "cue_phrase":
            candidates = frag.initial_cue.candidate_ops
        topic = frag.topic
        result = classify(evidence, candidates, stack,
                          topic=topic if frag.features.repetition else "",
                          lookahead_pop=lookahead, config=config)
        lookahead = any(it.primitive == "impending_pop" for it in evidence)
        op = result.operation
        stack = apply(stack, op, i, label=topic)
        trace.append((op, i))
        classifications.append(result)

    return SegmentationResult(trace=trace, tree=build_tree(trace),
                              classifications=classifications)


def write_audit(target: Target, classifications: Sequence[Classification]) -> None:
    """Classification audit log: alternatives and evidence, one line per
    fragment, written by hand as ``json.dumps`` writes it, since no
    ``Field`` kind states an array of kind, pops and score, or a list of
    objects.  A score is the int 0 when no evidence was added, else a float
    kept finite by the bounds on weights and bonuses; ``repr`` writes both."""
    write_jsonl(target, map(_audit_line, range(len(classifications)), classifications))


def _audit_line(i: int, cls: Classification) -> str:
    op = cls.operation
    alternatives = ", ".join([f"[{_q(alt.kind)}, {alt.pop_count}, {score!r}]"
                              for alt, score in cls.alternatives])
    evidence = ", ".join([f'{{"source": {_q(it.source)}, "feature": {_q(it.feature)}, '
                          f'"primitive": {_q(it.primitive)}, "weight": {it.weight!r}}}'
                          for it in cls.evidence_used])
    return (f'{{"schema_version": {SCHEMA_VERSION}, "fragment_index": {i}, '
            f'"operation": {{"kind": {_q(op.kind)}, "pops": {op.pop_count}}}, '
            f'"score": {cls.score!r}, "alternatives": [{alternatives}], '
            f'"evidence_used": [{evidence}], '
            f'"low_confidence": {"true" if cls.low_confidence else "false"}, '
            f'"singleton_boosted": {"true" if cls.singleton_boosted else "false"}, '
            f'"tie_break_applied": {"true" if cls.tie_break_applied else "false"}, '
            f'"prior_disagreement": {"true" if cls.prior_disagreement else "false"}}}\n')
