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

from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import NamedTuple, Sequence

from .focus import (FocusStack, FocusingOperation, LinguisticTree, OpKind,
                    TIE_ORDER, apply, build_tree, operation)
from .fragments import SpeechFragment
from .jsonl import (MAX_MAGNITUDE, SCHEMA_VERSION, SchemaError, Target, open_target,
                    write_jsonl)

SOURCES = ("prior", "current", "subsequent")
PRIMITIVES = ("push", "pop", "null", "impending_pop")

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

ROW_KEYS = ("prior_pop", "prior_null", "current_push", "current_pop",
            "current_impending", "subsequent_pop")

PRONOUNS = frozenset("""
    i me my mine you your yours he him his she her hers it its we us our ours
    they them their theirs this that these those
    i'm i'll i've you're you'll you've he's she's it's that's we're we'll
    they're they'll there's
""".split())

SUBORDINATORS = frozenset(
    "if who whom whose which where when while that".split())


@dataclass(frozen=True)
class ClassifierConfig:
    """Evidence-row weights and classifier bonuses.

    All rows start at weight 1.  candidate_bonus multiplies the scores of a
    marker's candidate operations; impending_bonus multiplies Return/Replace
    when the previous fragment primed a pop.  lstar_threshold is the
    proportion of accented tokens that must carry L* before the
    parenthetical reading fires (an interpretation knob, not an observed
    constant).
    """

    weights: dict = dc_field(default_factory=lambda: {key: 1.0 for key in ROW_KEYS})
    candidate_bonus: float = 2.0
    impending_bonus: float = 2.0
    lstar_threshold: float = 0.5

    def weight(self, row_key: str) -> float:
        return float(self.weights.get(row_key, 1.0))


DEFAULT_CONFIG = ClassifierConfig()


def load_weights(path: str | Path) -> ClassifierConfig:
    """Read a ``key = value`` text config; unknown keys, values that are not
    finite and row weights that are not positive are rejected."""
    extras = dict(vars(DEFAULT_CONFIG))
    weights = dict(extras.pop("weights"))
    # undecodable bytes turn into U+FFFD, which no key or number accepts
    with open(path, encoding="utf-8", errors="replace") as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError("expected 'key = value'", line=lineno, path=path)
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in weights and key not in extras:
                raise SchemaError(f"unknown key {key!r}", line=lineno, path=path)
            try:
                number = float(value)
            except ValueError:
                raise SchemaError(f"bad number {value!r}", line=lineno, path=path) from None
            if not -MAX_MAGNITUDE <= number <= MAX_MAGNITUDE:
                raise SchemaError(f"{key} must be finite and at most {MAX_MAGNITUDE:g} "
                                  f"in magnitude", line=lineno, path=path)
            if key in extras:
                extras[key] = number
            elif number <= 0:
                raise SchemaError(f"weight {key} must be positive", line=lineno, path=path)
            else:
                weights[key] = number
    return ClassifierConfig(weights=weights, **extras)


def write_weights(target: Target, config: ClassifierConfig) -> None:
    lines = ["# evidence-row weights"]
    lines += [f"{key} = {config.weight(key):g}" for key in ROW_KEYS]
    lines += ["# bonuses and thresholds",
              f"candidate_bonus = {config.candidate_bonus:g}",
              f"impending_bonus = {config.impending_bonus:g}",
              f"lstar_threshold = {config.lstar_threshold:g}"]
    with open_target(target) as fp:
        fp.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class EvidenceItem:
    source: str
    feature: str
    primitive: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if (self.source, self.feature) not in TABLE_ROWS:
            raise ValueError(f"unknown evidence row ({self.source}, {self.feature})")
        expected = TABLE_ROWS[(self.source, self.feature)][1]
        if self.primitive != expected:
            raise ValueError(f"({self.source}, {self.feature}) maps to {expected}, "
                             f"not {self.primitive}")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


@dataclass(frozen=True)
class Classification:
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

def _item(source: str, feature: str, config: ClassifierConfig) -> EvidenceItem:
    row_key, primitive = TABLE_ROWS[(source, feature)]
    return EvidenceItem(source=source, feature=feature, primitive=primitive,
                        weight=config.weight(row_key))


def _has_creaky(frag: SpeechFragment) -> bool:
    return any(tok.phonation == "creaky" for tok in frag.tokens)


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
    items: list[EvidenceItem] = []

    if prior is not None:
        if prior.final_boundary == "fall":
            items.append(_item("prior", "falling_final", config))
        if prior.initial_token_class == "acknowledgment" or prior_function == "acknowledgment":
            items.append(_item("prior", "acknowledgment", config))
        if prior_function == "closure":
            items.append(_item("prior", "lexical_closure", config))
        if prior.final_boundary == "continuation_rise":
            items.append(_item("prior", "continuation_rise", config))

    surfaces = [tok.surface.lower() for tok in current.tokens]
    if any(s in PRONOUNS for s in surfaces):
        items.append(_item("current", "pronominalization", config))
    if any(tok.pitch_range == "reduced" for tok in current.tokens):
        items.append(_item("current", "reduced_range", config))
    if any(tok.phonation == "creaky" for tok in current.tokens[:-1]):
        items.append(_item("current", "nonstandard_phonation", config))
    accented = [tok.accent for tok in current.tokens if tok.accent in ("Hstar", "Lstar")]
    if len(accented) >= 2 and accented.count("Lstar") / len(accented) > config.lstar_threshold:
        items.append(_item("current", "many_Lstar", config))
    if surfaces[0] in SUBORDINATORS:
        items.append(_item("current", "relative_clause", config))
    cue = _cue_surface(current)
    if cue in ("now", "you know") or (current.initial_cue is not None
                                      and current.initial_cue.ordinal_rank is not None):
        items.append(_item("current", "cue_now_yknow_ordinal", config))
    if any("nonpronominal_repetition" in tok.flags for tok in current.tokens):
        items.append(_item("current", "nonpronominal_repetition", config))
    if any(tok.pitch_range == "expanded" for tok in current.tokens):
        items.append(_item("current", "expanded_range", config))
    if prior is not None and _has_creaky(prior) and not _has_creaky(current):
        items.append(_item("current", "normal_phonation_return", config))
    if cue in ("so", "but"):
        items.append(_item("current", "cue_so_but", config))
    if current.final_boundary == "fall":
        items.append(_item("current", "falling_final", config))
    if current.initial_token_class == "acknowledgment":
        items.append(_item("current", "acknowledgment", config))
    if current_function == "acknowledgment" and current.initial_token_class != "acknowledgment":
        items.append(_item("current", "prompt", config))
    if current_function == "closure":
        items.append(_item("current", "lexical_closure", config))
    if current.tokens[-1].phonation == "creaky":
        items.append(_item("current", "creaky_final", config))

    if subsequent is not None:
        if any("nonpronominal_repetition" in tok.flags for tok in subsequent.tokens):
            items.append(_item("subsequent", "nonpronominal_repetition", config))
        if any(tok.pitch_range == "expanded" for tok in subsequent.tokens):
            items.append(_item("subsequent", "expanded_range", config))
        if _has_creaky(current) and not _has_creaky(subsequent):
            items.append(_item("subsequent", "normal_phonation_return", config))
        if _cue_surface(subsequent) in ("so", "but", "now"):
            items.append(_item("subsequent", "cue_so_but_now_subsequent", config))

    return items


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def resolve_pop_count(kind: OpKind, stack_depth: int, *, topic: str = "",
                      open_labels: Sequence[str] = (),
                      topic_anchored: bool = False) -> int:
    """How many spaces a Return or Replace pops.

    With a repeated topic that matches an open space, a Return pops down to
    just above that space and a Replace pops through it; otherwise the
    evidence rarely says how many segments closed, so one pop is assumed.
    """
    if kind not in (OpKind.RETURN, OpKind.REPLACE):
        return 0
    if topic_anchored and topic and topic in open_labels:
        idx = max(i for i, label in enumerate(open_labels) if label == topic)
        pops = stack_depth - 1 - idx if kind is OpKind.RETURN else stack_depth - idx
        return min(max(1, pops), stack_depth)
    return 1


def classify(evidence: Sequence[EvidenceItem],
             prior_ops: frozenset[OpKind] | None = None,
             stack_depth: int = 1,
             *,
             topic: str = "",
             open_labels: Sequence[str] = (),
             lookahead_pop: bool = False,
             config: ClassifierConfig = DEFAULT_CONFIG) -> Classification:
    """Rank the four operations against the evidence.

    With an empty stack only Initiate is feasible.  With no evidence at all
    the null operation Retain wins by default at score 0 and the result is
    flagged low-confidence.  The emitted pop counts never exceed the stack
    depth, so the operation can always be applied.
    """
    pop_w = sum(it.weight for it in evidence if it.primitive == "pop")
    push_w = sum(it.weight for it in evidence if it.primitive == "push")
    null_w = sum(it.weight for it in evidence if it.primitive == "null")
    imp_w = sum(it.weight for it in evidence if it.primitive == "impending_pop")

    raw = {
        OpKind.RETAIN: null_w + imp_w,
        OpKind.INITIATE: push_w,
        OpKind.RETURN: pop_w,
        OpKind.REPLACE: pop_w + push_w,
    }
    scores = dict(raw)
    if lookahead_pop:
        scores[OpKind.RETURN] *= config.impending_bonus
        scores[OpKind.REPLACE] *= config.impending_bonus
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

    feasible = list(scores) if stack_depth > 0 else [OpKind.INITIATE]
    ranked_kinds = sorted(feasible, key=lambda k: (-scores[k], TIE_ORDER[k]))
    top = ranked_kinds[0]
    tie_break = len(ranked_kinds) > 1 and scores[ranked_kinds[1]] == scores[top]

    anchored = any(it.feature == "nonpronominal_repetition" and it.source == "current"
                   for it in evidence)
    alternatives = tuple(
        (operation(kind, resolve_pop_count(kind, stack_depth, topic=topic,
                                           open_labels=open_labels,
                                           topic_anchored=anchored)),
         scores[kind])
        for kind in ranked_kinds)

    return Classification(
        operation=alternatives[0][0],
        score=scores[top],
        alternatives=alternatives,
        evidence_used=tuple(evidence),
        low_confidence=not evidence,
        singleton_boosted=singleton_boosted,
        tie_break_applied=tie_break,
        prior_disagreement=bool(prior_ops) and top not in prior_ops,
    )


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
    carries a lookahead bonus into the next.  The emitted trace always
    replays cleanly through the stack engine.
    """
    if not fragments:
        raise ValueError("no fragments to segment")
    if functions is not None and len(functions) != len(fragments):
        raise ValueError(f"{len(fragments)} fragments vs {len(functions)} "
                         "function-label pairs")

    stack = FocusStack.empty()
    labels: list[str] = []  # dsp_label of each open space, bottom to top
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
        result = classify(evidence, candidates, stack.depth,
                          topic=frag.topic,
                          open_labels=labels,
                          lookahead_pop=lookahead,
                          config=config)
        lookahead = any(it.primitive == "impending_pop" for it in evidence)
        op = result.operation
        label = frag.topic or f"fragment-{i}"
        stack = apply(stack, op, i, label=label)
        del labels[stack.depth - op.pushes:]
        if op.pushes:
            labels.append(label)
        trace.append((op, i))
        classifications.append(result)

    return SegmentationResult(trace=trace, tree=build_tree(trace),
                              classifications=classifications)


def write_audit(target: Target, classifications: Sequence[Classification]) -> None:
    """Classification audit log: alternatives and evidence, one line per fragment."""
    rows = []
    for i, cls in enumerate(classifications):
        rows.append({
            "schema_version": SCHEMA_VERSION,
            "fragment_index": i,
            "operation": {"kind": cls.operation.kind.value,
                          "pops": cls.operation.pop_count},
            "score": cls.score,
            "alternatives": [[op.kind.value, op.pop_count, score]
                             for op, score in cls.alternatives],
            "evidence_used": [dict(vars(it)) for it in cls.evidence_used],
            "low_confidence": cls.low_confidence,
            "singleton_boosted": cls.singleton_boosted,
            "tie_break_applied": cls.tie_break_applied,
            "prior_disagreement": cls.prior_disagreement,
        })
    write_jsonl(target, rows)
