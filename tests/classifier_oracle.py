"""Reference evidence extraction, scoring and classifier replay: the
straightforward versions.

``extract_evidence`` builds and validates a new ``EvidenceItem`` for every
matched feature and scans a fragment's tokens once per feature and role;
``classify`` sums the evidence once per primitive; ``segment_discourse``
rebuilds the list of open labels from the whole stack for every fragment,
O(depth) each; ``write_audit`` builds each line's dict by hand and writes it
with ``json.dumps``.  They serve only as the oracle the differential tests compare
``pausecue.classifier`` against, so they share nothing with it but its tables
and record types.
"""

from __future__ import annotations

import json
from typing import Sequence

from pausecue.classifier import (DEFAULT_CONFIG, SUBORDINATORS, TABLE_ROWS, Classification,
                                 ClassifierConfig, EvidenceItem, SegmentationResult)
from pausecue.focus import TIE_ORDER, FocusStack, OpKind, apply, build_tree, operation
from pausecue.fragments import PRONOUNS, SpeechFragment
from pausecue.jsonl import SCHEMA_VERSION, open_target


def _item(source: str, feature: str, config: ClassifierConfig) -> EvidenceItem:
    row_key, _ = TABLE_ROWS[(source, feature)]
    return EvidenceItem(source=source, feature=feature, weight=config.weights[row_key])


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



def segment_discourse(fragments, *, functions=None, config=DEFAULT_CONFIG):
    stack = FocusStack()
    trace = []
    classifications = []
    lookahead = False
    for i, frag in enumerate(fragments):
        prior = fragments[i - 1] if i > 0 else None
        subsequent = fragments[i + 1] if i + 1 < len(fragments) else None
        prior_fn = None
        current_fn = None
        if functions is not None:
            prior_fn = functions[i][0]
            if i > 0:
                current_fn = functions[i - 1][1]
            elif i + 1 < len(functions):
                current_fn = functions[i + 1][0]
        evidence = extract_evidence(prior, frag, subsequent, prior_function=prior_fn,
                                    current_function=current_fn, config=config)
        candidates = None
        if frag.initial_cue is not None and frag.initial_cue.token_class == "cue_phrase" \
                and frag.initial_token_class == "cue_phrase":
            candidates = frag.initial_cue.candidate_ops
        result = classify(evidence, candidates, stack.depth, topic=frag.topic,
                          open_labels=[space.dsp_label for space in stack.spaces],
                          lookahead_pop=lookahead, config=config)
        lookahead = any(it.primitive == "impending_pop" for it in evidence)
        stack = apply(stack, result.operation, i, label=frag.topic)
        trace.append((result.operation, i))
        classifications.append(result)
    return SegmentationResult(trace=trace, tree=build_tree(trace),
                              classifications=classifications)


def write_audit(target, classifications):
    with open_target(target) as fp:
        for i, cls in enumerate(classifications):
            fp.write(json.dumps({
                "schema_version": SCHEMA_VERSION,
                "fragment_index": i,
                "operation": {"kind": cls.operation.kind.value,
                              "pops": cls.operation.pop_count},
                "score": cls.score,
                "alternatives": [[op.kind.value, op.pop_count, score]
                                 for op, score in cls.alternatives],
                "evidence_used": [{"source": it.source, "feature": it.feature,
                                   "primitive": it.primitive, "weight": it.weight}
                                  for it in cls.evidence_used],
                "low_confidence": cls.low_confidence,
                "singleton_boosted": cls.singleton_boosted,
                "tie_break_applied": cls.tie_break_applied,
                "prior_disagreement": cls.prior_disagreement,
            }) + "\n")
