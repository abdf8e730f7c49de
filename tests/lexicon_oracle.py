"""Reference marker lookup and classifier replay: the straightforward versions.

``match_span`` looks every candidate span up through ``Lexicon.lookup``, so
each joined span is normalized again although its surfaces already are.
``segment_discourse`` rebuilds the list of open labels from the whole stack
for every fragment, O(depth) each.  They serve only as the oracle the
differential tests compare ``pausecue.lexicon`` and ``pausecue.classifier``
against.
"""

from __future__ import annotations

from pausecue.classifier import (DEFAULT_CONFIG, SegmentationResult, classify,
                                 extract_evidence)
from pausecue.focus import FocusStack, apply, build_tree


def match_span(lexicon, surfaces, start):
    limit = min(lexicon.max_words, len(surfaces) - start)
    for width in range(limit, 0, -1):
        entry = lexicon.lookup(" ".join(surfaces[start:start + width]))
        if entry is not None:
            return entry, width
    return None


def segment_discourse(fragments, *, functions=None, config=DEFAULT_CONFIG):
    stack = FocusStack.empty()
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
        stack = apply(stack, result.operation, i, label=frag.topic or f"fragment-{i}")
        trace.append((result.operation, i))
        classifications.append(result)
    return SegmentationResult(trace=trace, tree=build_tree(trace),
                              classifications=classifications)
