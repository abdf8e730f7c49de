"""Evidence extraction, operation scoring, and discourse segmentation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexicon_oracle as oracle
from pausecue.classifier import (DEFAULT_CONFIG, ClassifierConfig, EvidenceItem,
                                 TABLE_ROWS, classify, extract_evidence,
                                 load_weights, resolve_pop_count,
                                 segment_discourse, write_weights)
from pausecue.focus import FocusingOperation, OpKind, apply, FocusStack, operation
from pausecue.fragments import AnnotatedToken, SpeechFragment, fragmentize
from pausecue.lexicon import bundled_lexicon

LEX = bundled_lexicon()


def tok(surface, **kw):
    return AnnotatedToken(surface=surface, **kw)


def frag(surfaces, index=0, cue=None, cls="unmarked", **token_kw):
    tokens = tuple(tok(s, **token_kw) for s in surfaces)
    return SpeechFragment(index=index, speaker="B", tokens=tokens,
                          initial_token_class=cls,
                          initial_cue=LEX.lookup(cue) if cue else None,
                          pause_before_s=0.0)


def item(source, feature, weight=1.0):
    return EvidenceItem(source=source, feature=feature,
                        primitive=TABLE_ROWS[(source, feature)][1], weight=weight)


# ---------------------------------------------------------------------------
# extract_evidence
# ---------------------------------------------------------------------------

def test_prior_continuation_rise_yields_null_item():
    prior = frag(["walk", "on"], boundary="continuation_rise")
    current = frag(["straight"], index=1)
    items = extract_evidence(prior, current, None)
    assert items == [item("prior", "continuation_rise")]
    assert items[0].primitive == "null"


def test_expanded_range_plus_so_yield_pop_items():
    current = frag(["so", "turn"], cue="so", cls="cue_phrase", pitch_range="expanded")
    features = {(it.feature, it.primitive) for it in extract_evidence(None, current, None)}
    assert ("expanded_range", "pop") in features
    assert ("cue_so_but", "pop") in features


def test_neutral_fragment_yields_nothing():
    assert extract_evidence(None, frag(["walk", "straight"]), None) == []


def test_no_items_fabricated_for_absent_neighbors():
    items = extract_evidence(None, frag(["walk"]), None)
    assert all(it.source == "current" for it in items)


def test_pronoun_and_subordinator_detection():
    features = {it.feature for it in
                extract_evidence(None, frag(["if", "you", "walk"]), None)}
    assert {"relative_clause", "pronominalization"} <= features


def test_many_lstar_needs_majority_of_accents():
    current = frag(["a", "b", "c"], index=0)
    tokens = (tok("a", accent="Lstar"), tok("b", accent="Lstar"), tok("c", accent="Hstar"))
    current = SpeechFragment(index=0, speaker="B", tokens=tokens,
                             initial_token_class="unmarked", initial_cue=None,
                             pause_before_s=0.0)
    features = {it.feature for it in extract_evidence(None, current, None)}
    assert "many_Lstar" in features
    lowered = extract_evidence(None, current, None,
                               config=ClassifierConfig(lstar_threshold=0.9))
    assert "many_Lstar" not in {it.feature for it in lowered}


def test_impending_pop_features():
    current = frag(["ok"], cue="ok", cls="acknowledgment", boundary="fall",
                   phonation="creaky")
    features = {(it.feature, it.primitive) for it in extract_evidence(None, current, None)}
    assert ("falling_final", "impending_pop") in features
    assert ("acknowledgment", "impending_pop") in features
    assert ("creaky_final", "impending_pop") in features


def test_closure_fires_only_from_annotator_label():
    prior = frag(["good"], boundary="fall")
    current = frag(["next"], index=1)
    plain = {it.feature for it in extract_evidence(prior, current, None)}
    assert "lexical_closure" not in plain
    labeled = {it.feature for it in extract_evidence(prior, current, None,
                                                     prior_function="closure")}
    assert "lexical_closure" in labeled


def test_subsequent_pop_features():
    current = frag(["walk"])
    subsequent = frag(["so", "anyway"], index=1, cue="so", cls="cue_phrase",
                      pitch_range="expanded")
    features = {(it.source, it.feature)
                for it in extract_evidence(None, current, subsequent)}
    assert ("subsequent", "expanded_range") in features
    assert ("subsequent", "cue_so_but_now_subsequent") in features


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_pop_evidence_with_so_ranks_pops_first():
    evidence = [item("prior", "falling_final"), item("current", "expanded_range"),
                item("current", "cue_so_but")]
    result = classify(evidence, LEX.lookup("so").candidate_ops, stack_depth=3)
    assert result.operation.kind in (OpKind.RETURN, OpKind.REPLACE)
    scores = {op.kind: score for op, score in result.alternatives}
    assert result.score > scores[OpKind.INITIATE]
    assert result.score > scores[OpKind.RETAIN]


def test_no_evidence_defaults_to_retain():
    result = classify([], None, stack_depth=2)
    assert result.operation.kind is OpKind.RETAIN
    assert result.score == 0
    assert result.low_confidence


def test_null_evidence_with_and_yields_retain():
    evidence = [item("prior", "continuation_rise"),
                item("current", "pronominalization")]
    result = classify(evidence, LEX.lookup("and").candidate_ops, stack_depth=2)
    assert result.operation.kind is OpKind.RETAIN


def test_push_only_yields_initiate():
    result = classify([item("current", "reduced_range"),
                       item("current", "relative_clause")], None, stack_depth=1)
    assert result.operation.kind is OpKind.INITIATE


def test_pop_and_push_yield_replace():
    result = classify([item("prior", "falling_final"),
                       item("current", "pronominalization")], None, stack_depth=2)
    assert result.operation.kind is OpKind.REPLACE


def test_empty_stack_forces_initiate():
    result = classify([item("prior", "falling_final")], None, stack_depth=0)
    assert result.operation.kind is OpKind.INITIATE
    assert len(result.alternatives) == 1


def test_emitted_pops_respect_depth():
    evidence = [item("current", "expanded_range")]
    result = classify(evidence, None, stack_depth=1)
    assert result.operation.pop_count <= 1
    for op, _ in result.alternatives:
        assert op.pop_count <= 1


def test_alternatives_are_the_shared_operations():
    evidence = [item("current", "expanded_range"), item("current", "pronominalization")]
    result = classify(evidence, None, stack_depth=3)
    assert len(result.alternatives) == 4
    for op, _ in result.alternatives:
        assert op is operation(op.kind, op.pop_count)


def test_lookahead_bonus_tips_return():
    evidence = [item("prior", "falling_final"), item("current", "pronominalization")]
    plain = classify(evidence, None, stack_depth=2)
    boosted = classify(evidence, None, stack_depth=2, lookahead_pop=True)
    plain_scores = {op.kind: s for op, s in plain.alternatives}
    boosted_scores = {op.kind: s for op, s in boosted.alternatives}
    assert boosted_scores[OpKind.RETURN] > plain_scores[OpKind.RETURN]
    assert boosted_scores[OpKind.INITIATE] == plain_scores[OpKind.INITIATE]


def test_tie_breaks_prefer_cheapest():
    # equal pop and null evidence: Retain outranks Return at the same score
    result = classify([item("prior", "continuation_rise"),
                       item("current", "expanded_range")], None, stack_depth=2)
    assert result.operation.kind is OpKind.RETAIN
    assert result.tie_break_applied


def test_prior_disagreement_flagged():
    # a lone continuation rise argues Retain even under a So prior
    evidence = [item("prior", "continuation_rise")]
    result = classify(evidence, LEX.lookup("so").candidate_ops, stack_depth=1)
    assert result.operation.kind is OpKind.RETAIN
    assert result.prior_disagreement


EVIDENCE_KEYS = sorted(TABLE_ROWS)


@given(st.lists(st.sampled_from(EVIDENCE_KEYS), min_size=0, max_size=6))
@settings(max_examples=120, deadline=None)
def test_null_items_never_promote_pops_over_retain(keys):
    evidence = [item(src, feat) for src, feat in keys]
    before = classify(evidence, None, stack_depth=4)
    after = classify(evidence + [item("prior", "continuation_rise")], None, stack_depth=4)
    b = {op.kind: s for op, s in before.alternatives}
    a = {op.kind: s for op, s in after.alternatives}
    for kind in (OpKind.RETURN, OpKind.REPLACE):
        assert a[kind] - a[OpKind.RETAIN] <= b[kind] - b[OpKind.RETAIN]


@given(st.sampled_from(list(OpKind)),
       st.lists(st.sampled_from(EVIDENCE_KEYS), min_size=0, max_size=5))
@settings(max_examples=120, deadline=None)
def test_singleton_candidate_with_consistent_evidence_wins(kind, keys):
    consistent = {
        OpKind.RETAIN: ("prior", "continuation_rise"),
        OpKind.INITIATE: ("current", "reduced_range"),
        OpKind.RETURN: ("current", "expanded_range"),
        OpKind.REPLACE: ("current", "expanded_range"),
    }[kind]
    evidence = [item(src, feat) for src, feat in keys] + [item(*consistent)]
    if kind is OpKind.REPLACE:
        evidence.append(item("current", "pronominalization"))
    result = classify(evidence, frozenset({kind}), stack_depth=4)
    assert result.operation.kind is kind


# ---------------------------------------------------------------------------
# pop-count resolution
# ---------------------------------------------------------------------------

def test_pop_count_defaults_to_one():
    assert resolve_pop_count(OpKind.RETURN, 3) == 1
    assert resolve_pop_count(OpKind.REPLACE, 3) == 1
    assert resolve_pop_count(OpKind.RETAIN, 3) == 0


def test_topic_anchored_return_pops_to_above_match():
    labels = ["route", "hallway", "aside"]
    assert resolve_pop_count(OpKind.RETURN, 3, topic="route",
                             open_labels=labels, topic_anchored=True) == 2
    assert resolve_pop_count(OpKind.REPLACE, 3, topic="route",
                             open_labels=labels, topic_anchored=True) == 3


def test_topic_match_at_top_falls_back_to_single_pop():
    labels = ["route", "aside"]
    assert resolve_pop_count(OpKind.RETURN, 2, topic="aside",
                             open_labels=labels, topic_anchored=True) == 1


def test_unanchored_topic_is_ignored():
    labels = ["route", "aside"]
    assert resolve_pop_count(OpKind.RETURN, 2, topic="route",
                             open_labels=labels, topic_anchored=False) == 1


# ---------------------------------------------------------------------------
# segment_discourse
# ---------------------------------------------------------------------------

def test_single_fragment_initiates():
    frags = fragmentize([tok("you"), tok("go")])
    trace, tree, classifications = segment_discourse(frags)
    assert [op.kind for op, _ in trace] == [OpKind.INITIATE]
    assert len(tree.nodes) == 1
    assert len(classifications) == 1


def test_six_fragment_synthetic_trace():
    # hand-simulated expected trace from the constructed feature annotations:
    # Initiate (forced), Initiate, Retain, Return, Retain, Replace
    tokens = [
        # 0: opening step, stays open
        tok("you", topic="start"), tok("start"),
        tok("here", boundary="continuation_rise"),
        # 1: subordinate detail (reduced range, subordinator)
        tok("where", pause_before_s=0.2, pitch_range="reduced"),
        tok("the", pitch_range="reduced"),
        tok("path", pitch_range="reduced"),
        tok("bends", pitch_range="reduced", boundary="continuation_rise"),
        # 2: continuation that winds down with a fall (primes a pop)
        tok("it", pause_before_s=0.1), tok("keeps"),
        tok("going", boundary="fall"),
        # 3: resumption via deaccented So after the fall
        tok("so", pause_before_s=0.3, accent="deaccented"),
        tok("start"), tok("again", boundary="continuation_rise"),
        # 4: retained continuation under And
        tok("and", pause_before_s=0.1, accent="deaccented"),
        tok("it"), tok("keeps"), tok("on", boundary="continuation_rise"),
        # 5: Now opens a replacing step (single-operation marker)
        tok("now", pause_before_s=0.4, accent="deaccented"),
        tok("turn"), tok("left", boundary="fall"),
    ]
    frags = fragmentize(tokens)
    assert len(frags) == 6
    trace, tree, classifications = segment_discourse(frags)
    kinds = [op.kind for op, _ in trace]
    assert kinds == [OpKind.INITIATE, OpKind.INITIATE, OpKind.RETAIN,
                     OpKind.RETURN, OpKind.RETAIN, OpKind.REPLACE]
    assert trace[3][0].pop_count == 1
    assert trace[5][0].pop_count == 1
    # the Replace at the top level closes the opening space and opens a sibling
    assert tree.nodes[0].closed_at == 5
    assert tree.open_ids == (2,)
    assert tree.depth(1) == 2


def test_trace_always_replays(corpus_records):
    frags = fragmentize([tok("ok"), tok("um"), tok("so"),
                         tok("you", pause_before_s=0.3), tok("go")])
    trace, tree, _ = segment_discourse(frags)
    stack = FocusStack.empty()
    for op, i in trace:
        stack = apply(stack, op, i)
    assert stack.depth == len(tree.open_ids)


SURFACE_POOL = ["so", "now", "and", "ok", "um", "you", "go", "left", "wall",
                "well", "oh", "if", "where"]


@given(st.lists(
    st.tuples(st.sampled_from(SURFACE_POOL),
              st.sampled_from([0.0, 0.0, 0.2, 0.4]),
              st.sampled_from(["none", "none", "fall", "continuation_rise"]),
              st.sampled_from(["normal", "normal", "expanded", "reduced"]),
              st.sampled_from(["unmarked", "unmarked", "deaccented", "Lstar", "Hstar"])),
    min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_emitted_traces_never_underflow(specs):
    tokens = [tok(s, pause_before_s=p, boundary=b, pitch_range=r, accent=a)
              for s, p, b, r, a in specs]
    frags = fragmentize(tokens)
    trace, tree, classifications = segment_discourse(frags)
    stack = FocusStack.empty()
    for op, i in trace:
        stack = apply(stack, op, i)  # raises on any underflow
    assert len(classifications) == len(frags)
    ranked = [c.alternatives for c in classifications]
    for alts in ranked:
        scores = [s for _, s in alts]
        assert scores == sorted(scores, reverse=True)


def random_fragments(rng, n):
    """Fragments that mostly push, so the stack grows deep, and that repeat a
    few topics under the repetition flag, so Returns and Replaces anchor."""
    frags = []
    for i in range(n):
        cue = rng.choice(["so", "now", "but", "and", "well"]) if rng.random() < 0.05 else None
        first = tok(cue or rng.choice(["it", "it", "it", "you", "walk", "where"]),
                    topic=rng.choice(["", "", "t0", "t1", "t2", "t3"]),
                    flags={"nonpronominal_repetition"} if rng.random() < 0.08 else set(),
                    pitch_range=rng.choice(["normal"] * 18 + ["expanded", "reduced"]),
                    phonation=rng.choice(["normal"] * 19 + ["creaky"]))
        rest = [tok(rng.choice(["on", "left", "then"])) for _ in range(rng.randint(0, 2))]
        rest.append(tok("here", boundary=rng.choice(["none"] * 8 + ["fall",
                                                                   "continuation_rise"])))
        frags.append(SpeechFragment(
            index=i, speaker=rng.choice("AB"), tokens=(first, *rest),
            initial_token_class="cue_phrase" if cue else "unmarked",
            initial_cue=LEX.lookup(cue) if cue else None, pause_before_s=0.0))
    return frags


def assert_same_as_label_replay(frags, functions=None):
    got = segment_discourse(frags, functions=functions)
    expected = oracle.segment_discourse(frags, functions=functions)
    assert got.trace == expected.trace
    assert got.classifications == expected.classifications
    assert got.tree == expected.tree
    return got


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), labelled=st.booleans())
@settings(settings.get_profile("fuzz"))
def test_segment_discourse_equals_per_fragment_label_replay(seed, n, labelled):
    rng = random.Random(seed)
    frags = random_fragments(rng, n)
    functions = None
    if labelled:
        labels = ["topical", "closure", "acknowledgment", "repair"]
        functions = [(rng.choice(labels), rng.choice(labels)) for _ in range(n)]
    assert_same_as_label_replay(frags, functions)


def test_label_replay_covers_deep_stacks_and_anchored_pops():
    result = assert_same_as_label_replay(random_fragments(random.Random(1), 600))
    assert max(result.tree.depths.values()) >= 50
    # only a topic anchor pops more than one space
    assert any(op.pop_count > 1 for op, _ in result.trace)
    assert sum(op.pop_count > 1 for c in result.classifications
               for op, _ in c.alternatives) >= 20


def test_function_labels_route_to_neighbors():
    # the pair for fragment i labels the speech around it, so a closure label
    # recorded at fragment 1's prior slot describes fragment 0
    tokens = [tok("you"), tok("go", boundary="continuation_rise"),
              tok("it", pause_before_s=0.2), tok("turns")]
    frags = fragmentize(tokens)
    assert len(frags) == 2
    plain = segment_discourse(frags)
    labeled = segment_discourse(
        frags, functions=[("topical", "topical"), ("closure", "topical")])
    plain_features = {it.feature for it in plain.classifications[1].evidence_used}
    labeled_features = {it.feature for it in labeled.classifications[1].evidence_used}
    assert "lexical_closure" not in plain_features
    assert "lexical_closure" in labeled_features
    # the prior pop evidence plus the pronoun push now argue Replace
    assert labeled.trace[1][0].kind is OpKind.REPLACE


def test_function_label_length_checked():
    frags = fragmentize([tok("you"), tok("go")])
    with pytest.raises(ValueError):
        segment_discourse(frags, functions=[("topical", "topical")] * 3)


def test_classification_is_deterministic():
    frags = fragmentize([tok("so", pause_before_s=0.2), tok("you"), tok("go")])
    first = segment_discourse(frags)
    second = segment_discourse(frags)
    assert first.trace == second.trace
    assert [c.score for c in first.classifications] == \
           [c.score for c in second.classifications]


# ---------------------------------------------------------------------------
# weights config
# ---------------------------------------------------------------------------

def test_weights_roundtrip(tmp_path):
    config = ClassifierConfig(weights={**DEFAULT_CONFIG.weights, "prior_pop": 2.5},
                              candidate_bonus=3.0, impending_bonus=1.5,
                              lstar_threshold=0.6)
    path = tmp_path / "weights.conf"
    write_weights(path, config)
    again = load_weights(path)
    assert again == config


def test_weights_start_from_the_default_config(tmp_path):
    path = tmp_path / "weights.conf"
    path.write_text("# nothing set\n")
    assert load_weights(path) == DEFAULT_CONFIG
    path.write_text("prior_pop = 3\ncandidate_bonus = 4\n")
    config = load_weights(path)
    assert (config.weight("prior_pop"), config.candidate_bonus) == (3.0, 4.0)
    assert DEFAULT_CONFIG.weight("prior_pop") == 1.0  # the default is copied, not edited


def test_weights_reject_unknown_key(tmp_path):
    path = tmp_path / "weights.conf"
    path.write_text("bogus_key = 2\n")
    with pytest.raises(ValueError, match="bogus_key"):
        load_weights(path)


def test_row_weight_scales_evidence(tmp_path):
    path = tmp_path / "weights.conf"
    path.write_text("prior_pop = 5\n")
    config = load_weights(path)
    items = extract_evidence(frag(["done"], boundary="fall"),
                             frag(["next"], index=1), None, config=config)
    assert items[0].weight == 5.0
