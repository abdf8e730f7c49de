"""Evidence extraction, operation scoring, and discourse segmentation."""

import inspect
import io
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classifier_oracle as oracle
from conftest import rebuilt
from pausecue import classifier
from pausecue.classifier import (DEFAULT_CONFIG, ROW_KEYS, ClassifierConfig, EvidenceItem,
                                 TABLE_ROWS, classify, extract_evidence,
                                 load_weights, resolve_pop_count,
                                 segment_discourse, write_audit)
from pausecue.focus import FocusingOperation, OpKind, apply, FocusStack, operation
from pausecue.fragments import ACCENTS, AnnotatedToken, SpeechFragment, fragmentize
from pausecue.lexicon import bundled_lexicon

LEX = bundled_lexicon()


def tok(surface, **kw):
    return AnnotatedToken(surface=surface, **kw)


def frag(surfaces, index=0, cue=None, cls="unmarked", **token_kw):
    tokens = tuple(tok(s, **token_kw) for s in surfaces)
    return SpeechFragment(index=index, tokens=tokens,
                          initial_token_class=cls,
                          initial_cue=LEX.lookup(cue) if cue else None,
                          pause_before_s=0.0)


def item(source, feature, weight=1.0):
    return EvidenceItem(source=source, feature=feature, weight=weight)


def stack_of(*labels):
    """The stack that Initiates with these labels open, bottom to top."""
    stack = FocusStack()
    for i, label in enumerate(labels):
        stack = apply(stack, operation(OpKind.INITIATE, 0), i, label=label)
    return stack


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
    current = SpeechFragment(index=0, tokens=tokens,
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
    result = classify(evidence, LEX.lookup("so").candidate_ops, stack_of("a", "b", "c"))
    assert result.operation.kind in (OpKind.RETURN, OpKind.REPLACE)
    scores = {op.kind: score for op, score in result.alternatives}
    assert result.score > scores[OpKind.INITIATE]
    assert result.score > scores[OpKind.RETAIN]


def test_no_evidence_defaults_to_retain():
    result = classify([], None, stack_of("a", "b"))
    assert result.operation.kind is OpKind.RETAIN
    assert result.score == 0
    assert result.low_confidence


def test_null_evidence_with_and_yields_retain():
    evidence = [item("prior", "continuation_rise"),
                item("current", "pronominalization")]
    result = classify(evidence, LEX.lookup("and").candidate_ops, stack_of("a", "b"))
    assert result.operation.kind is OpKind.RETAIN


def test_push_only_yields_initiate():
    result = classify([item("current", "reduced_range"),
                       item("current", "relative_clause")], None, stack_of("a"))
    assert result.operation.kind is OpKind.INITIATE


def test_pop_and_push_yield_replace():
    result = classify([item("prior", "falling_final"),
                       item("current", "pronominalization")], None, stack_of("a", "b"))
    assert result.operation.kind is OpKind.REPLACE


def test_empty_stack_forces_initiate():
    result = classify([item("prior", "falling_final")], None, stack_of())
    assert result.operation.kind is OpKind.INITIATE
    assert len(result.alternatives) == 1


def test_emitted_pops_respect_depth():
    evidence = [item("current", "expanded_range")]
    result = classify(evidence, None, stack_of("a"))
    assert result.operation.pop_count <= 1
    for op, _ in result.alternatives:
        assert op.pop_count <= 1


def test_alternatives_are_the_shared_operations():
    evidence = [item("current", "expanded_range"), item("current", "pronominalization")]
    result = classify(evidence, None, stack_of("a", "b", "c"))
    assert len(result.alternatives) == 4
    for op, _ in result.alternatives:
        assert op is operation(op.kind, op.pop_count)


def test_lookahead_bonus_tips_return():
    evidence = [item("prior", "falling_final"), item("current", "pronominalization")]
    plain = classify(evidence, None, stack_of("a", "b"))
    boosted = classify(evidence, None, stack_of("a", "b"), lookahead_pop=True)
    plain_scores = {op.kind: s for op, s in plain.alternatives}
    boosted_scores = {op.kind: s for op, s in boosted.alternatives}
    assert boosted_scores[OpKind.RETURN] > plain_scores[OpKind.RETURN]
    assert boosted_scores[OpKind.INITIATE] == plain_scores[OpKind.INITIATE]


def test_tie_breaks_prefer_cheapest():
    # equal pop and null evidence: Retain outranks Return at the same score
    result = classify([item("prior", "continuation_rise"),
                       item("current", "expanded_range")], None, stack_of("a", "b"))
    assert result.operation.kind is OpKind.RETAIN
    assert result.tie_break_applied


def test_prior_disagreement_flagged():
    # a lone continuation rise argues Retain even under a So prior
    evidence = [item("prior", "continuation_rise")]
    result = classify(evidence, LEX.lookup("so").candidate_ops, stack_of("a"))
    assert result.operation.kind is OpKind.RETAIN
    assert result.prior_disagreement


EVIDENCE_KEYS = sorted(TABLE_ROWS)


@given(st.lists(st.sampled_from(EVIDENCE_KEYS), min_size=0, max_size=6))
@settings(max_examples=120, deadline=None)
def test_null_items_never_promote_pops_over_retain(keys):
    evidence = [item(src, feat) for src, feat in keys]
    stack = stack_of("a", "b", "c", "d")
    before = classify(evidence, None, stack)
    after = classify(evidence + [item("prior", "continuation_rise")], None, stack)
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
    result = classify(evidence, frozenset({kind}), stack_of("a", "b", "c", "d"))
    assert result.operation.kind is kind


# ---------------------------------------------------------------------------
# pop-count resolution
# ---------------------------------------------------------------------------

def test_pop_count_defaults_to_one():
    stack = stack_of("a", "b", "c")
    assert resolve_pop_count(OpKind.RETURN, stack) == 1
    assert resolve_pop_count(OpKind.REPLACE, stack) == 1
    assert resolve_pop_count(OpKind.RETAIN, stack) == 0


def test_topic_anchored_return_pops_to_above_match():
    stack = stack_of("route", "hallway", "aside")
    assert resolve_pop_count(OpKind.RETURN, stack, topic="route") == 2
    assert resolve_pop_count(OpKind.REPLACE, stack, topic="route") == 3


def test_topic_match_at_top_falls_back_to_single_pop():
    stack = stack_of("route", "aside")
    assert resolve_pop_count(OpKind.RETURN, stack, topic="aside") == 1


def test_unanchored_topic_is_ignored():
    # a fragment anchors its pops at its topic only when it is flagged as a
    # repetition; either way its expanded range argues a Return
    opened = [frag(["it"], i, topic=topic) for i, topic in enumerate(["route", "", "", ""])]
    for flags, pops in ((set(), 1), ({"nonpronominal_repetition"}, 2)):
        last = frag(["left"], 4, topic="route", flags=flags, pitch_range="expanded")
        trace = segment_discourse([*opened, last]).trace
        assert trace[-1][0] == operation(OpKind.RETURN, pops)


def test_a_topic_spelled_like_a_placeholder_anchors_only_a_space_with_that_topic():
    # a space opened without a topic carries no label, so no topic can match it
    for first_topic, pops in (("", 1), ("fragment-0", 2)):
        tokens = [tok("it", pause_before_s=0.5, topic=first_topic)]
        tokens += [tok("it", pause_before_s=0.5) for _ in range(3)]
        tokens.append(tok("left", pause_before_s=0.5, topic="fragment-0",
                          flags={"nonpronominal_repetition"}))
        trace = segment_discourse(fragmentize(tokens)).trace
        assert [op.kind for op, _ in trace[:3]] == [OpKind.INITIATE] * 3
        assert trace[-1][0] == operation(OpKind.RETURN, pops)


def test_anchored_pops_walk_to_the_nearest_open_space():
    def pops(kind, stack, topic):
        return resolve_pop_count(kind, stack, topic=topic)

    # the topmost of several spaces with the topic wins
    stack = stack_of("route", "route", "hallway", "aside")
    assert pops(OpKind.RETURN, stack, "route") == 2
    assert pops(OpKind.REPLACE, stack, "route") == 3
    # on the top space: a Return still pops one, a Replace pops only that space
    assert pops(OpKind.RETURN, stack, "aside") == 1
    assert pops(OpKind.REPLACE, stack, "aside") == 1
    for kind in (OpKind.RETURN, OpKind.REPLACE):
        assert pops(kind, stack, "kitchen") == 1  # no open space has it
        assert pops(kind, stack, "") == 1  # an empty topic anchors nothing
    assert pops(OpKind.INITIATE, stack, "route") == 0


def test_anchored_pops_from_a_stack_2000_deep():
    deep_open, pushes = 700, 2100
    anchored = dict(flags={"nonpronominal_repetition"}, pitch_range="expanded")
    firsts = [(tok("it", topic="bottom"),)]
    firsts += [(tok("it", topic="deep" if i == deep_open else ""),) for i in range(1, pushes)]
    return_deep = len(firsts)
    firsts.append((tok("route", topic="deep", **anchored),))
    firsts += [(tok("it"),)] * 50
    replace_deep = len(firsts)
    firsts.append((tok("route", topic="deep", **anchored), tok("it")))
    firsts += [(tok("it"),)] * 50
    firsts.append((tok("route", topic="bottom", **anchored),))
    frags = [SpeechFragment(index=i, tokens=(*first, tok("here")),
                            initial_token_class="unmarked", initial_cue=None,
                            pause_before_s=0.0)
             for i, first in enumerate(firsts)]
    result = assert_same_as_label_replay(frags)
    assert max(result.tree.depths.values()) >= 2000
    # replay with the labels segment_discourse gives and read the top space
    tops = []
    stack = FocusStack()
    for (op, i), fragment in zip(result.trace, frags):
        stack = apply(stack, op, i, label=fragment.topic)
        top = stack.link[0]
        tops.append((op.kind, top.dsp_label, top.opened_at, stack.depth))
    assert result.trace[return_deep][0].pop_count > 1000
    assert tops[return_deep] == (OpKind.RETURN, "deep", deep_open, deep_open + 1)
    # the Replace closes the old "deep" space too and opens its successor
    assert tops[replace_deep] == (OpKind.REPLACE, "deep", replace_deep, deep_open + 1)
    assert tops[-1] == (OpKind.RETURN, "bottom", 0, 1)


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
    assert tree.depths[1] == 2


def test_trace_always_replays(corpus_records):
    frags = fragmentize([tok("ok"), tok("um"), tok("so"),
                         tok("you", pause_before_s=0.3), tok("go")])
    trace, tree, _ = segment_discourse(frags)
    stack = FocusStack()
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
    stack = FocusStack()
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
        first.speaker = rng.choice("AB")  # drawn here, as before, so the cases stay the same
        frags.append(SpeechFragment(
            index=i, tokens=(first, *rest),
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


#: Row weights with no exact binary form, so a change of summation order shows.
WEIGHTS = st.sampled_from([0.1, 0.7, 1.0, 3.3])
CONFIGS = st.builds(ClassifierConfig,
                    weights=st.fixed_dictionaries({key: WEIGHTS for key in ROW_KEYS}),
                    candidate_bonus=st.sampled_from([0.1, 1.0, 2.0, 3.3]),
                    impending_bonus=st.sampled_from([0.7, 1.0, 2.0, 3.3]),
                    lstar_threshold=st.sampled_from([0.0, 0.3, 0.5, 0.9]))
#: No feature fires on it, so it is classified at the int score 0.
NEUTRAL = frag(["walk", "straight"])


def audit_text(classifications):
    buf = io.StringIO()
    write_audit(buf, classifications)
    return buf.getvalue()


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), labelled=st.booleans(),
       config=CONFIGS)
@settings(settings.get_profile("fuzz"))
def test_classifier_equals_oracle_under_generated_configs(seed, n, labelled, config):
    rng = random.Random(seed)
    # every token accented, some creaky and some capitalized, so the L* share
    # and its threshold, creak on the last token and case all come into play
    frags = [rebuilt(f, tokens=tuple(
        rebuilt(t, accent=rng.choice(ACCENTS), surface=rng.choice([t.surface, t.surface.title()]),
                phonation=rng.choice(["normal"] * 5 + ["creaky"]))
        for t in f.tokens)) for f in random_fragments(rng, n)]
    functions = None
    if labelled:
        labels = ["topical", "closure", "acknowledgment", "repair"]
        functions = [(rng.choice(labels), rng.choice(labels)) for _ in range(n)]
    audits = []
    for case, fns in (([NEUTRAL], None), (frags, functions)):
        got = segment_discourse(case, functions=fns, config=config)
        expected = oracle.segment_discourse(case, functions=fns, config=config)
        assert got.trace == expected.trace
        assert got.classifications == expected.classifications
        audits.append(audit_text(got.classifications))
        assert audits[-1] == audit_text(expected.classifications)
    assert '"score": 0,' in audits[0]


def test_segment_discourse_calls_each_stage_once_per_fragment(monkeypatch):
    counts = {"extract_evidence": 0, "classify": 0}
    for name in counts:
        def counting(*args, _name=name, _real=getattr(classifier, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(classifier, name, counting)
    frags = random_fragments(random.Random(3), 40)
    segment_discourse(frags)
    assert counts == {"extract_evidence": 40, "classify": 40}


def test_evidence_items_are_the_configs_own():
    config = ClassifierConfig(weights={**DEFAULT_CONFIG.weights, "current_push": 0.7})
    frags = random_fragments(random.Random(5), 30)
    for i, current in enumerate(frags):
        prior = frags[i - 1] if i else None
        for it in extract_evidence(prior, current, None, config=config):
            assert it is config.items[it.source, it.feature]
            assert it.weight == config.weights[TABLE_ROWS[it.source, it.feature][0]]


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

def write_weights(path, config):
    """A weights file naming every key of ``config``, each value in full."""
    values = {**config.weights, **{key: getattr(config, key) for key in classifier.SETTING_KEYS}}
    path.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))


def test_weights_roundtrip(tmp_path):
    config = ClassifierConfig(weights={**DEFAULT_CONFIG.weights, "prior_pop": 2.5},
                              candidate_bonus=3.0, impending_bonus=1.5,
                              lstar_threshold=0.6)
    path = tmp_path / "weights.conf"
    write_weights(path, config)
    again = load_weights(path)
    assert again == config
    assert again.items == config.items
    assert again.items["prior", "falling_final"].weight == 2.5
    assert repr(again) == repr(config) and "items" not in repr(config)


@pytest.mark.parametrize("changes, text", [
    ({"weights": {**DEFAULT_CONFIG.weights, "prior_pop": 1.2345678}}, "prior_pop = 1.2345678"),
    ({"lstar_threshold": 0.1 + 0.2}, "lstar_threshold = 0.30000000000000004"),
    ({"candidate_bonus": 1e-300}, "candidate_bonus = 1e-300"),
])
def test_weights_roundtrip_keeps_every_digit(tmp_path, changes, text):
    # a value that :g would round reads back in full
    config = rebuilt(DEFAULT_CONFIG, **changes)
    path = tmp_path / "weights.conf"
    path.write_text(text + "\n")
    assert load_weights(path) == config


IN_RANGE = st.floats(-1e15, 1e15, allow_nan=False, allow_infinity=False)


@given(weights=st.fixed_dictionaries({key: st.floats(0.0, 1e15, exclude_min=True)
                                      for key in ROW_KEYS}),
       candidate_bonus=IN_RANGE, impending_bonus=IN_RANGE, lstar_threshold=IN_RANGE)
@settings(settings.get_profile("fuzz"))
def test_weights_roundtrip_over_in_range_values(tmp_path_factory, weights, candidate_bonus,
                                                impending_bonus, lstar_threshold):
    config = ClassifierConfig(weights=weights, candidate_bonus=candidate_bonus,
                              impending_bonus=impending_bonus,
                              lstar_threshold=lstar_threshold)
    path = tmp_path_factory.mktemp("weights") / "weights.conf"
    write_weights(path, config)
    again = load_weights(path)
    assert again == config
    assert again.items == config.items


def test_config_keeps_its_own_weights():
    # a caller editing its dict afterwards must reach neither weights nor items
    weights = {"prior_pop": 3.0}
    config = ClassifierConfig(weights=weights)
    weights["prior_pop"] = -5.0
    assert config.weights["prior_pop"] == 3.0
    assert config.items["prior", "falling_final"].weight == 3.0
    assert config == ClassifierConfig(weights={"prior_pop": 3.0})
    assert repr(config) == repr(ClassifierConfig(weights={"prior_pop": 3.0}))


def test_configs_with_equal_weights_compare_equal():
    assert ClassifierConfig() == DEFAULT_CONFIG
    assert ClassifierConfig(weights=dict(DEFAULT_CONFIG.weights)) == DEFAULT_CONFIG
    assert ClassifierConfig(weights={**DEFAULT_CONFIG.weights, "prior_pop": 2.0}) \
        != DEFAULT_CONFIG


@pytest.mark.parametrize("weights", [{}, {"prior_pop": 1.0}, {"current_push": 1}])
def test_configs_that_weigh_every_row_alike_compare_equal(weights):
    # a row left out weighs 1, so naming it at 1 or leaving it out is one config
    config = ClassifierConfig(weights=weights)
    assert config == DEFAULT_CONFIG
    assert config.weights == DEFAULT_CONFIG.weights
    assert repr(config) == repr(DEFAULT_CONFIG)


@pytest.mark.parametrize("weights", [{"prior_pop": 3.0}, {"current_pop": 0.5, "subsequent_pop": 7}])
def test_a_config_naming_some_rows_roundtrips_to_equal(tmp_path, weights):
    config = ClassifierConfig(weights=weights)
    path = tmp_path / "weights.conf"
    write_weights(path, config)
    again = load_weights(path)
    assert again == config
    assert again.items == config.items


def test_config_checks_keys_then_bonuses_then_weights():
    # the unknown key is found before a bad bonus, and a bad bonus before a bad weight
    with pytest.raises(ValueError, match="^unknown weight key 'prior_pops'$"):
        ClassifierConfig(weights={"prior_pops": 0.0}, candidate_bonus=math.nan)
    with pytest.raises(ValueError, match="^candidate_bonus must be finite"):
        ClassifierConfig(weights={"prior_pop": 0.0}, candidate_bonus=math.nan)


def test_config_rejects_a_non_positive_weight_when_built():
    # the items are built with the config, so a bad row weight fails at once,
    # not when its row first fires
    with pytest.raises(ValueError, match="^weight must be positive$"):
        ClassifierConfig(weights={**DEFAULT_CONFIG.weights, "subsequent_pop": 0.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, 2e15])
def test_config_rejects_a_weight_out_of_range(value):
    # two weights of 1e308 sum to inf, and inf times a bonus of 0 is NaN
    with pytest.raises(ValueError, match="^weight must be finite and at most 1e"):
        ClassifierConfig(weights={**DEFAULT_CONFIG.weights, "prior_pop": value})
    with pytest.raises(ValueError, match="^weight must be finite and at most 1e"):
        EvidenceItem("prior", "falling_final", value)


@pytest.mark.parametrize("key", ["candidate_bonus", "impending_bonus", "lstar_threshold"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2e15, -2e15])
def test_config_rejects_a_bonus_or_threshold_out_of_range(key, value):
    # the rule load_weights applies to the same keys read from a file
    with pytest.raises(ValueError, match=f"^{key} must be finite and at most 1e"):
        ClassifierConfig(**{key: value})


@pytest.mark.parametrize("key", ["prior_pops", "candidate_bonus", ""])
def test_config_rejects_an_unknown_weight_key(key):
    # a misspelt row would otherwise leave every row at weight 1
    with pytest.raises(ValueError, match=f"^unknown weight key {key!r}$"):
        ClassifierConfig(weights={key: 5.0})
    with pytest.raises(ValueError, match=f"^unknown weight key {key!r}$"):
        ClassifierConfig(weights={**DEFAULT_CONFIG.weights, key: 5.0})
    assert ClassifierConfig(weights={"prior_pop": 5.0}).weights["current_pop"] == 1.0


def test_weights_start_from_the_default_config(tmp_path):
    path = tmp_path / "weights.conf"
    path.write_text("# nothing set\n")
    assert load_weights(path) == DEFAULT_CONFIG
    path.write_text("prior_pop = 3\ncandidate_bonus = 4\n")
    config = load_weights(path)
    assert (config.weights["prior_pop"], config.candidate_bonus) == (3.0, 4.0)
    assert DEFAULT_CONFIG.weights["prior_pop"] == 1.0  # the default is copied, not edited


def test_weights_reject_unknown_key(tmp_path):
    path = tmp_path / "weights.conf"
    path.write_text("bogus_key = 2\n")
    with pytest.raises(ValueError, match="bogus_key"):
        load_weights(path)


def test_weights_file_keys_are_the_rows_and_the_settings(tmp_path):
    path = tmp_path / "weights.conf"
    path.write_text("".join(f"{key} = 2\n" for key in (*ROW_KEYS, *classifier.SETTING_KEYS)))
    config = load_weights(path)
    assert set(config.weights.values()) == {2.0}
    assert [getattr(config, key) for key in classifier.SETTING_KEYS] == [2.0] * 3
    settings_keys = set(inspect.signature(ClassifierConfig).parameters) - {"weights"}
    assert settings_keys == set(classifier.SETTING_KEYS)
    # weights and items are config fields, but no weights-file key names them
    for key in ("weights", "items"):
        path.write_text(f"{key} = 2\n")
        with pytest.raises(ValueError, match=f"^{path}:1: unknown key {key!r}$"):
            load_weights(path)


def test_row_weight_scales_evidence(tmp_path):
    path = tmp_path / "weights.conf"
    path.write_text("prior_pop = 5\n")
    config = load_weights(path)
    items = extract_evidence(frag(["done"], boundary="fall"),
                             frag(["next"], index=1), None, config=config)
    assert items[0].weight == 5.0
