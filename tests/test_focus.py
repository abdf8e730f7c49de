"""Stack engine: operation semantics, tree building, trace replay invariants."""

import copy
import gc
import inspect
import math
import pickle
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import focus_oracle
from conftest import read_trace
from pausecue.focus import (EmptyStackError, FocusEngineError, FocusSpace, FocusStack,
                            FocusingOperation, MalformedOperation, OpKind, UnderflowError,
                            apply, build_tree, operation, operation_from_row,
                            segments_affected, write_trace)
from pausecue.jsonl import SchemaError

INITIATE = FocusingOperation(OpKind.INITIATE)
RETAIN = FocusingOperation(OpKind.RETAIN)


def ret(pops=1):
    return FocusingOperation(OpKind.RETURN, pops)


def rep(pops=1):
    return FocusingOperation(OpKind.REPLACE, pops)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_initiate_pushes_one():
    stack = apply(FocusStack(), INITIATE, 0)
    stack2 = apply(stack, INITIATE, 1)
    assert stack2.depth == 2
    assert stack2.spaces[-1].id != stack.spaces[-1].id
    assert stack2.spaces[0].id == stack.spaces[-1].id  # old top still beneath


def test_retain_is_identity_on_spaces():
    stack = apply(FocusStack(), INITIATE, 0)
    retained = apply(stack, RETAIN, 1)
    assert retained.spaces == stack.spaces
    tree = build_tree([(INITIATE, 0), (RETAIN, 1)])
    assert tree.open_ids == (stack.spaces[-1].id,)  # the retained space stays open
    assert tree.nodes[stack.spaces[-1].id].closed_at is None


def test_replace_pops_two_then_pushes():
    # hand-simulated two-deep stack: both popped spaces close at the
    # replacing fragment's index, one fresh space remains
    stack = apply(apply(FocusStack(), INITIATE, 0), INITIATE, 1)
    replaced = apply(stack, rep(2), 2)
    assert replaced.depth == 1
    assert replaced.spaces[-1].id == 2
    assert replaced.spaces[-1].opened_at == 2
    tree = build_tree([(INITIATE, 0), (INITIATE, 1), (rep(2), 2)])
    assert [tree.nodes[i].closed_at for i in (0, 1)] == [2, 2]
    assert tree.open_ids == (2,)
    assert tree.parent == {1: 0} and tree.depths[2] == 1


def test_return_reexposes_previous_space():
    stack = apply(apply(FocusStack(), INITIATE, 0), INITIATE, 1)
    returned = apply(stack, ret(1), 2)
    assert returned.depth == 1
    assert returned.spaces[-1].id == 0
    assert returned.spaces[-1].closed_at is None


def test_underflow_and_empty_stack_errors():
    stack = apply(FocusStack(), INITIATE, 0)
    with pytest.raises(UnderflowError):
        apply(stack, ret(2), 1)
    with pytest.raises(UnderflowError):
        apply(stack, rep(2), 1)
    with pytest.raises(EmptyStackError):
        apply(FocusStack(), RETAIN, 0)
    with pytest.raises(EmptyStackError):
        apply(FocusStack(), ret(1), 0)


@pytest.mark.parametrize("op", [
    (OpKind.INITIATE, 1, "Initiate must have pop_count 0, got 1"),
    (OpKind.RETAIN, 2, "Retain must have pop_count 0, got 2"),
    (OpKind.RETURN, 0, "Return must have pop_count >= 1, got 0"),
    (OpKind.REPLACE, 0, "Replace must have pop_count >= 1, got 0"),
    (OpKind.RETURN, -1, "Return must have pop_count >= 1, got -1"),
    ("Return", 1, "unknown operation kind 'Return'"),
    (OpKind.RETURN, 1.5, "Return must have an int pop_count, got 1.5"),
    (OpKind.REPLACE, math.nan, "Replace must have an int pop_count, got nan"),
    (OpKind.RETURN, True, "Return must have an int pop_count, got True"),
])
def test_malformed_operations_rejected(op):
    kind, pops, message = op
    with pytest.raises(MalformedOperation) as excinfo:
        FocusingOperation(kind, pops)
    assert str(excinfo.value) == message


def test_operation_refuses_a_pop_count_equal_to_a_cached_int():
    operation.cache_clear()
    for _ in range(2):  # the second time round operation("Return", 1) is cached
        for pops in (1.0, True):
            with pytest.raises(MalformedOperation, match=f"^Return must have an int "
                                                         f"pop_count, got {pops}$"):
                operation("Return", pops)
        assert operation("Return", 1).pop_count == 1


def test_operation_refuses_an_unknown_kind_as_the_constructor_does():
    with pytest.raises(MalformedOperation, match="^unknown operation kind 'Bogus'$"):
        operation("Bogus", 1)
    with pytest.raises(SchemaError, match="^t.jsonl:7: unknown operation kind 'Bogus'$"):
        operation_from_row({"kind": "Bogus", "pops": 1}, "t.jsonl", 7)


@pytest.mark.parametrize("op, pushes, text", [
    (INITIATE, 1, "FocusingOperation(kind=<OpKind.INITIATE: 'Initiate'>, pop_count=0)"),
    (RETAIN, 0, "FocusingOperation(kind=<OpKind.RETAIN: 'Retain'>, pop_count=0)"),
    (ret(2), 0, "FocusingOperation(kind=<OpKind.RETURN: 'Return'>, pop_count=2)"),
    (rep(3), 1, "FocusingOperation(kind=<OpKind.REPLACE: 'Replace'>, pop_count=3)"),
])
def test_pushes_is_set_when_the_operation_is_made(op, pushes, text):
    assert op.pushes == pushes
    assert segments_affected(op) == op.pop_count + pushes
    # pushes follows from kind, so it stays out of repr, == and hash
    assert repr(op) == text
    assert op == FocusingOperation(op.kind, op.pop_count)
    assert hash(op) == hash((op.kind, op.pop_count))
    with pytest.raises(AttributeError):
        op.pushes = 1 - pushes
    assert op.pushes == pushes


def test_apply_is_pure():
    stack = apply(FocusStack(), INITIATE, 0)
    once = apply(stack, INITIATE, 1)
    twice = apply(stack, INITIATE, 1)
    assert once == twice
    assert stack.depth == 1  # input untouched


def links(stack):
    """The links of ``stack``, top first."""
    found, link = [], stack.link
    while link is not None:
        found.append(link)
        link = link[1]
    return found


def test_apply_shares_links_and_stores_depth():
    # fails on any apply that copies: each result must reuse the input's links
    stack = FocusStack()
    for i in range(6):
        stack = apply(stack, INITIATE, i)
    below = links(stack)
    assert apply(stack, RETAIN, 6).link is stack.link
    initiated = apply(stack, INITIATE, 6)
    assert initiated.link[1] is stack.link
    for k in range(1, 7):
        rest = below[k] if k < len(below) else None
        assert apply(stack, ret(k), 6).link is rest  # the input's k-th link
        assert apply(stack, rep(k), 6).link[1] is rest
    # the traced benchmark pass reads ``depth`` on every result: stored, not counted
    assert list(inspect.signature(FocusStack).parameters) == ["spaces", "next_id"]
    assert "depth" in FocusStack.__slots__
    for state in (stack, initiated, apply(stack, ret(6), 6), FocusStack()):
        assert state.depth == len(links(state)) == len(state.spaces)
    assert [space.id for space in stack.spaces] == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("spaces, next_id, message", [
    (["space"], 1, "stack space 0 is not a FocusSpace"),
    ([FocusSpace(0), (FocusSpace(1),)], 2, "stack space 1 is not a FocusSpace"),
    ([FocusSpace(-1), FocusSpace(-1)], 0, "stack space 1 has id -1, not above -1"),
    ([FocusSpace(0), FocusSpace(2), FocusSpace(1)], 3, "stack space 2 has id 1, not above 2"),
    ([FocusSpace(0)], 0, "stack next_id 0 is not above the top id 0"),
    ([FocusSpace(-3), FocusSpace(4)], -5, "stack next_id -5 is not above the top id 4"),
    ([], None, "stack next_id None is not an int"),
    ([], 1.5, "stack next_id 1.5 is not an int"),
    ([FocusSpace(0)], True, "stack next_id True is not an int"),
    # the space refuses its id itself, while the stack is built from it
    ((FocusSpace(i) for i in [0.5]), 1, "space id 0.5 is not an int"),
], ids=["not-a-space", "a-link", "repeated-id", "falling-id", "reused-next-id",
        "next-id-below", "next-id-none", "next-id-float", "next-id-bool", "float-id"])
def test_a_stack_that_breaks_the_rule_is_refused(spaces, next_id, message):
    with pytest.raises(MalformedOperation, match=f"^{message}$"):
        FocusStack(spaces, next_id)


@pytest.mark.parametrize("id", [0.5, 1.0, "x", True, None])
def test_a_space_refuses_an_id_that_is_not_an_int(id):
    with pytest.raises(MalformedOperation, match=f"^space id {id!r} is not an int$"):
        FocusSpace(id)


@pytest.mark.parametrize("args, message", [
    ((0, math.nan), "dsp_label nan is not a str"),
    ((0, "", "x", 3), "opened_at 'x' is not an int"),
    ((0, "", 1.0), "opened_at 1.0 is not an int"),
    ((0, "", False), "opened_at False is not an int"),
    ((0, "", 0, 1.5), "closed_at 1.5 is not an int"),
    ((0, "", 0, True), "closed_at True is not an int"),
])
def test_a_space_refuses_a_field_of_the_wrong_type(args, message):
    with pytest.raises(MalformedOperation, match=f"^space 0: {re.escape(message)}$"):
        FocusSpace(*args)


def test_a_space_is_unlabelled_opened_at_0_and_open_by_default():
    assert FocusSpace(3) == FocusSpace(3, "", 0, None)


def test_no_stack_holds_two_spaces_of_one_id():
    # an unchecked next_id would let the next push reuse an open space's id
    with pytest.raises(MalformedOperation, match="next_id 0 is not above the top id 0"):
        apply(FocusStack([FocusSpace(0)], 0), INITIATE, 1)
    pushed = apply(FocusStack([FocusSpace(-7), FocusSpace(-2)], -1), INITIATE, 1)
    assert [space.id for space in pushed.spaces] == [-7, -2, -1] and pushed.next_id == 0


def test_a_stack_built_by_hand_equals_the_one_apply_builds():
    applied = apply(apply(FocusStack(), INITIATE, 0), INITIATE, 1)
    by_hand = FocusStack(applied.spaces, 2)
    assert by_hand == applied and by_hand.depth == 2 and links(by_hand) == links(applied)
    assert by_hand.spaces == applied.spaces and by_hand.link[0] is applied.link[0]
    assert apply(by_hand, ret(2), 2) == FocusStack((), 2)
    with pytest.raises(UnderflowError, match="pops 3 but depth is 2"):
        apply(by_hand, ret(3), 2)


def test_a_deep_stack_pickles_and_copies():
    # a pickle of the nested links would recurse once per link
    stack = FocusStack()
    for i in range(100_000):
        stack = apply(stack, INITIATE, i)
    for copied in (pickle.loads(pickle.dumps(stack)), copy.copy(stack), copy.deepcopy(stack)):
        assert copied == stack and copied.depth == 100_000
        assert apply(copied, INITIATE, 100_000) == apply(stack, INITIATE, 100_000)


def test_deep_stack_compares_hashes_prints_and_drops(monkeypatch):
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    built = []
    for _ in range(2):  # two equal stacks that share no link
        stack = FocusStack()
        for i in range(100_000):
            stack = apply(stack, INITIATE, i)
        built.append(stack)
    one, twin = built
    assert one == twin and one.link[1] is not twin.link[1]
    assert hash(one) == hash(twin)
    assert one != apply(one, INITIATE, 100_000) and one != apply(one, ret(1), 100_000)
    assert repr(one).startswith("FocusStack(spaces=(FocusSpace(id=0, ")
    assert repr(one).endswith(", next_id=100000)")
    assert len(one.spaces) == one.depth == 100_000
    del stack, built, one, twin
    gc.collect()
    assert unraisable == []


# ---------------------------------------------------------------------------
# segments_affected
# ---------------------------------------------------------------------------

def test_segments_affected():
    assert segments_affected(RETAIN) == 0
    assert segments_affected(INITIATE) == 1
    assert segments_affected(ret(1)) == 1     # one pop, no push
    assert segments_affected(rep(3)) == 4     # three pops plus the push


# ---------------------------------------------------------------------------
# build_tree
# ---------------------------------------------------------------------------

def test_tree_three_nested_initiates():
    tree = build_tree([(INITIATE, 0), (INITIATE, 1), (INITIATE, 2)])
    assert len(tree.nodes) == 3
    assert [tree.depths[i] for i in (0, 1, 2)] == [1, 2, 3]
    assert tree.parent == {1: 0, 2: 1}
    assert tree.open_ids == (0, 1, 2)


def test_tree_single_root():
    tree = build_tree([(INITIATE, 0)])
    assert tree.parent == {}
    assert tree.depths[0] == 1


def test_tree_siblings_under_root():
    # hand-simulated: Initiate, Initiate, Replace(1), Return(1)
    trace = [(INITIATE, 0), (INITIATE, 1), (rep(1), 2), (ret(1), 3)]
    tree = build_tree(trace)
    assert len(tree.nodes) == 3  # two Initiates plus one Replace push
    assert tree.parent == {1: 0, 2: 0}
    assert [nid for nid in tree.order if tree.parent.get(nid) == 0] == [1, 2]
    assert tree.open_ids == (0,)
    assert tree.nodes[1].closed_at == 2
    assert tree.nodes[2].closed_at == 3
    # segments opened or closed at each fragment agree with segments_affected
    touched = [sum((n.opened_at == i) + (n.closed_at == i) for n in tree.nodes.values())
               for i in range(4)]
    assert touched == [segments_affected(op) for op, _ in trace] == [1, 1, 2, 1]


def test_tree_requires_initiate_first():
    with pytest.raises(MalformedOperation, match="index 0"):
        build_tree([(RETAIN, 0)])
    with pytest.raises(MalformedOperation):
        build_tree([])


def test_tree_reports_offending_index():
    with pytest.raises(UnderflowError, match="index 1"):
        build_tree([(INITIATE, 0), (ret(5), 1)])


def test_render_indents_by_depth():
    tree = build_tree([(INITIATE, 0), (INITIATE, 1), (INITIATE, 2)])
    lines = tree.render().splitlines()
    assert [len(line) - len(line.lstrip()) for line in lines] == [0, 2, 4]


# ---------------------------------------------------------------------------
# trace serialization
# ---------------------------------------------------------------------------

def test_trace_roundtrip(tmp_path):
    trace = [(INITIATE, 0), (RETAIN, 1), (rep(1), 2), (ret(1), 3)]
    path = tmp_path / "trace.jsonl"
    write_trace(path, trace)
    lines = path.read_text().splitlines()
    assert '"kind": "Replace"' in lines[2] and '"pops": 1' in lines[2]
    assert read_trace(path) == trace


def test_operation_from_row_shares_only_well_formed_operations():
    first = operation_from_row({"kind": "Return", "pops": 2}, "t.jsonl", 1)
    assert first == FocusingOperation(OpKind.RETURN, 2)
    assert operation_from_row({"kind": "Return", "pops": 2}, "t.jsonl", 2) is first
    for lineno in (3, 4):  # a malformed operation is rejected, at its own line, every time
        with pytest.raises(SchemaError, match=f"^t.jsonl:{lineno}: Retain must have pop_count 0"):
            operation_from_row({"kind": "Retain", "pops": 1}, "t.jsonl", lineno)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def random_valid_trace(rng, max_len=14):
    ops = []
    depth = 0
    for i in range(rng.randint(1, max_len)):
        if depth == 0:
            op = INITIATE
        else:
            kind = rng.choice(list(OpKind))
            if kind in (OpKind.RETURN, OpKind.REPLACE):
                op = FocusingOperation(kind, rng.randint(1, depth))
            else:
                op = FocusingOperation(kind)
        ops.append((op, i))
        depth += op.pushes - op.pop_count
    return ops


def naive_depth_trajectory(trace):
    """Independent straight-line simulator used as the oracle."""
    depth = 0
    pushes = 0
    pops = 0
    trajectory = []
    for op, _ in trace:
        if op.kind is OpKind.INITIATE:
            depth += 1
            pushes += 1
        elif op.kind is OpKind.RETURN:
            depth -= op.pop_count
            pops += op.pop_count
        elif op.kind is OpKind.REPLACE:
            depth += 1 - op.pop_count
            pushes += 1
            pops += op.pop_count
        trajectory.append(depth)
    return trajectory, pushes, pops


@st.composite
def trace_strategy(draw):
    length = draw(st.integers(1, 12))
    ops = []
    depth = 0
    for i in range(length):
        if depth == 0:
            op = INITIATE
        else:
            kind = draw(st.sampled_from(list(OpKind)))
            if kind in (OpKind.RETURN, OpKind.REPLACE):
                op = FocusingOperation(kind, draw(st.integers(1, depth)))
            else:
                op = FocusingOperation(kind)
        ops.append((op, i))
        depth += op.pushes - op.pop_count
    return ops


@given(trace_strategy())
@settings(max_examples=150, deadline=None)
def test_replay_matches_naive_simulator(trace):
    stack = FocusStack()
    depths = []
    for op, i in trace:
        stack = apply(stack, op, i)
        depths.append(stack.depth)
    trajectory, pushes, pops = naive_depth_trajectory(trace)
    assert depths == trajectory
    assert stack.depth == pushes - pops

    tree = build_tree(trace)
    assert len(tree.nodes) == pushes
    closed = [n for n in tree.nodes.values() if n.closed_at is not None]
    assert len(closed) == pops  # every popped space closed exactly once
    assert set(tree.open_ids) == {n.id for n in tree.nodes.values()
                                  if n.closed_at is None}
    assert tree == focus_oracle.build_tree(trace)


@given(trace_strategy())
@settings(max_examples=150, deadline=None)
def test_every_stack_apply_builds_is_rebuilt_from_its_spaces(trace):
    stack = FocusStack()
    for op, i in trace:
        stack = apply(stack, op, i)
        rebuilt = FocusStack(stack.spaces, stack.next_id)
        assert rebuilt == stack and hash(rebuilt) == hash(stack)
        assert (rebuilt.depth, rebuilt.link) == (stack.depth, stack.link)


def test_bulk_random_traces_replay_cleanly():
    rng = random.Random(1187)
    for _ in range(500):
        trace = random_valid_trace(rng)
        tree = build_tree(trace)
        trajectory, pushes, _ = naive_depth_trajectory(trace)
        assert len(tree.nodes) == pushes
        assert trajectory[-1] == len(tree.open_ids)


# ---------------------------------------------------------------------------
# differential: build_tree against the history-keeping oracle
# ---------------------------------------------------------------------------

def replay_outcome(build, trace):
    """The tree a replay builds, or the type and message of its error."""
    try:
        return build(trace)
    except FocusEngineError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("trace,error", [
    ([], MalformedOperation),
    ([(RETAIN, 0)], MalformedOperation),
    ([(rep(1), 0)], MalformedOperation),
    ([(INITIATE, 0), (ret(5), 1)], UnderflowError),
    ([(INITIATE, 0), (ret(1), 1), (rep(1), 2)], UnderflowError),
    ([(INITIATE, 0), (ret(1), 1), (RETAIN, 2)], EmptyStackError),
    ([(INITIATE, 0), (ret(1), 1), (ret(1), 2)], EmptyStackError),
    ([(INITIATE, 5), (ret(1), 5)], MalformedOperation),
    ([(INITIATE, 0), (INITIATE, 3), (rep(2), 2)], MalformedOperation),
    ([(INITIATE, 5), (INITIATE, 6), (rep(2), 4)], MalformedOperation),  # names the top
])
def test_invalid_trace_errors_match_oracle(trace, error):
    outcome = replay_outcome(build_tree, trace)
    assert outcome == replay_outcome(focus_oracle.build_tree, trace)
    assert outcome[0] is error


def deep_trace(rng, min_depth=2000, wander=1000):
    """A well-formed trace that mostly pushes until ``min_depth`` deep, then wanders."""
    trace, depth = [], 0

    def step(weights, most):
        nonlocal depth
        kind = rng.choices(list(OpKind), weights)[0]
        if depth == 0 or kind is OpKind.INITIATE:
            op = INITIATE
        elif kind is OpKind.RETAIN:
            op = RETAIN
        else:
            op = FocusingOperation(kind, rng.randint(1, min(depth, most)))
        trace.append((op, len(trace)))
        depth += op.pushes - op.pop_count

    while depth < min_depth:
        step((8, 1, 1, 1), 2)
    for _ in range(wander):  # now and then a pop of up to 300 spaces
        step((1, 1, 1, 1), 300 if rng.random() < 0.02 else 3)
    return trace, depth


def test_deep_traces_match_oracle():
    rng = random.Random(2000)
    for _ in range(3):
        trace, depth = deep_trace(rng)
        assert max(naive_depth_trajectory(trace)[0]) >= 2000 and depth >= 1
        assert build_tree(trace) == focus_oracle.build_tree(trace)
    trace, depth = deep_trace(rng, wander=0)
    end = len(trace)
    reversed_indices = [(op, end - i) for op, i in trace]
    failing = [
        (trace + [(ret(depth + 1), end)], UnderflowError),
        (trace + [(rep(depth + 1), end)], UnderflowError),
        (trace + [(ret(depth), end), (RETAIN, end + 1)], EmptyStackError),
        (trace + [(ret(min(depth, 50)), end - 1)], MalformedOperation),  # closes the top too early
        (trace + [(ret(depth), 0)], MalformedOperation),  # every popped space fails: top named
        (reversed_indices, MalformedOperation),  # non-increasing indices
    ]
    for bad, error in failing:
        outcome = replay_outcome(build_tree, bad)
        assert outcome == replay_outcome(focus_oracle.build_tree, bad)
        assert outcome[0] is error


@st.composite
def any_trace_strategy(draw):
    """Well-formed operations in any order, at any fragment indices."""
    trace = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(list(OpKind)))
        pops = draw(st.integers(1, 4)) if kind in (OpKind.RETURN, OpKind.REPLACE) else 0
        trace.append((FocusingOperation(kind, pops), draw(st.integers(0, 8))))
    return trace


@given(any_trace_strategy())
@settings(settings.get_profile("fuzz"))
def test_any_trace_matches_oracle(trace):
    assert replay_outcome(build_tree, trace) == replay_outcome(focus_oracle.build_tree, trace)
