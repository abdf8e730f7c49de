"""Stack engine: operation semantics, tree building, trace replay invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pausecue.focus import (EmptyStackError, FocusStack, FocusingOperation,
                            MalformedOperation, OpKind, UnderflowError, apply,
                            build_tree, operation_from_row, read_trace, segments_affected,
                            write_trace)
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
    stack = apply(FocusStack.empty(), INITIATE, 0)
    stack2 = apply(stack, INITIATE, 1)
    assert stack2.depth == 2
    assert stack2.top.id != stack.top.id
    assert stack2.spaces[0].id == stack.top.id  # old top still beneath


def test_retain_is_identity_on_spaces():
    stack = apply(FocusStack.empty(), INITIATE, 0)
    retained = apply(stack, RETAIN, 1)
    assert retained.spaces == stack.spaces
    assert retained.history[-1].top_id == stack.top.id


def test_replace_pops_two_then_pushes():
    # hand-simulated two-deep stack: both popped spaces close at the
    # replacing fragment's index, one fresh space remains
    stack = apply(apply(FocusStack.empty(), INITIATE, 0), INITIATE, 1)
    replaced = apply(stack, rep(2), 2)
    assert replaced.depth == 1
    entry = replaced.history[-1]
    assert [s.id for s in entry.popped] == [1, 0]  # top popped first
    assert all(s.closed_at == 2 for s in entry.popped)
    assert replaced.top.id == 2
    assert replaced.top.opened_at == 2


def test_return_reexposes_previous_space():
    stack = apply(apply(FocusStack.empty(), INITIATE, 0), INITIATE, 1)
    returned = apply(stack, ret(1), 2)
    assert returned.depth == 1
    assert returned.top.id == 0
    assert returned.top.closed_at is None


def test_underflow_and_empty_stack_errors():
    stack = apply(FocusStack.empty(), INITIATE, 0)
    with pytest.raises(UnderflowError):
        apply(stack, ret(2), 1)
    with pytest.raises(UnderflowError):
        apply(stack, rep(2), 1)
    with pytest.raises(EmptyStackError):
        apply(FocusStack.empty(), RETAIN, 0)
    with pytest.raises(EmptyStackError):
        apply(FocusStack.empty(), ret(1), 0)


@pytest.mark.parametrize("op", [
    FocusingOperation(OpKind.INITIATE, 1),
    FocusingOperation(OpKind.RETAIN, 2),
    FocusingOperation(OpKind.RETURN, 0),
    FocusingOperation(OpKind.REPLACE, 0),
    FocusingOperation(OpKind.RETURN, -1),
])
def test_malformed_operations_rejected(op):
    with pytest.raises(MalformedOperation):
        apply(FocusStack.empty(), op, 0)


def test_apply_is_pure():
    stack = apply(FocusStack.empty(), INITIATE, 0)
    once = apply(stack, INITIATE, 1)
    twice = apply(stack, INITIATE, 1)
    assert once == twice
    assert stack.depth == 1  # input untouched


# ---------------------------------------------------------------------------
# segments_affected
# ---------------------------------------------------------------------------

def test_segments_affected():
    assert segments_affected(RETAIN) == 0
    assert segments_affected(INITIATE) == 1
    assert segments_affected(ret(1)) == 1     # one pop, no push
    assert segments_affected(rep(3)) == 4     # three pops plus the push
    with pytest.raises(MalformedOperation):
        segments_affected(FocusingOperation(OpKind.RETURN, 0))


# ---------------------------------------------------------------------------
# build_tree
# ---------------------------------------------------------------------------

def test_tree_three_nested_initiates():
    tree = build_tree([(INITIATE, 0), (INITIATE, 1), (INITIATE, 2)])
    assert len(tree.nodes) == 3
    assert [tree.depth(i) for i in (0, 1, 2)] == [1, 2, 3]
    assert tree.parent == {1: 0, 2: 1}
    assert tree.open_ids == (0, 1, 2)


def test_tree_single_root():
    tree = build_tree([(INITIATE, 0)])
    assert tree.roots() == (0,)
    assert tree.depth(0) == 1


def test_tree_siblings_under_root():
    # hand-simulated: Initiate, Initiate, Replace(1), Return(1)
    trace = [(INITIATE, 0), (INITIATE, 1), (rep(1), 2), (ret(1), 3)]
    tree = build_tree(trace)
    assert len(tree.nodes) == 3  # two Initiates plus one Replace push
    assert tree.parent == {1: 0, 2: 0}
    assert tree.children(0) == (1, 2)
    assert tree.open_ids == (0,)
    assert tree.nodes[1].closed_at == 2
    assert tree.nodes[2].closed_at == 3
    assert tree.op_affected == (1, 1, 2, 1)


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
    stack = FocusStack.empty()
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


def test_bulk_random_traces_replay_cleanly():
    rng = random.Random(1187)
    for _ in range(500):
        trace = random_valid_trace(rng)
        tree = build_tree(trace)
        trajectory, pushes, _ = naive_depth_trajectory(trace)
        assert len(tree.nodes) == pushes
        assert trajectory[-1] == len(tree.open_ids)
