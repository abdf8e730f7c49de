"""Reference focus engine: the history-keeping replay the package once used.

``apply`` returns a stack that carries an append-only history of every
operation, with the popped spaces already closed; ``build_tree`` reads the
segment tree off that history.  Both are quadratic in the trace length and
serve only as the oracle the differential tests compare ``pausecue.focus``
against.  Operations are well-formed by construction, so neither checks
them again.
"""

from __future__ import annotations

from typing import NamedTuple

from pausecue.focus import (EmptyStackError, FocusEngineError, FocusingOperation,
                            FocusSpace, LinguisticTree, MalformedOperation, OpKind,
                            UnderflowError)


class HistoryEntry(NamedTuple):
    fragment_index: int
    operation: FocusingOperation
    pushed: FocusSpace | None
    popped: tuple[FocusSpace, ...]
    top_id: int | None


class HistoryStack(NamedTuple):
    spaces: tuple[FocusSpace, ...] = ()
    history: tuple[HistoryEntry, ...] = ()
    next_id: int = 0

    @property
    def depth(self) -> int:
        return len(self.spaces)


def apply(stack: HistoryStack, op: FocusingOperation, fragment_index: int,
          label: str = "") -> HistoryStack:
    if op.kind in (OpKind.RETAIN, OpKind.RETURN) and not stack.spaces:
        raise EmptyStackError(f"{op.kind.value} requires a nonempty stack")
    if op.pop_count > stack.depth:
        raise UnderflowError(f"{op.kind.value} pops {op.pop_count} but depth is {stack.depth}")

    spaces = list(stack.spaces)
    popped: list[FocusSpace] = []
    for _ in range(op.pop_count):
        space = spaces.pop()
        popped.append(FocusSpace(space.id, space.dsp_label, space.opened_at, fragment_index))

    pushed: FocusSpace | None = None
    next_id = stack.next_id
    if op.pushes:
        pushed = FocusSpace(id=next_id, dsp_label=label, opened_at=fragment_index)
        spaces.append(pushed)
        next_id += 1

    top_id = spaces[-1].id if spaces else None
    entry = HistoryEntry(fragment_index=fragment_index, operation=op,
                         pushed=pushed, popped=tuple(popped), top_id=top_id)
    return HistoryStack(spaces=tuple(spaces), history=stack.history + (entry,),
                        next_id=next_id)


def build_tree(trace) -> LinguisticTree:
    if not trace:
        raise MalformedOperation("trace is empty")
    first_op = trace[0][0]
    if first_op.kind is not OpKind.INITIATE:
        raise MalformedOperation(f"trace index 0: first operation must be Initiate, "
                                 f"got {first_op.kind.value}")

    stack = HistoryStack()
    nodes: dict[int, FocusSpace] = {}
    parent: dict[int, int] = {}
    depths: dict[int, int] = {}
    for idx, (op, fragment_index) in enumerate(trace):
        try:
            stack = apply(stack, op, fragment_index)
        except FocusEngineError as exc:
            raise type(exc)(f"trace index {idx}: {exc}") from exc
        entry = stack.history[-1]
        for space in entry.popped:
            nodes[space.id] = space
        if entry.pushed is not None:
            pushed = entry.pushed
            nodes[pushed.id] = pushed
            if stack.depth >= 2:
                parent[pushed.id] = stack.spaces[-2].id
            depths[pushed.id] = stack.depth

    for space in stack.spaces:
        nodes[space.id] = space
    order = tuple(sorted(nodes, key=lambda nid: (nodes[nid].opened_at, nid)))
    open_ids = tuple(space.id for space in stack.spaces)
    return LinguisticTree(nodes=nodes, parent=parent, depths=depths, order=order,
                          open_ids=open_ids)
