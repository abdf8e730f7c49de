"""Focus-space stack engine.

The discourse segment currently under construction is represented by a
focus space; open spaces live on a pushdown stack, with the most recent
segment on top.  Four composite operations move the stack:

* ``Initiate``  - one push (open a new segment),
* ``Retain``    - no push, no pop (stay in the current segment),
* ``Return``    - one or more pops (re-enter an earlier open segment),
* ``Replace``   - one or more pops followed by one push.

An operation may pop several spaces but never pushes more than one.
Replaying a trace of operations reconstructs the hierarchical segment
structure of the discourse: each pushed space becomes a tree node whose
parent is the space directly beneath it at push time.
"""

from __future__ import annotations

import enum
import functools
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .jsonl import Field, Frozen, SchemaError, Target, lines, write_jsonl


class FocusEngineError(Exception):
    """Base class for stack-engine failures."""


class UnderflowError(FocusEngineError):
    """An operation asked to pop more spaces than the stack holds."""


class EmptyStackError(FocusEngineError):
    """Retain or Return was applied to an empty stack."""


class MalformedOperation(FocusEngineError):
    """An operation violates the kind/pop_count well-formedness rules."""


class OpKind(str, enum.Enum):
    INITIATE = "Initiate"
    RETAIN = "Retain"
    RETURN = "Return"
    REPLACE = "Replace"


OP_KINDS = tuple(kind.value for kind in OpKind)

#: Cheapest-first preference used by downstream classifiers to break ties.
TIE_ORDER = {OpKind.RETAIN: 0, OpKind.INITIATE: 1, OpKind.RETURN: 2, OpKind.REPLACE: 3}


class FocusingOperation(Frozen):
    """One focusing operation with an explicit pop count.

    ``pop_count`` is an int (not a bool).  Initiate and Retain never pop;
    Return and Replace pop at least once.  Construction raises
    MalformedOperation otherwise, so every operation that exists is
    well-formed.  ``pushes`` follows from ``kind``, so it stays out of
    ``==``, ``hash`` and ``repr``.
    """

    _fields = ("kind", "pop_count")
    __slots__ = (*_fields, "pushes")

    def __init__(self, kind: OpKind, pop_count: int = 0) -> None:
        if not isinstance(kind, OpKind):
            raise MalformedOperation(f"unknown operation kind {kind!r}")
        if type(pop_count) is not int:
            raise MalformedOperation(f"{kind.value} must have an int pop_count, "
                                     f"got {pop_count!r}")
        if kind in (OpKind.INITIATE, OpKind.RETAIN):
            if pop_count != 0:
                raise MalformedOperation(f"{kind.value} must have pop_count 0, "
                                         f"got {pop_count}")
        elif pop_count < 1:
            raise MalformedOperation(f"{kind.value} must have pop_count >= 1, "
                                     f"got {pop_count}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "pop_count", pop_count)
        object.__setattr__(self, "pushes", int(kind in (OpKind.INITIATE, OpKind.REPLACE)))

    @property
    def pops(self) -> int:
        """``pop_count`` under the name it has in written rows."""
        return self.pop_count


class FocusSpace(Frozen):
    """One discourse segment's attentional record.

    id and opened_at are ints (not bools) and dsp_label a str; construction
    raises MalformedOperation otherwise.  closed_at is the fragment index at
    which the space was popped, an int above opened_at; it stays None for
    spaces still open when the trace ends.  Implicit discourse-final closure
    is reported, never fabricated.
    """

    __slots__ = _fields = ("id", "dsp_label", "opened_at", "closed_at")

    def __init__(self, id: int, dsp_label: str = "", opened_at: int = 0,
                 closed_at: int | None = None) -> None:
        if type(id) is not int:
            raise MalformedOperation(f"space id {id!r} is not an int")
        if not isinstance(dsp_label, str):
            raise MalformedOperation(f"space {id}: dsp_label {dsp_label!r} is not a str")
        if type(opened_at) is not int:
            raise MalformedOperation(f"space {id}: opened_at {opened_at!r} is not an int")
        if closed_at is not None:
            if type(closed_at) is not int:
                raise MalformedOperation(f"space {id}: closed_at {closed_at!r} is not an int")
            if closed_at <= opened_at:
                raise MalformedOperation(
                    f"space {id}: closed_at {closed_at} must exceed opened_at {opened_at}")
        _set_id(self, id)
        _set_dsp_label(self, dsp_label)
        _set_opened_at(self, opened_at)
        _set_closed_at(self, closed_at)


#: One link of a focus stack: the space on top and the link beneath it,
#: None beneath the bottom space.
Link = tuple[FocusSpace, "Link"] | None


class FocusStack(Frozen):
    """Immutable stack state: the open spaces, bottom to top, and the id the
    next pushed space gets.

    Construction raises MalformedOperation unless every space is a
    FocusSpace, ``next_id`` is an int (not a bool), the ids rise strictly
    from bottom to top and ``next_id`` exceeds the top id;
    ``apply`` keeps all of it.  The state is kept as a
    persistent linked stack: ``link`` is the top link ``(space, rest)``,
    where ``rest`` is the link beneath (None below the bottom space), and
    ``depth`` is the number of links.  ``apply`` walks only the links it pops
    and adds at most one, so a state shares every link beneath its top with
    the states it came from, and no state is ever copied or changed.
    ``==``, ``hash``, ``repr`` and pickling read only ``spaces`` and
    ``next_id``; ``spaces`` walks the links in a loop, so a stack of any
    depth compares, prints and pickles.
    """

    __slots__ = ("link", "depth", "next_id")
    _fields = ("spaces", "next_id")

    def __init__(self, spaces: Iterable[FocusSpace] = (), next_id: int = 0) -> None:
        if type(next_id) is not int:
            raise MalformedOperation(f"stack next_id {next_id!r} is not an int")
        link, depth, below = None, 0, None
        for space in spaces:
            if not isinstance(space, FocusSpace):
                raise MalformedOperation(f"stack space {depth} is not a FocusSpace")
            if below is not None and not below.id < space.id:
                raise MalformedOperation(f"stack space {depth} has id {space.id!r}, "
                                         f"not above {below.id!r}")
            link, depth, below = (space, link), depth + 1, space
        if below is not None and not below.id < next_id:
            raise MalformedOperation(f"stack next_id {next_id!r} is not above "
                                     f"the top id {below.id!r}")
        _set_link(self, link)
        _set_depth(self, depth)
        _set_next_id(self, next_id)

    @property
    def spaces(self) -> tuple[FocusSpace, ...]:
        """The open spaces, bottom to top, read off the links in O(depth)."""
        spaces = []
        link = self.link
        while link is not None:
            space, link = link
            spaces.append(space)
        return tuple(reversed(spaces))


#: The slot setters that the two classes above store through, since
#: assignment is refused: cheaper than ``object.__setattr__`` on a push.
_set_id, _set_dsp_label, _set_opened_at, _set_closed_at = (
    vars(FocusSpace)[name].__set__ for name in FocusSpace.__slots__)
_set_link, _set_depth, _set_next_id = (
    vars(FocusStack)[name].__set__ for name in FocusStack.__slots__)


def _stack(link: Link, depth: int, next_id: int) -> FocusStack:
    """A stack of ``depth`` links, made without the constructor's checks."""
    stack = object.__new__(FocusStack)
    _set_link(stack, link)
    _set_depth(stack, depth)
    _set_next_id(stack, next_id)
    return stack


def apply(stack: FocusStack, op: FocusingOperation, fragment_index: int,
          label: str = "") -> FocusStack:
    """Apply one focusing operation, returning the new stack state.

    Popped spaces are dropped; a pushed space opens at ``fragment_index``.
    The input stack is never mutated: the result shares its links, and
    costs O(pop_count + 1).

    Raises EmptyStackError for Retain/Return on an empty stack and
    UnderflowError when pop_count exceeds the current depth.
    """
    depth, pops = stack.depth, op.pop_count
    if not depth and not op.pushes:  # Retain or Return
        raise EmptyStackError(f"{op.kind.value} requires a nonempty stack")
    if pops > depth:
        raise UnderflowError(f"{op.kind.value} pops {pops} but depth is {depth}")
    link = stack.link
    for _ in range(pops):
        link = link[1]
    if op.pushes:
        space = FocusSpace(stack.next_id, label, fragment_index)
        return _stack((space, link), depth - pops + 1, stack.next_id + 1)
    return _stack(link, depth - pops, stack.next_id) if pops else stack


def segments_affected(op: FocusingOperation) -> int:
    """Number of segments opened or closed by one operation (pops + pushes)."""
    return op.pop_count + op.pushes


class LinguisticTree(NamedTuple):
    """Hierarchical segment structure recovered from an operation trace.

    nodes maps space id to its final state (closed_at set if it was popped);
    parent links each pushed space to the space directly beneath it at push
    time, absent for top-level segments.  depths holds the embedding depth
    at push (1 = top level).  open_ids lists spaces still open at trace end,
    bottom to top.
    """

    nodes: dict[int, FocusSpace]
    parent: dict[int, int]
    depths: dict[int, int]
    order: tuple[int, ...]
    open_ids: tuple[int, ...]

    def render(self) -> str:
        """Indented text rendering, one segment per line, indent = depth."""
        lines = []
        for nid in self.order:
            node = self.nodes[nid]
            indent = "  " * (self.depths[nid] - 1)
            closed = "open" if node.closed_at is None else f"closed {node.closed_at}"
            label = node.dsp_label or f"segment-{nid}"
            lines.append(f"{indent}[{nid}] {label} (opened {node.opened_at}, {closed})")
        return "\n".join(lines)


Trace = Sequence[tuple[FocusingOperation, int]]


class TraceStep(NamedTuple):
    """One trace entry, with the ``kind`` and ``pops`` of its written row."""

    op: FocusingOperation
    index: int

    kind = property(lambda self: self.op.kind)
    pops = property(lambda self: self.op.pop_count)


def build_tree(trace: Trace) -> LinguisticTree:
    """Replay a trace from an empty stack and build the segment tree.

    The first operation must be an Initiate.  Engine errors raised while
    replaying are re-raised with the offending trace index in the message.
    Residual open spaces are reported via ``open_ids``; nothing is popped
    on the caller's behalf.
    """
    if not trace:
        raise MalformedOperation("trace is empty")
    first_op = trace[0][0]
    if first_op.kind is not OpKind.INITIATE:
        raise MalformedOperation(f"trace index 0: first operation must be Initiate, "
                                 f"got {first_op.kind.value}")

    stack = FocusStack()
    nodes: dict[int, FocusSpace] = {}
    parent: dict[int, int] = {}
    depths: dict[int, int] = {}
    for idx, (op, fragment_index) in enumerate(trace):
        try:
            after = apply(stack, op, fragment_index)
            # top first: when several spaces close too early, the top is named
            link = stack.link
            for _ in range(op.pop_count):
                space, link = link
                nodes[space.id] = FocusSpace(space.id, space.dsp_label, space.opened_at,
                                             fragment_index)
        except FocusEngineError as exc:
            raise type(exc)(f"trace index {idx}: {exc}") from exc
        stack = after
        if op.pushes:
            pushed, below = stack.link
            nodes[pushed.id] = pushed
            if below is not None:
                parent[pushed.id] = below[0].id
            depths[pushed.id] = stack.depth

    order = tuple(sorted(nodes, key=lambda nid: (nodes[nid].opened_at, nid)))
    open_ids = tuple(space.id for space in stack.spaces)
    return LinguisticTree(nodes=nodes, parent=parent, depths=depths, order=order,
                          open_ids=open_ids)


# ---------------------------------------------------------------------------
# Trace serialization: {"index": int, "kind": "...", "pops": int} per line.
# ---------------------------------------------------------------------------

def write_trace(target: Target, trace: Trace) -> None:
    write_jsonl(target, lines(TRACE_FIELDS, map(TraceStep._make, trace)))


#: An operation as stored in traces and coded records.
OPERATION_FIELDS = (Field("kind", str, choices=OP_KINDS), Field("pops", int, 0))

TRACE_FIELDS = (Field("index", int), *OPERATION_FIELDS)


@functools.lru_cache(maxsize=None, typed=True)
def operation(kind: OpKind | str, pops: int) -> FocusingOperation:
    """The operation ``kind`` popping ``pops`` spaces.

    Operations are frozen, so each distinct (kind, pops) is built and
    validated once and then shared; a malformed one raises
    MalformedOperation and is never cached.  The cache keys on the types
    too, since ``1``, ``1.0`` and ``True`` are equal keys otherwise: each
    reaches the constructor's check once, and only the int is cached.
    """
    try:
        kind = OpKind(kind)
    except ValueError:
        raise MalformedOperation(f"unknown operation kind {kind!r}") from None
    return FocusingOperation(kind, pops)


def operation_from_row(row: dict, path: str | Path, lineno: int) -> FocusingOperation:
    """Build a well-formed operation from fields checked by OPERATION_FIELDS."""
    try:
        return operation(row["kind"], row["pops"])
    except MalformedOperation as exc:
        raise SchemaError(str(exc), line=lineno, path=path) from exc
