"""The laws every value class of the package keeps, each stated once.

The value classes are the ``jsonl.Record`` subclasses that a walk of
``src/pausecue`` finds (``conftest.value_classes``), and each law runs over
all of them, on instances made from drawn arguments:

- ``==`` holds exactly when the ``_fields`` are equal, and ``repr`` shows
  them, so no derived attribute counts for either; ``AudioFrameSeries``,
  the one class with its own ``==`` (``test_tooling.VALUE_METHOD_OWNERS``),
  compares by identity;
- a ``Record`` that is not ``Frozen`` is unhashable, and a ``Frozen`` one
  hashes as the tuple of its fields does, or raises ``TypeError`` as it does;
- a ``Frozen`` instance refuses assignment and deletion and keeps its value;
- a pickle or a copy holds the original's attributes, and a ``Frozen`` one
  is made again by the constructor, so it runs the constructor's checks;
- an instance keeps its fields and what it derives in slots, those of a
  record read from a file too, has no ``__dict__`` and can be given no
  other attribute.

Each class's own rules are example tests beside its other tests, and
``test_jsonl`` states the law that the constructor and the reader of each
record type agree.
"""

import copy
import inspect
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import slots, state, value_classes
from pausecue.classifier import ROW_KEYS, TABLE_ROWS
from pausecue.focus import FocusSpace, OpKind
from pausecue.fragments import INITIAL_CLASSES, TOKEN_FIELDS, AnnotatedToken
from pausecue.jsonl import Frozen
from pausecue.lexicon import bundled_lexicon
from strategies import RECORD_TYPES, arguments, records
from test_tooling import VALUE_METHOD_OWNERS

FUZZ = settings(settings.get_profile("fuzz"), max_examples=40)

CLASSES = value_classes()
FROZEN = [name for name, cls in CLASSES.items() if issubclass(cls, Frozen)]
#: The classes that compare by identity: those with their own ``==``.
IDENTITY = {owner.partition(".")[2] for owner in VALUE_METHOD_OWNERS} & set(CLASSES)

#: Arguments of every kind, for any parameter: most of them bad for it.
ANY = st.sampled_from([None, "", "x", "Return", 0, 1, -1, 2, 2.5, -0.5, 1e16, -1e16, math.nan,
                       math.inf, True, False, (), ["normal"], {"bogus": 1.0}, frozenset()])
TEXT = st.text("ab '-.", max_size=4)
SMALL = st.integers(-2, 6)
SECONDS = st.floats(0, 5) | st.integers(0, 5)
EDGES = st.sampled_from([math.nan, math.inf, -math.inf, 1e15, 1e16])


TOKENS = records(TOKEN_FIELDS, AnnotatedToken, surface=st.sampled_from(["so", "you", "left"]))
SPACES = st.builds(FocusSpace, SMALL, TEXT, SMALL)


#: Good arguments of each class, by parameter name; ANY supplies the bad ones.
#: A record class takes the arguments its table gives.
GOOD = {kind.make.__name__: arguments(kind.table, kind.make) for kind in RECORD_TYPES.values()}
GOOD.update((name, st.fixed_dictionaries(values)) for name, values in {
    "FocusingOperation": {"kind": st.sampled_from(list(OpKind)), "pop_count": SMALL},
    "FocusSpace": {"id": SMALL, "dsp_label": TEXT, "opened_at": SMALL,
                   "closed_at": st.none() | SMALL},
    "PauseConfig": {"threshold_db": st.floats(-100, 100) | EDGES,
                    "min_silence_s": st.floats(0, 1) | EDGES,
                    "frame_ms": st.floats(-1, 2000) | SMALL | EDGES},
    "AudioFrameSeries": {"sample_rate": st.sampled_from([8000, 16000]),
                         "frame_ms": st.floats(1, 30),
                         "energies": st.lists(st.floats(0, 1), max_size=3).map(tuple),
                         "n_samples": SMALL},
    "SpeechFragment": {
        "index": SMALL,
        "tokens": st.lists(TOKENS, max_size=3).map(tuple),
        "initial_token_class": st.sampled_from(INITIAL_CLASSES),
        "initial_cue": st.none() | st.sampled_from(bundled_lexicon().entries[:3]),
        "pause_before_s": SECONDS},
    "ClassifierConfig": {
        "weights": st.dictionaries(st.sampled_from([*ROW_KEYS, "bogus"]),
                                   st.floats(0.1, 5) | SMALL, max_size=3),
        "candidate_bonus": st.floats(-2e15, 2e15) | SMALL | EDGES, "impending_bonus": SECONDS,
        "lstar_threshold": st.floats(0, 1)},
}.items())
GOOD["EvidenceItem"] = st.builds(
    lambda row, weight: {"source": row[0], "feature": row[1], "weight": weight},
    st.sampled_from(list(TABLE_ROWS)), st.floats(-1, 1e16) | SMALL | EDGES)
#: Mostly rising ids and a next_id above them, which the constructor requires.
GOOD["FocusStack"] = st.builds(
    lambda spaces, rising, above: {
        "spaces": sorted(spaces, key=lambda space: space.id) if rising else spaces,
        "next_id": max([space.id for space in spaces], default=0) + above},
    st.lists(SPACES, max_size=3, unique_by=lambda space: space.id) | st.lists(SPACES, max_size=3),
    st.sampled_from([True, True, True, False]), st.sampled_from([1, 1, 2, 0]))


def good(name):
    """The good-argument strategy of class ``name``; a class the walk finds
    without one fails every law, by name."""
    assert name in GOOD, f"value class {name} has no argument strategy in GOOD"
    return GOOD[name]


@st.composite
def calls(draw, name):
    """Arguments for one call of class ``name``, good or with one mistake: a
    bad value, a missing argument, a keyword-only one passed by position or
    an unknown keyword.  Each is passed by position where it may be, by
    keyword or, if it has a default, not at all."""
    params = list(inspect.signature(CLASSES[name]).parameters.values())
    values = draw(good(name))
    broken = draw(st.sampled_from([None, None, "bogus", *range(len(params))]))
    args, kwargs = [], {}
    for i, param in enumerate(params):
        value = draw(ANY) if i == broken else values[param.name]
        how = draw(st.sampled_from(["position", "keyword", "omit"]))
        if how == "omit" and (param.default is not param.empty or i == broken):
            continue
        if how == "position" and not kwargs and (
                param.kind is param.POSITIONAL_OR_KEYWORD or i == broken):
            args.append(value)
        else:
            kwargs[param.name] = value
    if broken == "bogus":
        kwargs["bogus"] = 1
    return args, kwargs


def outcome(fn, *args, **kwargs):
    """(True, what ``fn`` returns), or (False, (exception type, message))."""
    try:
        return True, fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return False, (type(exc), str(exc))


#: The attributes each class derives from its fields and holds beside them.
DERIVED = {"SpeechFragment": ("speaker", "features"), "EvidenceItem": ("primitive",),
           "ClassifierConfig": ("items",), "FocusingOperation": ("pushes",),
           "FocusStack": ("link", "depth")}
#: The fields a class reads through a property off what it derives, not slots.
COMPUTED = {"FocusStack": ("spaces",)}


def fields(obj):
    """The values of ``obj``'s ``_fields``, in order."""
    return tuple(getattr(obj, name) for name in type(obj)._fields)


def alike(first, second):
    """Instances of one class with the same attributes."""
    return type(first) is type(second) and state(first) == state(second)


def neighbours(data, name):
    """Instances of class ``name``: one made from good arguments, one from the
    same arguments and one from arguments that differ in at most one, less
    those the constructor refuses."""
    cls = CLASSES[name]
    values, others = data.draw(good(name)), data.draw(good(name))
    changed = data.draw(st.sampled_from(cls._fields))
    made = [outcome(cls, **call) for call in (values, values, {**values, changed: others[changed]})]
    return [obj for ok, obj in made if ok]


@FUZZ
@pytest.mark.parametrize("name", CLASSES)
@given(data=st.data())
def test_equality_and_repr_read_the_fields(name, data):
    made = neighbours(data, name)
    for obj in made:
        shown = ", ".join(f"{field}={value!r}" for field, value in zip(obj._fields, fields(obj)))
        assert repr(obj) == f"{type(obj).__qualname__}({shown})"
        assert obj != fields(obj)  # an instance equals no other type's
        for other in made:
            same = obj is other if name in IDENTITY else fields(obj) == fields(other)
            assert (obj == other, obj != other) == (same, not same)


@FUZZ
@pytest.mark.parametrize("name", CLASSES)
@given(data=st.data())
def test_only_a_frozen_instance_hashes_and_as_its_fields(name, data):
    made = neighbours(data, name)
    for obj in made:
        if not issubclass(CLASSES[name], Frozen):
            with pytest.raises(TypeError, match=f"^unhashable type: '{name}'$"):
                hash(obj)
        elif name in IDENTITY:
            assert hash(obj) == object.__hash__(obj)
        else:  # raises TypeError where a field value does not hash
            assert outcome(hash, obj) == outcome(hash, fields(obj))
        for other in made:
            if obj == other and outcome(hash, obj)[0]:
                assert hash(obj) == hash(other)


@FUZZ
@pytest.mark.parametrize("name", FROZEN)
@given(data=st.data())
def test_a_frozen_instance_refuses_assignment(name, data):
    args, kwargs = data.draw(calls(name))
    ok, obj = outcome(CLASSES[name], *args, **kwargs)
    if not ok:
        return
    before = state(obj)
    for attr in (*before, "bogus"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field {attr!r}$"):
            setattr(obj, attr, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field {attr!r}$"):
            delattr(obj, attr)
    assert state(obj) == before


@FUZZ
@pytest.mark.parametrize("name", CLASSES)
@given(data=st.data())
def test_a_pickle_or_a_copy_keeps_the_attributes_and_the_checks(name, data):
    ok, obj = outcome(CLASSES[name], **data.draw(good(name)))
    if not ok:
        return
    for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert alike(again, obj)
    if name in FROZEN:  # the rebuild of a payload with one bad value
        rebuild, (cls, values) = obj.__reduce__()
        i = data.draw(st.sampled_from(range(len(values))))
        values = (*values[:i], data.draw(ANY), *values[i + 1:])
        ours = outcome(rebuild, cls, values)
        theirs = outcome(cls, **dict(zip(cls._fields, values)))
        if ours[0] and theirs[0]:
            assert alike(ours[1], theirs[1])
        else:
            assert ours == theirs  # the same exception type and message


def assert_slotted(obj):
    """``obj`` holds exactly its class's fields and derived names, in slots."""
    cls, name = type(obj), type(obj).__name__
    held = [field for field in cls._fields if field not in COMPUTED.get(name, ())]
    assert sorted(slots(cls)) == sorted([*held, *DERIVED.get(name, ())])
    assert not hasattr(obj, "__dict__")
    before = state(obj)
    for assign in (setattr, object.__setattr__):  # the second past Frozen's refusal
        for attr in ("bogus", f"{held[0]}_"):  # a misspelled field too
            with pytest.raises(AttributeError):
                assign(obj, attr, 1)
    assert state(obj) == before


@FUZZ
@pytest.mark.parametrize("name", CLASSES)
@given(data=st.data())
def test_an_instance_keeps_its_attributes_in_slots_alone(name, data):
    ok, obj = outcome(CLASSES[name], **data.draw(good(name)))
    if ok:
        assert_slotted(obj)
    else:  # as a constructor that stores a name without a slot would raise
        assert obj[0] is not AttributeError, obj


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_a_record_read_keeps_its_fields_in_slots_alone(name):
    kind = RECORD_TYPES[name]
    for record in kind.read(kind.source):
        assert_slotted(record)
