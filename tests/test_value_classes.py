"""The package's value classes against their dataclass references.

For each of the twelve classes, the same arguments give the library class
and its reference in ``dataclass_reference`` the same attributes, in value
and type, or the same exception type and message; their instances have the
same ``==``, the same hash or unhashability, the same ``repr`` and the
same attributes again after a pickle round trip.  The
arguments are good, bad, missing, passed by keyword where the signature
wants them by position, or unknown.  A frozen instance refuses assignment
and deletion and keeps its value.
"""

import inspect
import math
import operator
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclass_reference as ref
from pausecue.classifier import ROW_KEYS, TABLE_ROWS
from pausecue.focus import OP_KINDS, FocusSpace, OpKind, operation
from pausecue.fragments import (ACCENTS, BOUNDARIES, CONSTITUENTS, FUNCTION_LABELS,
                                INITIAL_CLASSES, PHONATIONS, PITCH_RANGES, TOKEN_FLAGS,
                                TURN_POSITIONS, AnnotatedToken)
from pausecue.lexicon import ORDINAL_RANKS, TOKEN_CLASSES, bundled_lexicon
from pausecue.pauses import POSITIONS

FUZZ = settings(settings.get_profile("fuzz"), max_examples=100)

#: Arguments of every kind, for any parameter: most of them bad for it.
ANY = st.sampled_from([None, "", "x", "Return", 0, 1, -1, 2, 2.5, -0.5, 1e16, -1e16, math.nan,
                       math.inf, True, False, (), ["normal"], {"bogus": 1.0}, frozenset()])
TEXT = st.text("ab '-.", max_size=4)
WORDS = st.sampled_from(["so", "now", "and then", "o'k", "well-", ".", ""])
SMALL = st.integers(-2, 6)
SECONDS = st.floats(0, 5) | st.integers(0, 5)
EDGES = st.sampled_from([math.nan, math.inf, -math.inf, 1e15, 1e16])
OPERATIONS = st.sampled_from([operation(kind, 0) for kind in ("Initiate", "Retain")]
                             + [operation(kind, pops) for kind in ("Return", "Replace")
                                for pops in (1, 2)])


def _collections(elements, **sizes):
    return st.one_of(st.lists(elements, **sizes), st.lists(elements, **sizes).map(tuple),
                     st.frozensets(elements, **sizes))


def _choice(values):
    return st.sampled_from(values)


TOKENS = st.builds(AnnotatedToken, st.sampled_from(["so", "you", "left"]),
                   phonation=_choice(PHONATIONS), pitch_range=_choice(PITCH_RANGES),
                   topic=_choice(["", "route"]))
SPACES = st.builds(FocusSpace, SMALL, TEXT, SMALL)


#: Good arguments of each class, by parameter name; ANY supplies the bad ones.
GOOD = {name: st.fixed_dictionaries(values) for name, values in {
    "AnnotatedToken": {
        "surface": TEXT, "speaker": TEXT, "accent": _choice(ACCENTS),
        "boundary": _choice(BOUNDARIES), "phonation": _choice(PHONATIONS),
        "pitch_range": _choice(PITCH_RANGES), "pause_before_s": SECONDS,
        "flags": _collections(_choice(TOKEN_FLAGS), max_size=2), "topic": TEXT,
        "start_s": st.none() | SECONDS, "end_s": st.none() | SECONDS},
    "CodedRecord": {
        "fragment_index": SMALL, "pause_before_s": st.none() | SECONDS,
        "initial_constituent": _choice(CONSTITUENTS), "initial_token": TEXT,
        "operation": OPERATIONS, "embedding_depth": st.integers(0, 3),
        "segments_affected": st.none() | st.integers(0, 3),
        "prior_function": _choice(FUNCTION_LABELS),
        "subsequent_function": _choice(FUNCTION_LABELS),
        "turn_position": _choice(TURN_POSITIONS), "marked": st.none() | st.booleans()},
    "PauseRecord": {
        "start_s": SECONDS, "raw_duration_s": st.floats(-1, 2) | SMALL,
        "reported_duration_s": st.none() | _choice([0.0, 0.1, 0.2, 0.5, 1.0, 2]),
        "position": _choice(POSITIONS), "suspect": st.booleans()},
    "CueEntry": {
        "surface": WORDS, "gloss": TEXT,
        "candidate_ops": _collections(_choice(OP_KINDS), max_size=3),
        "token_class": _choice(TOKEN_CLASSES), "display": TEXT,
        "ordinal_rank": st.none() | _choice(ORDINAL_RANKS), "connective": st.booleans(),
        "corpus_derived": st.booleans(), "variants": _collections(WORDS, max_size=2)},
    "FocusingOperation": {"kind": _choice(list(OpKind)), "pop_count": SMALL},
    "FocusSpace": {"id": SMALL, "dsp_label": TEXT, "opened_at": SMALL,
                   "closed_at": st.none() | SMALL},
    "PauseConfig": {"threshold_db": st.floats(-100, 100) | EDGES,
                    "min_silence_s": st.floats(0, 1) | EDGES,
                    "frame_ms": st.floats(-1, 2000) | SMALL | EDGES},
    "AudioFrameSeries": {"sample_rate": _choice([8000, 16000]), "frame_ms": st.floats(1, 30),
                         "energies": st.lists(st.floats(0, 1), max_size=3).map(tuple),
                         "n_samples": SMALL},
    "SpeechFragment": {
        "index": SMALL, "speaker": TEXT,
        "tokens": st.lists(TOKENS, max_size=3).map(tuple),
        "initial_token_class": _choice(INITIAL_CLASSES),
        "initial_cue": st.none() | st.sampled_from(bundled_lexicon().entries[:3]),
        "pause_before_s": SECONDS},
    "ClassifierConfig": {
        "weights": st.dictionaries(_choice([*ROW_KEYS, "bogus"]), st.floats(0.1, 5) | SMALL,
                                   max_size=3),
        "candidate_bonus": st.floats(-2e15, 2e15) | SMALL | EDGES, "impending_bonus": SECONDS,
        "lstar_threshold": st.floats(0, 1)},
}.items()}
GOOD["EvidenceItem"] = st.builds(
    lambda row, weight: {"source": row[0][0], "feature": row[0][1], "primitive": row[1][1],
                         "weight": weight},
    st.sampled_from(list(TABLE_ROWS.items())), st.floats(-1, 1e16) | SMALL | EDGES)
#: Mostly rising ids and a next_id above them, which the constructor requires.
GOOD["FocusStack"] = st.builds(
    lambda spaces, rising, above: {
        "spaces": sorted(spaces, key=lambda space: space.id) if rising else spaces,
        "next_id": max([space.id for space in spaces], default=0) + above},
    st.lists(SPACES, max_size=3, unique_by=lambda space: space.id) | st.lists(SPACES, max_size=3),
    st.sampled_from([True, True, True, False]), st.sampled_from([1, 1, 2, 0]))
#: Attributes each class derives, which its constructor takes no argument for.
DERIVED = {"FocusingOperation": ("pushes",), "FocusStack": ("link", "depth"),
           "SpeechFragment": ("features",), "ClassifierConfig": ("items",)}
FROZEN = ["CueEntry", "FocusingOperation", "FocusSpace", "FocusStack", "PauseConfig",
          "AudioFrameSeries", "SpeechFragment", "EvidenceItem", "ClassifierConfig"]


def attributes(name):
    return (*inspect.signature(ref.PAIRS[name][1]).parameters, *DERIVED.get(name, ()))


@st.composite
def calls(draw, name):
    """Arguments for one call of class ``name``, good or with one mistake: a
    bad value, a missing argument, a keyword-only one passed by position or
    an unknown keyword.  Each is passed by position where it may be, by
    keyword or, if it has a default, not at all."""
    params = list(inspect.signature(ref.PAIRS[name][1]).parameters.values())
    values = draw(GOOD[name])
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


def made(cls, call):
    args, kwargs = call
    return outcome(cls, *args, **kwargs)


def shape(value):
    """``value`` as comparable data: an instance of one of the twelve classes
    as its class name and attributes, containers element by element, and
    anything else as its type and value."""
    name = type(value).__name__
    if name in ref.PAIRS and type(value) in ref.PAIRS[name]:
        return name, tuple(shape(getattr(value, attr)) for attr in attributes(name))
    if type(value) is dict:
        return dict, {key: shape(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(shape, value))
    if isinstance(value, (set, frozenset)):
        return type(value), frozenset(map(shape, value))
    if type(value) is float and math.isnan(value):  # one NaN equals another copy of it
        return float, "nan"
    return type(value), value


def pickled(obj):
    return shape(pickle.loads(pickle.dumps(obj)))


def hashed(obj):
    ok, value = outcome(hash, obj)
    return ok, ("identity" if ok and value == object.__hash__(obj) else value)


@FUZZ
@pytest.mark.parametrize("name", list(ref.PAIRS))
@given(data=st.data())
def test_a_class_behaves_as_its_dataclass_reference(name, data):
    library, reference = ref.PAIRS[name]
    first, second = data.draw(calls(name)), data.draw(calls(name))
    ours, theirs = made(library, first), made(reference, first)
    if not (ours[0] and theirs[0]):
        assert ours == theirs  # the same exception type and message
        return
    ours, theirs = ours[1], theirs[1]
    assert shape(ours) == shape(theirs)
    assert outcome(repr, ours) == outcome(repr, theirs)
    assert hashed(ours) == hashed(theirs)
    assert outcome(pickled, ours) == outcome(pickled, theirs)
    for call in (first, second):  # an equal instance, then perhaps another
        (ok, mine), (_, reference_one) = made(library, call), made(reference, call)
        if ok:
            assert outcome(operator.eq, ours, mine) == outcome(operator.eq, theirs, reference_one)
            assert outcome(operator.ne, ours, mine) == outcome(operator.ne, theirs, reference_one)


@FUZZ
@pytest.mark.parametrize("name", FROZEN)
@given(data=st.data())
def test_a_frozen_instance_refuses_assignment(name, data):
    ok, obj = made(ref.PAIRS[name][0], data.draw(calls(name)))
    if not ok:
        return
    before = shape(obj)
    for attr in (*attributes(name), "bogus"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field {attr!r}$"):
            setattr(obj, attr, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field {attr!r}$"):
            delattr(obj, attr)
    assert shape(obj) == before
