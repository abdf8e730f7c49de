"""Reference value classes: the dataclass definitions the package once used.

``record_class`` here is the dataclass-based one: it declares a dataclass of
the table's fields and compiles the record check into its
``__post_init__``.  ``records`` applies it to each library record's table
and its class's own hook.  The eight hand-declared classes are kept as they
were declared, over the library's own rules and helpers.  They serve only
as the oracle the differential tests compare ``pausecue``'s classes against.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from pausecue import classifier, focus, fragments, lexicon, pauses
from pausecue.classifier import IN_RANGE, ROW_KEYS, SETTING_KEYS, TABLE_ROWS
from pausecue.focus import MalformedOperation, OpKind
from pausecue.jsonl import _HELPERS, MAX_MAGNITUDE, REQUIRED, _define, _field_tests
from pausecue.pauses import BadPauseConfig, UnsupportedFormat, _check_frame_ms


def record_class(table, *, frozen=False, convert=None):
    table = tuple(table)

    def make(cls):
        rules = vars(cls).get("__post_init__")
        env = {**_HELPERS, "path": None, "lineno": 0, "_rules": rules}
        kw_only, lines = False, ["def f(self):"]
        for i, fld in enumerate(table):
            name, kind, default = fld.name, fld.kind, fld.default
            kw_only = kw_only or default is not REQUIRED
            setattr(cls, name, dataclasses.field(
                default=dataclasses.MISSING if default is REQUIRED else default, kw_only=kw_only))
            test, domain = _field_tests(i, fld, env, f"v{i}")
            if kind is float:  # reached only by an int that _reject widened
                test.append(f"    _set(self, {name!r}, v{i})")
            body = [*test, *domain] if kind in (str, int, float, bool) else domain
            if body:
                lines.append(f"    v{i} = self.{name}")
                if default is None:
                    lines.append(f"    if v{i} is not None:")
                indent = "        " if default is None else "    "
                lines += [indent + line for line in body]
        lines.append("    return None" if rules is None else "    _rules(self)")
        cls.__annotations__ = {fld.name: fld.kind for fld in table}
        cls.__post_init__ = _define(lines, env)
        cls._record = (frozen, rules, convert or {})
        return dataclasses.dataclass(cls, frozen=frozen)
    return make


def _reference_record(cls, table):
    frozen, rules, convert = cls._record
    body = {"__post_init__": rules, "__qualname__": cls.__qualname__}
    return record_class(table, frozen=frozen, convert=convert)(type(cls.__name__, (), body))


AnnotatedToken = _reference_record(fragments.AnnotatedToken, fragments.TOKEN_FIELDS)
CodedRecord = _reference_record(fragments.CodedRecord, fragments.CODED_FIELDS)
PauseRecord = _reference_record(pauses.PauseRecord, pauses.PAUSE_FIELDS)
CueEntry = _reference_record(lexicon.CueEntry, lexicon.ENTRY_FIELDS)


@dataclass(frozen=True)
class FocusingOperation:
    kind: OpKind
    pop_count: int = 0
    pushes: int = field(init=False, repr=False, compare=False)  # 1 for Initiate and Replace

    def __post_init__(self) -> None:
        if not isinstance(self.kind, OpKind):
            raise MalformedOperation(f"unknown operation kind {self.kind!r}")
        if self.kind in (OpKind.INITIATE, OpKind.RETAIN):
            if self.pop_count != 0:
                raise MalformedOperation(f"{self.kind.value} must have pop_count 0, "
                                         f"got {self.pop_count}")
        elif self.pop_count < 1:
            raise MalformedOperation(f"{self.kind.value} must have pop_count >= 1, "
                                     f"got {self.pop_count}")
        object.__setattr__(self, "pushes", int(self.kind in (OpKind.INITIATE, OpKind.REPLACE)))


@dataclass(frozen=True, slots=True)
class FocusSpace:
    id: int
    dsp_label: str = ""
    opened_at: int = 0
    closed_at: int | None = None

    def __post_init__(self) -> None:
        if type(self.id) is not int:
            raise MalformedOperation(f"space id {self.id!r} is not an int")
        if self.closed_at is not None and self.closed_at <= self.opened_at:
            raise MalformedOperation(
                f"space {self.id}: closed_at {self.closed_at} must exceed "
                f"opened_at {self.opened_at}")


@dataclass(frozen=True)
class FocusStack:
    spaces: tuple = ()
    next_id: int = 0

    def __post_init__(self) -> None:
        if type(self.next_id) is not int:
            raise MalformedOperation(f"stack next_id {self.next_id!r} is not an int")
        spaces = tuple(self.spaces)
        for i, space in enumerate(spaces):
            if not isinstance(space, focus.FocusSpace):
                raise MalformedOperation(f"stack space {i} is not a FocusSpace")
            if i and not spaces[i - 1].id < space.id:
                raise MalformedOperation(f"stack space {i} has id {space.id!r}, "
                                         f"not above {spaces[i - 1].id!r}")
        if spaces and not spaces[-1].id < self.next_id:
            raise MalformedOperation(f"stack next_id {self.next_id!r} is not above "
                                     f"the top id {spaces[-1].id!r}")
        link = None
        for space in spaces:
            link = (space, link)
        object.__setattr__(self, "spaces", spaces)
        object.__setattr__(self, "link", link)
        object.__setattr__(self, "depth", len(spaces))


@dataclass(frozen=True)
class PauseConfig:
    threshold_db: float = 10.0
    min_silence_s: float = 0.05
    frame_ms: float = 10.0

    def __post_init__(self) -> None:
        for name in ("threshold_db", "min_silence_s"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise BadPauseConfig(name, f"{value} is not a finite number")
        try:
            _check_frame_ms(self.frame_ms)
        except UnsupportedFormat as exc:
            raise BadPauseConfig("frame_ms", str(exc)) from None


@dataclass(frozen=True, eq=False)
class AudioFrameSeries:
    sample_rate: int
    frame_ms: float
    energies: object
    n_samples: int


@dataclass(frozen=True)
class SpeechFragment:
    index: int
    tokens: tuple
    initial_token_class: str
    initial_cue: object
    pause_before_s: float
    speaker: str = field(init=False, repr=False, compare=False)
    features: fragments.TokenFeatures = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("fragment must hold at least one token")
        if self.initial_token_class not in fragments.INITIAL_CLASSES:
            raise ValueError(f"bad initial class {self.initial_token_class!r}")
        object.__setattr__(self, "speaker", self.tokens[0].speaker)
        object.__setattr__(self, "features", fragments._token_features(self.tokens))


@dataclass(frozen=True)
class EvidenceItem:
    source: str
    feature: str
    weight: float = 1.0
    primitive: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.source, self.feature) not in TABLE_ROWS:
            raise ValueError(f"unknown evidence row ({self.source}, {self.feature})")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if not self.weight <= MAX_MAGNITUDE:  # also NaN
            raise ValueError(f"weight {IN_RANGE}")
        object.__setattr__(self, "primitive", TABLE_ROWS[(self.source, self.feature)][1])
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class ClassifierConfig:
    weights: dict = field(default_factory=dict)
    candidate_bonus: float = 2.0
    impending_bonus: float = 2.0
    lstar_threshold: float = 0.5
    items: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for key in self.weights:
            if key not in ROW_KEYS:
                raise ValueError(f"unknown weight key {key!r}")
        for key in SETTING_KEYS:
            if not -MAX_MAGNITUDE <= getattr(self, key) <= MAX_MAGNITUDE:
                raise ValueError(f"{key} {IN_RANGE}")
        object.__setattr__(self, "weights",
                           {key: float(self.weights.get(key, 1.0)) for key in ROW_KEYS})
        object.__setattr__(self, "items", {
            (source, feature): EvidenceItem(source, feature, self.weights[row_key])
            for (source, feature), (row_key, _) in TABLE_ROWS.items()})


#: Each library class and its reference, by the library class's name.
PAIRS = {cls.__name__: (getattr(module, cls.__name__), cls) for module, cls in (
    (fragments, AnnotatedToken), (fragments, CodedRecord), (pauses, PauseRecord),
    (lexicon, CueEntry), (focus, FocusingOperation), (focus, FocusSpace), (focus, FocusStack),
    (pauses, PauseConfig), (pauses, AudioFrameSeries), (fragments, SpeechFragment),
    (classifier, EvidenceItem), (classifier, ClassifierConfig))}
