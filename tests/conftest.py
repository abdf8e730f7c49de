import importlib
import inspect
import math
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from pausecue import replication
from pausecue.focus import TRACE_FIELDS, operation_from_row
from pausecue.jsonl import iter_jsonl, validate

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src" / "pausecue"

#: The input fuzz runs the same bounded set of examples on every run.
settings.register_profile("fuzz", derandomize=True, database=None, deadline=None,
                          max_examples=150)


def rebuilt(obj, **changes):
    """A new object of ``obj``'s class, made by its constructor from ``obj``'s
    attributes of the constructor's parameter names, with ``changes``."""
    params = inspect.signature(type(obj)).parameters
    return type(obj)(**{**{name: getattr(obj, name) for name in params}, **changes})


def slots(cls):
    """The ``__slots__`` names of ``cls`` and of every class it inherits from."""
    return [name for owner in cls.__mro__ for name in vars(owner).get("__slots__", ())]


def state(obj):
    """Every attribute ``obj`` holds, by name: its fields, then what it derives
    from them (the slots that are not fields)."""
    held = [*type(obj)._fields, *slots(type(obj))]
    return {name: getattr(obj, name) for name in dict.fromkeys(held)}


def value_classes():
    """Every ``jsonl.Record`` subclass a module of ``src/pausecue`` defines, by
    name: the value classes, found by a walk rather than listed."""
    from pausecue.jsonl import Frozen, Record
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "pausecue" if path.stem == "__init__" else f"pausecue.{path.stem}")
        found.update((cls.__name__, cls) for cls in vars(module).values()
                     if isinstance(cls, type) and issubclass(cls, Record)
                     and cls.__module__ == module.__name__ and cls not in (Record, Frozen))
    return found


RATE = 16000
TONE_HZ = 400.0  # an integer number of cycles per 10 ms frame at 16 kHz


def build_signal(segments, rate=RATE, amplitude=0.15):
    """Concatenate ('tone', dur) / ('silence', dur) / ('noise', dur, amp) pieces."""
    rng = np.random.RandomState(7)
    parts = []
    for segment in segments:
        kind, duration = segment[0], segment[1]
        n = int(round(duration * rate))
        if kind == "tone":
            t = np.arange(n) / rate
            parts.append(amplitude * np.sin(2 * math.pi * TONE_HZ * t))
        elif kind == "silence":
            parts.append(np.zeros(n))
        elif kind == "noise":
            parts.append(segment[2] * rng.randn(n))
        else:
            raise ValueError(kind)
    return np.concatenate(parts) if parts else np.zeros(0)


def write_wav(path, samples, sample_rate):
    """Write float samples in [-1, 1] as 16-bit PCM mono."""
    ints = (np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(ints.tobytes())


def read_trace(path):
    """The (operation, fragment index) pairs of a trace file, as written by
    ``write_trace``."""
    return [(operation_from_row(row, path, lineno), row["index"])
            for lineno, row in validate(iter_jsonl(path), TRACE_FIELDS, path)]


@pytest.fixture
def make_wav(tmp_path):
    counter = {"n": 0}

    def _make(segments, rate=RATE, amplitude=0.15, gain=1.0):
        counter["n"] += 1
        path = tmp_path / f"fixture_{counter['n']}.wav"
        write_wav(path, gain * build_signal(segments, rate, amplitude), rate)
        return path

    return _make


@pytest.fixture(scope="session")
def bundled_corpus():
    return replication.load_bundled()


@pytest.fixture(scope="session")
def corpus_records(bundled_corpus):
    return bundled_corpus[0]


@pytest.fixture(scope="session")
def corpus_pauses(bundled_corpus):
    return bundled_corpus[1]
