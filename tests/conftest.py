import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from pausecue import replication
from pausecue.pauses import write_wav

FIXTURES = Path(__file__).parent / "fixtures"

#: The input fuzz runs the same bounded set of examples on every run.
settings.register_profile("fuzz", derandomize=True, database=None, deadline=None,
                          max_examples=150)

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
def corpus_records():
    return replication.build_records()


@pytest.fixture(scope="session")
def corpus_pauses():
    return replication.build_pauses()


@pytest.fixture(scope="session")
def bundled_corpus():
    return replication.load_bundled()
