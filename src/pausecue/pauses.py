"""Unfilled-pause detection in recorded audio.

Audio is reduced to per-frame RMS energy (10 ms frames by default).  A frame
counts as silent when its RMS falls at or below a noise-floor-relative
threshold: the floor is the 5th percentile of frame energies and the
threshold sits ``threshold_db`` decibels above it.  Because the threshold is
relative, detection is invariant to uniform gain changes.  Files with no
usable dynamic range between the 5th and 95th percentile (all speech, or all
silence) yield no pauses.

Silences shorter than ``min_silence_s`` are discarded: they cannot round to
a nonzero tenth of a second and are usually articulation.  A silence lying
strictly inside a single word span is the closure phase of a plosive, not a
genuine pause, and is dropped; when no word spans are available, short
silences flanked by speech are kept but flagged suspect.
"""

from __future__ import annotations

import math
import wave
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .jsonl import SCHEMA_VERSION, Field, Target, build, iter_jsonl, validate, write_jsonl

POSITIONS = ("fragment_initial", "fragment_internal")


class UnsupportedFormat(Exception):
    """Audio input is not 16-bit linear PCM mono at a supported rate."""


@dataclass(frozen=True)
class PauseConfig:
    threshold_db: float = 10.0
    min_silence_s: float = 0.05
    frame_ms: float = 10.0


DEFAULT_CONFIG = PauseConfig()


def round_tenth(x: float) -> float:
    """Round to the nearest 0.1 s, ties away from zero.

    The 1e-9 guard absorbs binary representation error so values annotated
    as exact tenths (for example 0.35) round up as intended.
    """
    return math.floor(x * 10.0 + 0.5 + 1e-9) / 10.0


@dataclass
class PauseRecord:
    """One measured unfilled pause.

    reported_duration_s is raw_duration_s rounded to the nearest tenth of a
    second.  position is assigned downstream by alignment against fragment
    boundaries; detection itself labels every pause fragment_internal.
    """

    start_s: float
    raw_duration_s: float
    reported_duration_s: float
    position: str = "fragment_internal"
    suspect: bool = False

    def __post_init__(self) -> None:
        if self.position not in POSITIONS:
            raise ValueError(f"bad pause position {self.position!r}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.raw_duration_s

    def to_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}


PAUSE_FIELDS = (
    Field("start_s", float),
    Field("raw_duration_s", float),
    Field("reported_duration_s", float, None),  # absent: raw_duration_s rounded
    Field("position", str, "fragment_internal"),
    Field("suspect", bool, False),
)


@dataclass(frozen=True, eq=False)
class AudioFrameSeries:
    """Per-frame RMS energies over a mono signal."""

    sample_rate: int
    frame_ms: float
    energies: np.ndarray
    n_samples: int


def read_wav(path: str | Path) -> tuple[np.ndarray, int]:
    """Load a RIFF WAVE file as float samples in [-1, 1].

    Only 16-bit linear PCM mono is accepted; stereo input is rejected rather
    than downmixed.
    """
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getnchannels() != 1:
                raise UnsupportedFormat(f"{path}: mono required, "
                                        f"got {wav.getnchannels()} channels")
            if wav.getsampwidth() != 2:
                raise UnsupportedFormat(f"{path}: 16-bit linear PCM required")
            if wav.getcomptype() not in ("NONE",):
                raise UnsupportedFormat(f"{path}: compressed WAV not supported")
            rate = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except (wave.Error, RuntimeError) as exc:  # RuntimeError: a chunk overruns the file
        raise UnsupportedFormat(f"{path}: not a readable PCM WAV ({exc})") from exc
    except EOFError as exc:
        raise UnsupportedFormat(f"{path}: truncated WAV") from exc
    if len(raw) % 2:
        raise UnsupportedFormat(f"{path}: truncated WAV")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return samples, rate


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write float samples in [-1, 1] as 16-bit PCM mono (test fixtures, demos)."""
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    ints = (clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(ints.tobytes())


def frame_energy(samples: np.ndarray, sample_rate: int,
                 frame_ms: float = 10.0) -> AudioFrameSeries:
    """RMS energy per non-overlapping frame (default 10 ms frame and hop)."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise UnsupportedFormat("mono PCM required (1-D sample array)")
    if sample_rate < 8000:
        raise UnsupportedFormat(f"sample rate {sample_rate} below 8000 Hz")
    if np.issubdtype(samples.dtype, np.integer):
        samples = samples.astype(np.float64) / 32768.0
    else:
        samples = samples.astype(np.float64)

    step = int(round(sample_rate * frame_ms / 1000.0))
    if step < 1:
        raise UnsupportedFormat(f"frame length {frame_ms} ms too short at {sample_rate} Hz")
    n = len(samples)
    n_frames = -(-n // step)  # ceil
    energies = np.empty(n_frames, dtype=np.float64)
    full = n // step
    if full:
        chunk = samples[:full * step].reshape(full, step)
        energies[:full] = np.sqrt(np.mean(chunk * chunk, axis=1))
    if full < n_frames:
        tail = samples[full * step:]
        energies[full] = math.sqrt(float(np.mean(tail * tail)))
    return AudioFrameSeries(sample_rate=sample_rate, frame_ms=frame_ms,
                            energies=energies, n_samples=n)


def detect_pauses(frames: AudioFrameSeries,
                  word_spans: Sequence[tuple[float, float]] | None = None,
                  config: PauseConfig = DEFAULT_CONFIG) -> list[PauseRecord]:
    """Find maximal silent runs and report them as pauses.

    Returns records ordered by start time; an empty list when the signal has
    no detectable silence.
    """
    e = frames.energies
    if len(e) == 0:
        return []
    floor = float(np.percentile(e, 5))
    speech_ref = float(np.percentile(e, 95))
    threshold = floor * 10.0 ** (config.threshold_db / 20.0)
    if threshold >= speech_ref:
        return []

    step = int(round(frames.sample_rate * frames.frame_ms / 1000.0))
    silent = e <= threshold
    records: list[PauseRecord] = []
    i = 0
    n = len(e)
    while i < n:
        if not silent[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and silent[j + 1]:
            j += 1
        start_s = i * step / frames.sample_rate
        end_sample = min((j + 1) * step, frames.n_samples)
        raw = end_sample / frames.sample_rate - start_s
        i = j + 1
        if raw + 1e-12 < config.min_silence_s:
            continue
        if word_spans is not None and _inside_one_word(start_s, start_s + raw, word_spans):
            continue
        suspect = (word_spans is None and raw < 0.15
                   and start_s > 0 and end_sample < frames.n_samples)
        records.append(PauseRecord(start_s=start_s, raw_duration_s=raw,
                                   reported_duration_s=round_tenth(raw),
                                   suspect=suspect))
    return records


def _inside_one_word(start_s: float, end_s: float,
                     word_spans: Sequence[tuple[float, float]]) -> bool:
    for word_start, word_end in word_spans:
        if word_start < start_s and end_s < word_end:
            return True
    return False


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_pauses(target: Target, records: Iterable[PauseRecord]) -> None:
    write_jsonl(target, (rec.to_dict() for rec in records))


def read_pauses(path: str | Path) -> list[PauseRecord]:
    records = []
    for lineno, row in validate(iter_jsonl(path), PAUSE_FIELDS, path):
        if row["reported_duration_s"] is None:
            row["reported_duration_s"] = round_tenth(row["raw_duration_s"])
        records.append(build(PauseRecord, row, path, lineno))
    return records
