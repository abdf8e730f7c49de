"""Unfilled-pause detection in recorded audio.

Audio is reduced to per-frame RMS energy (10 ms frames by default).  A frame
counts as silent when its RMS falls at or below a noise-floor-relative
threshold: the floor is the 5th percentile of frame energies and the
threshold sits ``threshold_db`` decibels above it.  Because the threshold is
relative, detection is invariant to uniform gain changes.  Files with no
usable dynamic range between the 5th and 95th percentile (all speech, or all
silence) yield no pauses.

Only the functions that touch samples import numpy (``write_wav``,
``frame_energy``, ``detect_pauses`` and the block reader behind
``read_wav``), so the text-side commands never load it.

Silences shorter than ``min_silence_s`` are discarded: they cannot round to
a nonzero tenth of a second and are usually articulation.  A silence lying
strictly inside a single word span is the closure phase of a plosive, not a
genuine pause, and is dropped; when no word spans are available, short
silences flanked by speech are kept but flagged suspect.
"""

from __future__ import annotations

import math
import wave
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .jsonl import Field, Target, build, iter_jsonl, record_class, rows, validate, write_jsonl

POSITIONS = ("fragment_initial", "fragment_internal")


class UnsupportedFormat(Exception):
    """Audio input is not 16-bit linear PCM mono at a supported rate."""


#: The longest analysis frame, in ms.  A longer frame could not resolve
#: pauses reported to a tenth of a second, and the bound keeps the partial
#: frame carried between blocks under one second of samples.
MAX_FRAME_MS = 1000.0


def _check_frame_ms(frame_ms: float) -> None:
    if not 0.0 < frame_ms <= MAX_FRAME_MS:  # NaN fails too
        raise UnsupportedFormat(f"frame length {frame_ms} ms not in (0, {MAX_FRAME_MS:g}] ms")


class BadPauseConfig(ValueError):
    """A PauseConfig value is unusable; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class PauseConfig:
    """Detection settings: ``threshold_db`` and ``min_silence_s`` must be
    finite and ``frame_ms`` must lie in (0, ``MAX_FRAME_MS``]."""

    threshold_db: float = 10.0
    min_silence_s: float = 0.05
    frame_ms: float = 10.0

    def __post_init__(self) -> None:
        for field in ("threshold_db", "min_silence_s"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise BadPauseConfig(field, f"{value} is not a finite number")
        try:
            _check_frame_ms(self.frame_ms)
        except UnsupportedFormat as exc:
            raise BadPauseConfig("frame_ms", str(exc)) from None


DEFAULT_CONFIG = PauseConfig()


def round_tenth(x: float) -> float:
    """Round to the nearest 0.1 s, ties away from zero.

    The 1e-9 guard absorbs binary representation error so values annotated
    as exact tenths (for example 0.35) round up as intended.
    """
    return math.floor(x * 10.0 + 0.5 + 1e-9) / 10.0


PAUSE_FIELDS = (
    Field("start_s", float),
    Field("raw_duration_s", float, minimum=0.0),
    Field("reported_duration_s", float, None, minimum=0.0),  # absent: raw_duration_s rounded
    Field("position", str, "fragment_internal", choices=POSITIONS),
    Field("suspect", bool, False),
)


@record_class(PAUSE_FIELDS)
class PauseRecord:
    """One measured unfilled pause.

    reported_duration_s is raw_duration_s rounded to the nearest tenth of a
    second (round_tenth); None derives it so, and any other value is
    rejected.  position is only ever read from a file: detection writes
    fragment_internal for every pause and nothing reassigns it, so ``stats
    --pauses`` on a detected file bins every pause as Internal.
    """

    def __post_init__(self) -> None:
        expected = round_tenth(self.raw_duration_s)
        if self.reported_duration_s is None:
            self.reported_duration_s = expected
        elif self.reported_duration_s != expected:
            raise ValueError(f"reported_duration_s {self.reported_duration_s} is not "
                             f"raw_duration_s {self.raw_duration_s} rounded to a tenth "
                             f"({expected})")

    @property
    def end_s(self) -> float:
        return self.start_s + self.raw_duration_s


@dataclass(frozen=True, eq=False)
class AudioFrameSeries:
    """Per-frame RMS energies over a mono signal."""

    sample_rate: int
    frame_ms: float
    energies: np.ndarray
    n_samples: int


#: Samples per block read from a WAV file (about 4 s at 16 kHz).
BLOCK_SAMPLES = 1 << 16


def frame_step(sample_rate: int, frame_ms: float) -> int:
    """Samples per frame of ``frame_ms`` ms, which must lie in (0, MAX_FRAME_MS]."""
    _check_frame_ms(frame_ms)
    step = int(round(sample_rate * frame_ms / 1000.0))
    if step < 1:
        raise UnsupportedFormat(f"frame length {frame_ms} ms too short at {sample_rate} Hz")
    return step


@contextmanager
def _wav_errors(path: str | Path) -> Iterator[None]:
    """Turn the errors of a malformed WAV into ``UnsupportedFormat``."""
    try:
        yield
    except (wave.Error, RuntimeError) as exc:  # RuntimeError: a chunk overruns the file
        raise UnsupportedFormat(f"{path}: not a readable PCM WAV ({exc})") from exc
    except EOFError as exc:
        raise UnsupportedFormat(f"{path}: truncated WAV") from exc


def read_wav(path: str | Path) -> tuple[Iterator[np.ndarray], int]:
    """Open a RIFF WAVE file as a stream of 16-bit sample blocks and its rate.

    The header is checked here: only 16-bit linear PCM mono at 8 kHz or more
    is accepted; stereo input is rejected rather than downmixed.  The blocks
    are ``<i2`` arrays of up to ``BLOCK_SAMPLES`` samples, read as they are
    consumed; a file holding fewer samples than its header declares is
    truncated.  The file is closed when the stream ends, fails or is dropped.
    """
    with _wav_errors(path):
        wav = wave.open(str(path), "rb")
    if wav.getnchannels() != 1:
        problem = f"mono required, got {wav.getnchannels()} channels"
    elif wav.getsampwidth() != 2:
        problem = "16-bit linear PCM required"
    elif wav.getcomptype() != "NONE":
        problem = "compressed WAV not supported"
    elif wav.getframerate() < 8000:
        problem = f"sample rate {wav.getframerate()} below 8000 Hz"
    else:
        return _blocks(wav, path), wav.getframerate()
    wav.close()
    raise UnsupportedFormat(f"{path}: {problem}")


def _blocks(wav: wave.Wave_read, path: str | Path) -> Iterator[np.ndarray]:
    import numpy as np
    with wav:
        read = 0
        while True:
            with _wav_errors(path):
                raw = wav.readframes(BLOCK_SAMPLES)
            if not raw:
                break
            if len(raw) % 2:  # the stream ends in half a sample
                raise UnsupportedFormat(f"{path}: truncated WAV")
            block = np.frombuffer(raw, dtype="<i2")
            read += len(block)
            yield block
        if read < wav.getnframes():
            raise UnsupportedFormat(f"{path}: truncated WAV")


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write float samples in [-1, 1] as 16-bit PCM mono (test fixtures, demos)."""
    import numpy as np
    clipped = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    ints = (clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(ints.tobytes())


def frame_energy(samples: np.ndarray | Iterator[np.ndarray], sample_rate: int,
                 frame_ms: float = 10.0) -> AudioFrameSeries:
    """RMS energy per non-overlapping frame (default 10 ms frame and hop).

    ``samples`` is one array, or an iterator of 1-D blocks such as
    ``read_wav`` yields; integer samples are 16-bit PCM.  A frame that spans
    two blocks is carried over, and only the energies are kept, so memory
    beyond the current block is 8 bytes per frame.  ``frame_ms`` must lie in
    (0, ``MAX_FRAME_MS``] and span at least one sample (see ``frame_step``).
    """
    import numpy as np
    if sample_rate < 8000:
        raise UnsupportedFormat(f"sample rate {sample_rate} below 8000 Hz")
    step = frame_step(sample_rate, frame_ms)
    blocks = samples if isinstance(samples, Iterator) else (samples,)
    parts = [np.empty(0)]
    carry = np.empty(0)
    n = 0
    for block in blocks:
        block = np.asarray(block)
        if block.ndim != 1:
            raise UnsupportedFormat("mono PCM required (1-D sample array)")
        if np.issubdtype(block.dtype, np.integer):
            block = block.astype(np.float64) / 32768.0
        else:
            block = block.astype(np.float64)
        n += len(block)
        if len(carry):
            block = np.concatenate((carry, block))
        full = len(block) // step
        chunk = block[:full * step].reshape(full, step)
        parts.append(np.sqrt(np.mean(chunk * chunk, axis=1)))
        carry = block[full * step:]
    if len(carry):
        parts.append(np.array([math.sqrt(float(np.mean(carry * carry)))]))
    return AudioFrameSeries(sample_rate=sample_rate, frame_ms=frame_ms,
                            energies=np.concatenate(parts), n_samples=n)


def detect_pauses(frames: AudioFrameSeries,
                  word_spans: Sequence[tuple[float, float]] | None = None,
                  config: PauseConfig = DEFAULT_CONFIG) -> list[PauseRecord]:
    """Find maximal silent runs and report them as pauses.

    Returns records ordered by start time; an empty list when the signal has
    no detectable silence.
    """
    import numpy as np
    e = frames.energies
    if len(e) == 0:
        return []
    floor = float(np.percentile(e, 5))
    speech_ref = float(np.percentile(e, 95))
    try:
        threshold = floor * 10.0 ** (config.threshold_db / 20.0)
    except OverflowError:  # a threshold beyond float range lies above any speech
        return []
    if threshold >= speech_ref:
        return []

    step = frame_step(frames.sample_rate, frames.frame_ms)
    silent = np.concatenate(([False], e <= threshold, [False]))
    edges = np.flatnonzero(silent[1:] != silent[:-1]).tolist()
    records: list[PauseRecord] = []
    for i, j in zip(edges[0::2], edges[1::2]):  # silent frames i .. j - 1
        start_s = i * step / frames.sample_rate
        end_sample = min(j * step, frames.n_samples)
        raw = end_sample / frames.sample_rate - start_s
        if raw + 1e-12 < config.min_silence_s:
            continue
        if word_spans is not None and _inside_one_word(start_s, start_s + raw, word_spans):
            continue
        suspect = (word_spans is None and raw < 0.15
                   and start_s > 0 and end_sample < frames.n_samples)
        records.append(PauseRecord(start_s=start_s, raw_duration_s=raw, suspect=suspect))
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
    write_jsonl(target, rows(PAUSE_FIELDS, records))


def read_pauses(path: str | Path) -> list[PauseRecord]:
    return [build(PauseRecord, row, path, lineno)
            for lineno, row in validate(iter_jsonl(path), PAUSE_FIELDS, path)]
