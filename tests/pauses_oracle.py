"""Reference pause path: the whole-array reader and the linear scans it replaced.

``read_wav`` decodes a whole file into float samples, ``frame_energy``
reshapes one array, ``detect_pauses`` finds silent runs with a while-loop
and tests word spans one by one, and ``align_pauses`` scans every token
start for each pause.  Memory grows with the recording and alignment is
O(pauses x tokens); they serve only as the oracle the differential tests
compare ``pausecue.pauses`` and ``pausecue.fragments`` against.
"""

from __future__ import annotations

import math
import wave

import numpy as np

from pausecue.fragments import ALIGN_TOL, MisalignedPause
from pausecue.pauses import (DEFAULT_CONFIG, AudioFrameSeries, PauseRecord,
                             UnsupportedFormat, round_tenth)


def read_wav(path):
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
    except (wave.Error, RuntimeError) as exc:
        raise UnsupportedFormat(f"{path}: not a readable PCM WAV ({exc})") from exc
    except EOFError as exc:
        raise UnsupportedFormat(f"{path}: truncated WAV") from exc
    if len(raw) % 2:
        raise UnsupportedFormat(f"{path}: truncated WAV")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return samples, rate


def frame_energy(samples, sample_rate, frame_ms=10.0):
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


def detect_pauses(frames, word_spans=None, config=DEFAULT_CONFIG):
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
    records = []
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
        if word_spans is not None and inside_one_word(start_s, start_s + raw, word_spans):
            continue
        suspect = (word_spans is None and raw < 0.15
                   and start_s > 0 and end_sample < frames.n_samples)
        records.append(PauseRecord(start_s=start_s, raw_duration_s=raw,
                                   reported_duration_s=round_tenth(raw),
                                   suspect=suspect))
    return records


def inside_one_word(start_s, end_s, word_spans):
    for word_start, word_end in word_spans:
        if word_start < start_s and end_s < word_end:
            return True
    return False


def align_pauses(tokens, pauses):
    timed = [tok.start_s for tok in tokens]
    if any(t is None for t in timed):
        raise MisalignedPause("tokens carry no start_s timing; "
                              "cannot align detected pauses")
    aligned = {}
    for pause in pauses:
        best_i = min(range(len(tokens)), key=lambda i: abs(pause.end_s - timed[i]))
        if abs(pause.end_s - timed[best_i]) <= ALIGN_TOL:
            if best_i in aligned:
                raise MisalignedPause(
                    f"pauses at {aligned[best_i].start_s:.3f}s and {pause.start_s:.3f}s "
                    f"both align to the gap before {tokens[best_i].surface!r} "
                    f"(index {best_i})")
            aligned[best_i] = pause
            continue
        nearest = min(range(len(tokens)),
                      key=lambda i: min(abs(pause.start_s - timed[i]),
                                        abs(pause.end_s - timed[i])))
        raise MisalignedPause(
            f"pause at {pause.start_s:.3f}s ({pause.raw_duration_s:.3f}s) matches no "
            f"token gap; nearest token is {tokens[nearest].surface!r} "
            f"(index {nearest}, start {timed[nearest]:.3f}s)")
    return aligned
