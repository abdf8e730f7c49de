"""Frame energies, silence detection, rounding and the plosive exclusion."""

import gc
import math
import re
import tracemalloc
import warnings
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pauses_oracle as oracle
from conftest import RATE, TONE_HZ, build_signal
from pausecue import pauses
from pausecue.pauses import (AudioFrameSeries, PauseConfig, PauseRecord, UnsupportedFormat,
                             detect_pauses, frame_energy, read_pauses, read_wav,
                             round_tenth, write_pauses, write_wav)


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("raw,expected", [
    (0.42, 0.4), (0.18, 0.2), (0.90, 0.9), (2.0, 2.0),
    (0.04, 0.0), (0.06, 0.1),
    (0.15, 0.2), (0.25, 0.3), (0.35, 0.4), (0.45, 0.5),  # ties round up
    (0.4499, 0.4),
])
def test_round_tenth(raw, expected):
    assert round_tenth(raw) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# frame_energy
# ---------------------------------------------------------------------------

def test_silence_gives_zero_energies():
    frames = frame_energy(np.zeros(RATE), RATE)
    assert len(frames.energies) == 100
    assert not frames.energies.any()


def test_full_scale_sine_is_stationary():
    t = np.arange(RATE) / RATE
    frames = frame_energy(np.sin(2 * math.pi * TONE_HZ * t), RATE)
    assert len(frames.energies) == 100
    assert frames.energies.max() / frames.energies.min() < 1.01


def test_energies_match_bruteforce_rms():
    samples = build_signal([("tone", 0.35), ("silence", 0.2), ("noise", 0.25, 0.02)])
    frames = frame_energy(samples, RATE)
    step = 160
    for i in range(len(frames.energies)):
        chunk = samples[i * step:(i + 1) * step]
        expected = math.sqrt(float(np.mean(chunk * chunk)))
        if expected == 0.0:
            assert frames.energies[i] == 0.0
        else:
            assert abs(frames.energies[i] - expected) <= 1e-6 * expected


def test_partial_final_frame():
    samples = np.ones(RATE + 80) * 0.5
    frames = frame_energy(samples, RATE)
    assert len(frames.energies) == 101
    assert frames.energies[-1] == pytest.approx(0.5)
    assert frames.n_samples == RATE + 80


def test_frame_energy_rejects_bad_input():
    with pytest.raises(UnsupportedFormat):
        frame_energy(np.zeros((100, 2)), RATE)
    with pytest.raises(UnsupportedFormat):
        frame_energy(np.zeros(100), 4000)
    with pytest.raises(UnsupportedFormat, match="mono"):
        frame_energy(iter([np.zeros(100, dtype="<i2"), np.zeros((4, 2), dtype="<i2")]), RATE)


@pytest.mark.parametrize("frame_ms", [math.nan, math.inf, -math.inf, 1e308, 1e300, -1e308,
                                      1000.5, 0.0, -5.0, 0.01])
def test_frame_energy_rejects_frame_outside_bound(frame_ms):
    with pytest.raises(UnsupportedFormat, match="^frame length "):
        frame_energy(np.zeros(100), RATE, frame_ms)


def test_longest_frame():
    frames = frame_energy(np.full(RATE + 5, 0.5), RATE, pauses.MAX_FRAME_MS)
    assert len(frames.energies) == 2
    assert frames.energies[0] == pytest.approx(0.5)


@pytest.mark.parametrize("field, message", [
    ("threshold_db", "nan is not a finite number"),
    ("min_silence_s", "nan is not a finite number"),
    ("frame_ms", "frame length nan ms not in (0, 1000] ms"),
])
def test_config_rejects_nan(field, message):
    with pytest.raises(pauses.BadPauseConfig) as raised:
        PauseConfig(**{field: math.nan})
    assert (raised.value.field, str(raised.value)) == (field, message)


def test_threshold_beyond_float_range_finds_no_pause():
    frames = frame_energy(build_signal([("tone", 0.4), ("silence", 0.3), ("tone", 0.4)]), RATE)
    assert detect_pauses(frames, config=PauseConfig(threshold_db=1e308)) == []
    assert len(detect_pauses(frames, config=PauseConfig(threshold_db=-1e308))) == 1


def pcm(n, seed=0):
    """``n`` random 16-bit samples, with runs of digital silence."""
    rng = np.random.default_rng(seed)
    samples = rng.integers(-2000, 2000, size=n).astype("<i2")
    samples[n // 3:n // 2] = 0
    return samples


def split(samples, sizes):
    """Blocks of ``samples`` with the given sizes, cycled; the rest in the last block."""
    blocks, at, k = [], 0, 0
    while at < len(samples) and sizes:
        blocks.append(samples[at:at + sizes[k % len(sizes)]])
        at += sizes[k % len(sizes)]
        k += 1
    return blocks + [samples[at:]]


def assert_same_frames(got, expected):
    assert got.energies.dtype == expected.energies.dtype
    assert got.energies.tobytes() == expected.energies.tobytes()
    assert got.n_samples == expected.n_samples
    assert (got.sample_rate, got.frame_ms) == (expected.sample_rate, expected.frame_ms)


@pytest.mark.parametrize("frame_ms", [7.0, 10.0, 25.0, 33.3])
def test_block_energies_equal_whole_array(frame_ms):
    # 0 samples, fewer than one frame, an exact multiple of the step, and
    # lengths with a partial last frame; block sizes not multiples of the step
    step = int(round(RATE * frame_ms / 1000.0))
    for n in (0, step - 1, 40 * step, 40 * step + 7, RATE * 3 + 11):
        samples = pcm(n)
        expected = oracle.frame_energy(samples.astype(np.float64) / 32768.0, RATE, frame_ms)
        for sizes in ([1000], [step + 1], [4096, 3, 0, 517], [RATE * 4]):
            got = frame_energy(iter(split(samples, sizes)), RATE, frame_ms)
            assert_same_frames(got, expected)
        assert_same_frames(frame_energy(samples, RATE, frame_ms), expected)


@given(st.integers(0, 5000), st.lists(st.integers(0, 900), max_size=8),
       st.sampled_from([7.0, 10.0, 25.0, 33.3]), st.booleans())
@settings(settings.get_profile("fuzz"), max_examples=60)
def test_any_block_boundaries_give_same_energies(n, sizes, frame_ms, as_float):
    samples = pcm(n, seed=n)
    if as_float:
        samples = samples / 32768.0
    expected = oracle.frame_energy(samples, RATE, frame_ms)
    assert_same_frames(frame_energy(iter(split(samples, sizes)), RATE, frame_ms), expected)


@pytest.mark.parametrize("block", [1000, 1601, 65536])
def test_streamed_wav_equals_whole_file(tmp_path, monkeypatch, block):
    path = tmp_path / "speech.wav"
    write_wav(path, build_signal([("tone", 0.35), ("silence", 0.42), ("noise", 0.3, 0.01),
                                  ("tone", 0.33)]), RATE)
    monkeypatch.setattr(pauses, "BLOCK_SAMPLES", block)
    for frame_ms in (7.0, 10.0, 33.3):
        assert_same_frames(frame_energy(*read_wav(path), frame_ms=frame_ms),
                           oracle.frame_energy(*oracle.read_wav(path), frame_ms=frame_ms))


def test_frame_energy_memory_does_not_grow_with_length(tmp_path):
    second = build_signal([("tone", 0.7), ("silence", 0.3)])
    peaks = []
    for minutes in (1, 4):
        path = tmp_path / f"{minutes}min.wav"
        write_wav(path, np.tile(second, 60 * minutes), RATE)
        tracemalloc.start()
        try:
            frames = frame_energy(*read_wav(path))
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        assert len(frames.energies) == 6000 * minutes
    # the 4-minute WAV holds 7.3 MB of samples; only its 24,000 energies are kept
    assert peaks[1] < 4.0, peaks
    assert peaks[1] - peaks[0] < 0.5, peaks


# ---------------------------------------------------------------------------
# wav io
# ---------------------------------------------------------------------------

def test_read_wav_roundtrip(tmp_path):
    path = tmp_path / "tone.wav"
    signal = build_signal([("tone", 0.5)])
    write_wav(path, signal, RATE)
    blocks, rate = read_wav(path)
    assert rate == RATE
    samples = np.concatenate(list(blocks))
    assert samples.dtype == np.dtype("<i2")
    assert np.abs(samples / 32768.0 - signal).max() < 1e-3  # 16-bit quantization


def test_read_wav_rejects_stereo(tmp_path):
    import wave
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as fp:
        fp.setnchannels(2)
        fp.setsampwidth(2)
        fp.setframerate(RATE)
        fp.writeframes(b"\x00\x00" * 200)
    with pytest.raises(UnsupportedFormat, match="mono"):
        read_wav(path)


def test_read_wav_rejects_garbage(tmp_path):
    path = tmp_path / "empty.wav"
    path.write_bytes(b"")
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


@pytest.mark.parametrize("error,message", [(EOFError, "truncated WAV"),
                                           (RuntimeError, "not a readable PCM WAV")])
def test_errors_after_the_first_block_are_unsupported_format(tmp_path, monkeypatch,
                                                            error, message):
    path = tmp_path / "long.wav"
    write_wav(path, np.zeros(3 * pauses.BLOCK_SAMPLES), RATE)
    blocks, _ = read_wav(path)
    next(blocks)

    def fail(self, n):
        raise error

    monkeypatch.setattr(wave.Wave_read, "readframes", fail)
    with pytest.raises(UnsupportedFormat, match="^" + re.escape(f"{path}: {message}")):
        next(blocks)


def test_dropped_stream_closes_file(tmp_path):
    path = tmp_path / "long.wav"
    write_wav(path, np.zeros(3 * pauses.BLOCK_SAMPLES), RATE)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        read_wav(path)                      # never started
        blocks, _ = read_wav(path)
        next(blocks)                        # left after the first block
        del blocks
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# ---------------------------------------------------------------------------
# detect_pauses
# ---------------------------------------------------------------------------

def detect(segments, **kw):
    samples = build_signal(segments)
    frames = frame_energy(samples, RATE)
    return detect_pauses(frames, **kw)


def test_single_inserted_silence():
    records = detect([("tone", 0.5), ("silence", 0.42), ("tone", 0.5)])
    assert len(records) == 1
    rec = records[0]
    assert rec.reported_duration_s == pytest.approx(0.4)
    assert rec.reported_duration_s == round_tenth(rec.raw_duration_s)
    assert abs(rec.raw_duration_s - 0.42) <= 0.05
    assert abs(rec.start_s - 0.5) <= 0.02


def test_continuous_tone_has_no_pauses():
    assert detect([("tone", 1.5)]) == []


def test_pure_silence_has_no_pauses():
    assert detect([("silence", 1.0)]) == []


def test_short_silence_below_min_is_dropped():
    assert detect([("tone", 0.5), ("silence", 0.03), ("tone", 0.5)]) == []


def test_word_internal_silence_excluded():
    # 0.06 s closure inside one word span; the 0.42 s gap between words stays
    segments = [("tone", 0.3), ("silence", 0.06), ("tone", 0.3),
                ("silence", 0.42), ("tone", 0.5)]
    spans = [(0.0, 0.66), (1.08, 1.58)]
    records = detect(segments, word_spans=spans)
    assert len(records) == 1
    assert records[0].reported_duration_s == pytest.approx(0.4)


def test_short_silence_without_spans_is_suspect():
    segments = [("tone", 0.3), ("silence", 0.06), ("tone", 0.3),
                ("silence", 0.42), ("tone", 0.5)]
    records = detect(segments)
    assert len(records) == 2
    assert records[0].suspect and records[0].reported_duration_s == pytest.approx(0.1)
    assert not records[1].suspect


def test_detection_invariant_under_gain():
    segments = [("noise", 0.4, 0.001), ("tone", 0.4), ("silence", 0.3),
                ("noise", 0.3, 0.001), ("tone", 0.4)]
    base = detect(segments)
    for gain_db in (-12.0, 12.0):
        gain = 10 ** (gain_db / 20)
        samples = gain * build_signal(segments)
        scaled = detect_pauses(frame_energy(samples, RATE))
        assert [(r.start_s, r.reported_duration_s) for r in scaled] == \
               [(r.start_s, r.reported_duration_s) for r in base]


FRAME_MS = [7.0, 10.0, 33.3]


@given(st.lists(st.tuples(st.booleans(), st.sampled_from([0.0, 1e-4, 0.05, 1.0])),
                max_size=200),
       st.sampled_from(FRAME_MS), st.integers(0, 1000),
       st.floats(0.0, 0.3), st.floats(0.0, 30.0),
       st.none() | st.lists(st.tuples(st.floats(-0.5, 2.5), st.floats(-0.5, 2.5)),
                            max_size=6))
@settings(settings.get_profile("fuzz"))
def test_detect_pauses_equals_while_loop(mask, frame_ms, short_by, min_silence,
                                         threshold_db, word_spans):
    # silent frames get a low energy, the others a high one, except where both are equal
    energies = np.array([level if silent else max(level, 0.5) for silent, level in mask])
    step = int(round(RATE * frame_ms / 1000.0))
    n_samples = max(len(energies) * step - short_by % step, 0)
    frames = AudioFrameSeries(sample_rate=RATE, frame_ms=frame_ms, energies=energies,
                              n_samples=n_samples)
    config = PauseConfig(threshold_db=threshold_db, min_silence_s=min_silence,
                         frame_ms=frame_ms)
    assert detect_pauses(frames, word_spans, config) == \
        oracle.detect_pauses(frames, word_spans, config)


def test_records_ordered_and_disjoint():
    records = detect([("tone", 0.3), ("silence", 0.2), ("tone", 0.3),
                      ("silence", 0.5), ("tone", 0.3), ("silence", 0.15),
                      ("tone", 0.3)])
    assert len(records) == 3
    for a, b in zip(records, records[1:]):
        assert a.end_s <= b.start_s


@given(st.lists(st.floats(min_value=0.08, max_value=0.6), min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_inserted_silences_recovered(durations):
    segments = [("tone", 0.3)]
    for duration in durations:
        duration = round(duration, 2)
        segments += [("silence", duration), ("tone", 0.3)]
    records = detect(segments)
    assert len(records) == len(durations)
    for record, duration in zip(records, durations):
        assert abs(record.raw_duration_s - round(duration, 2)) <= 0.05


def test_pause_jsonl_roundtrip(tmp_path):
    records = detect([("tone", 0.5), ("silence", 0.42), ("tone", 0.5)])
    path = tmp_path / "pauses.jsonl"
    write_pauses(path, records)
    again = read_pauses(path)
    assert [(r.start_s, r.raw_duration_s, r.reported_duration_s, r.position)
            for r in again] == \
           [(r.start_s, r.raw_duration_s, r.reported_duration_s, r.position)
            for r in records]


def test_pause_record_reported_duration_is_the_rounded_raw_one():
    assert PauseRecord(start_s=0.0, raw_duration_s=0.35, reported_duration_s=None) \
        .reported_duration_s == 0.4
    assert PauseRecord(start_s=0.0, raw_duration_s=0.35).reported_duration_s == 0.4
    with pytest.raises(ValueError, match=r"^reported_duration_s 9\.0 is not raw_duration_s "
                                         r"0\.2 rounded to a tenth \(0\.2\)$"):
        PauseRecord(start_s=0.0, raw_duration_s=0.2, reported_duration_s=9.0)
