"""Seeded input generators for the four benchmark workloads.

Every generator draws from a ``random.Random`` seeded with the workload
name and ``--seed`` and writes plain files; the program under test sees only
those files.  The same seed gives byte-identical files.  ``scale`` shrinks a
workload (the traced pass runs every workload at 0.25 as well, to fit
scaling exponents).

Sources, read from the checkout:

* ``tests/fixtures/directions_*.jsonl``: two annotated passages (56 tokens)
  that are tiled into transcripts;
* ``src/pausecue/data/replication_*.jsonl``: the bundled coded records and
  pause inventory whose cells seed the pooled statistics workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import wave
from pathlib import Path

import numpy as np

FIXTURES = ("tests/fixtures/directions_intro.jsonl",
            "tests/fixtures/directions_resume.jsonl")
RECORDS = "src/pausecue/data/replication_records.jsonl"
PAUSES = "src/pausecue/data/replication_pauses.jsonl"

#: Workload sizes at scale 1.  Chosen so that one untraced run of
#: ``--seconds`` completes twenty or more ops on every workload, enough for a
#: steady low latency quantile (see README.md).
SIZES = {
    "corpus_short": {"dialogues": 300, "tokens_per_dialogue": 400},
    "dialogue_long": {"tokens": 30_000},
    "stats_pooled": {"copies": 80},           # x 100 bundled records
    "recording_long": {"minutes": 5.0},
}

RATE = 16_000            # Hz
FRAME = RATE // 100      # samples per 10 ms analysis frame
TONE_AMPLITUDE = 0.15
NOISE_SIGMA = 0.001


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for row in rows:
            fp.write(json.dumps(row) + "\n")
        flush_to_disk(fp)


def flush_to_disk(fp) -> None:
    """Finish writing back the inputs before the timed loop starts."""
    fp.flush()
    os.fsync(fp.fileno())


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fp:
        for block in iter(lambda: fp.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def combined(digests: dict[str, str]) -> str:
    """One digest over many files' digests, in name order."""
    return hashlib.sha256("".join(f"{name}={value}\n" for name, value
                                  in sorted(digests.items())).encode()).hexdigest()


def tile(root: Path, rng: random.Random, n_tokens: int) -> tuple[list[dict], set[int]]:
    """Concatenate fixture passages in seeded order until n_tokens is reached.

    Returns the tokens (fresh dicts) and the indices where a passage starts.
    """
    passages = [read_jsonl(root / name) for name in FIXTURES]
    tokens: list[dict] = []
    starts: set[int] = set()
    while len(tokens) < n_tokens:
        starts.add(len(tokens))
        tokens.extend(dict(tok) for tok in passages[rng.randrange(len(passages))])
    return tokens, starts


def add_timing(tokens: list[dict], starts: set[int], rng: random.Random,
               extra_pause_rate: float) -> list[tuple[int, int]]:
    """Give every token a start/end on a 10 ms grid and jitter its pauses.

    Gaps are silences: annotated pauses are jittered by up to 40 ms, a
    passage boundary gets 0.3-0.8 s and a few other gaps get 60-300 ms.
    Every gap is at least 60 ms so that the detector, with its 50 ms
    minimum, reports each one.  Returns the planted silences as
    (start, length) in centiseconds.
    """
    silences = []
    t = 0
    for k, tok in enumerate(tokens):
        gap = 0
        if k > 0:
            annotated = round(tok.get("pause_before_s", 0.0) * 100)
            if k in starts:
                gap = rng.randint(30, 80)
            elif annotated:
                gap = max(6, annotated + rng.randint(-4, 4))
            elif rng.random() < extra_pause_rate:
                gap = rng.randint(6, 30)
        if gap:
            silences.append((t, gap))
        start = t + gap
        end = start + rng.randint(15, 40)
        tok["pause_before_s"] = gap / 100
        tok["start_s"] = start / 100
        tok["end_s"] = end / 100
        t = end
    return silences


def pause_rows(silences: list[tuple[int, int]]) -> list[dict]:
    return [{"start_s": start / 100, "raw_duration_s": length / 100}
            for start, length in silences]


def gen_corpus_short(root: Path, out: Path, rng: random.Random, scale: float) -> dict:
    size = SIZES["corpus_short"]
    n_tokens = max(60, int(size["tokens_per_dialogue"] * scale))
    dialogues = []
    for k in range(size["dialogues"]):
        tokens, starts = tile(root, rng, n_tokens)
        silences = add_timing(tokens, starts, rng, extra_pause_rate=0.03)
        transcript = out / f"d{k:03d}.jsonl"
        pauses = out / f"d{k:03d}.pauses.jsonl"
        write_jsonl(transcript, tokens)
        write_jsonl(pauses, pause_rows(silences))
        dialogues.append({"transcript": transcript.name, "pauses": pauses.name,
                          "tokens": len(tokens)})
    return {"dialogues": dialogues,
            "size": {"dialogues": len(dialogues),
                     "tokens": sum(d["tokens"] for d in dialogues)}}


def gen_dialogue_long(root: Path, out: Path, rng: random.Random, scale: float) -> dict:
    tokens, _ = tile(root, rng, int(SIZES["dialogue_long"]["tokens"] * scale))
    write_jsonl(out / "dialogue.jsonl", tokens)
    return {"transcript": "dialogue.jsonl", "size": {"tokens": len(tokens)}}


def gen_stats_pooled(root: Path, out: Path, rng: random.Random, scale: float) -> dict:
    """Bundled cells repeated, with 0.08 s Gaussian within-cell jitter."""
    copies = max(4, int(SIZES["stats_pooled"]["copies"] * scale))
    cells = read_jsonl(root / RECORDS)
    inventory = read_jsonl(root / PAUSES)
    records = []
    for _ in range(copies):
        for cell in cells:
            row = dict(cell)
            row["fragment_index"] = len(records)
            row["turn_position"] = "initiating" if not records else "continuing"
            row["pause_before_s"] = round(max(0.0, cell["pause_before_s"]
                                              + rng.gauss(0.0, 0.08)), 3)
            records.append(row)
    pauses = []
    for _ in range(copies):
        for cell in inventory:
            raw = round(max(0.0, cell["raw_duration_s"] + rng.gauss(0.0, 0.04)), 3)
            pauses.append({"start_s": float(len(pauses)), "raw_duration_s": raw,
                           "position": cell["position"]})
    write_jsonl(out / "pooled.coded.jsonl", records)
    write_jsonl(out / "pooled.pauses.jsonl", pauses)
    return {"coded": "pooled.coded.jsonl", "pauses": "pooled.pauses.jsonl",
            "size": {"records": len(records), "pauses": len(pauses)}}


def write_recording(path: Path, tokens: list[dict], total_cs: int,
                    np_rng: np.random.Generator) -> None:
    """Each token a tone, each gap silence, over a Gaussian noise floor.

    Written in one-minute blocks so the generator's memory stays small.
    """
    n_samples = total_cs * FRAME
    block = 60 * RATE
    spans = [(round(tok["start_s"] * 100) * FRAME, round(tok["end_s"] * 100) * FRAME,
              200.0 + 40.0 * (k % 5)) for k, tok in enumerate(tokens)]
    first = 0
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(RATE)
        for lo in range(0, n_samples, block):
            hi = min(lo + block, n_samples)
            signal = np_rng.normal(0.0, NOISE_SIGMA, hi - lo)
            while first < len(spans) and spans[first][1] <= lo:
                first += 1
            k = first
            while k < len(spans) and spans[k][0] < hi:
                a, b, hz = spans[k]
                s, e = max(a, lo), min(b, hi)
                idx = np.arange(s, e)
                signal[s - lo:e - lo] += TONE_AMPLITUDE * np.sin(2 * np.pi * hz * (idx - a) / RATE)
                k += 1
            wav.writeframes((np.clip(signal, -1.0, 1.0) * 32767.0).astype("<i2").tobytes())
    with open(path, "rb+") as fp:
        flush_to_disk(fp)


def gen_recording_long(root: Path, out: Path, rng: random.Random, scale: float) -> dict:
    target_cs = int(SIZES["recording_long"]["minutes"] * scale * 6000)
    # 0.32 s of speech and silence per token on average; over-tile, then cut
    # at the last token that ends inside the target length.
    tokens, starts = tile(root, rng, target_cs // 25)
    silences = add_timing(tokens, starts, rng, extra_pause_rate=0.03)
    keep = sum(1 for tok in tokens if round(tok["end_s"] * 100) <= target_cs)
    tokens = tokens[:keep]
    end_cs = round(tokens[-1]["end_s"] * 100)
    silences = [s for s in silences if s[0] + s[1] <= end_cs]
    write_jsonl(out / "recording.jsonl", tokens)
    write_recording(out / "recording.wav", tokens, end_cs, np.random.default_rng(rng.getrandbits(64)))
    return {"transcript": "recording.jsonl", "wav": "recording.wav",
            "silences": [[start / 100, length / 100] for start, length in silences],
            "size": {"tokens": len(tokens), "audio_s": end_cs / 100,
                     "silences": len(silences)}}


GENERATORS = {
    "corpus_short": gen_corpus_short,
    "dialogue_long": gen_dialogue_long,
    "stats_pooled": gen_stats_pooled,
    "recording_long": gen_recording_long,
}


def generate(workload: str, seed: int, root: Path, out: Path, scale: float = 1.0) -> dict:
    """Write one workload's inputs under ``out`` and return its manifest.

    The manifest names every input file, records the workload's size and the
    sha256 of every file written.
    """
    out.mkdir(parents=True, exist_ok=True)
    manifest = GENERATORS[workload](root, out, random.Random(f"{workload}:{seed}"), scale)
    manifest["workload"] = workload
    manifest["seed"] = seed
    manifest["scale"] = scale
    manifest["input_sha256"] = {p.name: sha256(p) for p in sorted(out.iterdir())}
    return manifest
