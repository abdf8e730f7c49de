"""Mutated fixtures through every subcommand: clean exits and located errors.

Each example takes one input file of one subcommand, changes a value, drops
a field or replaces a line (a byte, for the WAV), and runs the subcommand
through ``cli.main``.  Whatever the input, the run must end in exit 0, 1 or
2 without an exception, and an error that names an input file must name
the line as well.  A second test pairs timed transcripts with pause files
that may not align, and checks that the error names the record at fault.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import pauses_oracle
from conftest import FIXTURES, RATE, build_signal, write_wav
from pausecue.classifier import ROW_KEYS
from pausecue.cli import main
from pausecue.fragments import MisalignedPause, read_transcript
from pausecue.lexicon import DATA_DIR
from pausecue.pauses import read_pauses
from strategies import LABELS, VALUES


def _base_inputs() -> dict[str, bytes]:
    tokens = [json.loads(line) for line in
              (FIXTURES / "directions_intro.jsonl").read_text().splitlines()]
    for i, token in enumerate(tokens):
        token["start_s"], token["end_s"] = i * 0.5, i * 0.5 + 0.3
    gaps = [{"start_s": i * 0.5 - 0.2, "raw_duration_s": 0.2} for i in (3, 7, 12)]
    weights = ("# evidence-row weights\n" + "".join(f"{key} = 1\n" for key in ROW_KEYS)
               + "# bonuses and thresholds\n"
               "candidate_bonus = 2\nimpending_bonus = 2\nlstar_threshold = 0.5\n")
    with tempfile.TemporaryDirectory() as tmp:
        wav = Path(tmp) / "speech.wav"
        write_wav(wav, build_signal([("tone", 0.3), ("silence", 0.2), ("tone", 0.3)]), RATE)
        wav_bytes = wav.read_bytes()
    return {
        "transcript.jsonl": "".join(json.dumps(t) + "\n" for t in tokens).encode(),
        "gaps.jsonl": "".join(json.dumps(g) + "\n" for g in gaps).encode(),
        "functions.jsonl": b'{"fragment_index": 1, "prior": "closure", "subsequent": "repair"}\n'
                           b'{"fragment_index": 2, "prior": "repair"}\n',
        "lexicon.jsonl": (DATA_DIR / "lexicon.jsonl").read_bytes(),
        "weights.conf": weights.encode(),
        "replication_records.jsonl": (DATA_DIR / "replication_records.jsonl").read_bytes(),
        "replication_pauses.jsonl": (DATA_DIR / "replication_pauses.jsonl").read_bytes(),
        "speech.wav": wav_bytes,
    }


BASE = _base_inputs()

TEXT_SIDE = ["transcript.jsonl", "gaps.jsonl", "functions.jsonl", "lexicon.jsonl",
             "weights.conf"]
COMMANDS = {
    "segment": TEXT_SIDE,
    "code": TEXT_SIDE,
    "stats": ["replication_records.jsonl", "replication_pauses.jsonl"],
    "replicate": ["replication_records.jsonl", "replication_pauses.jsonl"],
    "pauses": ["speech.wav"],
}

def _mutate_jsonl(data, content: bytes) -> bytes:
    lines = content.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["set", "set", "set", "delete", "replace"]))
    if how == "replace":
        lines[i] = data.draw(st.binary(max_size=12)) + b"\n"
        return b"".join(lines)
    obj = json.loads(lines[i])
    if not obj:
        return content
    key = data.draw(st.sampled_from(sorted(obj) + ["extra"]))
    if how == "delete":
        obj.pop(key, None)
    elif isinstance(obj.get(key), dict) and obj[key] and data.draw(st.booleans()):
        obj[key][data.draw(st.sampled_from(sorted(obj[key])))] = data.draw(VALUES)
    else:
        obj[key] = data.draw(VALUES)
    lines[i] = (json.dumps(obj) + "\n").encode()
    return b"".join(lines)


def _mutate_weights(data, content: bytes) -> bytes:
    lines = content.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    key = data.draw(st.sampled_from([*LABELS, *ROW_KEYS, "candidate_bonus", "lstar_threshold"]))
    value = data.draw(st.one_of(st.floats().map(repr), st.integers().map(str),
                                st.text(max_size=4)))
    line = data.draw(st.sampled_from([f"{key} = {value}".encode(), b"\xff = 1", b"x"]))
    lines[i] = line + b"\n"
    return b"".join(lines)


def _mutate_wav(data, content: bytes) -> bytes:
    at = data.draw(st.one_of(st.integers(0, 47), st.integers(0, len(content) - 1)))
    if data.draw(st.booleans()):
        return content[:at]
    return content[:at] + bytes([data.draw(st.integers(0, 255))]) + content[at + 1:]


def _argv(command: str, paths: dict[str, Path], out: Path) -> list[str]:
    if command == "pauses":
        return ["pauses", str(paths["speech.wav"]), "--out", str(out)]
    if command == "stats":
        return ["stats", str(paths["replication_records.jsonl"]),
                "--pauses", str(paths["replication_pauses.jsonl"]), "--format", "json"]
    if command == "replicate":
        return ["replicate", "--corpus", str(out.parent)]
    return [command, str(paths["transcript.jsonl"]), "--pauses", str(paths["gaps.jsonl"]),
            "--functions", str(paths["functions.jsonl"]),
            "--lexicon", str(paths["lexicon.jsonl"]),
            "--weights", str(paths["weights.conf"]), "--out", str(out)]


@settings(settings.get_profile("fuzz"))
@given(data=st.data())
def test_mutated_inputs_exit_cleanly(data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    target = data.draw(st.sampled_from(COMMANDS[command]))
    mutate = (_mutate_wav if target.endswith(".wav") else
              _mutate_weights if target.endswith(".conf") else _mutate_jsonl)
    files = {**BASE, target: mutate(data, BASE[target])}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in files}
        for name, content in files.items():
            paths[name].write_bytes(content)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(_argv(command, paths, Path(tmp) / "out"))
        output = sink.getvalue()
    assert code in (0, 1, 2), output
    if code == 2:
        error = output[output.index("error: "):]
        named = [path for path in paths.values() if error.startswith(f"error: {path}")]
        assert named, error
        for path in named:
            if not path.name.endswith(".wav"):
                assert re.match(rf"error: {re.escape(str(path))}:\d+: ", error), error


def _with_blank_lines(data, rows: list[str]) -> str:
    lines = [row + "\n" for row in rows]
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(["\n", "  \n"])))
    return "".join(lines)


@settings(settings.get_profile("fuzz"))
@given(data=st.data())
def test_misaligned_pauses_name_file_and_line(data):
    n = data.draw(st.integers(1, 6))
    untimed = data.draw(st.sampled_from([None] * n + list(range(n))))
    tokens = [{"surface": f"w{i}"} if i == untimed else {"surface": f"w{i}", "start_s": i * 0.5}
              for i in range(n)]
    # pause ends on a token start, near one, or between two
    ends = data.draw(st.lists(st.sampled_from([0.5 * i + d for i in range(n)
                                               for d in (0.0, 0.03, -0.04, 0.2)
                                               if 0.5 * i + d >= 0.1]), max_size=4))
    gaps = [{"start_s": end - 0.1, "raw_duration_s": 0.1} for end in ends]
    command = data.draw(st.sampled_from(["code", "segment"]))
    with tempfile.TemporaryDirectory() as tmp:
        transcript, pauses = Path(tmp) / "t.jsonl", Path(tmp) / "p.jsonl"
        transcript.write_text(_with_blank_lines(data, [json.dumps(t) for t in tokens]))
        pauses.write_text(_with_blank_lines(data, [json.dumps(g) for g in gaps]))
        expected = None
        try:
            if gaps:  # without pauses nothing is aligned
                pauses_oracle.align_pauses(read_transcript(transcript), read_pauses(pauses))
        except MisalignedPause as exc:
            path = pauses if exc.blamed == "pauses" else transcript
            lines = path.read_text().splitlines()
            line = [i for i, text in enumerate(lines, start=1) if text.strip()][exc.index]
            expected = f"error: {path}:{line}: {exc}\n"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([command, str(transcript), "--pauses", str(pauses),
                         "--out", str(Path(tmp) / "out")])
        output = sink.getvalue()
    if expected is None:
        assert code == 0, output
    else:
        assert (code, output) == (2, expected)
