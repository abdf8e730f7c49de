"""End-to-end command-line behavior and exit codes."""

import json
import os
import shutil
import struct
import subprocess
import sys
import wave
from pathlib import Path

import pytest

from conftest import FIXTURES, RATE, build_signal
from pausecue.cli import main
from pausecue.pauses import BLOCK_SAMPLES, write_wav
from pausecue import replication

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# pauses
# ---------------------------------------------------------------------------

def test_pauses_on_three_gap_fixture(tmp_path, capsys):
    path = tmp_path / "speech.wav"
    write_wav(path, build_signal([
        ("tone", 0.4), ("silence", 0.3), ("tone", 0.4), ("silence", 0.5),
        ("tone", 0.4), ("silence", 0.2), ("tone", 0.4)]), RATE)
    code, out, err = run(capsys, "pauses", str(path), "--out", str(tmp_path))
    assert code == 0
    assert "pauses: 3" in out
    lines = (tmp_path / "speech.pauses.jsonl").read_text().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["reported_duration_s"] == pytest.approx(0.3)


def test_pauses_stdout_streaming(tmp_path, capsys):
    path = tmp_path / "speech.wav"
    write_wav(path, build_signal([("tone", 0.4), ("silence", 0.3), ("tone", 0.4)]), RATE)
    code, out, err = run(capsys, "pauses", str(path), "--out", "-")
    assert code == 0
    assert json.loads(out.splitlines()[0])["start_s"] == pytest.approx(0.4, abs=0.02)
    assert "pauses: 1" in err


def test_pauses_rejects_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.wav"
    path.write_bytes(b"")
    code, out, err = run(capsys, "pauses", str(path))
    assert code == 2
    assert "error" in err


def test_pauses_rejects_stereo(tmp_path, capsys):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as fp:
        fp.setnchannels(2)
        fp.setsampwidth(2)
        fp.setframerate(RATE)
        fp.writeframes(b"\x00\x00" * 400)
    code, out, err = run(capsys, "pauses", str(path))
    assert code == 2
    assert "mono" in err


def _broken_wav(path, how):
    """A WAV of more than two blocks, then broken; a WAV header is 44 bytes."""
    write_wav(path, build_signal([("tone", 0.5), ("silence", 0.4)] * 10), RATE)
    data = path.read_bytes()
    assert (len(data) - 44) // 2 > 2 * BLOCK_SAMPLES
    riff, size = struct.unpack_from("<L", data, 4)[0], struct.unpack_from("<L", data, 40)[0]
    if how == "odd-data-chunk":         # the data chunk holds all its bytes, the last half a sample
        data = (data[:4] + struct.pack("<L", riff + 1) + data[8:40] + struct.pack("<L", size + 1)
                + data[44:] + b"\x01")
    elif how == "odd-trailing-byte":    # the file ends in half a sample, short of its data chunk
        data = (data[:4] + struct.pack("<L", riff + 1) + data[8:40] + struct.pack("<L", size + 3)
                + data[44:] + b"\x01")
    elif how == "data-overruns-file":   # the data chunk claims samples the file lacks
        data = data[:40] + struct.pack("<L", size + 2000) + data[44:]
    elif how == "fmt-overruns-file":    # so does the format chunk, before any sample
        data = data[:16] + struct.pack("<L", 10**6) + data[20:]
    path.write_bytes(data)


@pytest.mark.parametrize("how,message", [
    ("odd-data-chunk", "truncated WAV"),
    ("odd-trailing-byte", "truncated WAV"),
    ("data-overruns-file", "truncated WAV"),
    ("fmt-overruns-file", "not a readable PCM WAV"),
])
def test_pauses_rejects_broken_stream(tmp_path, how, message):
    path = tmp_path / "broken.wav"
    _broken_wav(path, how)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-m", "pausecue.cli",
         "pauses", str(path), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 2, result.stderr
    # one line: no traceback, and no unclosed file reported on the way out
    assert result.stderr.startswith(f"error: {path}: {message}")
    assert result.stderr.count("\n") == 1, result.stderr
    assert not (out / "broken.pauses.jsonl").exists()


def test_pauses_rejects_low_sample_rate(tmp_path, capsys):
    path = tmp_path / "low.wav"
    write_wav(path, build_signal([("tone", 0.4), ("silence", 0.3)], rate=4000), 4000)
    code, out, err = run(capsys, "pauses", str(path), "--out", str(tmp_path))
    assert code == 2
    assert err == f"error: {path}: sample rate 4000 below 8000 Hz\n"
    assert not (tmp_path / "low.pauses.jsonl").exists()


def test_pauses_missing_file(tmp_path, capsys):
    code, out, err = run(capsys, "pauses", str(tmp_path / "nope.wav"))
    assert code in (1, 2)  # surfaced as unsupported input or I/O


#: 2.5 s of tone, silence and tone.
TWO_TONES = [("tone", 1.0), ("silence", 0.5), ("tone", 1.0)]


@pytest.mark.parametrize("option, value", [
    ("--frame-ms", "nan"), ("--frame-ms", "inf"), ("--frame-ms", "1e308"),
    ("--frame-ms", "1e300"), ("--frame-ms", "-1e308"), ("--frame-ms", "1000.5"),
    ("--frame-ms", "0.01"), ("--threshold-db", "nan"), ("--threshold-db", "-inf"),
    ("--min-silence", "nan"), ("--min-silence", "inf"),
])
def test_pauses_rejects_bad_option(tmp_path, capsys, option, value):
    path = tmp_path / "speech.wav"
    write_wav(path, build_signal(TWO_TONES), RATE)
    code, out, err = run(capsys, "pauses", str(path), "--out", str(tmp_path),
                         f"{option}={value}")
    assert code == 2
    assert err.startswith(f"error: {option}: ") and err.count("\n") == 1, err
    assert not (tmp_path / "speech.pauses.jsonl").exists()


def test_pauses_threshold_beyond_float_range_finds_no_pause(tmp_path, capsys):
    path = tmp_path / "speech.wav"
    write_wav(path, build_signal(TWO_TONES), RATE)
    code, out, err = run(capsys, "pauses", str(path), "--out", "-", "--threshold-db", "1e308")
    assert (code, out) == (0, "")
    assert err.startswith("pauses: 0 ")


# ---------------------------------------------------------------------------
# numpy is loaded by the audio path only
# ---------------------------------------------------------------------------

#: Runs ``main`` on the arguments in a new interpreter, then prints its exit
#: code and whether numpy was loaded.
FRESH_MAIN = ("import sys; from pausecue.cli import main; code = main(sys.argv[1:]); "
              "print(code, 'numpy' in sys.modules)")
DATA = SRC / "pausecue" / "data"


def run_fresh(script, *argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv", [
    pytest.param(["segment", "{intro}"], id="segment"),
    pytest.param(["code", "{intro}"], id="code"),
    pytest.param(["code", "{timed}", "--pauses", "{gaps}"], id="code-pauses"),
    pytest.param(["stats", "{records}", "--pauses", "{inventory}"], id="stats-pauses"),
    pytest.param(["stats", "{records}", "--pauses", "{inventory}", "--format", "json"],
                 id="stats-pauses-json"),
    pytest.param(["replicate"], id="replicate"),
])
def test_text_commands_do_not_load_numpy(tmp_path, argv):
    (tmp_path / "timed.jsonl").write_text(TIMED)
    (tmp_path / "gaps.jsonl").write_text(ON_LEFT)
    files = {"intro": FIXTURES / "directions_intro.jsonl", "timed": tmp_path / "timed.jsonl",
             "gaps": tmp_path / "gaps.jsonl", "records": DATA / "replication_records.jsonl",
             "inventory": DATA / "replication_pauses.jsonl"}
    argv = [arg.format(**files) for arg in argv]
    if argv[0] in ("segment", "code"):
        argv += ["--out", str(tmp_path)]
    assert run_fresh(FRESH_MAIN, *argv) == "0 False"


def test_import_does_not_load_numpy():
    assert run_fresh("import sys, pausecue; print('numpy' in sys.modules)") == "False"


def test_pauses_in_a_fresh_interpreter_writes_the_same_bytes(tmp_path, capsys):
    path = tmp_path / "speech.wav"
    write_wav(path, build_signal(TWO_TONES), RATE)
    code, out, err = run(capsys, "pauses", str(path), "--out", str(tmp_path / "here"))
    assert code == 0
    assert run_fresh(FRESH_MAIN, "pauses", str(path), "--out", str(tmp_path / "fresh")) \
        == "0 True"
    written = (tmp_path / "here" / "speech.pauses.jsonl").read_bytes()
    assert written.count(b"\n") == 1
    assert (tmp_path / "fresh" / "speech.pauses.jsonl").read_bytes() == written


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

def test_segment_worked_example_tree(tmp_path, capsys):
    code, out, err = run(capsys, "segment", str(FIXTURES / "directions_intro.jsonl"),
                         "--out", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    indents = [len(l) - len(l.lstrip()) for l in lines if l.strip()]
    assert max(indents) == 4  # three embedding levels
    assert (tmp_path / "directions_intro.trace.jsonl").exists()
    assert (tmp_path / "directions_intro.audit.jsonl").exists()
    trace = [json.loads(l) for l in
             (tmp_path / "directions_intro.trace.jsonl").read_text().splitlines()]
    assert [row["kind"] for row in trace] == \
        ["Initiate", "Replace", "Initiate", "Initiate"]


def test_segment_single_fragment(tmp_path, capsys):
    transcript = tmp_path / "one.jsonl"
    transcript.write_text('{"surface": "you"}\n{"surface": "go"}\n')
    code, out, err = run(capsys, "segment", str(transcript), "--out", str(tmp_path))
    assert code == 0
    assert len([l for l in out.splitlines() if l.strip()]) == 1


def test_segment_neutral_annotations_flag_low_confidence(tmp_path, capsys):
    transcript = tmp_path / "neutral.jsonl"
    rows = [{"surface": "you"}, {"surface": "go"},
            {"surface": "on", "pause_before_s": 0.5}, {"surface": "ahead"}]
    transcript.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code, out, err = run(capsys, "segment", str(transcript), "--out", str(tmp_path))
    assert code == 0
    audit = [json.loads(l) for l in
             (tmp_path / "neutral.audit.jsonl").read_text().splitlines()]
    assert any(row["low_confidence"] for row in audit)


CODED_ROW = ('{"fragment_index": 0, "pause_before_s": %s, "initial_constituent": "unmarked", '
             '"operation": {"kind": "Initiate", "pops": %d}, "embedding_depth": 1, '
             '"segments_affected": 1}\n')
PAUSE_ROW = '{"start_s": 0.5, "raw_duration_s": 0.2, "reported_duration_s": %s}\n'
LEXICON_ROW = '{"surface": "%s", "candidate_ops": ["Return"], "variants": %s}\n'
#: Three tokens starting at 0, 0.5 and 1 s, and pauses by start and duration.
TIMED = "".join('{"surface": "%s", "start_s": %g}\n' % row
                for row in (("you", 0.0), ("go", 0.5), ("left", 1.0)))
GAP_ROW = '{"start_s": %s, "raw_duration_s": %s}\n'
ON_LEFT, NOWHERE = GAP_ROW % (0.7, 0.3), GAP_ROW % (0.1, 0.15)


@pytest.mark.parametrize("command, files, culprit, line", [
    pytest.param("segment", {"transcript": '{"surface": "you"}\n{"surface": 3}\n'},
                 "transcript", 2, id="transcript-wrong-type"),
    pytest.param("code", {"transcript": '{"surface": "you"}\n'
                                        '{"surface": "go", "pause_before_s": Infinity}\n'},
                 "transcript", 2, id="transcript-infinite-pause"),
    pytest.param("segment", {"transcript": '{"surface": "you", "pause_before_s": NaN}\n'},
                 "transcript", 1, id="transcript-nan-pause"),
    pytest.param("segment", {"transcript": '{"surface": "you", "pause_before_s": 1e300}\n'},
                 "transcript", 1, id="transcript-huge-pause"),
    pytest.param("segment", {"transcript": '{"surface": "you", "pause_before_s": 1%s}\n'
                                           % ("0" * 400)},
                 "transcript", 1, id="transcript-int-beyond-float-range"),
    pytest.param("code", {"transcript": '{"surface": "you"}\n'
                                        '{"surface": "go", "pause_before_s": 1%s}\n'
                                        % ("0" * 4300)},
                 "transcript", 2, id="transcript-int-over-4300-digits"),
    pytest.param("segment", {"transcript": '{"surface": "you", "flags": [["x"]]}\n'},
                 "transcript", 1, id="transcript-flag-element"),
    pytest.param("segment", {"transcript": '{"surface": "you"}\n' + "[" * 100000 + "\n"},
                 "transcript", 2, id="transcript-nested-too-deeply"),
    pytest.param("code", {"transcript": '{"surface": "you", "start_s": 1.0}\n'
                                        '{"surface": "go", "start_s": 0.5}\n'},
                 "transcript", 2, id="transcript-start-goes-back"),
    pytest.param("code", {"transcript": '{"surface": "you", "start_s": 1.0, "end_s": 0.5}\n'},
                 "transcript", 1, id="transcript-end-before-start"),
    pytest.param("segment", {"transcript": b'{"surface": "you"}\n{"surface": "\xff"}\n'},
                 "transcript", 2, id="transcript-not-utf8"),
    pytest.param("segment", {"functions": '{"fragment_index": 1, "prior": "bogus"}\n'},
                 "functions", 1, id="segment-functions-label"),
    pytest.param("code", {"functions": '{"fragment_index": 0}\n'
                                       '{"fragment_index": 1, "subsequent": "bogus"}\n'},
                 "functions", 2, id="code-functions-label"),
    pytest.param("code", {"functions": '{"fragment_index": 1, "prior": "repair"}\n'
                                       '{"fragment_index": 0}\n{"fragment_index": 1}\n'},
                 "functions", 3, id="functions-duplicate-index"),
    pytest.param("segment", {"lexicon": LEXICON_ROW % ("so", "[1]")},
                 "lexicon", 1, id="lexicon-variant-element"),
    pytest.param("segment", {"lexicon": LEXICON_ROW % ("so", "[]") + LEXICON_ROW % ("So!", "[]")},
                 "lexicon", 2, id="lexicon-duplicate-surface"),
    pytest.param("segment", {"weights": "prior_pop = 1\ncurrent_push = nan\n"},
                 "weights", 2, id="weights-nan"),
    pytest.param("segment", {"weights": "prior_pop = 0\n"}, "weights", 1, id="weights-zero"),
    pytest.param("segment", {"weights": "prior_pop 2\n"}, "weights", 1, id="weights-syntax"),
    pytest.param("code", {"weights": "prior_pop = 2\ncurrent_push = 1\nprior_pop = 3\n"},
                 "weights", 3, id="weights-duplicate-key"),
    pytest.param("stats", {"coded": CODED_ROW % ("0.2", 0) + CODED_ROW % ("NaN", 0)},
                 "coded", 2, id="coded-nan-pause"),
    pytest.param("stats", {"coded": CODED_ROW % ("0.2", 0) + CODED_ROW % ("-0.4", 0)},
                 "coded", 2, id="coded-negative-pause"),
    pytest.param("stats", {"coded": CODED_ROW % ("0.2", 3)}, "coded", 1, id="coded-bad-pops"),
    pytest.param("stats", {"coded": CODED_ROW % ("0.2", 0) + CODED_ROW.replace(
        '"segments_affected": 1}', '"segments_affected": 1, "marked": true}') % ("0.2", 0)},
                 "coded", 2, id="coded-marked-contradicts"),
    pytest.param("stats", {"coded": CODED_ROW % ("-1" + "0" * 400, 0)}, "coded", 1,
                 id="coded-int-beyond-float-range"),
    pytest.param("stats", {"coded": CODED_ROW % ("0.2", 0) + CODED_ROW % ("1" * 4301, 0)},
                 "coded", 2, id="coded-int-over-4300-digits"),
    pytest.param("stats", {"coded": CODED_ROW.replace('"fragment_index": 0', '"fragment_index": 1'
                                                      + "0" * 400) % ("0.2", 0)},
                 "coded", 1, id="coded-index-of-401-digits"),
    pytest.param("code", {"transcript": '{"surface": "you", "pause_before_s": -9%s}\n'
                                        % ("9" * 4299)},
                 "transcript", 1, id="transcript-int-of-4300-digits"),
    pytest.param("stats", {"coded": CODED_ROW % ("null", 0) * 2}, "coded", None,
                 id="coded-no-measured-pause"),
    pytest.param("stats", {"coded": CODED_ROW % ("0.2", 0), "pauses": PAUSE_ROW % "NaN"},
                 "pauses", 1, id="pauses-nan-duration"),
    pytest.param("stats", {"coded": CODED_ROW % ("0.2", 0),
                           "pauses": PAUSE_ROW % "0.2" + PAUSE_ROW % "9.0"},
                 "pauses", 2, id="pauses-reported-mismatch"),
    pytest.param("stats", {"coded": CODED_ROW % ("0.2", 0),
                           "pauses": ON_LEFT + GAP_ROW % (1.5, -0.5)},
                 "pauses", 2, id="pauses-negative-duration"),
    pytest.param("code", {"transcript": TIMED, "pauses": ON_LEFT + NOWHERE},
                 "pauses", 2, id="pauses-match-no-gap"),
    pytest.param("segment", {"transcript": TIMED, "pauses": "\n" + ON_LEFT + "\n \n" + NOWHERE},
                 "pauses", 5, id="pauses-match-no-gap-after-blank-lines"),
    pytest.param("code", {"transcript": TIMED, "pauses": ON_LEFT + GAP_ROW % (0.75, 0.25)},
                 "pauses", 2, id="pauses-two-on-one-gap"),
    pytest.param("code", {"transcript": TIMED.replace(', "start_s": 0.5', ""),
                          "pauses": ON_LEFT}, "transcript", 2, id="transcript-untimed-token"),
    pytest.param("segment", {"transcript": "\n\n" + TIMED.replace(', "start_s": 0}', "}"),
                             "pauses": ON_LEFT}, "transcript", 3,
                 id="transcript-untimed-token-after-blank-lines"),
])
def test_input_error_names_path_and_line(tmp_path, capsys, command, files, culprit, line):
    paths = {}
    for kind, content in files.items():
        paths[kind] = tmp_path / f"{kind}.in"
        paths[kind].write_bytes(content if isinstance(content, bytes) else content.encode())
    if command == "stats":
        argv = ["stats", str(paths["coded"])]
    else:
        argv = [command, str(paths.get("transcript", FIXTURES / "directions_intro.jsonl")),
                "--out", str(tmp_path)]
    for kind in ("functions", "lexicon", "weights", "pauses"):
        if kind in paths:
            argv += [f"--{kind}", str(paths[kind])]
    code, out, err = run(capsys, *argv)
    assert code == 2
    where = str(paths[culprit]) if line is None else f"{paths[culprit]}:{line}"
    assert err.startswith(f"error: {where}: "), err
    message = err.splitlines()[0][len(f"error: {where}: "):]
    if "in magnitude" in message:  # an oversized number is shown in short form
        assert len(message) < 120, message


@pytest.mark.parametrize("files, culprit", [
    pytest.param({"transcript": TIMED, "pauses": ON_LEFT + NOWHERE}, "pauses",
                 id="pauses-match-no-gap"),
    pytest.param({"transcript": TIMED.replace(', "start_s": 0.5', ""), "pauses": ON_LEFT},
                 "transcript", id="transcript-untimed-token"),
])
def test_misaligned_input_through_a_pipe_names_path(tmp_path, capsys, files, culprit):
    # a pipe can be read only once, so the error names the file without a line
    paths = {}
    for kind, content in files.items():
        if kind == culprit:
            read_fd, write_fd = os.pipe()
            os.write(write_fd, content.encode())
            os.close(write_fd)
            paths[kind] = f"/dev/fd/{read_fd}"
        else:
            paths[kind] = tmp_path / f"{kind}.in"
            paths[kind].write_text(content)
    try:
        code, out, err = run(capsys, "code", str(paths["transcript"]),
                             "--pauses", str(paths["pauses"]), "--out", str(tmp_path))
    finally:
        os.close(read_fd)
    assert code == 2
    assert err.startswith(f"error: {paths[culprit]}: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["transcript", "coded", "pauses"])
def test_trailing_content_after_object_is_extra_data(tmp_path, capsys, kind):
    rows = {"transcript": '{"surface": "you"}\n',
            "coded": CODED_ROW % ("0.2", 0),
            "pauses": PAUSE_ROW % "0.2"}
    paths = {}
    for name, row in rows.items():
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text(row + ('{"a": 1} x\n' if name == kind else ""))
    if kind == "transcript":
        argv = ["code", str(paths["transcript"]), "--out", str(tmp_path)]
    else:
        argv = ["stats", str(paths["coded"]), "--pauses", str(paths["pauses"])]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {paths[kind]}:2: invalid JSON (Extra data)"), err


# ---------------------------------------------------------------------------
# code
# ---------------------------------------------------------------------------

def test_code_writes_jsonl_and_tsv(tmp_path, capsys):
    code, out, err = run(capsys, "code", str(FIXTURES / "directions_resume.jsonl"),
                         "--out", str(tmp_path))
    assert code == 0
    rows = [json.loads(l) for l in
            (tmp_path / "directions_resume.coded.jsonl").read_text().splitlines()]
    assert [r["operation"]["kind"] for r in rows] == \
        ["Initiate", "Initiate", "Return", "Retain"]
    assert rows[2]["marked"] is True
    tsv_lines = (tmp_path / "directions_resume.coded.tsv").read_text().splitlines()
    assert len(tsv_lines) == 5
    assert "fragments: 4" in err


@pytest.mark.parametrize("content", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
@pytest.mark.parametrize("command", ["code", "segment"])
def test_transcript_without_tokens_names_file(tmp_path, capsys, command, content):
    path = tmp_path / "t.jsonl"
    path.write_text(content)
    code, out, err = run(capsys, command, str(path), "--out", str(tmp_path))
    assert (code, err) == (2, f"error: {path}: transcript holds no tokens\n")


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

@pytest.fixture
def corpus_dir(tmp_path):
    directory = tmp_path / "corpus"
    replication.write_corpus(directory)
    return directory


def test_stats_text_matches_golden(tmp_path, capsys, corpus_dir):
    out_file = tmp_path / "report.txt"
    code, out, err = run(capsys, "stats", str(corpus_dir / "replication_records.jsonl"),
                         "--pauses", str(corpus_dir / "replication_pauses.jsonl"),
                         "--format", "text", "--out", str(out_file))
    assert code == 0
    golden = (GOLDEN / "replication_report.txt").read_text()
    produced = out_file.read_text()
    # the config footer names the input paths; everything above it is golden
    assert produced.split("config:")[0] == golden.split("config:")[0]


def test_stats_json_matches_golden(tmp_path, capsys, corpus_dir):
    out_file = tmp_path / "report.json"
    code, out, err = run(capsys, "stats", str(corpus_dir / "replication_records.jsonl"),
                         "--pauses", str(corpus_dir / "replication_pauses.jsonl"),
                         "--format", "json", "--out", str(out_file))
    assert code == 0

    def without_config(text):
        # the config field names the input paths; every other byte is golden
        return [line for line in text.splitlines(keepends=True)
                if not line.startswith('  "config": ')]

    golden = (GOLDEN / "replication_report.json").read_text()
    assert without_config(out_file.read_text()) == without_config(golden)


def test_stats_json_is_parseable(capsys, corpus_dir):
    code, out, err = run(capsys, "stats", str(corpus_dir / "replication_records.jsonl"),
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tests"]["anova"]["df_within"] == 96
    assert payload["tables"]["mean_pause_by_operation"]["row_margins"]["Replace"]["mean"] \
        == pytest.approx(0.65)
    assert payload["tables"]["operation_marked_counts"]["cells"]["Retain"]["marked"] == 18


def test_stats_empty_input_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, err = run(capsys, "stats", str(empty))
    assert code == 2


# ---------------------------------------------------------------------------
# replicate
# ---------------------------------------------------------------------------

def test_replicate_bundled_passes(capsys):
    code, out, err = run(capsys, "replicate")
    assert code == 0
    assert "FAIL" not in out
    assert "9 passed, 0 failed" in out


def test_replicate_detects_perturbed_pause(tmp_path, capsys, corpus_dir):
    records_path = corpus_dir / "replication_records.jsonl"
    rows = [json.loads(l) for l in records_path.read_text().splitlines()]
    rows[0]["pause_before_s"] += 0.5  # an And/Initiate record
    records_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code, out, err = run(capsys, "replicate", "--corpus", str(corpus_dir))
    assert code != 0
    assert "FAIL token-operation-cells" in out
    assert "FAIL operation-margins" in out


def test_replicate_missing_corpus_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "replicate", "--corpus", str(tmp_path / "nowhere"))
    assert code == 2
