"""End-to-end command-line behavior and exit codes."""

import gc
import json
import os
import shutil
import struct
import subprocess
import sys
import wave
from pathlib import Path

import pytest

import test_golden
from conftest import FIXTURES, RATE, build_signal, write_wav
from pausecue.cli import COMMANDS, build_parser, main
from pausecue.pauses import BLOCK_SAMPLES, PauseRecord
from pausecue import pauses, replication

SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# pauses
# ---------------------------------------------------------------------------

def test_pauses_summary_mean_adds_in_order(tmp_path, capsys, monkeypatch):
    # in order the durations sum to 1.1 and the mean to 0.275, printed 0.28; a
    # compensated sum (built-in sum from Python 3.12) gives 1.0999999999999999
    found = [PauseRecord(start_s=float(i), raw_duration_s=d) for i, d in
             enumerate([0.0, 0.1, 0.3, 0.7])]
    monkeypatch.setattr(pauses, "detect_pauses", lambda frames, config: found)
    path = tmp_path / "speech.wav"
    write_wav(path, build_signal([("tone", 0.4)]), RATE)
    code, out, err = run(capsys, "pauses", str(path), "--out", str(tmp_path))
    assert code == 0
    assert "pauses: 4  mean reported duration: 0.28 s  " in out


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
# numpy is loaded by the audio path only, dataclasses and inspect by no path
# ---------------------------------------------------------------------------

#: Modules that neither ``import pausecue`` nor a text command loads: numpy
#: serves the audio path alone, and dataclasses and inspect would cost
#: every start.
UNLOADED = ("numpy", "dataclasses", "inspect")
LOADED = f"[m for m in {UNLOADED!r} if m in sys.modules]"
#: Runs ``main`` on the arguments in a new interpreter, then prints its exit
#: code and which of UNLOADED were loaded.
FRESH_MAIN = ("import sys; from pausecue.cli import main; code = main(sys.argv[1:]); "
              f"print(code, {LOADED})")
DATA = SRC / "pausecue" / "data"


def run_fresh(script, *argv, flags=()):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, *flags, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv, flags", [
    pytest.param(["segment", "{intro}"], (), id="segment"),
    pytest.param(["code", "{intro}"], (), id="code"),
    pytest.param(["code", "{timed}", "--pauses", "{gaps}"], (), id="code-pauses"),
    # -S keeps site's own imports out, which could hide one that pausecue makes
    pytest.param(["code", "{timed}", "--pauses", "{gaps}"], ("-S",), id="code-pauses-no-site"),
    pytest.param(["stats", "{records}", "--pauses", "{inventory}"], (), id="stats-pauses"),
    pytest.param(["stats", "{records}", "--pauses", "{inventory}", "--format", "json"], (),
                 id="stats-pauses-json"),
    pytest.param(["replicate"], (), id="replicate"),
])
def test_text_commands_do_not_load_numpy(tmp_path, argv, flags):
    assert run_fresh(FRESH_MAIN, *command_argv(tmp_path, argv), flags=flags) == "0 []"


def command_argv(tmp_path, argv):
    """``argv`` with its ``{name}`` placeholders naming input files written
    under ``tmp_path``, and the output there."""
    (tmp_path / "timed.jsonl").write_text(TIMED)
    (tmp_path / "gaps.jsonl").write_text(ON_LEFT)
    write_wav(tmp_path / "speech.wav", build_signal(TWO_TONES), RATE)
    files = {"intro": FIXTURES / "directions_intro.jsonl", "timed": tmp_path / "timed.jsonl",
             "gaps": tmp_path / "gaps.jsonl", "records": DATA / "replication_records.jsonl",
             "inventory": DATA / "replication_pauses.jsonl", "wav": tmp_path / "speech.wav"}
    argv = [arg.format(**files) for arg in argv]
    return argv + ["--out", str(tmp_path)] if argv[0] in ("segment", "code", "pauses") else argv


def test_import_does_not_load_numpy():
    assert run_fresh(f"import sys, pausecue; print({LOADED})") == "[]"


def test_bundled_data_is_read_without_the_zip_import_machinery():
    # -S keeps site's own imports out, so what is loaded is what pausecue loads
    script = ("import sys, pausecue.cli; from pausecue import lexicon, replication; "
              "lexicon.bundled_lexicon(); replication.load_bundled(); "
              "print([m for m in ('importlib.resources', 'zipfile', 'tempfile') "
              "if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


#: Runs ``main`` on each argument list in one new interpreter and prints, after
#: the import and after each command, whether pausecue.replication was loaded.
FRESH_COMMANDS = """\
import contextlib, io, json, sys
from pausecue.cli import main
seen = [["import", 0, "pausecue.replication" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    seen.append([argv[0], code, "pausecue.replication" in sys.modules])
print(json.dumps(seen))
"""


def test_only_replicate_loads_the_replication_module(tmp_path):
    intro = FIXTURES / "directions_intro.jsonl"
    commands = [["segment", str(intro), "--out", str(tmp_path)],
                ["code", str(intro), "--out", str(tmp_path)],
                ["stats", str(tmp_path / "directions_intro.coded.jsonl"), "--format", "json"],
                ["replicate"]]
    assert json.loads(run_fresh(FRESH_COMMANDS, json.dumps(commands))) == [
        ["import", 0, False], ["segment", 0, False], ["code", 0, False],
        ["stats", 0, False], ["replicate", 0, True]]


#: What every call loads before its command runs: the parser and the bundled
#: lexicon need these and nothing else.
SETUP_MODULES = ["pausecue", "pausecue.cli", "pausecue.focus", "pausecue.jsonl",
                 "pausecue.lexicon"]
#: The modules a command loads beyond SETUP_MODULES.  The text side of
#: ``segment`` and ``code`` loads no stats, report or replication; ``stats``
#: no classifier; ``pauses`` nothing of the text side; ``replicate`` no
#: classifier or report.
TRANSCRIPT_MODULES = ["classifier", "fragments", "pauses"]
COMMAND_MODULES = {"segment": TRANSCRIPT_MODULES, "code": TRANSCRIPT_MODULES,
                   "stats": ["fragments", "pauses", "report", "stats"], "pauses": ["pauses"],
                   "replicate": ["fragments", "pauses", "replication", "stats"]}
PACKAGE_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'pausecue')"


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_set_up_loads_only_the_parser_and_lexicon_modules(flags):
    assert run_fresh(f"import sys, pausecue.cli; pausecue.cli.bundled_lexicon(); "
                     f"print({PACKAGE_MODULES})", flags=flags) == str(SETUP_MODULES)


@pytest.mark.parametrize("argv, flags", [
    pytest.param(["segment", "{intro}"], (), id="segment"),
    pytest.param(["code", "{intro}"], (), id="code"),
    pytest.param(["code", "{timed}", "--pauses", "{gaps}"], (), id="code-pauses"),
    pytest.param(["code", "{timed}", "--pauses", "{gaps}"], ("-S",), id="code-pauses-no-site"),
    pytest.param(["stats", "{records}", "--pauses", "{inventory}"], (), id="stats-pauses"),
    pytest.param(["pauses", "{wav}"], (), id="pauses"),
    pytest.param(["replicate"], (), id="replicate"),
])
def test_each_command_loads_only_its_modules(tmp_path, argv, flags):
    expected = sorted(SETUP_MODULES + [f"pausecue.{m}" for m in COMMAND_MODULES[argv[0]]])
    assert run_fresh("import sys; from pausecue.cli import main; code = main(sys.argv[1:]); "
                     f"print(code, {PACKAGE_MODULES})", *command_argv(tmp_path, argv),
                     flags=flags) == f"0 {expected}"


#: Three nested Initiates under the topics route, path and bench and one more
#: under none; then "now" with a repeated "route" (a Replace anchored to the
#: route space, popping three), and a "now" whose evidence favours Retain
#: (its one candidate, Replace, wins by the singleton boost).
ANCHORED = "".join(json.dumps({"surface": word, **attrs}) + "\n" for word, attrs in [
    ("you", {"topic": "route"}), ("start", {}), ("at", {}), ("the", {}),
    ("gate", {"boundary": "continuation_rise"}),
    *[(word, {"pitch_range": "reduced", **attrs}) for word, attrs in [
        ("where", {"pause_before_s": 0.3, "topic": "path"}), ("the", {}), ("path", {}),
        ("narrows", {"boundary": "continuation_rise"}),
        ("where", {"pause_before_s": 0.2, "topic": "bench"}), ("the", {}), ("bench", {}),
        ("is", {"boundary": "continuation_rise"}),
        ("which", {"pause_before_s": 0.2}), ("it", {"accent": "Lstar"}),
        ("faces", {"accent": "Lstar", "boundary": "continuation_rise"})]],
    ("now", {"pause_before_s": 0.5, "topic": "route"}), ("the", {}),
    ("route", {"flags": ["nonpronominal_repetition"], "pitch_range": "expanded"}),
    ("turns", {"boundary": "continuation_rise"}),
    ("now", {"pause_before_s": 0.4}), ("wait", {"phonation": "creaky", "boundary": "fall"}),
])


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # the same relative paths in each run, so the report's config line agrees
    # too; the bundled corpus gives the report eleven token rows to order, and
    # the anchored transcript reaches a topic-anchored pop and the singleton boost
    commands = [["code", str(FIXTURES / "directions_resume.jsonl"), "--out", "out"],
                ["stats", "out/directions_resume.coded.jsonl", "--format", "json",
                 "--out", "out/report.json"],
                ["stats", "records.jsonl", "--format", "json", "--out", "out/corpus.json"],
                ["segment", "anchored.jsonl", "--out", "out"]]
    outputs = []
    for seed in ("1", "2", "3"):
        cwd = tmp_path / f"seed{seed}"
        cwd.mkdir()
        shutil.copy(DATA / replication.RECORDS_FILE, cwd / "records.jsonl")
        (cwd / "anchored.jsonl").write_text(ANCHORED)
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", FRESH_COMMANDS, json.dumps(commands)],
                              capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
        assert done.returncode == 0, done.stderr
        assert [code for _, code, _ in json.loads(done.stdout)] == [0, 0, 0, 0, 0]
        outputs.append({path.name: path.read_bytes() for path in (cwd / "out").iterdir()})
    assert sorted(outputs[0]) == ["anchored.audit.jsonl", "anchored.trace.jsonl",
                                  "anchored.tree.txt", "corpus.json",
                                  "directions_resume.coded.jsonl",
                                  "directions_resume.coded.tsv", "report.json"]
    tables = json.loads(outputs[0]["corpus.json"])["tables"]
    assert len(tables["token_position_counts"]["rows"]) == 11
    audit = [json.loads(line) for line in outputs[0]["anchored.audit.jsonl"].splitlines()]
    assert any(row["operation"]["kind"] in ("Return", "Replace") and row["operation"]["pops"] >= 2
               for row in audit)
    assert any(row["singleton_boosted"] for row in audit)
    assert outputs[0] == outputs[1] == outputs[2]


#: Prints a candidate interpreter's implementation, version and executable.
PROBE = "import sys; print(sys.implementation.name, *sys.version_info[:3], sys.executable)"


def other_interpreters():
    """{version: executable} of every CPython 3.10-3.13 interpreter on PATH
    or under pyenv that runs, other than the one running the tests."""
    candidates = [Path(directory) / f"python3.{minor}" for minor in range(10, 14)
                  for directory in os.get_exec_path()]
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates += sorted(pyenv.glob("versions/3.1[0-3].*/bin/python3"))
    ours = f"{sys.version_info[0]}.{sys.version_info[1]}.{sys.version_info[2]}"
    found = {}
    for path in candidates:
        if not path.is_file():
            continue
        try:  # a pyenv shim of a version that is not selected exits nonzero
            done = subprocess.run([str(path), "-c", PROBE], capture_output=True, text=True,
                                  timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = done.stdout.split()
        if done.returncode or len(fields) != 5 or fields[0] != "cpython":
            continue
        version = ".".join(fields[1:4])
        if (3, 10) <= (int(fields[1]), int(fields[2])) <= (3, 13) and version != ours:
            found.setdefault(version, fields[4])
    return found


def test_other_interpreters_write_the_same_bytes(tmp_path):
    # Python 3.12 made sum() of floats compensated; the reports add in one
    # order on every interpreter, so they match the goldens byte for byte
    found = other_interpreters()
    if not found:
        pytest.skip("no other CPython 3.10-3.13 interpreter is installed")
    print("interpreters:", ", ".join(f"{v} ({path})" for v, path in found.items()))
    commands = [test_golden.case_argv(command, case, Path("out") / case)
                for case in test_golden.CASES for command in test_golden.COMMANDS]
    commands += [test_golden.stats_argv(case, f"out/stats.{case}")
                 for case in test_golden.STATS_CASES]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = {}
    for version, executable in {"running": sys.executable, **found}.items():
        cwd = tmp_path / version
        cwd.mkdir()
        runs[version] = subprocess.Popen(
            [executable, "-c", FRESH_COMMANDS, json.dumps(commands)], cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        for version, process in runs.items():
            out, err = process.communicate(timeout=300)
            assert process.returncode == 0, f"{version}: {err}"
            assert [code for _, code, _ in json.loads(out)[1:]] == [0] * len(commands), version
    finally:  # a failure or a timeout leaves no interpreter running
        for process in runs.values():
            process.kill()
            process.communicate()
    for version in runs:
        out = tmp_path / version / "out"
        for case, (name, _) in test_golden.STATS_CASES.items():
            report = test_golden.named((out / f"stats.{case}").read_bytes(), test_golden.BUNDLED)
            expected = test_golden.golden("stats", case)[name]
            test_golden.assert_same({name: report}, {name: expected}, f"{version}: stats/{case}")
        for case in test_golden.CASES:  # segment and code write into one directory
            expected = {name: content for command in test_golden.COMMANDS
                        for name, content in test_golden.golden(command, case).items()
                        if name not in ("stdout", "stderr")}
            test_golden.assert_same({path.name: path.read_bytes() for path in
                                     sorted((out / case).iterdir())}, expected,
                                    f"{version}: {case}")


def test_reader_steps_are_generated_on_first_read():
    # start-up generates no reader step; the lexicon load generates its own
    assert run_fresh("from pausecue import cli; from pausecue.jsonl import _compiled; "
                     "n = _compiled.cache_info().currsize; cli.bundled_lexicon(); "
                     "print(n, _compiled.cache_info().currsize)") == "0 1"


def test_a_call_builds_only_its_command_parser_and_reads_the_lexicon_once(tmp_path):
    # import builds no parser and reads no lexicon; each code call builds the
    # top-level parser and the code parser, and only the first reads the
    # bundled lexicon
    assert run_fresh(
        "import argparse, sys; from pausecue import cli, lexicon; built = []; "
        "init = argparse.ArgumentParser.__init__; "
        "argparse.ArgumentParser.__init__ = "
        "lambda self, **kw: built.append(kw['prog']) or init(self, **kw); "
        "n = lexicon.bundled_lexicon.cache_info().currsize; loads = []; "
        "load = lexicon.load_lexicon; "
        "lexicon.load_lexicon = lambda path: loads.append(path) or load(path); "
        "before = list(built); codes = [cli.main(sys.argv[1:]) for _ in range(2)]; "
        "print(before, n, len(loads), built, codes)",
        "code", str(FIXTURES / "directions_intro.jsonl"), "--out", str(tmp_path)) \
        == "[] 0 1 ['pausecue', 'pausecue code', 'pausecue', 'pausecue code'] [0, 0]"


def test_pauses_in_a_fresh_interpreter_writes_the_same_bytes(tmp_path, capsys):
    path = tmp_path / "speech.wav"
    write_wav(path, build_signal(TWO_TONES), RATE)
    code, out, err = run(capsys, "pauses", str(path), "--out", str(tmp_path / "here"))
    assert code == 0
    fresh = run_fresh(FRESH_MAIN, "pauses", str(path), "--out", str(tmp_path / "fresh"))
    assert fresh.startswith("0 ['numpy'")  # numpy itself loads inspect
    written = (tmp_path / "here" / "speech.pauses.jsonl").read_bytes()
    assert written.count(b"\n") == 1
    assert (tmp_path / "fresh" / "speech.pauses.jsonl").read_bytes() == written


# ---------------------------------------------------------------------------
# segment
# ---------------------------------------------------------------------------

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


def test_stats_json_is_parseable(capsys, corpus_dir):
    code, out, err = run(capsys, "stats", str(corpus_dir / "replication_records.jsonl"),
                         "--format", "json")
    assert code == 0
    payload = json.loads(out)
    expected = json.loads((test_golden.GOLDEN / "replication_report.json").read_text())
    # the config note, the notes and the histogram are the only parts a pause inventory sets
    for report in (payload, expected):
        del report["config"], report["notes"], report["tables"]["pause_histogram"]
    assert payload == expected


def test_stats_empty_input_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, out, err = run(capsys, "stats", str(empty))
    assert code == 2


# ---------------------------------------------------------------------------
# replicate
# ---------------------------------------------------------------------------

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


@pytest.mark.parametrize("unmeasured", [True, False], ids=["all-pauses-null", "empty-file"])
def test_replicate_without_a_measured_pause_exits_2_as_stats_does(capsys, corpus_dir,
                                                                   unmeasured):
    records_path = corpus_dir / "replication_records.jsonl"
    rows = [json.loads(l) for l in records_path.read_text().splitlines()] if unmeasured else []
    for row in rows:
        row["pause_before_s"] = None
    records_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    message = f"error: {records_path}: no record with a measured pause_before_s\n"
    assert run(capsys, "replicate", "--corpus", str(corpus_dir)) == (2, "", message)
    assert run(capsys, "stats", str(records_path)) == (2, "", message)


def test_replicate_checks_the_report_stats_prints(capsys, corpus_dir):
    # stats counts only the records with a measured pause, as replicate does
    # on the same corpus (tests/golden/replicate/one_unmeasured)
    records_path = corpus_dir / "replication_records.jsonl"
    rows = [json.loads(l) for l in records_path.read_text().splitlines()]
    rows[0]["pause_before_s"] = None  # a marked And/Initiate record
    records_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    code, out, err = run(capsys, "stats", str(records_path), "--format", "json")
    counts = json.loads(out)["tables"]["operation_marked_counts"]["cells"]
    assert (code, counts["Initiate"]["marked"]) == (0, 12)
    assert sum(n for row in counts.values() for n in row.values()) == 99


def test_replicate_fail_lines_state_what_was_measured(capsys, corpus_dir):
    (corpus_dir / "replication_pauses.jsonl").write_text("")
    code, out, err = run(capsys, "replicate", "--corpus", str(corpus_dir))
    assert code == 1
    assert out.splitlines()[-2:] == [
        "FAIL pause-panel: 0 initial pauses averaging none, 0 internal averaging none; "
        "published 41 initial pauses averaging 0.422, 62 internal averaging 0.224",
        "8 passed, 1 failed"]
    records_path = corpus_dir / "replication_records.jsonl"
    rows = [json.loads(l) for l in records_path.read_text().splitlines()]
    for row in rows:
        row["pause_before_s"] = 2.0 - row["pause_before_s"]  # reverses every ordering
    records_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    code, out, err = run(capsys, "replicate", "--corpus", str(corpus_dir))
    assert ("FAIL directions: unmarked mean 1.668 vs marked 1.763; Replace mean "
            "1.350/n=11 vs Initiate 1.675/n=23, Retain 1.789/n=55, Return 1.745/n=11"
            ) in out.splitlines()
    for row in rows:  # the longer the pause, the fewer segments affected
        row["pause_before_s"] = {0: 1.0, 1: 0.5, 2: 0.0}[row["segments_affected"]]
    records_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    code, out, err = run(capsys, "replicate", "--corpus", str(corpus_dir))
    lines = out.splitlines()
    assert "FAIL correlation-sign: r = -1.000, expected > 0" in lines
    cells, = [line for line in lines if line.startswith("FAIL token-operation-cells: ")]
    assert cells.startswith("FAIL token-operation-cells: 24 cells within 0.005; mismatched: "
                            "Acknowledgment/Initiate 0.500/n=1 (published 0.10/n=1), ")
    assert ", And/Initiate 0.500/n=3 (published 0.43/n=3), " in cells
    assert cells.count("(published ") == 24


# ---------------------------------------------------------------------------
# a parser per call, one bundled lexicon per process
# ---------------------------------------------------------------------------

def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as helped:
        main(["--help"])
    assert helped.value.code == 0
    words = " ".join(capsys.readouterr().out.split())  # the help wraps at the terminal
    assert words.startswith("usage: pausecue [-h] {pauses,segment,code,stats,replicate} ...")
    for name, help_text, _ in COMMANDS:
        assert f" {name} {help_text} " in words


@pytest.mark.parametrize("name", [name for name, _, _ in COMMANDS])
def test_command_help_shows_its_options(capsys, name):
    with pytest.raises(SystemExit) as helped:
        main([name, "--help"])
    assert helped.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: pausecue {name} [-h] ")
    transcript = ["--pauses", "--functions", "--lexicon", "--weights", "--out"]
    assert [line.split()[0] for line in out.splitlines() if line.startswith("  --")] == {
        "pauses": ["--out", "--threshold-db", "--min-silence", "--frame-ms"],
        "segment": transcript, "code": transcript,
        "stats": ["--pauses", "--format", "--out"], "replicate": ["--corpus"]}[name]

def test_repeated_calls_carry_no_state(tmp_path, capsys):
    transcript, gaps = tmp_path / "timed.jsonl", tmp_path / "gaps.jsonl"
    transcript.write_text(TIMED)
    gaps.write_text(ON_LEFT)
    out = tmp_path / "out"
    coded = out / "timed.coded.jsonl"

    def code_then_stats():
        outputs = [run(capsys, "code", str(transcript), "--pauses", str(gaps),
                       "--out", str(out)),
                   coded.read_bytes(), coded.with_suffix(".tsv").read_bytes(),
                   run(capsys, "stats", str(coded), "--pauses", str(gaps))]
        assert outputs[0][0] == outputs[3][0] == 0
        return outputs

    def failed_calls():
        with pytest.raises(SystemExit) as missing:
            main(["stats"])
        assert missing.value.code == 2
        assert "required: coded" in capsys.readouterr().err
        messages = []
        for _ in range(2):
            with pytest.raises(SystemExit) as bad_format:
                main(["stats", str(coded), "--format", "xml"])
            assert bad_format.value.code == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1] and "invalid choice: 'xml'" in messages[0]
        with pytest.raises(SystemExit) as helped:
            main(["--help"])
        assert helped.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pausecue ")

    first = code_then_stats()
    failed_calls()
    assert code_then_stats() == first
    parser, argv = build_parser(), ["code", str(transcript), "--pauses", str(gaps)]
    assert vars(parser.parse_args(argv)) == vars(parser.parse_args(argv))


def test_a_lexicon_file_is_read_on_every_call(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    transcript.write_text("".join('{"surface": "%s"}\n' % word
                                  for word in ("now", "you", "go", "left")))
    lexicon = tmp_path / "lexicon.jsonl"

    def coded_with(rows, path=lexicon):
        path.write_text(rows)
        code, out, err = run(capsys, "code", str(transcript), "--lexicon", str(path),
                             "--out", str(tmp_path / "out"))
        assert code == 0
        return (tmp_path / "out" / "t.coded.jsonl").read_text()

    before = coded_with(LEXICON_ROW % ("now", "[]"))
    after = coded_with(LEXICON_ROW % ("okay", "[]"))
    assert after != before
    assert after == coded_with(LEXICON_ROW % ("okay", "[]"), tmp_path / "fresh.jsonl")


# ---------------------------------------------------------------------------
# the cyclic collector: paused while ``main`` runs, the caller's state after
# ---------------------------------------------------------------------------

def _fail(args):
    raise RuntimeError("a fault of the command itself")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, ends", [
    pytest.param(["replicate"], 0, id="exit-0"),
    pytest.param(["stats", "{empty}"], 2, id="exit-2"),
    pytest.param(["stats"], SystemExit, id="argparse-exit"),
    pytest.param(["stats", "{empty}"], RuntimeError, id="command-raises"),
])
def test_main_gives_the_caller_back_its_collector(tmp_path, capsys, monkeypatch, argv, ends,
                                                   enabled):
    (tmp_path / "empty.jsonl").write_text("")
    argv = [arg.format(empty=tmp_path / "empty.jsonl") for arg in argv]
    if ends is RuntimeError:
        monkeypatch.setattr("pausecue.cli.cmd_stats", _fail)
    thresholds, was = gc.get_threshold(), gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(ends, int):
            assert main(argv) == ends
            young = gc.get_count()[0]
        else:
            with pytest.raises(ends):
                main(argv)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is enabled
    assert gc.get_threshold() == thresholds
    if enabled and isinstance(ends, int):
        assert young == 0  # the collection main put off ran inside it, not in its caller


def cyclic_garbage(argv):
    """How many objects the ``main`` call leaves in unreachable cycles.

    The collector is off while the call runs, as it would be for a caller
    that turned it off, so nothing is freed before it is counted.
    """
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.garbage.clear()
    try:
        main(argv)
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        (gc.enable if was else gc.disable)()


def tiled_inputs(directory, n):
    """Inputs n times as long: the intro transcript and the replication corpus
    tiled n times, and a WAV of 3n tone-and-silence pairs."""
    replication.write_corpus(directory)
    for name in (replication.RECORDS_FILE, replication.PAUSES_FILE):
        path = directory / name
        path.write_text(path.read_text() * n)
    (directory / "t.jsonl").write_text((FIXTURES / "directions_intro.jsonl").read_text() * n)
    write_wav(directory / "speech.wav", build_signal([("tone", 0.3), ("silence", 0.4)] * 3 * n),
              RATE)
    return {"corpus": directory, "records": directory / replication.RECORDS_FILE,
            "inventory": directory / replication.PAUSES_FILE,
            "transcript": directory / "t.jsonl", "wav": directory / "speech.wav",
            "out": directory / "out"}


@pytest.mark.parametrize("argv", [
    pytest.param(["segment", "{transcript}", "--out", "{out}"], id="segment"),
    pytest.param(["code", "{transcript}", "--out", "{out}"], id="code"),
    pytest.param(["stats", "{records}", "--pauses", "{inventory}"], id="stats"),
    pytest.param(["pauses", "{wav}", "--out", "{out}"], id="pauses"),
    pytest.param(["replicate", "--corpus", "{corpus}"], id="replicate"),
])
def test_a_command_leaves_no_more_cycles_on_a_longer_input(tmp_path, capsys, argv):
    # the cycles a call leaves are its parsers', so the collector can stay
    # paused in main however long the input is; the first call also counts
    # what loading the command's modules leaves, and is not compared
    counts = []
    for k, n in enumerate((1, 1, 4)):
        files = tiled_inputs(tmp_path / f"call{k}", n)
        counts.append(cyclic_garbage([arg.format(**files) for arg in argv]))
    capsys.readouterr()
    assert counts[2] == counts[1]
