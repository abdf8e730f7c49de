"""Golden outputs of every command, the one place they are compared.

Each case runs one command in-process, and every file it writes, its stdout
and its stderr must match the files under ``tests/golden/<command>/<case>/``
byte for byte.  ``segment`` and ``code`` run on the three fixtures and on
one more run of ``directions_intro`` with committed ``--functions``,
``--weights`` and ``--lexicon`` inputs, which reach the acknowledgment,
lexical-closure and prompt rows and a lexicon entry beyond the bundled
ones; in ``directions_anchored`` a repeated topic anchors a Return that
pops two spaces and a Replace that pops three.  ``code`` also runs on a
timed copy of ``directions_resume`` with two detected pauses.  ``stats``
runs on the bundled corpus in text and in JSON, against the whole of
``tests/golden/replication_report.txt`` and ``.json``.  ``pauses`` reads a
short WAV built here, writing into a directory and to stdout, and
``replicate`` checks the bundled corpus and a copy with one unmeasured
record.  The directory the command writes into, or reads its corpus from,
is written as ``OUT``, and each input a case names as its name, in every
output.  A mismatch is shown as a unified diff.
"""

import contextlib
import difflib
import io
import shutil
from pathlib import Path

import pytest

from conftest import FIXTURES, RATE, build_signal, write_wav
from pausecue.cli import main
from pausecue.lexicon import DATA_DIR
from pausecue.replication import PAUSES_FILE, RECORDS_FILE

GOLDEN = Path(__file__).parent / "golden"
OUT = "OUT"

#: Each case's transcript and options, every path a file in tests/fixtures.
CASES = {
    "directions_intro": ["directions_intro.jsonl"],
    "directions_resume": ["directions_resume.jsonl"],
    "directions_anchored": ["directions_anchored.jsonl"],
    "directions_intro_options": [
        "directions_intro.jsonl", "--functions", "directions_intro.functions.jsonl",
        "--weights", "directions_intro.weights.conf",
        "--lexicon", "directions_intro.lexicon.jsonl"],
}
COMMANDS = ("segment", "code")
#: The case only ``code`` runs: timed tokens and two pauses detected between
#: them, one of 0.55 s less an ulp (reported 0.6 only through
#: ``round_tenth``'s guard) and one of 0.12 s, which opens a fragment.
CODE_CASES = {"directions_resume_pauses": [
    "directions_resume.timed.jsonl", "--pauses", "directions_resume.pauses.jsonl"]}
#: The ``stats`` cases on the bundled corpus, by format: where the report
#: goes (a file, as the benchmark's preflight writes it, or stdout) and its
#: golden, which stays where that preflight reads it.
STATS_CASES = {"text": ("report.txt", "replication_report.txt"),
               "json": ("stdout", "replication_report.json")}
#: The inputs of ``stats``, written as the report's footer names them.
RECORDS, INVENTORY = str(DATA_DIR / RECORDS_FILE), str(DATA_DIR / PAUSES_FILE)
BUNDLED = {RECORDS: "bundled", INVENTORY: "bundled"}

#: The recording the ``pauses`` cases read: silences of 0.25 s, measured an
#: ulp short and reported 0.3 only through ``round_tenth``'s guard, 0.1 s
#: (suspect: short and between two tones) and 0.4 s.
SIGNAL = [("tone", 0.22), ("silence", 0.25), ("tone", 0.4), ("silence", 0.1),
          ("tone", 0.3), ("silence", 0.4), ("tone", 0.25)]


def case_argv(command: str, case: str, out: Path) -> list[str]:
    """The arguments of ``command`` on ``case``, writing into ``out``."""
    return [command, *(arg if arg.startswith("--") else str(FIXTURES / arg)
                       for arg in {**CASES, **CODE_CASES}[case]), "--out", str(out)]


def stats_argv(case: str, target: str) -> list[str]:
    """``stats`` on the bundled corpus in the format ``case``, into ``target``."""
    return ["stats", RECORDS, "--pauses", INVENTORY, "--format", case, "--out", target]


def run_case(argv: list[str], out: Path, code: int = 0,
             names: dict[str, str] | None = None) -> dict[str, bytes]:
    """Every file ``main(argv)`` writes into ``out``, by name, with its stdout
    and stderr, ``out`` written as OUT and each path in ``names`` as its name
    throughout; ``main`` must return ``code``."""
    inputs = set(out.iterdir())
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        returned = main(argv)
    assert returned == code, stderr.getvalue()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())
             if path not in inputs}
    files.update(stdout=stdout.getvalue().encode(), stderr=stderr.getvalue().encode())
    names = {str(out): OUT, **(names or {})}
    return {name: named(content, names) for name, content in files.items()}


def named(content: bytes, names: dict[str, str]) -> bytes:
    """``content`` with each path in ``names`` written as its name."""
    for path, name in names.items():
        content = content.replace(path.encode(), name.encode())
    return content


def golden(command: str, case: str) -> dict[str, bytes]:
    """What ``command`` on ``case`` writes, by name."""
    if command == "stats":  # the report, and a line naming it unless it is stdout
        name, report = STATS_CASES[case]
        return {"stdout": f"wrote {OUT}/{name}\n".encode(), "stderr": b"",
                name: (GOLDEN / report).read_bytes()}
    return {path.name: path.read_bytes()
            for path in sorted((GOLDEN / command / case).iterdir())}


def assert_same(produced: dict[str, bytes], expected: dict[str, bytes], where: str) -> None:
    assert sorted(produced) == sorted(expected), where
    for name, content in expected.items():
        if produced[name] != content:
            diff = difflib.unified_diff(
                content.decode(errors="replace").splitlines(keepends=True),
                produced[name].decode(errors="replace").splitlines(keepends=True),
                f"golden/{where}/{name}", f"produced/{name}")
            pytest.fail("".join(diff) or f"{where}/{name}: bytes differ", pytrace=False)


@pytest.mark.parametrize("command, case", [
    *((command, case) for case in CASES for command in COMMANDS),
    *(("code", case) for case in CODE_CASES)])
def test_output_matches_golden(command, case, tmp_path):
    assert_same(run_case(case_argv(command, case, tmp_path), tmp_path), golden(command, case),
                f"{command}/{case}")


@pytest.mark.parametrize("case", STATS_CASES)
def test_stats_output_matches_golden(case, tmp_path):
    name = STATS_CASES[case][0]
    argv = stats_argv(case, "-" if name == "stdout" else str(tmp_path / name))
    assert_same(run_case(argv, tmp_path, names=BUNDLED), golden("stats", case), f"stats/{case}")


@pytest.mark.parametrize("case", ["out_dir", "out_stdout"])
def test_pauses_output_matches_golden(case, tmp_path):
    wav = tmp_path / "short.wav"
    write_wav(wav, build_signal(SIGNAL), RATE)
    argv = ["pauses", str(wav), "--out", "-" if case == "out_stdout" else str(tmp_path)]
    assert_same(run_case(argv, tmp_path), golden("pauses", case), f"pauses/{case}")


@pytest.mark.parametrize("case", ["bundled", "one_unmeasured"])
def test_replicate_output_matches_golden(case, tmp_path):
    argv, code = ["replicate"], 0
    if case == "one_unmeasured":  # the first record, a marked And/Initiate, loses its pause
        shutil.copy(DATA_DIR / PAUSES_FILE, tmp_path)
        records = (DATA_DIR / RECORDS_FILE).read_text(encoding="utf-8")
        (tmp_path / RECORDS_FILE).write_text(
            records.replace('"pause_before_s": 0.43', '"pause_before_s": null', 1),
            encoding="utf-8")
        argv, code = [*argv, "--corpus", str(tmp_path)], 1
    assert_same(run_case(argv, tmp_path, code), golden("replicate", case), f"replicate/{case}")
