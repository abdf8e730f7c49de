"""Golden outputs of ``segment`` and ``code``.

Each case runs one command in-process on a committed transcript, and every
file it writes, its stdout and its stderr must match the files under
``tests/golden/<command>/<case>/`` byte for byte.  The cases are the two
fixtures and one more run of ``directions_intro`` with committed
``--functions``, ``--weights`` and ``--lexicon`` inputs, which reach the
acknowledgment, lexical-closure and prompt rows and a lexicon entry beyond
the bundled ones.  The output directory is written as ``OUT`` in stdout and
stderr.  A mismatch is shown as a unified diff.
"""

import contextlib
import difflib
import io
from pathlib import Path

import pytest

from conftest import FIXTURES
from pausecue.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUT = "OUT"

#: Each case's transcript and options, every path a file in tests/fixtures.
CASES = {
    "directions_intro": ["directions_intro.jsonl"],
    "directions_resume": ["directions_resume.jsonl"],
    "directions_intro_options": [
        "directions_intro.jsonl", "--functions", "directions_intro.functions.jsonl",
        "--weights", "directions_intro.weights.conf",
        "--lexicon", "directions_intro.lexicon.jsonl"],
}
COMMANDS = ("segment", "code")


def case_argv(command: str, case: str, out: Path) -> list[str]:
    """The arguments of ``command`` on ``case``, writing into ``out``."""
    return [command, *(arg if arg.startswith("--") else str(FIXTURES / arg)
                       for arg in CASES[case]), "--out", str(out)]


def run_case(command: str, case: str, out: Path) -> dict[str, bytes]:
    """Every file ``command`` writes on ``case``, by name, with its stdout
    and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(case_argv(command, case, out))
    assert code == 0, stderr.getvalue()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    for name, text in (("stdout", stdout), ("stderr", stderr)):
        files[name] = text.getvalue().replace(str(out), OUT).encode()
    return files


def golden(command: str, case: str) -> dict[str, bytes]:
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


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("command", COMMANDS)
def test_output_matches_golden(command, case, tmp_path):
    assert_same(run_case(command, case, tmp_path), golden(command, case), f"{command}/{case}")
