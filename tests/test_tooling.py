"""The bundled corpus files and the example scripts stay in step with the package."""

import runpy
from importlib import resources
from pathlib import Path

from pausecue import replication

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_bundled_corpus_equals_write_corpus(tmp_path):
    written = replication.write_corpus(tmp_path)
    bundled = resources.files("pausecue") / "data"
    assert [path.name for path in written] == [replication.RECORDS_FILE,
                                               replication.PAUSES_FILE]
    for path in written:
        assert path.read_bytes() == (bundled / path.name).read_bytes(), path.name


def test_worked_examples_script_prints_both_trees(capsys):
    runpy.run_path(str(SCRIPTS / "run_worked_examples.py"), run_name="__main__")
    out = capsys.readouterr().out
    intro, resume = out.split("== directions_resume ==")
    assert intro.startswith("== directions_intro ==")
    assert intro.split("  tree:\n")[1] == (
        "    [0] segment-0 (opened 0, closed 1)\n"
        "    [1] segment-1 (opened 1, open)\n"
        "      [2] segment-2 (opened 2, open)\n"
        "        [3] segment-3 (opened 3, open)\n"
        "\n")
    assert resume.split("  tree:\n")[1] == (
        "    [0] segment-0 (opened 0, open)\n"
        "      [1] segment-1 (opened 1, closed 2)\n"
        "\n")
