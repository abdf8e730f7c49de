"""The benchmark's own tests: generators repeat and every output check fires.

Run from the repository root with ``python -m pytest perfbench``.  Each
test produces real program output on a small generated input, shows that
the checks accept it, then corrupts one thing and shows the op fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import worker  # noqa: E402
from pausecue import cli  # noqa: E402


def run_workload_op(workload: str, scale: float, tmp_path: Path, monkeypatch):
    """Generate a small workload, run op 0, return (op, checker)."""
    monkeypatch.chdir(tmp_path)
    manifest = gen.generate(workload, 5, ROOT, tmp_path / "in", scale=scale)
    ops: list[dict] = []
    worker.loop(cli.main, workload, manifest, "in", "timed", 0.0, ops)
    (op,) = ops
    assert op["error"] is None
    assert op["reference"] > 0
    checker = worker.Checker(ROOT, workload, manifest)
    return op, checker


def rewrite_jsonl(path: Path, edit) -> None:
    rows = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    edit(rows)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def rewrite_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("workload,scale", [("corpus_short", 0.25), ("dialogue_long", 0.02),
                                            ("stats_pooled", 0.075), ("recording_long", 0.06)])
def test_clean_output_passes(workload, scale, tmp_path, monkeypatch):
    op, checker = run_workload_op(workload, scale, tmp_path, monkeypatch)
    failures, records, _ = checker(op)
    assert failures == []
    assert records > 0


def test_same_seed_same_bytes(tmp_path):
    for workload in gen.SIZES:
        a = gen.generate(workload, 9, ROOT, tmp_path / f"{workload}a", scale=0.02)
        b = gen.generate(workload, 9, ROOT, tmp_path / f"{workload}b", scale=0.02)
        c = gen.generate(workload, 10, ROOT, tmp_path / f"{workload}c", scale=0.02)
        assert a["input_sha256"] == b["input_sha256"]
        assert a["input_sha256"] != c["input_sha256"]


def test_wrong_embedding_depth_fails(tmp_path, monkeypatch):
    op, checker = run_workload_op("corpus_short", 0.25, tmp_path, monkeypatch)

    def bump(rows):
        rows[3]["embedding_depth"] += 1
    rewrite_jsonl(Path(op["out"]) / f"{op['stem']}.coded.jsonl", bump)
    failures, _, _ = checker(op)
    assert any("embedding_depth" in f for f in failures)


def test_dropped_record_fails(tmp_path, monkeypatch):
    op, checker = run_workload_op("dialogue_long", 0.01, tmp_path, monkeypatch)
    rewrite_jsonl(Path(op["out"]) / "dialogue.coded.jsonl", lambda rows: rows.pop())
    failures, _, _ = checker(op)
    assert any("coded records for" in f for f in failures)


def test_skipped_fragment_index_fails(tmp_path, monkeypatch):
    op, checker = run_workload_op("dialogue_long", 0.01, tmp_path, monkeypatch)

    def renumber(rows):
        rows[-1]["fragment_index"] += 1
    rewrite_jsonl(Path(op["out"]) / "dialogue.coded.jsonl", renumber)
    failures, _, _ = checker(op)
    assert any("consecutive" in f for f in failures)


def test_shifted_pause_fails(tmp_path, monkeypatch):
    op, checker = run_workload_op("recording_long", 0.06, tmp_path, monkeypatch)

    def shift(rows):
        rows[2]["start_s"] += 0.02
    rewrite_jsonl(Path(op["out"]) / "recording.pauses.jsonl", shift)
    failures, _, _ = checker(op)
    assert any("off by more than one frame" in f for f in failures)


def test_missing_pause_fails(tmp_path, monkeypatch):
    op, checker = run_workload_op("recording_long", 0.06, tmp_path, monkeypatch)
    rewrite_jsonl(Path(op["out"]) / "recording.pauses.jsonl", lambda rows: rows.pop(1))
    failures, _, _ = checker(op)
    assert any("pauses detected" in f for f in failures)


@pytest.mark.parametrize("test,key", [("anova", "F"), ("anova", "p"), ("pearson", "r"),
                                      ("pearson", "p"), ("t_test", "t"), ("t_test", "p")])
def test_perturbed_statistic_fails(test, key, tmp_path, monkeypatch):
    op, checker = run_workload_op("stats_pooled", 0.075, tmp_path, monkeypatch)

    def perturb(report):
        value = report["tests"][test][key]
        report["tests"][test][key] = value + max(abs(value), 1.0) * 1e-8
    rewrite_json(Path(op["out"]) / "report.json", perturb)
    failures, _, _ = checker(op)
    assert any(f"{test}.{key}" in f for f in failures)


def test_text_report_disagreeing_with_json_fails(tmp_path, monkeypatch):
    op, checker = run_workload_op("stats_pooled", 0.075, tmp_path, monkeypatch)
    path = Path(op["out"]) / "report.txt"
    path.write_text(path.read_text().replace("records analyzed:", "records analysed:"))
    failures, _, _ = checker(op)
    assert any("text report lacks" in f for f in failures)


def test_nonzero_exit_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, error = worker.run_op(cli.main, [["stats", "missing.coded.jsonl"]])
    assert error is not None and error.startswith("exit 1")


def test_unaligned_pause_fails(tmp_path, monkeypatch):
    op, checker = run_workload_op("recording_long", 0.06, tmp_path, monkeypatch)

    def stretch(rows):
        rows[2]["raw_duration_s"] += 0.07
    rewrite_jsonl(Path(op["out"]) / "recording.pauses.jsonl", stretch)
    failures, _, _ = checker(op)
    assert any("align to no token" in f for f in failures)


def test_preflight_rejects_a_changed_golden_report(tmp_path, monkeypatch):
    fake = tmp_path / "root"
    (fake / "tests/golden").mkdir(parents=True)
    (fake / "src/pausecue").mkdir(parents=True)
    (fake / "src/pausecue/data").symlink_to(ROOT / "src/pausecue/data")
    golden = (ROOT / "tests/golden/replication_report.txt").read_text()
    (fake / "tests/golden/replication_report.txt").write_text(golden.replace("19.15", "19.16"))
    monkeypatch.chdir(tmp_path)
    assert "golden" in worker.preflight(fake, cli.main)
    monkeypatch.chdir(tmp_path / "root")
    (fake / "tests/golden/replication_report.txt").write_text(golden)
    assert worker.preflight(fake, cli.main) is None


def test_traced_self_times_add_up_to_op_wall(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    manifest = gen.generate("dialogue_long", 5, ROOT, tmp_path / "in", scale=0.02)
    ops: list[dict] = []
    tracer = worker.Tracer()
    original = cli.compute_report
    with worker.Patches() as patches:
        traced_main = tracer.install(patches, cli)
        worker.loop(traced_main, "dialogue_long", manifest, "in", "traced", 0.0, ops, 2, tracer)
    assert cli.compute_report is original
    for i, op in enumerate(ops):
        assert op["error"] is None
        self_sum = sum(self_s for _, _, self_s in tracer.per_op[i].values())
        assert abs(self_sum - op["latency"]) <= 0.01 * op["latency"]
        # apply runs three times per fragment: segment_discourse, build_tree, code
        assert tracer.counts[i]["focus.apply_calls"] == 3 * tracer.counts[i]["fragments.fragments"]
    failures, _, _ = worker.Checker(ROOT, "dialogue_long", manifest)(ops[0])
    assert failures == []
