"""One workload run in a fresh interpreter: preflight, timed ops, checks.

Started by ``run.py`` as ``python worker.py JOB.json``; writes its results
to the path named in the job.  Every op is one or more in-process
``pausecue.cli.main([...])`` calls on generated files, run closed-loop by a
single client: the next op starts when the previous one returns.

With ``trace`` set the run has four phases after the preflight and warm-up
op: an untraced loop (the base of ``trace.overhead_ratio``), a traced loop
(spans around each layer's entry points), a traced loop on the quarter-size
inputs (scaling exponents) and one op under ``tracemalloc`` (per-stage
peak memory, kept apart from the span timings).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import checks
import gen
from reference import REFERENCE_S, reference_kernel

clock = time.perf_counter


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

def op_plan(workload: str, manifest: dict, inp: str, k: int, out: str) -> dict:
    """The CLI calls of op ``k`` and what its output is checked against."""
    if workload == "corpus_short":
        d = manifest["dialogues"][k % len(manifest["dialogues"])]
        stem = d["transcript"][:-len(".jsonl")]
        pauses = f"{inp}/{d['pauses']}"
        return {"input": f"{inp}/{stem}", "tokens": d["tokens"], "calls": [
            ["code", f"{inp}/{d['transcript']}", "--pauses", pauses, "--out", out],
            ["stats", f"{out}/{stem}.coded.jsonl", "--pauses", pauses,
             "--format", "json", "--out", f"{out}/report.json"]],
            "transcript": f"{inp}/{d['transcript']}", "pauses": pauses, "stem": stem}
    if workload == "dialogue_long":
        return {"input": f"{inp}/dialogue", "tokens": manifest["size"]["tokens"], "calls": [
            ["code", f"{inp}/dialogue.jsonl", "--out", out],
            ["stats", f"{out}/dialogue.coded.jsonl", "--format", "json",
             "--out", f"{out}/report.json"]],
            "transcript": f"{inp}/dialogue.jsonl", "pauses": None, "stem": "dialogue"}
    if workload == "stats_pooled":
        coded, pauses = f"{inp}/{manifest['coded']}", f"{inp}/{manifest['pauses']}"
        return {"input": coded, "tokens": 0, "calls": [
            ["stats", coded, "--pauses", pauses, "--format", "text",
             "--out", f"{out}/report.txt"],
            ["stats", coded, "--pauses", pauses, "--format", "json",
             "--out", f"{out}/report.json"]]}
    detected = f"{out}/recording.pauses.jsonl"
    return {"input": f"{inp}/recording", "tokens": manifest["size"]["tokens"], "calls": [
        ["pauses", f"{inp}/recording.wav", "--out", out],
        ["code", f"{inp}/recording.jsonl", "--pauses", detected, "--out", out],
        ["stats", f"{out}/recording.coded.jsonl", "--pauses", detected,
         "--format", "json", "--out", f"{out}/report.json"]],
        "transcript": f"{inp}/recording.jsonl", "stem": "recording"}


def run_op(main, calls: list[list[str]]) -> tuple[float, str | None]:
    """Run one op; return its wall time and an error message or None."""
    sink = io.StringIO()
    error = None
    t0 = clock()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in calls:
                code = main(argv)
                if code != 0:
                    error = f"exit {code} from {argv[0]}"
                    break
    except (Exception, SystemExit) as exc:  # a crash is a failed op, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    elapsed = clock() - t0
    if error:
        error += ": " + sink.getvalue().strip()[-300:]
    return elapsed, error


def loop(main, workload, manifest, inp, phase, seconds, ops, min_ops=1, tracer=None):
    """Closed loop over ops for ``seconds`` of wall time (at least ``min_ops`` ops).

    The reference kernel runs before the first op and after every op; an
    op's ``reference`` is the mean of the kernel times on either side of it.
    """
    k = 0
    start = clock()
    before = reference_kernel()
    while clock() - start < seconds or k < min_ops:
        out = f"out/{phase}{k}"
        os.makedirs(out)
        plan = op_plan(workload, manifest, inp, k, out)
        if tracer is not None:
            tracer.op = len(ops)
        gc.collect()  # every op starts from the same collector state, as a fresh CLI would
        elapsed, error = run_op(main, plan["calls"])
        if tracer is not None:
            tracer.close_op()
        after = reference_kernel()
        ops.append({"phase": phase, "k": k, "out": out, "latency": elapsed,
                    "reference": (before + after) / 2,
                    "error": error, **{key: plan.get(key) for key in
                                       ("input", "tokens", "transcript", "pauses", "stem")}})
        before = after
        k += 1


def normalised(op: dict) -> float:
    """The op's latency rescaled to the reference speed, in seconds."""
    return op["latency"] / op["reference"] * REFERENCE_S


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _len_arg(i):
    return lambda args, kwargs, result: len(args[i])


#: (module, attribute, span name, {counter: f(args, kwargs, result)}).
#: Stages reached only through another function are wrapped in the calling
#: module's namespace, e.g. ``apply`` in classifier, focus and fragments.
SPANS = [
    ("pausecue.cli", "bundled_lexicon", "lexicon.load", {"lexicon.loads": lambda a, k, r: 1}),
    ("pausecue.lexicon:Lexicon", "match_span", "lexicon.match_span",
     {"lexicon.match_span_calls": lambda a, k, r: 1}),
    ("pausecue.fragments", "judge_cue_use", "lexicon.judge_cue_use", {}),
    ("pausecue.fragments", "read_transcript", "fragments.read_transcript",
     {"fragments.tokens": lambda a, k, r: len(r)}),
    ("pausecue.fragments", "fragmentize", "fragments.fragmentize",
     {"fragments.fragments": lambda a, k, r: len(r)}),
    ("pausecue.fragments", "_align_pauses", "fragments.align",
     {"fragments.align_tokens": _len_arg(0), "fragments.align_pauses": _len_arg(1)}),
    ("pausecue.fragments", "code", "fragments.code", {}),
    ("pausecue.fragments", "write_coded", "fragments.write_coded", {}),
    ("pausecue.fragments", "write_coded_tsv", "fragments.write_coded_tsv", {}),
    ("pausecue.fragments", "read_coded", "fragments.read_coded", {}),
    ("pausecue.classifier", "segment_discourse", "classifier.segment_discourse", {
        "classifier.low_confidence":
            lambda a, k, r: sum(c.low_confidence for c in r.classifications),
        "classifier.tie_breaks":
            lambda a, k, r: sum(c.tie_break_applied for c in r.classifications)}),
    ("pausecue.classifier", "extract_evidence", "classifier.extract_evidence", {}),
    ("pausecue.classifier", "classify", "classifier.classify", {}),
    ("pausecue.classifier", "apply", "focus.apply", {"focus.apply_calls": lambda a, k, r: 1}),
    ("pausecue.focus", "apply", "focus.apply", {"focus.apply_calls": lambda a, k, r: 1}),
    ("pausecue.fragments", "apply", "focus.apply", {"focus.apply_calls": lambda a, k, r: 1}),
    ("pausecue.classifier", "build_tree", "focus.build_tree", {}),
    ("pausecue.cli", "compute_report", "stats.compute_report",
     {"stats.records": _len_arg(0)}),
    ("pausecue.stats", "table_distributions", "stats.table_distributions", {}),
    ("pausecue.stats", "grouped_means", "stats.grouped_means", {}),
    ("pausecue.stats", "anova_one_way", "stats.anova", {}),
    ("pausecue.stats", "pearson", "stats.pearson", {}),
    ("pausecue.stats", "t_test_pooled", "stats.t_test", {}),
    ("pausecue.report", "render_text", "report.render", {}),
    ("pausecue.report", "render_json", "report.render", {}),
    ("pausecue.pauses", "read_wav", "pauses.read_wav", {}),
    ("pausecue.pauses", "frame_energy", "pauses.frame_energy",
     {"pauses.frames": lambda a, k, r: len(r.energies)}),
    ("pausecue.pauses", "detect_pauses", "pauses.detect_pauses",
     {"pauses.detected": lambda a, k, r: len(r)}),
    ("pausecue.pauses", "read_pauses", "pauses.read_pauses", {}),
    ("pausecue.pauses", "write_pauses", "pauses.write_pauses", {}),
]

#: Stages whose peak allocation the tracemalloc pass reports.
MEMORY_STAGES = [
    ("pausecue.pauses", "read_wav", "pauses.read_wav"),
    ("pausecue.pauses", "frame_energy", "pauses.frame_energy"),
    ("pausecue.fragments", "fragmentize", "fragments.fragmentize"),
    ("pausecue.classifier", "segment_discourse", "classifier.segment_discourse"),
    ("pausecue.cli", "compute_report", "stats.compute_report"),
]

#: JSONL row counters: readers and writers as imported into each module.
ROW_READERS = ("pausecue.fragments", "pausecue.pauses", "pausecue.lexicon")
ROW_WRITERS = ("pausecue.fragments", "pausecue.pauses")


def _owner(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Patches:
    """Replace attributes and put every original back on exit."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, child time].

    Spans of the first traced op are kept for ``spans.jsonl``; later ops are
    folded into per-op totals as soon as they end, which bounds memory.
    """

    def __init__(self):
        self.op = 0
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.kept: list[list] = []
        self.per_op: dict[int, dict] = {}     # op -> {name: [calls, total_s, self_s]}
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.max_depth: dict[int, int] = defaultdict(int)

    def wrap(self, fn, name, counters=None):
        spans, stack = self.spans, self.stack
        counters = counters or {}

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, self.op, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += end - rec[1]
            for key, count in counters.items():
                self.counts[self.op][key] += count(args, kwargs, result)
            if name == "focus.apply" and result.depth > self.max_depth[self.op]:
                self.max_depth[self.op] = result.depth
            return result

        return traced

    def _reader(self, fn, key):
        def counted(*args, **kwargs):
            return self._tally(fn(*args, **kwargs), key)
        return counted

    def _writer(self, fn, key):
        def counted(target, rows):
            return fn(target, self._tally(rows, key))
        return counted

    def _tally(self, rows, key):
        counts = self.counts[self.op]
        for row in rows:
            counts[key] += 1
            yield row

    def close_op(self):
        """Fold the finished op's spans into totals; keep the first op's spans."""
        agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, start, end, _, _, child in self.spans:
            entry = agg[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child
        self.per_op[self.op] = dict(agg)
        if not self.kept:
            self.kept = list(self.spans)
        self.spans.clear()

    def install(self, patches: Patches, cli_module):
        for target, attr, name, counters in SPANS:
            owner = _owner(target)
            patches.set(owner, attr, self.wrap(owner.__dict__[attr], name, counters))
        for module in ROW_READERS:
            owner = importlib.import_module(module)
            patches.set(owner, "iter_jsonl", self._reader(owner.iter_jsonl, "jsonl.rows_read"))
        for module in ROW_WRITERS:
            owner = importlib.import_module(module)
            patches.set(owner, "write_jsonl",
                        self._writer(owner.write_jsonl, "jsonl.rows_written"))
        return self.wrap(cli_module.main, "cli", {"cli.calls": lambda a, k, r: 1})


def memory_wrap(fn, name, peaks):
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks[name] = max(peaks.get(name, 0.0), tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
    return measured


# ---------------------------------------------------------------------------
# Preflight and checks
# ---------------------------------------------------------------------------

def preflight(root: Path, main) -> str | None:
    """``replicate`` passes 9/9 and ``stats`` reproduces the golden report."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["replicate"])
    if code != 0 or "9 passed, 0 failed" not in sink.getvalue():
        return "replicate did not pass 9/9:\n" + sink.getvalue()
    os.makedirs("preflight")
    data = root / "src/pausecue/data"
    shutil.copy(data / "replication_records.jsonl", "preflight/records.jsonl")
    shutil.copy(data / "replication_pauses.jsonl", "preflight/pauses.jsonl")
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(["stats", "preflight/records.jsonl", "--pauses", "preflight/pauses.jsonl",
                     "--format", "text", "--out", "preflight/report.txt"])
    golden = (root / "tests/golden/replication_report.txt").read_bytes()
    # The golden footer names the inputs "bundled"; here they are the copies.
    expected = golden.replace(b"input=bundled pauses=bundled",
                              b"input=preflight/records.jsonl pauses=preflight/pauses.jsonl")
    if code != 0 or Path("preflight/report.txt").read_bytes() != expected:
        return "stats on the bundled corpus differs from tests/golden/replication_report.txt"
    return None


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Checker:
    """Checks each op's outputs; identical outputs of one input are checked once."""

    def __init__(self, root: Path, workload: str, manifest: dict, quarter: dict | None = None):
        self.workload = workload
        self.manifest = manifest
        self.quarter = quarter
        self.rule = checks.FragmentRule(checks.read_jsonl(root / checks.LEXICON))
        self.expected: dict[str, int] = {}
        self.verdicts: dict[tuple, tuple[list[str], int]] = {}

    def __call__(self, op: dict) -> tuple[list[str], int, str]:
        """Failures, records taken through stats, and the output digest."""
        out = Path(op["out"])
        files = sorted(p for p in out.iterdir())
        key = (op["input"], digest(files))
        if key not in self.verdicts:
            self.verdicts[key] = self._check(op, out)
        failures, records = self.verdicts[key]
        return failures, records, key[1]

    def _check(self, op: dict, out: Path) -> tuple[list[str], int]:
        report = json.loads((out / "report.json").read_text())
        if self.workload == "stats_pooled":
            rows = checks.read_jsonl(Path(op["input"]))
            failures = checks.check_stats(report, rows)
            failures += checks.check_text_report((out / "report.txt").read_text(), report)
            return failures, 2 * len(rows)
        rows = checks.read_jsonl(out / f"{op['stem']}.coded.jsonl")
        tsv_lines = len((out / f"{op['stem']}.coded.tsv").read_text().splitlines())
        failures = []
        if self.workload == "recording_long":
            manifest = self.quarter if op["phase"] == "quarter" else self.manifest
            tokens = checks.read_jsonl(Path(op["transcript"]))
            detected = checks.read_jsonl(out / "recording.pauses.jsonl")
            failures += checks.check_pauses(detected, manifest["silences"], tokens)
            planted = [{"start_s": s, "raw_duration_s": d} for s, d in manifest["silences"]]
            expected = self.rule.count(tokens, planted)
        else:
            if op["transcript"] not in self.expected:
                tokens = checks.read_jsonl(Path(op["transcript"]))
                pauses = checks.read_jsonl(Path(op["pauses"])) if op["pauses"] else None
                self.expected[op["transcript"]] = self.rule.count(tokens, pauses)
            expected = self.expected[op["transcript"]]
        failures += checks.check_coded(rows, tsv_lines, expected)
        failures += checks.check_stats(report, rows)
        return failures, len(rows)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, op_ids: list[int], ops: list[dict]) -> dict:
    """Per-op means of self times (normalised) and counters over the traced ops."""
    n = len(op_ids)
    totals: dict[str, float] = defaultdict(float)
    for i in op_ids:
        scale = REFERENCE_S / ops[i]["reference"]
        for name, (calls, _, self_s) in tracer.per_op[i].items():
            totals[f"{name}_self"] += self_s * scale
        for key, value in tracer.counts[i].items():
            totals[key] += value
    metrics = {f"{name}_s": totals.get(f"{name}_self", 0.0) / n for name in STAGE_TIMES}
    metrics["cli.self_s"] = totals.get("cli_self", 0.0) / n
    for key in COUNTERS:
        metrics[key] = totals.get(key, 0) / n
    metrics["focus.max_depth"] = max(tracer.max_depth[i] for i in op_ids)
    self_sum = sum(self_s for i in op_ids for _, _, self_s in tracer.per_op[i].values())
    metrics["trace.coverage"] = self_sum / sum(ops[i]["latency"] for i in op_ids)
    return metrics


#: Span names reported as ``<name>_s`` (self time per op).
STAGE_TIMES = [
    "lexicon.load", "lexicon.match_span", "lexicon.judge_cue_use",
    "fragments.read_transcript", "fragments.fragmentize", "fragments.code",
    "fragments.write_coded", "fragments.write_coded_tsv", "fragments.align",
    "fragments.read_coded", "classifier.segment_discourse", "classifier.extract_evidence",
    "classifier.classify", "focus.apply", "focus.build_tree", "stats.compute_report",
    "stats.table_distributions", "stats.grouped_means", "stats.anova", "stats.pearson",
    "stats.t_test", "report.render", "pauses.read_wav", "pauses.frame_energy",
    "pauses.detect_pauses", "pauses.read_pauses", "pauses.write_pauses",
]
COUNTERS = [
    "cli.calls", "lexicon.loads", "lexicon.match_span_calls", "fragments.tokens",
    "fragments.fragments", "fragments.align_pauses", "fragments.align_tokens",
    "jsonl.rows_read", "jsonl.rows_written", "classifier.low_confidence",
    "classifier.tie_breaks", "focus.apply_calls", "stats.records", "pauses.frames",
    "pauses.detected",
]
#: Stages whose log-log slope against input size is reported as ``<stage>.exp``.
EXP_STAGES = [
    "cli", "lexicon.match_span", "fragments.read_transcript", "fragments.fragmentize",
    "fragments.align", "fragments.code", "classifier.segment_discourse",
    "classifier.classify", "focus.apply", "focus.build_tree", "fragments.read_coded",
    "stats.compute_report", "stats.anova", "pauses.read_wav", "pauses.frame_energy",
    "pauses.detect_pauses",
]


def work_size(workload: str, manifest: dict) -> float:
    """Per-op input size used for scaling exponents."""
    size = manifest["size"]
    if workload == "corpus_short":
        return size["tokens"] / size["dialogues"]
    return {"dialogue_long": size.get("tokens"), "stats_pooled": size.get("records"),
            "recording_long": size.get("audio_s")}[workload]


def exponents(tracer, ops, full_ids, quarter_ids, ratio) -> dict:
    def normalised_total(ids, name):
        return statistics.median(tracer.per_op[i].get(name, [0, 0.0])[1] / ops[i]["reference"]
                                 for i in ids)

    result = {}
    for name in EXP_STAGES:
        big, small = normalised_total(full_ids, name), normalised_total(quarter_ids, name)
        result[f"{name}.exp"] = (math.log(big / small) / math.log(ratio)
                                 if big > 0 and small > 0 else 0.0)
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    root = Path(job["root"])
    workload, seconds, traced_run = job["workload"], job["seconds"], job["trace"]
    sys.path.insert(0, str(root / "src"))
    os.chdir(job["workdir"])
    from pausecue import cli

    problem = preflight(root, cli.main)
    if problem:
        print(f"preflight failed: {problem}", file=sys.stderr)
        return 3

    ops: list[dict] = []
    loop(cli.main, workload, job["manifest"], "in", "warm", 0.0, ops)
    ops.clear()
    metrics: dict[str, float] = {}
    spans_path = None
    if not traced_run:
        loop(cli.main, workload, job["manifest"], "in", "timed", seconds, ops, min_ops=3)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        loop(cli.main, workload, job["manifest"], "in", "untraced", 0.25 * seconds, ops, 2)
        n_untraced = len(ops)
        tracer = Tracer()
        with Patches() as patches:
            traced_main = tracer.install(patches, cli)
            start = len(ops)
            loop(traced_main, workload, job["manifest"], "in", "traced", 0.35 * seconds,
                 ops, 2, tracer)
            full_ids = list(range(start, len(ops)))
            start = len(ops)
            loop(traced_main, workload, job["quarter"], "in_q", "quarter", 0.1 * seconds,
                 ops, 2, tracer)
            quarter_ids = list(range(start, len(ops)))
        peaks: dict[str, float] = {}
        with Patches() as patches:
            for target, attr, name in MEMORY_STAGES:
                owner = _owner(target)
                patches.set(owner, attr, memory_wrap(owner.__dict__[attr], name, peaks))
            loop(cli.main, workload, job["manifest"], "in", "memory", 0.0, ops)
        metrics.update(layer_metrics(tracer, full_ids, ops))
        ratio = (work_size(workload, job["manifest"]) / work_size(workload, job["quarter"]))
        metrics.update(exponents(tracer, ops, full_ids, quarter_ids, ratio))
        for _, _, name in MEMORY_STAGES:
            metrics[f"{name}_peak_mb"] = peaks.get(name, 0.0)
        untraced = [normalised(op) for op in ops[:n_untraced]]
        traced = [normalised(ops[i]) for i in full_ids]
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        spans_path = Path(job["spans"])
        with open(spans_path, "w", encoding="utf-8") as fp:
            for name, start_s, end_s, parent, op_id, _ in tracer.kept:
                fp.write(json.dumps({"name": name, "start": start_s, "end": end_s,
                                     "parent": parent, "op": op_id}) + "\n")

    checker = Checker(root, workload, job["manifest"], job.get("quarter"))
    failed_messages = []
    output_digests: dict[str, str] = {}
    for op in ops:
        failures, records, out_digest = ([op["error"]], 0, "") if op["error"] else checker(op)
        op["failures"] = failures
        op["records"] = records
        if op["phase"] in ("timed", "untraced") and not failures:
            output_digests.setdefault(op["input"], out_digest)
        if failures:
            failed_messages.append(f"{op['phase']}{op['k']}: {'; '.join(failures)}")

    # Medians of normalised per-op figures: the host's speed changes within
    # and between runs, and each op is rescaled by the reference kernel timed
    # on either side of it (see reference.py).
    base = [op for op in ops if op["phase"] in ("timed", "untraced")]
    latencies = [op["latency"] for op in base]
    if not traced_run:
        metrics.update({
            "op_ms": 1000 * statistics.median(normalised(op) for op in base),
            "records_per_s": statistics.median(op["records"] / normalised(op) for op in base),
            "peak_rss_mb": rss_mb,
        })
    else:
        audio_s = job["manifest"]["size"].get("audio_s", 0.0)
        metrics.update({
            "run.fail_ratio": sum(bool(op["failures"]) for op in ops) / len(ops),
            "run.tokens_per_s": statistics.median(op["tokens"] / normalised(op) for op in base),
            "run.audio_s_per_s": audio_s / statistics.median(normalised(op) for op in base),
        })

    result = {
        "attempted": len(ops),
        "failed": sum(bool(op["failures"]) for op in ops),
        "failures": failed_messages[:20],
        "metrics": metrics,
        "samples": len(base),
        # Raw wall times, as the host gave them.  p95 has at least ten
        # samples beyond it only on corpus_short, so it is not gated.
        "latency_ms": {name: 1000 * value for name, value in zip(
            ("min", "p25", "p50", "p75", "p95", "max", "mean"),
            (min(latencies), *statistics.quantiles(latencies, n=4, method="inclusive"),
             statistics.quantiles(latencies, n=20, method="inclusive")[18], max(latencies),
             statistics.fmean(latencies)))},
        "reference_ms": {name: 1000 * value for name, value in zip(
            ("p25", "p50", "p75"), statistics.quantiles([op["reference"] for op in base], n=4,
                                                  method="inclusive"))},
        # A fixed prefix of inputs, so that the digest does not depend on speed.
        "output_sha256": {"first_input": output_digests.get(ops[0]["input"], ""),
                          "first_50_inputs": gen.combined(dict(list(output_digests.items())[:50])),
                          "inputs_covered": len(output_digests)},
        "spans": job["spans"] if spans_path else None,
    }
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
