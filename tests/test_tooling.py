"""The bundled corpus files, the example scripts, the bench harness's hooks and
the public names and value-type fields stay in step with the package."""

import ast
import importlib
import inspect
import io
import json
import os
import re
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import rebuilt, value_classes
from pausecue import fragments, lexicon, pauses, replication

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_bundled_corpus_equals_write_corpus(tmp_path):
    build = runpy.run_path(str(SCRIPTS / "build_replication_corpus.py"))
    written = build["write_corpus"](tmp_path)
    # the one constant the readers use names the directory shipped with the code
    bundled = lexicon.DATA_DIR
    assert bundled == ROOT / "src" / "pausecue" / "data"
    assert [path.name for path in written] == [replication.RECORDS_FILE,
                                               replication.PAUSES_FILE]
    for path in written:
        assert path.read_bytes() == (bundled / path.name).read_bytes(), path.name


def _result_line(op_ms, rss, failed=0, attempted=10):
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {"op_ms": {"value": op_ms, "unit": "ms"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"},
                                   "setup_s": {"value": None, "unit": "s"}}})


def test_bench_pairs_summarises_result_lines():
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    detail = json.dumps({"detail": {"workload": "dialogue_long"}})
    lines = [(41, (800.0, 55.0), (610.0, 55.2)), (42, (820.0, 55.1), (600.0, 55.1)),
             (43, (790.0, 55.3), (640.0, 55.0)), (44, (810.0, 55.2), (830.0, 55.4))]
    pairs = [(seed, bench["parse_result"](f"{detail}\n{_result_line(*base)}\n"),
              bench["parse_result"](f"{detail}\n{_result_line(*change, failed=seed % 2)}\n"))
             for seed, base, change in lines]
    summary = bench["summarise"](pairs, {"op_ms": "lower", "peak_rss_mb": "lower",
                                         "setup_s": "lower"})
    assert summary["seeds"] == [41, 42, 43, 44]
    assert summary["failed_ops"] == {"base": {"failed": 0, "attempted": 40},
                                     "change": {"failed": 2, "attempted": 40}}
    assert set(summary["metrics"]) == {"op_ms", "peak_rss_mb"}  # setup_s is null
    op_ms = summary["metrics"]["op_ms"]
    assert (op_ms["wins"], op_ms["pairs"], op_ms["unit"]) == (3, 4, "ms")
    assert op_ms["base"]["median"] == 805.0
    assert op_ms["change"]["median"] == 625.0
    assert (op_ms["base"]["q1"], op_ms["base"]["q3"]) == (792.5, 817.5)
    assert op_ms["change"]["values"] == [610.0, 600.0, 640.0, 830.0]
    # a tie is no win
    assert summary["metrics"]["peak_rss_mb"]["wins"] == 1


def test_bench_pairs_makes_a_missing_scratch_directory(tmp_path, monkeypatch):
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    exported = []

    def export(sha, dest):
        dest.mkdir(parents=True)
        exported.append(dest)

    spec = {"run_seconds": 1, "end_to_end": [{"name": "op_ms", "better": "lower"}],
            "per_layer": []}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    for name, value in {"ROOT": tmp_path, "_git": lambda *args: "abc",
                        "_working_tree": lambda: "tree", "_export": export,
                        "_run": lambda *args: json.loads(_result_line(1.0, 50.0))}.items():
        monkeypatch.setitem(bench["main"].__globals__, name, value)
    scratch = tmp_path / "new" / "scratch"
    assert bench["main"](["--pr", "t", "--workloads", "w", "--seeds", "1-2",
                          "--scratch", str(scratch)]) == 0
    assert scratch.is_dir() and exported[0].parent.parent == scratch
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["results"]["w"]["trace0"]["seeds"] == [1, 2]


def test_bench_pairs_adds_pairs_on_new_seeds_and_refuses_held_ones(tmp_path, monkeypatch):
    bench = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    runs = []

    def run(checkout, workload, seed, seconds, trace):
        side = "base" if checkout.name == "base" else "change"
        runs.append((seed, side))
        return json.loads(_result_line(100.0 + seed if side == "base" else 90.0, 50.0))

    spec = {"run_seconds": 1, "end_to_end": [{"name": "op_ms", "better": "lower"}],
            "per_layer": []}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    for name, value in {"ROOT": tmp_path, "_git": lambda *args: "abc",
                        "_working_tree": lambda: "tree",
                        "_export": lambda sha, dest: dest.mkdir(parents=True),
                        "_run": run}.items():
        monkeypatch.setitem(bench["main"].__globals__, name, value)
    argv = ["--pr", "t", "--workloads", "w", "--scratch", str(tmp_path / "scratch")]
    assert bench["main"]([*argv, "--seeds", "1-2"]) == 0
    assert bench["main"]([*argv, "--seeds", "3-4"]) == 0
    path = tmp_path / "BENCH_t.json"
    summary = json.loads(path.read_text())["results"]["w"]["trace0"]
    assert summary["seeds"] == [1, 2, 3, 4]
    assert [pair["seed"] for pair in summary["pairs"]] == [1, 2, 3, 4]
    assert summary["pairs"][2]["base"]["metrics"]["op_ms"]["value"] == 103.0
    op_ms = summary["metrics"]["op_ms"]
    assert op_ms["base"]["values"] == [101.0, 102.0, 103.0, 104.0]
    assert (op_ms["wins"], op_ms["pairs"], op_ms["base"]["median"]) == (4, 4, 102.5)
    assert summary["failed_ops"]["change"] == {"failed": 0, "attempted": 40}
    # the side that runs first alternates on from the pairs already held
    assert runs == [(1, "base"), (1, "change"), (2, "change"), (2, "base"),
                    (3, "base"), (3, "change"), (4, "change"), (4, "base")]
    held = path.read_bytes()
    with pytest.raises(SystemExit, match="already holds w trace 0 seeds 4; choose other"):
        bench["main"]([*argv, "--seeds", "4-5"])
    assert path.read_bytes() == held and len(runs) == 8


def _worker_tables() -> dict:
    """The literal hook tables of ``perfbench/worker.py``, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text(encoding="utf-8"))
    return {node.targets[0].id: node.value for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)}


def test_bench_hooks_resolve_in_the_package():
    tables = _worker_tables()
    hooks = [(ast.literal_eval(entry.elts[0]), ast.literal_eval(entry.elts[1]))
             for name in ("SPANS", "MEMORY_STAGES") for entry in tables[name].elts]
    hooks += [(module, "iter_jsonl") for module in ast.literal_eval(tables["ROW_READERS"])]
    hooks += [(module, "write_jsonl") for module in ast.literal_eval(tables["ROW_WRITERS"])]
    assert len(hooks) > 30
    for target, attr in hooks:
        module, _, cls = target.partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        # the harness patches the owner's own attribute, as it is called at run time
        assert callable(vars(owner).get(attr)), f"{target}.{attr}"


def test_bench_row_counters_see_every_row(monkeypatch):
    # the harness counts rows by patching these module attributes; a reader or
    # writer that bypassed them would read zero rows in a traced run
    tables = _worker_tables()
    counts = Counter()

    def reader(module, read):
        def counted(path):
            for row in read(path):
                counts[module, "read"] += 1
                yield row
        return counted

    def writer(module, write):
        def counted(target, rows):
            rows = list(rows)
            counts[module, "written"] += len(rows)
            write(target, rows)
        return counted

    for module in ast.literal_eval(tables["ROW_READERS"]):
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, "iter_jsonl", reader(module, owner.iter_jsonl))
    for module in ast.literal_eval(tables["ROW_WRITERS"]):
        owner = importlib.import_module(module)
        monkeypatch.setattr(owner, "write_jsonl", writer(module, owner.write_jsonl))
    data = lexicon.DATA_DIR
    transcript = ROOT / "tests" / "fixtures" / "directions_intro.jsonl"
    records = fragments.read_coded(data / replication.RECORDS_FILE)
    tokens = fragments.read_transcript(transcript)
    inventory = pauses.read_pauses(data / replication.PAUSES_FILE)
    lexicon.bundled_lexicon.cache_clear()  # read it again, through the patched reader
    lexicon.bundled_lexicon()
    fragments.write_coded(io.StringIO(), records)
    pauses.write_pauses(io.StringIO(), inventory)

    def lines(*paths):
        return sum(1 for path in paths for line in path.read_text().splitlines() if line.strip())

    assert counts == {
        ("pausecue.fragments", "read"): lines(data / replication.RECORDS_FILE, transcript),
        ("pausecue.pauses", "read"): lines(data / replication.PAUSES_FILE),
        ("pausecue.lexicon", "read"): lines(data / "lexicon.jsonl"),
        ("pausecue.fragments", "written"): len(records),
        ("pausecue.pauses", "written"): len(inventory),
    }


def test_bench_span_hooks_see_every_fragmentize_call(monkeypatch):
    # the harness times these stages by patching the attributes SPANS names;
    # fragmentize must reach each through that attribute, as often as the
    # per-token pass does the work, or a traced run would misreport it
    spans = {ast.literal_eval(entry.elts[2]): (ast.literal_eval(entry.elts[0]),
                                               ast.literal_eval(entry.elts[1]))
             for entry in _worker_tables()["SPANS"].elts}
    calls, matched = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "lexicon.match_span" and result is not None:
                matched.append(result[0].token_class)
            return result
        return wrapper

    for name in ("lexicon.match_span", "lexicon.judge_cue_use", "fragments.align"):
        module, _, cls = spans[name][0].partition(":")
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        monkeypatch.setattr(owner, spans[name][1], counted(name, vars(owner)[spans[name][1]]))
    # one of its three cue-phrase matches is not utterance-initial
    transcript = ROOT / "tests" / "fixtures" / "directions_resume.jsonl"
    tokens = [rebuilt(token, start_s=0.5 * i)
              for i, token in enumerate(fragments.read_transcript(transcript))]
    inventory = [pauses.PauseRecord(start_s=0.5 * i - 0.3, raw_duration_s=0.3) for i in (3, 10)]
    frags = fragments.fragmentize(tokens, inventory, lexicon.bundled_lexicon())
    assert calls["lexicon.match_span"] == len(tokens)
    assert calls["lexicon.judge_cue_use"] == matched.count("cue_phrase") > 0
    assert calls["fragments.align"] == 1
    assert {tokens.index(f.tokens[0]) for f in frags if f.pause_before_s == 0.3} >= {3, 10}


#: The value types that are named tuples, with the fields and defaults they
#: had as dataclasses, which the audit log, the JSON report and library
#: callers see.  StatsReport.notes alone lost its default (a new empty list).
NAMED_TUPLES = {
    "stats.CellStat": (("mean", "count", "sd"), {"sd": None}),
    "stats.GroupedMeans": (("cells", "row_margins", "col_margins", "grand", "row_order",
                            "col_order"), {}),
    "stats.AnovaResult": (("F", "df_between", "df_within", "p"), {}),
    "stats.CorrResult": (("r", "n", "p"), {}),
    "stats.TTestResult": (("t", "df", "p", "mean_a", "mean_b", "sd_a", "sd_b", "n_a", "n_b"),
                          {}),
    "stats.CountPanel": (("cells", "row_order", "col_order"), {}),
    "stats.PausePanel": (("bins", "counts", "totals", "averages"), {}),
    "stats.DistributionTables": (("operation_marked", "token_position", "pause_panel"), {}),
    "stats.StatsReport": (("n_records", "excluded_records", "distributions", "by_operation",
                           "by_token_and_operation", "by_marking", "anova", "correlation",
                           "t_test", "notes", "config_note"), {"config_note": ""}),
    "classifier.Classification": (
        ("operation", "score", "alternatives", "evidence_used", "low_confidence",
         "singleton_boosted", "tie_break_applied", "prior_disagreement"),
        {"low_confidence": False, "singleton_boosted": False, "tie_break_applied": False,
         "prior_disagreement": False}),
    "lexicon.CueJudgment": (("is_cue", "rule_fired"), {}),
    "lexicon.CueContext": (("utterance_initial", "coordination", "accents",
                            "own_intonational_phrase"),
                           {"coordination": None, "accents": None,
                            "own_intonational_phrase": None}),
    "replication.CheckResult": (("name", "passed", "detail"), {}),
    "focus.LinguisticTree": (("nodes", "parent", "depths", "order", "open_ids"), {}),
}


def test_value_types_keep_their_fields():
    for target, (fields, defaults) in NAMED_TUPLES.items():
        module, _, name = target.partition(".")
        cls = getattr(importlib.import_module(f"pausecue.{module}"), name)
        assert issubclass(cls, tuple) and not hasattr(cls, "__dataclass_fields__"), target
        assert (cls._fields, cls._field_defaults) == (fields, defaults), target



#: Every name ``pausecue`` has exported since it imported its submodules
#: eagerly, by the submodule that defines it.
EXPORTS = {
    "classifier": ["ClassifierConfig", "Classification", "EvidenceItem", "classify",
                   "extract_evidence", "segment_discourse"],
    "focus": ["EmptyStackError", "FocusingOperation", "FocusSpace", "FocusStack",
              "LinguisticTree", "MalformedOperation", "OpKind", "UnderflowError", "apply",
              "build_tree", "segments_affected"],
    "fragments": ["AnnotatedToken", "CodedRecord", "EmptyTranscript", "LengthMismatch",
                  "MisalignedPause", "SpeechFragment", "code", "fragmentize"],
    "lexicon": ["CueContext", "CueEntry", "CueJudgment", "Lexicon", "MissingAnnotation",
                "bundled_lexicon", "judge_cue_use", "load_lexicon"],
    "pauses": ["AudioFrameSeries", "PauseConfig", "PauseRecord", "UnsupportedFormat",
               "detect_pauses", "frame_energy", "read_wav", "round_tenth"],
    "stats": ["AnovaResult", "CorrResult", "GroupedMeans", "StatsReport", "TTestResult",
              "ZeroVariance", "anova_one_way", "compute_report", "pearson",
              "table_distributions", "t_test_pooled"],
}
#: In a new interpreter: the submodules ``import pausecue`` loads, then each
#: submodule as a package attribute and each exported name through ``from
#: pausecue import`` that is not the submodule's own object.
RE_EXPORTS = """\
import json, sys
import pausecue
loaded = [m for m in sys.modules if m.startswith("pausecue.")]
wrong = []
for module, names in json.loads(sys.argv[1]).items():
    if getattr(pausecue, module) is not sys.modules[f"pausecue.{module}"]:
        wrong.append(module)
    for name in names:
        scope = {}
        exec(f"from pausecue import {name}", scope)
        if scope[name] is not getattr(sys.modules[f"pausecue.{module}"], name):
            wrong.append(name)
print(json.dumps([loaded, wrong]))
"""


def test_the_package_exports_each_name_on_first_use():
    done = subprocess.run([sys.executable, "-c", RE_EXPORTS, json.dumps(EXPORTS)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], []]
    import pausecue
    with pytest.raises(AttributeError, match="^module 'pausecue' has no attribute 'nope'$"):
        pausecue.nope
    with pytest.raises(ImportError, match="cannot import name 'ordered_sum'"):
        exec("from pausecue import ordered_sum", {})


def test_the_package_version_is_the_project_version():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.partition("\n[project]\n")[2].partition("\n[")[0]
    found = re.search(r'^version = "(.+)"$', project, re.MULTILINE).group(1)
    if sys.version_info >= (3, 11):  # the regex, all 3.10 has, reads what tomllib reads
        import tomllib
        assert found == tomllib.loads(text)["project"]["version"]
    import pausecue
    assert pausecue.__version__ == found


#: Library definitions kept although nothing outside the tests calls them.
UNUSED_ALLOWED = {
    "lexicon.Lexicon.lookup": "the README documents it as the lookup of raw, "
                              "unnormalized text",
    "__init__.__getattr__": "PEP 562: the interpreter calls it for `from pausecue import X`",
}


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level function or class and each
    method of a top-level class; dunder methods run without being named."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_library_definition_is_used_outside_the_tests():
    # a name counts as used when the package, the scripts or the bench harness
    # load it, import it, read it as an attribute or spell it as a string
    # (Field names, the attributes the harness patches); a method shares its
    # name's use with every other attribute of that name.  The package's
    # re-exports are no use: a name only they import is called by no one.
    used, library = set(), {}
    for root in ("src/pausecue", "scripts", "perfbench"):
        for path in sorted((ROOT / root).glob("*.py")):
            if path.name.startswith("test_"):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            if root == "src/pausecue":
                library[path.stem] = tree
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias) and path.name != "__init__.py":
                    used.update(node.name.split("."))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and node.value.isidentifier():
                    used.add(node.value)
    unused = {f"{module}.{qualified}" for module, tree in library.items()
              for qualified, name in _definitions(tree) if name not in used}
    assert unused == set(UNUSED_ALLOWED)


#: The only classes in the package that define ``==``, ``hash`` or ``repr``, and why.
VALUE_METHOD_OWNERS = {
    "jsonl.Record": "== and repr of every value class, read off its fields; a record "
                    "may be changed, so it is unhashable",
    "jsonl.Frozen": "the hash of an immutable value class, read off its fields",
    "pauses.AudioFrameSeries": "identity, since == on the energies is elementwise",
}
VALUE_METHODS = ("__eq__", "__hash__", "__repr__")


def test_one_base_gives_every_value_class_its_methods():
    from pausecue.jsonl import Frozen, Record
    for name, cls in value_classes().items():
        if f"{cls.__module__.rpartition('.')[2]}.{name}" not in VALUE_METHOD_OWNERS:
            assert (cls.__eq__, cls.__repr__, cls.__hash__) == (
                Record.__eq__, Record.__repr__,
                Frozen.__hash__ if issubclass(cls, Frozen) else None), name
    src = ROOT / "src" / "pausecue"
    owners = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        # written: a def or an assignment of one of the names in a class body
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    names = ([item.name] if isinstance(item, ast.FunctionDef) else
                             [t.id for t in item.targets if isinstance(t, ast.Name)]
                             if isinstance(item, ast.Assign) else [])
                    owners.update(f"{path.stem}.{node.name}" for name in names
                                  if name in VALUE_METHODS)
            # generated: source text or a method name spelled as a string
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not any(name in node.value for name in VALUE_METHODS), \
                    f"{path.name}:{node.lineno}"
        # generated or patched on at run time: a method whose code is the package's
        module = importlib.import_module(
            "pausecue" if path.stem == "__init__" else f"pausecue.{path.stem}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name in VALUE_METHODS:
                    code = getattr(vars(cls).get(name), "__code__", None)
                    if code is not None and (code.co_filename == "<string>"
                                             or Path(code.co_filename).parent == src):
                        owners.add(f"{path.stem}.{cls.__name__}")
    assert owners == set(VALUE_METHOD_OWNERS)


def test_every_value_class_keeps_the_record_contract():
    # == and repr show the fields, hash reads them and a pickle rebuilds from
    # them by keyword: each is a constructor argument, in the constructor's order
    found = value_classes()
    assert len(found) == 12, sorted(found)
    for name, cls in found.items():
        params = inspect.signature(cls).parameters.values()
        assert cls._fields == tuple(param.name for param in params), name
        # a table's fields from the first default on are keyword-only (test_jsonl);
        # a class declared by hand takes each field by position too
        assert "_record" in vars(cls) or all(
            param.kind is param.POSITIONAL_OR_KEYWORD for param in params), name
    assert not hasattr(found["FocusStack"], "empty")  # FocusStack() is the one spelling


def test_no_test_module_keeps_a_second_copy_of_a_value_class():
    # test_value_classes checks every value class by laws over the class
    # itself; a copy declared beside it would be edited in step with the code
    names = set(value_classes())
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            copied = (isinstance(node, ast.ClassDef) and node.name in names
                      or isinstance(node, ast.Import)
                      and any(alias.name == "dataclasses" for alias in node.names)
                      or isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
            assert not copied, f"{path.name}:{node.lineno}"
