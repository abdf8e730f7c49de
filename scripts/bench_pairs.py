#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --pr 6 --base HEAD~1 --workloads dialogue_long \\
        --seeds 46-55 [--trace 0,1] [--scratch DIR]

Exports the base revision with ``git archive`` into a scratch directory and
runs ``perfbench/run.py`` there and in the working tree, one pair of runs per
workload, trace mode and seed, each run as long as ``run_seconds`` of
``BENCHMARK.json``.  The side that runs first alternates from one pair to the
next.  The last line each run prints is its result; the summary goes to
``BENCH_<pr>.json`` at the root of the working tree and is rewritten after
every pair, so an interrupted session keeps what it ran.

The file names the change by the git tree of the working tree, untracked
files included and documents left out.  A later invocation adds to an
existing file only when the base, that tree, the host and the Python version
are the same, and refuses otherwise, so every result in one file was
measured on the same code.  It adds workloads, modes, and pairs on new seeds
to a workload and mode the file holds; a seed the file already holds for
that workload and mode is refused before anything runs.

Per workload and trace mode the file holds every pair's two result lines,
and per metric, over all those pairs, each side's median, quartiles and
values, and how many pairs the change won in the direction
``BENCHMARK.json`` gives for the metric.  It also holds the seeds, the failed
ops of each side, the host and the Python version.  Nothing is judged here:
the bounds stay in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def parse_result(stdout: str) -> dict:
    """The result object: the last non-empty line a run prints."""
    return json.loads([line for line in stdout.splitlines() if line.strip()][-1])


def quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarise(pairs: list[tuple[int, dict, dict]], better: dict[str, str]) -> dict:
    """Summarise ``(seed, base result, change result)`` pairs of one workload and mode.

    ``better`` maps a metric name to "lower" or "higher".  A metric missing
    or null on either side of a pair leaves that pair out of the metric.  A
    win is a pair whose change value is strictly better than its base value.
    The pairs themselves are kept under "pairs", for ``held_pairs``.
    """
    metrics = {}
    for name in sorted({name for _, base, change in pairs
                        for name in (*base["metrics"], *change["metrics"])}):
        found = [(base["metrics"][name], change["metrics"][name]) for _, base, change in pairs
                 if name in base["metrics"] and name in change["metrics"]]
        both = [(b["value"], c["value"]) for b, c in found
                if b["value"] is not None and c["value"] is not None]
        if not both:
            continue
        sign = -1 if better.get(name) == "lower" else 1
        metrics[name] = {
            "unit": found[0][0]["unit"], "better": better.get(name),
            "base": quartiles([b for b, _ in both]),
            "change": quartiles([c for _, c in both]),
            "wins": sum(sign * (c - b) > 0 for b, c in both),
            "pairs": len(both),
        }
    failed = {side: {"failed": sum(pair[k]["failed"] for pair in pairs),
                     "attempted": sum(pair[k]["attempted"] for pair in pairs)}
              for k, side in enumerate(SIDES, start=1)}
    return {"seeds": [seed for seed, _, _ in pairs], "failed_ops": failed,
            "metrics": metrics,
            "pairs": [{"seed": seed, "base": base, "change": change}
                      for seed, base, change in pairs]}


def held_pairs(results: dict, workload: str, mode: str) -> list[tuple[int, dict, dict]]:
    """The ``(seed, base result, change result)`` pairs ``results`` holds for a
    workload and trace mode, in the order they ran."""
    return [(pair["seed"], pair["base"], pair["change"])
            for pair in results.get(workload, {}).get(mode, {}).get("pairs", ())]


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _working_tree() -> str:
    """The git tree of the working tree, untracked files included, without documents.

    Markdown files and ``BENCH_*.json`` reports are left out: no run reads
    them, and they are written after the runs they report.
    """
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        subprocess.run(["git", "add", "-A", "--", ".", ":(exclude)*.md",
                        ":(exclude)BENCH_*.json"], cwd=ROOT, env=env, check=True)
        return subprocess.run(["git", "write-tree"], cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True).stdout.strip()


def _export(sha: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                             check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} trace {trace} exited "
                         f"{done.returncode}\n{done.stderr}")
    return parse_result(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--base", default="HEAD~1", help="base revision (default HEAD~1)")
    parser.add_argument("--workloads", required=True, help="comma-separated")
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 46-55")
    parser.add_argument("--trace", default="0", help="comma-separated modes, e.g. 0,1")
    parser.add_argument("--scratch", default=None,
                        help="directory for the base export (default: a temporary one)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in (*spec["end_to_end"], *spec["per_layer"])}
    seconds = spec["run_seconds"]
    seeds = seeds_from(args.seeds)
    workloads = args.workloads.split(",")
    traces = [int(trace) for trace in args.trace.split(",")]
    base_sha = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    out_path = ROOT / f"BENCH_{args.pr}.json"
    report = {
        "base": {"sha": base_sha},
        "change": {"tree": _working_tree()},
        "host": {"node": platform.node(), "machine": platform.machine(),
                 "cpus": os.cpu_count(), "system": platform.platform()},
        "python": platform.python_version(),
        "seconds": seconds,
        "results": {},
    }
    if out_path.exists():  # a later invocation adds workloads, modes or seeds to the file
        previous = json.loads(out_path.read_text())
        differ = [key for key in report if key != "results" and previous.get(key) != report[key]]
        if differ:
            raise SystemExit(f"{out_path.name} was measured with another {', '.join(differ)}; "
                             f"remove it or choose another --pr")
        report["results"] = previous["results"]
        for workload in workloads:
            for trace in traces:
                held = held_pairs(report["results"], workload, f"trace{trace}")
                again = sorted({seed for seed, _, _ in held} & set(seeds))
                if again:
                    raise SystemExit(f"{out_path.name} already holds {workload} trace {trace} "
                                     f"seeds {', '.join(map(str, again))}; choose other --seeds")
    if args.scratch is not None:
        Path(args.scratch).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        base_dir = Path(tmp) / "base"
        _export(base_sha, base_dir)
        checkouts = {"base": base_dir, "change": ROOT}
        for workload in workloads:
            for trace in traces:
                pairs = held_pairs(report["results"], workload, f"trace{trace}")
                for k, seed in enumerate(seeds, start=len(pairs)):  # alternate on from them
                    order = SIDES if k % 2 == 0 else SIDES[::-1]
                    result = {side: _run(checkouts[side], workload, seed, seconds, trace)
                              for side in order}
                    pairs.append((seed, result["base"], result["change"]))
                    report["results"].setdefault(workload, {})[f"trace{trace}"] = \
                        summarise(pairs, better)
                    out_path.write_text(json.dumps(report, indent=1) + "\n")
                    print(f"{workload} trace {trace} seed {seed}: done", file=sys.stderr)
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
