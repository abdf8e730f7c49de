"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for every metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the quartile distance as a share of the median.  ``--out`` writes the
same summary, with every run's values, as JSON (``baseline.json`` was made
this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(args.trace)],
                                  capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        metrics = {name: {**summarise([r["metrics"][name]["value"] for r in runs]),
                          "unit": runs[0]["metrics"][name]["unit"]}
                   for name in runs[0]["metrics"]}
        summary[workload] = {"seeds": seeds_from(args.seeds),
                             "attempted": sum(r["attempted"] for r in runs),
                             "failed": sum(r["failed"] for r in runs),
                             "metrics": metrics}
        print(f"{workload}: {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']} ops failed")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}" + (
                "  OVER" if m["spread"] > bound else "")
            print(f"  {name:40s} median {m['median']:14.6g} {m['unit']:6s}"
                  f" spread {m['spread']:7.3f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
