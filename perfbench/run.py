"""pausecue benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run generates its inputs from the
seed under ``.perfbench_work/``, times ``setup_s`` over several fresh
interpreters, then starts one fresh worker interpreter (``worker.py``) for
the preflight, the timed ops and the output checks.  It prints a detail line
(input and output digests, sizes, failure messages) and, last, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  Metric names and units are listed in ``BENCHMARK.json``.

Exit status is 0 only when the preflight passed and the worker finished;
a failed output check still exits 0 and shows as ``failed`` > 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from reference import REFERENCE_S  # noqa: E402

WORKLOADS = tuple(gen.SIZES)
SETUP_STARTS = 9
#: The fresh-interpreter set-up every CLI invocation pays before its first
#: stage, bracketed by the reference kernel in the same interpreter.
SETUP_CODE = """
import time
from reference import reference_kernel
before = reference_kernel()
t0 = time.perf_counter()
import pausecue.cli
pausecue.cli.bundled_lexicon()
elapsed = time.perf_counter() - t0
print(elapsed, before, reference_kernel())
"""
WORKER_TIMEOUT_S = 150


def units(names: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in names}


def measure_setup(root: Path) -> float:
    """Median normalised import + first lexicon load over fresh interpreters.

    The first start is discarded.  Each start is rescaled by the reference
    kernel timed just before and just after it, as the worker does for ops.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(root / "src"), str(HERE)))}
    times = []
    for _ in range(SETUP_STARTS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, before, after = map(float, done.stdout.split())
        times.append(elapsed / ((before + after) / 2) * REFERENCE_S)
    return statistics.median(times[1:])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    missing = [p for p in ("src/pausecue/cli.py", "tests/golden/replication_report.txt",
                           *gen.FIXTURES) if not (root / p).is_file()]
    if missing:
        print(f"not a pausecue checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'e2e'}"
    work = root / ".perfbench_work" / f"{tag}-{os.getpid()}"
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        manifest = gen.generate(args.workload, args.seed, root, work / "in")
        job = {"root": str(root), "workdir": str(work), "workload": args.workload,
               "seconds": args.seconds, "trace": args.trace, "manifest": manifest,
               "result": str(work / "result.json"),
               "spans": str(out_dir / f"{tag}.spans.jsonl")}
        if args.trace:
            job["quarter"] = gen.generate(args.workload, args.seed, root, work / "in_q",
                                          scale=0.25)
        setup_s = None if args.trace else measure_setup(root)
        (work / "job.json").write_text(json.dumps(job))
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
                              cwd=root, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            print(f"worker exited with {done.returncode}; no result", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = units(spec["per_layer"] if args.trace else spec["end_to_end"])
    values = {**result["metrics"], "setup_s": setup_s}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": manifest["size"], "samples": result["samples"],
              "latency_ms": result["latency_ms"], "reference_ms": result["reference_ms"],
              "input_sha256": {"combined": gen.combined(manifest["input_sha256"]),
                               "files": len(manifest["input_sha256"])},
              "output_sha256": result["output_sha256"], "failures": result["failures"],
              "spans": result["spans"]}
    (out_dir / f"{tag}.detail.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
