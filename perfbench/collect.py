"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --workloads binary_mc --seeds 1-5
    python3 perfbench/collect.py --seeds 1-10 --trace-seed 1 --out perfbench/baseline/seed.json

For every end-to-end metric it reports the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json.  With ``--out`` the
raw results of every run are written too, so a later change can be
compared with this one run by run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return {"seed": seed, "detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1])}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--trace-seed", type=int, default=None, help="also make one traced run")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in names:
        runs = [run_once(spec, workload, seed, 0) for seed in parse_seeds(args.seeds)]
        summary = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            summary[metric] = {**spread(values), "bound": bound}
            flag = "" if metric == "setup_s" or summary[metric]["iqr_over_median"] < bound / 3 else "  <-- wide"
            steady &= not flag
            print(f"{workload:14s} {metric:12s} median {summary[metric]['median']:10.4f} "
                  f"spread {summary[metric]['iqr_over_median']:.4f} bound {bound}{flag}")
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload:14s} failed ops {failed} of {sum(r['result']['attempted'] for r in runs)}")
        entry = {"summary": summary, "runs": runs}
        if args.trace_seed is not None:
            entry["traced"] = run_once(spec, workload, args.trace_seed, 1)
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
