"""clustersens benchmark: Monte Carlo replicate throughput and CLI session latency.

Run from the repository root:

    python3 perfbench/run.py --workload binary_mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload meta_mc --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --smoke      # one pass per workload, every metric present
    python3 perfbench/run.py --record     # rewrite reference.json from this commit's outputs

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics of a separate traced pass.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the environment and the failure and drop ratios.  Every op's output
is compared with the seed commit's output in ``reference.json``.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads, so the numbers measure the
# program rather than the scheduler of a small shared machine.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import REFERENCE_S, kernel_seconds, scale  # noqa: E402
from compare import mismatches, self_check  # noqa: E402
from tracing import Tracer, direct, layer_metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = ROOT / ".perfbench_tmp"
SETUP_TRIALS = 5
# a probe lasts about a second, so a longer speed reading costs little
SETUP_KERNEL_REPEATS = 15
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "clustersens" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'clustersens'} not found; run from a clustersens checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workers": 1,
    }


class OpLoop:
    """Runs the workload's pool in passes, timing and checking every op.

    Each pass visits every pool item once, in an order drawn from the seed,
    so every pass does the same work and passes can be compared.
    """

    def __init__(self, workload, reference, seed):
        self.workload = workload
        self.reference = reference
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.replications = 0
        self.dropped = 0

    def next_pass(self):
        order = list(range(self.workload.pool_size))
        self.rng.shuffle(order)
        return order

    def run(self, item, call=direct):
        """Seconds the op took; its output is checked after the clock stops."""
        started = time.perf_counter()
        try:
            result = self.workload.run_op(item, call)
            error = None
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        self.attempted += 1
        if error is None:
            try:
                summary = self.workload.summarize(item, result)
                diffs = mismatches(summary, self.reference[item], self.workload.tol)
            except Exception as exc:
                diffs = [f"unreadable output: {type(exc).__name__}: {exc}"]
            self.replications += self.workload.units_per_op
            self.dropped += self.workload.dropped(result)
        else:
            diffs = [error]
        if diffs:
            self.failed += 1
            print(f"op on pool item {item} failed: " + "; ".join(diffs[:3]), file=sys.stderr)
        return seconds


def remove_workdir(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def setup_probe(workload_name: str) -> tuple[float, float]:
    """Raw and reference-machine wall time of a fresh interpreter importing
    the package and building the inputs.

    The probe reports the moment it finished (``perf_counter`` is the
    system-wide monotonic clock), which keeps the interpreter's teardown and
    the parent's wait for the exit out of the figure.
    """
    probe_dir = WORK_ROOT / f"probe-{os.getpid()}"
    before = kernel_seconds(SETUP_KERNEL_REPEATS)
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--setup-probe", str(probe_dir)],
        check=True,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    remove_workdir(probe_dir)
    elapsed = float(proc.stdout.strip().splitlines()[-1]) - started
    return elapsed, elapsed * scale(before, kernel_seconds(SETUP_KERNEL_REPEATS))


def timed_metrics(loop, seconds, setup_trials):
    """Whole passes until ``seconds`` of raw op time are measured.

    Every op is bracketed by the calibration kernel and its time scaled to
    the reference machine.  An item's latency is the median of its scaled
    times over the passes, and throughput is the pool's work over the sum of
    those medians, so a burst of load from elsewhere on the machine moves
    one sample rather than the result.
    """
    workload = loop.workload
    latencies = [[] for _ in range(workload.pool_size)]
    raw_latencies = [[] for _ in range(workload.pool_size)]
    kernel_times = [kernel_seconds()]
    measured = 0.0
    passes = 0
    while measured < seconds:
        for item in loop.next_pass():
            elapsed = loop.run(item)
            kernel_times.append(kernel_seconds())
            latencies[item].append(elapsed * scale(kernel_times[-2], kernel_times[-1]))
            raw_latencies[item].append(elapsed)
            measured += elapsed
        passes += 1
        if passes == 1:
            # after a fixed amount of work: the heap keeps growing slowly over
            # later passes, which would tie the peak to the program's speed
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    item_s = [statistics.median(times) for times in latencies]
    raw_item_s = [statistics.median(times) for times in raw_latencies]
    work = workload.units_per_op * workload.pool_size
    item_ms = [1e3 * t for t in item_s]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup_trials),
        "ops_per_s": work / sum(item_s),
        "op_ms_p50": statistics.median(item_ms),
        "op_ms_p90": statistics.quantiles(item_ms, n=10, method="inclusive")[-1],
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "passes": passes,
        "timed_ops": sum(len(times) for times in latencies),
        "latency_samples": len(item_ms),
        "timed_seconds": measured,
        "raw_ops_per_s": work / sum(raw_item_s),
        "raw_op_ms_p50": 1e3 * statistics.median(raw_item_s),
        "kernel_reference_s": REFERENCE_S,
        "kernel_s": statistics.quantiles(kernel_times, n=4),
        "setup_trials_raw_s": [raw for raw, _ in setup_trials],
        "setup_trials_s": [scaled for _, scaled in setup_trials],
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}, detail


def traced_metrics(loop, seconds):
    """Untraced passes for about seconds/2, then the same ops again under the tracer."""
    items = []
    untraced = 0.0
    while untraced < seconds / 2.0:
        for item in loop.next_pass():
            items.append(item)
            untraced += loop.run(item)
    tracer = Tracer()
    tracer.install()
    try:
        traced = 0.0
        for op, item in enumerate(items):
            tracer.op, tracer.replicate = op, None
            traced += loop.run(item, tracer.call)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer.spans, len(items), traced, untraced)
    return metrics, {"traced_ops": len(items), "untraced_seconds": untraced, "spans": len(tracer.spans)}


def run_workload(args) -> int:
    workloads = import_program()
    catalogue = workloads.make_workloads()
    if args.workload not in catalogue:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(catalogue)}")
    workload = catalogue[args.workload]
    if args.setup_probe:
        probe_dir = Path(args.setup_probe)
        probe_dir.mkdir(parents=True, exist_ok=True)
        workload.build(probe_dir)
        print(repr(time.perf_counter()))
        return 0

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
    problems = self_check(reference, workload.tol)
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_trials = [] if args.trace else [setup_probe(workload.name) for _ in range(SETUP_TRIALS)]
        workload.build(workdir)
        loop = OpLoop(workload, reference, args.seed)
        loop.run(loop.rng.randrange(workload.pool_size))  # warm-up: first-call costs, checked, untimed
        if args.trace:
            metrics, detail = traced_metrics(loop, args.seconds)
        else:
            metrics, detail = timed_metrics(loop, args.seconds, setup_trials)
    finally:
        remove_workdir(workdir)

    failed_frac = loop.failed / loop.attempted
    dropped_frac = loop.dropped / loop.replications if loop.replications else 0.0
    if args.trace:
        metrics["failed_frac"] = (failed_frac, "frac")
        metrics["dropped_frac"] = (dropped_frac, "frac")
    for problem in problems:
        print(f"checker self-test: {problem}", file=sys.stderr)
    detail.update(
        workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        failed_frac=failed_frac, dropped_frac=dropped_frac,
        non_converged=loop.dropped, replications=loop.replications,
        pool_items=workload.pool_size, checker_self_test=problems or "ok",
        environment=environment(),
    )
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def record() -> int:
    """Write every pool item's output at this commit to reference.json."""
    workloads = import_program()
    reference = {}
    workdir = WORK_ROOT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in workloads.make_workloads().items():
            workload.build(workdir)
            reference[name] = [
                workload.summarize(k, workload.run_op(k)) for k in range(workload.pool_size)
            ]
            print(f"recorded {workload.pool_size} outputs for {name}", file=sys.stderr)
    finally:
        remove_workdir(workdir)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


def smoke() -> int:
    """One op per workload and trace mode; every metric of BENCHMARK.json must appear."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
                capture_output=True, text=True, timeout=300,
            )
            tag = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if printed != expected[trace]:
                problems.append(f"{tag}: metric names or units differ from BENCHMARK.json: "
                                f"{sorted(set(printed.items()) ^ set(expected[trace].items()))}")
            if not result["correct"] or result["failed"] or detail["failed_frac"] != 0:
                problems.append(f"{tag}: failed {result['failed']} of {result['attempted']}")
            print(f"{tag}: {result['attempted']} ops, {len(printed)} metrics, "
                  f"failed_frac {detail['failed_frac']}", file=sys.stderr)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0, help="orders the visit of the input pool")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured op time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.record:
        return record()
    if not args.workload:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
