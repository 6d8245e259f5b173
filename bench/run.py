"""jitterfit benchmark: one workload, one seed, one JSON result.

Run from the root of a checkout; the program is imported from ``src/``, so
nothing needs installing::

    python3 bench/run.py --workload monitor --seed 1 --seconds 25 --trace 0

Human-readable lines (environment, reference check, every metric with its
unit) come first; the last line of stdout is the JSON result.  With
``--trace 0`` it holds the end-to-end metrics of an untraced run, with
``--trace 1`` the per-layer metrics of a traced run.  README.md explains the
workloads and the metrics.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from stats import percentile, tail_percentile
from tracing import LAYER_METRICS, MODULES, Tracer, is_exact, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "truth_agreement": "ratio",
}
LAYER_UNITS = {name: unit for name, (unit, _) in LAYER_METRICS.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("monitor", "scan", "archive"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter importing jitterfit.cli, the start-up
    every CLI invocation pays.  One untimed start compiles the bytecode."""
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH="src" + (f":{pythonpath}" if pythonpath else ""))
    command = [sys.executable, "-c", "import jitterfit.cli"]
    subprocess.run(command, cwd=ROOT, env=env, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def _cache_bytes(level: int) -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return None
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, entry, "type")) as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return None


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    result = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return result.stdout.strip() if result.returncode == 0 else "unavailable"


# float64/int64 arrays of one sample each alive at em_fit's E-step peak:
# samples, the 2-column log-density matrix, its shifted copy, the weights and
# the responsibilities (2 each), the row maximum, labels, previous labels.
EM_ARRAYS_PER_SAMPLE = 12


def environment(workload, seed: int) -> dict:
    import numpy

    fit_n = workload.fit_samples
    return {
        "workload": workload.name,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes_per_core": _cache_bytes(2),
        "l3_bytes_shared": _cache_bytes(3),
        "git_sha": _git_sha(),
        "computed_not_measured": {
            "samples_per_fit": fit_n,
            "fit_sample_array_bytes": 8 * fit_n,
            "em_working_set_bytes": 8 * EM_ARRAYS_PER_SAMPLE * fit_n,
            "trace_array_bytes": 8 * workload.trace_samples,
        },
    }


class Tally:
    """Operations attempted and failed, with the first few failure reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, action):
        self.attempted += 1
        try:
            return action()
        except Exception as exc:  # every failure is counted, the run goes on
            self.fail(f"{label}: {exc}")
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED {message}", file=sys.stderr)


def run_ops(workload, tally: Tally, ops, until: float | None = None) -> list[dict]:
    """Run the given operations, then keep cycling from where they stopped
    while the clock is before ``until``; return the timings that succeeded."""
    timings = []
    i = 0
    ops = list(ops)
    while i < len(ops) or (until is not None and time.perf_counter() < until):
        index = ops[i] if i < len(ops) else i
        result = tally.run(f"{workload.name} op {index}", lambda: workload.op(index))
        if result is not None:
            timings.append(result)
        i += 1
    return timings


def untraced_run(workload, tally: Tally, seconds: float, setup: list[float]):
    timings = run_ops(workload, tally, range(workload.min_ops), time.perf_counter() + seconds)
    op_s = [t["op"] for t in timings]
    tail = tail_percentile(len(op_s))
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": percentile(op_s, 50.0) * 1e3,
        "op_tail_ms": percentile(op_s, tail) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "truth_agreement": workload.truth_agreement() if timings else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "op_p50_ms": f"median of {len(op_s)} operations",
        "op_tail_ms": f"p{tail:g} of {len(op_s)} operations",
    }
    return metrics, notes, workload.views(timings)


def traced_run(workload, tally: Tally, seconds: float):
    """Alternate traced and untraced passes over ``workload.pass_ops``,
    starting traced, until ``seconds`` pass and at least two traced and one
    untraced pass ran; exact counts must repeat."""
    modules = [importlib.import_module(name) for name in MODULES]
    tracer = Tracer()
    untraced, traced, passes = [], [], []
    until = time.perf_counter() + seconds
    while len(passes) < 2 or not untraced or time.perf_counter() < until:
        if len(untraced) < len(passes):
            timings = run_ops(workload, tally, workload.pass_ops)
            untraced.append(sum(t["op"] for t in timings))
            continue
        tracer.reset()
        tracer.install(modules)
        try:
            timings = run_ops(workload, tally, workload.pass_ops)
        finally:
            tracer.uninstall()
        traced.append(sum(t["op"] for t in timings))
        passes.append(layer_metrics(tracer))
    metrics, notes = {}, {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        if is_exact(name):
            tally.attempted += 1
            if len(set(values)) != 1:
                tally.fail(f"exact count {name} differs between traced passes: {values}")
            metrics[name], notes[name] = values[0], f"equal in all {len(passes)} traced passes"
        else:
            metrics[name] = statistics.median(values)
            notes[name] = f"median of {len(passes)} traced passes"
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    notes["trace.overhead_ratio"] = "traced / untraced pass wall time, medians"
    return metrics, notes, []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jitterfit", "__init__.py")):
        print(f"error: no jitterfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import jitterfit

    if not os.path.abspath(jitterfit.__file__).startswith(SRC + os.sep):
        print(f"error: imported jitterfit from {jitterfit.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, compare

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]

    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        env = environment(WORKLOADS[args.workload], args.seed)
        print(f"environment: {json.dumps(env)}")
        tally = Tally()
        workload = WORKLOADS[args.workload](args.seed, work)
        tally.run(
            "reference check",
            lambda: compare(reference, workload.reference(), args.workload),
        )
        print(f"reference check: {'ok' if tally.failed == 0 else 'FAILED'}")
        if args.trace:
            metrics, notes, views = traced_run(workload, tally, args.seconds)
        else:
            metrics, notes, views = untraced_run(
                workload, tally, args.seconds, measure_setup()
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run's directory is still there

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    rows = [(name, value, units[name], notes.get(name, "")) for name, value in metrics.items()]
    rows += views
    rows.append(
        ("failed_ratio", tally.failed / tally.attempted, "ratio",
         f"{tally.failed} of {tally.attempted} operations")
    )
    for name, value, unit, note in rows:
        print(f"{name:34s} {value:>16.6g} {unit:6s} {note}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
