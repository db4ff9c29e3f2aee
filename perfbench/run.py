"""The repo's benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-200 [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` alternates set-up samples with its measured operation for
``--seconds`` seconds and prints the end-to-end metrics.
``--trace 1`` instead alternates untraced and traced rounds (set-up plus one
operation) and prints the per-layer metrics.  Either way every correctness
gate runs; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is
non-zero when any gate failed.  ``perfbench/suite.py`` runs every workload.
"""

import os
import sys

#: BLAS and OpenMP pools are capped at one thread before numpy is imported,
#: here and (through the environment) in every pool worker, so that workers
#: times threads stays within the cores the sweep pool is sized for.
THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _variable in THREAD_CAPS:
    os.environ[_variable] = "1"

import argparse
import ctypes
import glob
import json
import math
import platform
import resource
import shutil
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: The seed every workload uses unless told otherwise.
DEFAULT_SEED = 2025
#: A seed kept out of all tuning, for re-checking a claim made on the default.
HELD_OUT_SEED = 917_263

#: Every workload, with the end-to-end throughput it reports as
#: ``work_per_s`` (BENCHMARK.json declares one set of end-to-end metrics
#: for all workloads).
WORKLOADS = {
    "sweep-200": ("units_per_s", "units/s"),
    "mc-200": ("mc_trials_per_s", "trials/s"),
    "router-burst": ("packet_trials_per_s", "packet-trials/s"),
}

#: A set-up sample times as many set-ups together as last at least this
#: long, so that short set-ups are not measured one scheduler tick at a time.
SETUP_SAMPLE_S = 0.25
#: Operations run and checked before timing starts to count, so that lazy
#: set-up and the allocator's first growth are not measured.
WARMUP_OPS = 1
MIN_OPS = 4
MIN_ROUNDS = 3

#: A traced round's time outside every layer span, as a share of the round.
UNATTRIBUTED_SHARE_BOUND = 0.05

END_TO_END = (
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

SWEEP_ALGORITHMS = ("randPr", "uniform-priority", "uniform-random", "greedy-weight", "first-listed")

#: Per-layer metrics; ``*_s`` values are span self times per round.
PER_LAYER = (
    ("workloads.generate_s", "s"),
    ("store.key_s", "s"),
    ("store.get_s", "s"),
    ("store.put_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("opt.lp_s", "s"),
    ("opt.local_search_s", "s"),
    ("opt.unread_share", "ratio"),
    ("analysis.stats_s", "s"),
    ("compile.instance_s", "s"),
    ("compile.fast_s", "s"),
    ("compile.trace_s", "s"),
    ("rng.draws_s", "s"),
    ("rng.pow_s", "s"),
    ("batch.static_replay_s", "s"),
    ("batch.priority_s", "s"),
    *((f"batch.{name}_s", "s") for name in SWEEP_ALGORITHMS),
    ("fast.uniforms_s", "s"),
    ("fast.sim_s", "s"),
    ("streaming.sim_s", "s"),
    ("streaming.windows", "count"),
    ("streaming.peak_pooled_rows", "rows"),
    ("pool.work_s", "s"),
    ("pool.wall_s", "s"),
    ("pool.efficiency", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_s", "s"),
)

#: Per-layer times that are not the self time of one span name.
DERIVED = ("pool.work_s", "pool.wall_s", "trace.unattributed_s")

#: The span names whose self time a per-layer metric reports.  The self time
#: of every other span (the benchmark's own round structure, or any call no
#: metric names) is the traced run's unattributed time.
LAYER_SPANS = tuple(name[:-2] for name, unit in PER_LAYER if unit == "s" and name not in DERIVED)


def blas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or ``None``."""
    import numpy

    for library in glob.glob(os.path.dirname(numpy.__file__) + ".libs/*openblas*.so*"):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(workers):
    import numpy
    from repro.core import SetSystem
    from repro.offline import lp_relaxation_bound

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    probe = SetSystem(sets={"A": ["u"], "B": ["u"]}, weights={"A": 1.0, "B": 2.0})
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": blas_threads(),
        "lp_backend": lp_relaxation_bound(probe).method,
    }


def peak_rss_mb():
    """This process's resident high-water mark plus its largest child's.

    The sweep's pool workers are the only children, and ``run_sweep`` has
    reaped them by the time it returns.  A worker peaks below this process
    (it shares the imports it was forked with), so the larger of the two
    would hide a worker's growth; the sum moves with either.
    """
    return sum(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"FAILED {label}: {failure}", file=sys.stderr)

    def attempt(self, label, action):
        """Run ``action``; an exception counts as one failed operation."""
        try:
            return action()
        except Exception:
            traceback.print_exc()
            self.record(label, ["raised"])
            return None


def measure(workload, args, tally):
    """Set up, then repeat the operation for ``args.seconds`` seconds.

    Every operation does the same work, in the same timed pieces, and the
    calibration runs after each piece (``calibration.py``).  ``work_per_s``
    divides the work by the sum over pieces of each piece's median time in
    reference seconds; ``setup_s`` is the median set-up sample in reference
    seconds.  A set-up sample precedes every timed operation.
    """
    from calibration import REFERENCE_S, Calibrator, ignore, time_reference_work
    from tracing import median, summarize

    # The first set-up pays one-off costs, such as lazy imports, and sizes
    # the samples.
    per_sample = max(1, math.ceil(SETUP_SAMPLE_S / workload.setup(args.seed)))
    start = time.perf_counter()
    for index in range(WARMUP_OPS):
        result = tally.attempt(f"op {index}", lambda: workload.op(index, ignore))
        if result is not None:
            tally.record(f"op {index}", result.failures)
    # Later operations repeat the same allocations; how the allocator reuses
    # freed blocks between them varies from run to run.  Read before the
    # calibration allocates anything.
    peak_rss = peak_rss_mb()
    calibrator = Calibrator(lambda: time_reference_work(workload.cpus))
    works, seconds, rates = set(), [], defaultdict(list)
    index = WARMUP_OPS
    while index < WARMUP_OPS + MIN_OPS or time.perf_counter() - start < args.seconds:
        calibrator.record("setup", sum(
            workload.setup(args.seed) for _ in range(per_sample)) / per_sample)
        result = tally.attempt(f"op {index}", lambda: workload.op(index, calibrator.record))
        if result is not None:
            tally.record(f"op {index}", result.failures)
            works.add(result.work)
            seconds.append(result.seconds)
            for name, rate in result.rates.items():
                rates[name].append(rate)
        index += 1
    for name, ok in tally.attempt("final checks", workload.final_checks) or []:
        tally.record(name, [] if ok else ["mismatch"])
    if not seconds:
        return {}
    (work,) = works
    pieces = [name for name in calibrator.reference if name != "setup"]
    metrics = {
        "work_per_s": work / sum(median(calibrator.reference[name]) for name in pieces),
        "setup_s": median(calibrator.reference["setup"]),
        "peak_rss_mb": peak_rss,
    }
    headline, unit = WORKLOADS[args.workload]
    host = median(calibrator.references) / REFERENCE_S
    print(f"host speed: the calibration took {host:.4g} reference times"
          f" (median of {len(calibrator.references)} runs on {workload.cpus} CPU(s))")
    print(f"{headline} = {metrics['work_per_s']:.6g} {unit}  (reported as work_per_s:"
          f" {work} {unit.split('/')[0]} per operation over the sum of the median"
          f" reference times of its {len(pieces)} pieces)")
    print(f"{headline} in wall-clock time = {work / median(seconds):.6g} {unit}"
          f"  (median operation; not reported)")
    for name, values in rates.items():
        print(f"{name} = {median(values):.6g} {unit}  (wall clock, median over operations;"
              f" not reported)")
    print(f"setup_s = {metrics['setup_s']:.6g} s  (reference time, median of"
          f" {len(calibrator.wall['setup'])} samples of {per_sample} set-ups;"
          f" wall clock {median(calibrator.wall['setup']):.6g} s)")
    print(f"peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB  (set-up plus the warm-up operation,"
          f" pool workers included)")
    print(f"operation wall time: {summarize(seconds).describe()}")
    return metrics


def per_layer(tracer, rounds, untraced, workers):
    """Median per-round values of every per-layer metric."""
    from tracing import median

    self_times = tracer.self_times()
    samples = defaultdict(list)
    breakdown = defaultdict(list)
    for root, info, wall in rounds:
        by_name = defaultdict(float)
        members = [root] + tracer.descendants(root)
        for index in members:
            by_name[tracer.spans[index].name] += self_times[index]
        op = [i for i in members if tracer.spans[i].name == "op"]
        units = [i for i in tracer.descendants(op[0]) if tracer.spans[i].name == "unit"]
        work = sum(tracer.spans[i].end - tracer.spans[i].start for i in units)
        lp, search = by_name.get("opt.lp", 0.0), by_name.get("opt.local_search", 0.0)
        values = {name + "_s": by_name.get(name, 0.0) for name in LAYER_SPANS}
        values.update({
            "store.hit_ratio": info.store_hits / info.store_gets if info.store_gets else 0.0,
            "opt.unread_share": search / (lp + search) if lp + search else 0.0,
            "streaming.windows": info.windows,
            "streaming.peak_pooled_rows": info.peak_pooled_rows,
            "pool.work_s": work,
            "pool.wall_s": wall or 0.0,
            "pool.efficiency": work / (workers * wall) if wall else 0.0,
            "trace.unattributed_s": sum(
                value for name, value in by_name.items() if name not in LAYER_SPANS),
            "round_s": tracer.spans[root].end - tracer.spans[root].start,
        })
        for name, value in values.items():
            samples[name].append(value)
        for name, value in by_name.items():
            breakdown[name].append(value)
    metrics = {name: median(values) for name, values in samples.items()}
    metrics["trace.overhead_ratio"] = metrics["round_s"] / median(untraced)
    return metrics, {name: median(values) for name, values in sorted(breakdown.items())}


def trace(workload, args, tally, workers):
    from scenarios import NullTracer
    from tracing import Tracer

    tracer, untraced, rounds = Tracer(), [], []
    start, index = time.perf_counter(), 0

    def one_round(index):
        began = time.perf_counter()
        workload.round(NullTracer(), args.seed, index)
        elapsed = time.perf_counter() - began
        root = len(tracer.spans)
        with tracer.span("round"):
            info = workload.round(tracer, args.seed, index)
        wall = workload.round_extras(index, info)
        return elapsed, (root, info, wall)

    while index < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        outcome = tally.attempt(f"round {index}", lambda: one_round(index))
        if outcome is not None:
            tally.record(f"round {index}", outcome[1][1].failures)
            untraced.append(outcome[0])
            rounds.append(outcome[1])
        index += 1
    if not rounds:
        return {}
    metrics, breakdown = per_layer(tracer, rounds, untraced, workers)
    share = metrics["trace.unattributed_s"] / metrics["round_s"]
    tally.record("unattributed time", [] if share <= UNATTRIBUTED_SHARE_BOUND else [
        f"{share:.1%} of a round is outside every layer span "
        f"(bound {UNATTRIBUTED_SHARE_BOUND:.0%})"])
    print(f"rounds = {len(rounds)}, traced round {metrics['round_s']:.6g} s, "
          f"untraced round {metrics['round_s'] / metrics['trace.overhead_ratio']:.6g} s")
    for name, unit in PER_LAYER:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print("breakdown " + json.dumps(breakdown, sort_keys=True))
    return {name: metrics[name] for name, _ in PER_LAYER}


def run(args, work_dir):
    from scenarios import make_workload

    workers = min(2, len(os.sched_getaffinity(0)))
    env = environment(workers)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    workload = make_workload(args.workload, str(work_dir), workers)
    tally = Tally()
    try:
        if args.trace:
            values = trace(workload, args, tally, workers)
            units = dict(PER_LAYER)
        else:
            values = measure(workload, args, tally)
            units = dict(END_TO_END)
    finally:
        workload.close()
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"error_rate = {tally.failed}/{tally.attempted} = {rate:.6g}")
    correct = tally.failed == 0 and bool(values)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    work_dir.mkdir(parents=True)
    # Anything the program or its libraries put in a temporary file stays
    # inside the checkout and goes with the work directory.
    os.environ["TMPDIR"] = str(work_dir)
    tempfile.tempdir = str(work_dir)
    try:
        return run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
