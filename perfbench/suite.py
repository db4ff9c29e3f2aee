"""Run every workload over several seeds and summarise, or record, the results.

From the root of a checkout::

    python3 perfbench/suite.py                       # every workload, default seed
    python3 perfbench/suite.py --runs 10 --traced-runs 2 --label abc1234 \\
        --out perfbench/trajectory/BENCH_abc1234.json

Each run is one ``perfbench/run.py`` process.  For every end-to-end metric
the summary gives the median and quartiles over the runs and the spread (the
interquartile distance over the median) next to the metric's bound from
``BENCHMARK.json``.  Traced runs add the per-layer metrics and the full span
breakdown.  The exit code is non-zero when any run failed a correctness gate.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 180
RECORD_FORMAT = "perfbench-record-v1"


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    began = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - began
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(completed.stdout + completed.stderr)
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    else:
        if not result["correct"]:
            sys.stderr.write(completed.stderr)
    for line in lines:
        for tag in ("env", "breakdown"):
            if line.startswith(tag + " "):
                result[tag] = json.loads(line[len(tag) + 1:])
    result.update(seed=seed, wall_s=wall)
    return result


def summarize(runs, declared):
    summary = {}
    for metric in declared:
        values = [run["metrics"][metric["name"]]["value"] for run in runs
                  if metric["name"] in run["metrics"]]
        if not values:
            continue
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "median": statistics.median(values), "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
            if entry["median"]:
                entry["spread"] = (q3 - q1) / entry["median"]
        if "bound" in metric:
            entry["bound"] = metric["bound"]
        summary[metric["name"]] = entry
    return summary


def main(argv=None):
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload, on seeds default, default+1, ...")
    parser.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--traced-runs", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", type=Path, help="write the record here")
    args = parser.parse_args(argv)

    record = {"format": RECORD_FORMAT, "label": args.label, "seconds": args.seconds,
              "seeds": [args.first_seed + k for k in range(args.runs)], "workloads": {}}
    correct = True
    for workload in args.workloads:
        untraced = [run_once(workload, seed, args.seconds, 0) for seed in record["seeds"]]
        traced = [run_once(workload, args.first_seed + k, args.seconds, 1)
                  for k in range(args.traced_runs)]
        runs = untraced + traced
        correct &= all(run["correct"] for run in runs)
        entry = {
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "env": [run.get("env") for run in runs],
            "run_wall_s": [run["wall_s"] for run in runs],
            "end_to_end": summarize(untraced, declaration["end_to_end"]),
        }
        if traced:
            entry["per_layer"] = summarize(traced, declaration["per_layer"])
            names = sorted({name for run in traced for name in run.get("breakdown", {})})
            entry["breakdown_s"] = {
                name: statistics.median(run["breakdown"].get(name, 0.0) for run in traced)
                for name in names
            }
        record["workloads"][workload] = entry
        print(f"{workload}: error_rate {entry['failed']}/{entry['attempted']}, "
              f"longest run {max(entry['run_wall_s']):.1f} s")
        for name, metric in entry["end_to_end"].items():
            spread = metric.get("spread")
            note = "" if spread is None else (
                f"  spread {spread:.3f} (bound {metric['bound']}, "
                f"{'steady' if spread < metric['bound'] / 3 else 'NOT steady'})")
            label, unit = name, metric["unit"]
            if name == "work_per_s":
                label, unit = WORKLOADS[workload]
                label += " (work_per_s)"
            print(f"  {label} = {metric['median']:.6g} {unit}{note}")
        for name, metric in entry.get("per_layer", {}).items():
            print(f"  {name} = {metric['median']:.6g} {metric['unit']}")
    backends = {env["lp_backend"] for w in record["workloads"].values()
                for env in w["env"] if env}
    record["env"] = next((env for w in record["workloads"].values()
                          for env in w["env"] if env), None)
    if len(backends) > 1:
        print(f"runs used different LP backends {sorted(backends)}", file=sys.stderr)
        correct = False
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
