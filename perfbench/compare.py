"""Compare two records written by ``perfbench/suite.py``.

    python3 perfbench/compare.py OLD.json NEW.json

Refuses (exit code 2) when the two records were measured with different LP
backends: the OPT layer moves by about 40 % between HiGHS and the
dual-feasible bound, so their sweep figures are not comparable.  Otherwise
prints, for every workload and end-to-end metric, both medians and the change
as a share of the old median, and exits 1 when a metric got worse by more
than its bound.  Where either record's own spread exceeds the bound, the
change is reported as unresolved.
"""

import json
import sys
from pathlib import Path


def backends(record):
    return {env["lp_backend"] for workload in record["workloads"].values()
            for env in workload["env"] if env}


def verdict(base, metric):
    """The change from ``base`` to ``metric`` (two summaries of one metric),
    and whether it is a regression beyond the metric's bound."""
    change = (metric["median"] - base["median"]) / base["median"]
    worse = change if metric["better"] == "lower" else -change
    bound = metric["bound"]
    if max(base.get("spread", 0.0), metric.get("spread", 0.0)) > bound:
        return change, "unresolved (a record's spread exceeds the bound)", False
    if worse > bound:
        return change, "WORSE beyond bound", True
    return change, "within bound" if worse > 0 else "not worse", False


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    if len(backends(old)) != 1 or backends(old) != backends(new):
        print(f"refusing to compare: LP backends {sorted(backends(old))} "
              f"vs {sorted(backends(new))}", file=sys.stderr)
        return 2
    regressed = False
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            print(f"{workload}: not in {argv[0]}")
            continue
        for name, metric in entry["end_to_end"].items():
            base = before["end_to_end"].get(name)
            if base is None:
                continue
            change, text, worse = verdict(base, metric)
            regressed |= worse
            print(f"{workload} {name}: {base['median']:.6g} -> {metric['median']:.6g} "
                  f"{metric['unit']} ({change:+.1%}, bound {metric['bound']:.0%}) {text}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
