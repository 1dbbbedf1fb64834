"""Write a committed performance record from two sets of benchmark runs.

    python scripts/bench_record.py PARENT.jsonl CHANGE.jsonl \
        --parent-commit HASH --change-commit HASH --output BENCH_<n>.json

PARENT.jsonl and CHANGE.jsonl are copies of bench/results/runs.jsonl made
after measuring each commit (see bench/README.md, "Comparing two runs").
For every workload and metric the record holds, per side, the median, the
quartiles and the number of runs, and the relative change of the median.
Runs of the two sides with the same workload, seed and trace flag form a
pair; the record counts the pairs the change wins in the metric's better
direction (BENCHMARK.json).  Machine facts (core count, Python, numpy and
its BLAS, BLAS thread variables) are read where the script runs, which
should be the machine that made the runs.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def load_runs(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def summary(values):
    """Median, quartiles (as bench/compare.py takes them) and count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _blas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name", "") + " " + deps[k].get("version", "") for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):  # numpy without show_config(mode=)
        return {}


def machine():
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_variables": {k: os.environ.get(k) for k in BLAS_THREAD_VARIABLES},
    }


def record(parent_runs, change_runs, better):
    """{workload: {metric: {unit, parent, change, change_of_median, pairs, wins}}}."""
    def values(runs):
        out = {}
        for run in runs:
            for name, m in run["metrics"].items():
                key = (run["workload"], name)
                out.setdefault(key, {"unit": m["unit"], "by_run": {}})
                out[key]["by_run"][(run["seed"], run["trace"])] = m["value"]
        return out

    base, new = values(parent_runs), values(change_runs)
    workloads = {}
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key]["by_run"], new[key]["by_run"]
        pb, pn = summary(list(b.values())), summary(list(n.values()))
        sign = 1.0 if better[key[1]] == "lower" else -1.0
        paired = sorted(b.keys() & n.keys())
        workloads.setdefault(key[0], {})[key[1]] = {
            "unit": base[key]["unit"],
            "better": better[key[1]],
            "parent": pb,
            "change": pn,
            "change_of_median": (pn["median"] - pb["median"]) / pb["median"] if pb["median"] else None,
            "pairs": len(paired),
            "wins": sum(sign * (n[p] - b[p]) < 0 for p in paired),
        }
    return workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_runs")
    parser.add_argument("change_runs")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(args.parent_runs), load_runs(args.change_runs)
    out = {
        "machine": machine(),
        "parent": {"commit": args.parent_commit, "runs": len(parent)},
        "change": {"commit": args.change_commit, "runs": len(change)},
        "failed_operations": {"parent": sum(r["failed"] for r in parent),
                              "change": sum(r["failed"] for r in change)},
        "workloads": record(parent, change, better),
    }
    Path(args.output).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
