"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines as bench/run.py appends them to
bench/results/runs.jsonl (copy that file away after measuring each
commit).  For every workload and metric it prints both medians, each set's
quartile spread as a share of its median, and the change of the median,
and marks a change worse than the metric's bound in BENCHMARK.json.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        for name, m in rec["metrics"].items():
            runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base, new = load(base_path), load(new_path)
    print(f"{'workload':14s} {'metric':34s} {'base':>12s} {'new':>12s} "
          f"{'spread':>13s} {'change':>8s}")
    for key in sorted(base.keys() & new.keys()):
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / b if b else float("nan")
        worse = change if better[key[1]] == "lower" else -change
        flag = " WORSE" if key[1] in bounds and worse > bounds[key[1]] else ""
        print(f"{key[0]:14s} {key[1]:34s} {b:12.6g} {n:12.6g} "
              f"{spread(base[key]):6.3f}/{spread(new[key]):6.3f} {change:+8.3f}{flag}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(*sys.argv[1:])
