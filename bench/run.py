"""Benchmark of pecstep: times the workloads, checks every output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

NAME is one of fig1a, dt_sweep, long_horizon, fig8_workers2 (see
bench/README.md).  A run does one warm-up round (checked and counted, not
timed), then repeats whole rounds of the workload's operations until S
seconds have passed, then prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones (medians over rounds); with --trace 1 untraced and
traced rounds alternate and the metrics are the per-layer ones.  `all` runs
each workload in its own process and prints a table, then one JSON object
over all of them.  Every run also appends its result to
bench/results/runs.jsonl; a traced run writes its spans next to it.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
RESULTS = ROOT / "bench" / "results"
SETUP_PROBES = 5

SPEC = ROOT / "BENCHMARK.json"


def cpu_seconds():
    """User + system time of this process and its reaped children (the
    pool workers, which the executor joins before run_ensemble returns)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Peak RSS of this process plus the largest peak among its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_round(workload, tracer=None):
    """One round; returns attempted, failed, timed wall and CPU seconds and
    the spans recorded (if traced).  Only the program calls are timed;
    clearing old outputs and the checks are not."""
    attempted = failed = 0
    wall = cpu = 0.0
    for call, check in workload.operations():
        attempted += 1
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            if tracer is None:
                result = call()
            else:
                with tracer.installed():
                    result = call()
        except Exception:  # a crash of the program is a failed operation
            traceback.print_exc()
            failed += 1
            continue
        finally:
            wall += time.perf_counter() - t0
            cpu += cpu_seconds() - c0
        fails = check(result)
        if fails:
            failed += 1
            print(f"check failed: {'; '.join(fails[:5])}", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "wall": wall, "cpu": cpu,
            "spans": tracer.take() if tracer else None}


def setup_seconds():
    """Time from starting a fresh interpreter until `pecstep` and
    `pecstep.cli` are imported, read on the system-wide monotonic clock."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "import pecstep, pecstep.cli; print(time.monotonic_ns())")
    start = time.monotonic_ns()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    return (int(out.stdout.split()[-1]) - start) / 1e9


def metrics_with_units(values, group):
    """{name: {"value", "unit"}} for the metrics of BENCHMARK.json's
    `group`, which must be exactly the names in `values`."""
    units = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[group]}
    if units.keys() != values.keys():
        raise ValueError(f"metrics {sorted(values)} != {group} {sorted(units)}")
    return {name: {"value": v, "unit": units[name]} for name, v in values.items()}


def end_to_end(workload, seconds):
    warm = run_round(workload)  # checked and counted, not timed
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(workload))
    rss = peak_rss_mb()
    setup = statistics.median(setup_seconds() for _ in range(SETUP_PROBES))
    return [warm] + rounds, metrics_with_units({
        "setup_s": setup,
        "wall_s": statistics.median(r["wall"] for r in rounds),
        "cpu_s": statistics.median(r["cpu"] for r in rounds),
        "peak_rss_mb": rss,
    }, "end_to_end")


def per_layer(workload, seconds, spans_path):
    from bench import trace

    tracer = trace.Tracer()
    warm = run_round(workload)  # checked and counted, not timed
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_round(workload))
        traced.append(run_round(workload, tracer))
    totals = [trace.layer_totals(r["spans"]) for r in traced]
    rounds = [warm] + plain + traced

    def med(name, field):  # field: 0 calls, 1 inclusive s, 2 self s, 3 work
        return statistics.median(t.get(name, (0, 0.0, 0.0, 0))[field] for t in totals)

    def rate(name):
        return statistics.median(t[name][3] / t[name][1] if name in t else 0.0
                                 for t in totals)

    peak = 0.0
    if any("sampling.run_ensemble" in t for t in totals):
        alloc = trace.Tracer(alloc_name="sampling.run_ensemble")
        rounds.append(run_round(workload, alloc))
        peak = max(s[trace.WORK] for s in rounds[-1]["spans"]
                   if s[trace.NAME] == "sampling.run_ensemble") / 2**20

    values = {
        "sampling.run_ensemble_s": med("sampling.run_ensemble", 2),
        "sampling.traj_steps_per_s": rate("sampling.run_ensemble"),
        "sampling.peak_alloc_mb": peak,
        "sampling.pool_starts": med("sampling.pool_start", 0),
        "sampling.run_trajectory_s": med("sampling.run_trajectory", 2),
        "sampling.replay_steps_per_s": rate("sampling.run_trajectory"),
        "scenarios.build_scenario_calls": med("scenarios.build_scenario", 0),
        "scenarios.build_scenario_s": med("scenarios.build_scenario", 2),
        "scenarios.ideal_evolution_s": med("scenarios.ideal_evolution", 2),
        "scenarios.ideal_steps_per_s": rate("scenarios.ideal_evolution"),
        "scenarios.simulate_s": med("scenarios.simulate", 2),
        "generators.exact_propagate_calls": med("generators.exact_propagate", 0),
        "generators.exact_propagate_s": med("generators.exact_propagate", 2),
        "linalg.expm_calls": med("linalg.expm", 0),
        "linalg.expm_s": med("linalg.expm", 2),
        "cli.main_s": med("cli.main", 2),
        "cli.load_config_s": med("cli.load_config", 2),
        "cli.write_csv_s": med("cli.write_csv", 2),
        "svg.write_s": med("svg.write", 2),
        "trace.spans": statistics.median(len(r["spans"]) for r in traced),
        "trace.overhead_s": statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in plain),
    }
    spans_path.write_text(json.dumps(
        {"fields": ["name", "parent", "start", "end", "work"],
         "rounds": [r["spans"] for r in traced]}))
    return rounds, metrics_with_units(values, "per_layer")


def run_one(args):
    import numpy as np

    from bench import workloads

    workload = workloads.make(args.workload, OUT)
    os.environ["PECSTEP_WORKERS"] = str(workload.workers)
    OUT.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    workload.prepare(np.random.default_rng(args.seed))
    spans_path = RESULTS / f"spans_{args.workload}_seed{args.seed}.json"
    if args.trace:
        rounds, metrics = per_layer(workload, args.seconds, spans_path)
    else:
        rounds, metrics = end_to_end(workload, args.seconds)
    failed = sum(r["failed"] for r in rounds)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": metrics,
    }
    with open(RESULTS / "runs.jsonl", "a") as log:
        log.write(json.dumps({"workload": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "rounds": len(rounds), **result}) + "\n")
    return result


def run_all(args):
    """Each workload in a fresh process; a table, then one JSON object."""
    from bench import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        for metric_name, m in result["metrics"].items():
            print(f"  {metric_name:34s} {m['value']:14.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric_name}"] = m
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pecstep" / "__init__.py").is_file():
        print(f"error: no pecstep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
