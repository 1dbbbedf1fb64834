#!/usr/bin/env python3
"""Time the ensemble kernel's stages on fixed sub-blocks, one table row each.

For one sub-block of the fig1a plan, of each fig8 series and of the
long_horizon plan (tests/golden/long_horizon.cfg), prints the min over
--repeats runs of three stages, in ms and in M traj-steps/s:

  draw      the Philox uniforms of the sub-block, drawn as the kernel draws
            them, piece after piece through one DRAW_BYTES buffer
  codes     sampling._branch_codes: the draw plus the packed branch codes
  leaf      one sampling._chunk_stats call whose rows fit one sub-block:
            the codes plus every step of the sub-block

leaf - codes is the step side (rotate, branch apply, moment reduction).  A
sub-block has the kernel's own size, min(SUB_ROWS, max(128, BLOCK_BYTES //
steps)) rows, or --rows if that is smaller.  The script uses only names
the kernel has kept across its recent revisions, so the same file times
two commits: run it with PYTHONPATH pointing at each one's src/.

    PYTHONPATH=src python scripts/kernel_stages.py --repeats 40
"""

import argparse
import time
from pathlib import Path

import numpy as np

from pecstep import sampling
from pecstep.cli import load_config
from pecstep.presets import PRESETS
from pecstep.scenarios import build_scenario

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def plans():
    """(name, single-map plan) of every timed sub-block."""
    yield "fig1a", build_scenario(PRESETS["fig1a"].series[0][1])
    for name, cfg in PRESETS["fig8"].series:
        yield f"fig8 {name}", build_scenario(cfg)
    yield "long_horizon", build_scenario(load_config(ROOT / "tests" / "golden" / "long_horizon.cfg"))


def best(fn, repeats: int) -> float:
    """Min wall time of fn() over `repeats` calls, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def draw(rows: int, steps: int):
    total = rows * steps
    buf = np.empty(max(1, min(total, sampling.DRAW_BYTES // 8)))

    def run():
        gen = np.random.Generator(sampling._philox(SEED, 0))
        for a in range(0, total, len(buf)):
            gen.random(out=buf[: min(len(buf), total - a)])

    return run


def stages(plan, rows: int, repeats: int) -> dict:
    steps = plan.steps
    cum, _ = sampling._branch_tables(plan.distribution)

    def codes():
        sampling._branch_codes(np.random.Generator(sampling._philox(SEED, 0)), cum, rows, steps)

    def leaf():
        sampling._chunk_stats(plan, SEED, 0, rows)

    return {
        "draw": best(draw(rows, steps), repeats),
        "codes": best(codes, repeats),
        "leaf": best(leaf, repeats),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=40, help="runs per stage; the min is kept")
    parser.add_argument("--rows", type=int, default=sampling.SUB_ROWS,
                        help="cap on a sub-block's rows (default: the kernel's own size)")
    args = parser.parse_args()
    if args.repeats < 1 or args.rows < 1:
        parser.error("--repeats and --rows must be >= 1")

    print("| sub-block | rows x steps | draw ms (M/s) | codes ms (M/s) | leaf ms (M/s) | leaf - codes ms |")
    print("| --- | --- | --- | --- | --- | --- |")
    for name, plan in plans():
        steps = plan.steps
        rows = min(args.rows, sampling.SUB_ROWS, max(128, sampling.BLOCK_BYTES // max(steps, 1)))
        t = stages(plan, rows, args.repeats)
        cells = [f"{1e3 * t[k]:.3f} ({rows * steps / t[k] / 1e6:.0f})" for k in ("draw", "codes", "leaf")]
        print(f"| {name} | {rows} x {steps} | " + " | ".join(cells)
              + f" | {1e3 * (t['leaf'] - t['codes']):.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
