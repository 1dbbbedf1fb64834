#!/usr/bin/env python3
"""Run every bundled figure preset and write CSV (optionally SVG) output.

    python scripts/reproduce_figures.py --output out/figures --svg
    python scripts/reproduce_figures.py --full-samples   # original ensemble sizes

Each preset runs through `pecstep figure`, so the files are the ones that
command writes.  Sampled presets default to 10^6 trajectories;
--full-samples restores the 20x larger original counts (expect a ~15
minute run).  Stops at the first preset that fails and exits with its code.
"""

import argparse
import time

from pecstep import cli
from pecstep.presets import PRESETS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="out/figures")
    parser.add_argument("--svg", action="store_true")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None, help="override all ensemble sizes")
    parser.add_argument(
        "--full-samples", action="store_true", help="use the original ensemble sizes"
    )
    parser.add_argument("--only", nargs="*", default=None, help="subset of preset ids")
    args = parser.parse_args()

    for pid in args.only or sorted(PRESETS):
        samples = args.samples
        if samples is None and args.full_samples and pid in PRESETS:
            samples = PRESETS[pid].full_samples or None
        argv = ["figure", pid, "--output", args.output]
        if samples is not None:
            argv += ["--samples", str(samples)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        if args.svg:
            argv.append("--svg")
        t0 = time.perf_counter()
        code = cli.main(argv)
        if code:
            return code
        print(f"{pid:7s} {time.perf_counter() - t0:7.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
