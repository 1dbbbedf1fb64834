#!/usr/bin/env python3
"""One-step error of exact step-wise mitigation versus the time step.

Covers the two setups where the mitigated step cannot reproduce the target
exponential: a digital device simulating X-damped open dynamics (error set
by the target/unitary commutator) and an analog device with X-only noise
simulating closed dynamics (error set by the device/unitary commutator).
Fits the log-log slope, which approaches 2 as dt -> 0.
"""

import argparse
from dataclasses import replace

import numpy as np

from pecstep.channels import PauliChannelParams
from pecstep.generators import PauliRates
from pecstep.scenarios import ScenarioConfig, diagnostics


def sweep(label: str, cfg: ScenarioConfig, dts) -> None:
    errs = [diagnostics(replace(cfg, dt=dt))["one_step_error"] for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    print(f"{label} (beta={cfg.beta:.3f})")
    for dt, err in zip(dts, errs):
        print(f"  dt={dt:<8g} error={err:.6e}")
    print(f"  fitted slope: {slope:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--betas", type=float, nargs="*", default=[0.0, np.pi / 4])
    args = parser.parse_args()

    dts = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
    for beta in args.betas:
        sweep(
            "digital, open X-damped target",
            ScenarioConfig(
                hardware="digital",
                device=PauliChannelParams(0.16, 0.12, 0.2),
                target=PauliRates(0.3, 0, 0),
                beta=beta,
            ),
            dts,
        )
        sweep(
            "analog, closed target, X-only device noise",
            ScenarioConfig(
                hardware="analog",
                device=PauliRates(0.3, 0, 0),
                beta=beta,
            ),
            dts,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
