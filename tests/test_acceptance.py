"""Acceptance suite: each test enforces one deliverable criterion at its
stated tolerance and prints a pass/fail line (run with -s to see them)."""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
from pecstep.channels import (
    PauliChannelParams,
    coeffs_to_superop,
    exact_coeffs,
)
from pecstep.generators import PauliRates, pauli_dissipator
from conftest import exhaustive_expectation, max_abs_diff
from pecstep.linalg import expm
from pecstep.presets import PRESETS
from pecstep.scenarios import (
    ScenarioConfig,
    biased_predictions,
    build_scenario,
    diagnostics,
    ideal_evolution,
    simulate,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:2d} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number:2d} ({label}): PASS")


def closed_form(t):
    return 0.5 * (1 + np.cos(2 * t))


def test_criterion_1_digital_closed_exact():
    with criterion(1, "digital closed, exact mitigation + 1e6-sample MC"):
        cfg = PRESETS["fig1a"].series[0][1]
        assert cfg.samples == 10**6
        start = time.perf_counter()
        [ts] = simulate([cfg])
        elapsed = time.perf_counter() - start

        assert np.abs(ts.ideal - closed_form(ts.t)).max() <= 1e-12
        z = np.abs(ts.mc_mean[1:] - ts.ideal[1:]) / ts.mc_stderr[1:]
        assert (z <= 4.0).mean() >= 0.95
        assert elapsed <= 60.0, f"MC took {elapsed:.1f}s"


def test_criterion_2_digital_closed_first_order():
    with criterion(2, "digital closed, first-order mitigation"):
        cfg = replace(PRESETS["fig1b"].series[0][1], samples=0, reference="approx-digital")
        ts = ideal_evolution(cfg)
        assert np.abs(ts.ideal - ts.reference).max() <= 1e-12
        assert abs(ts.ideal[1] - 0.7593451068167071) <= 1e-12


def test_criterion_3_analog_closed_depolarizing():
    with criterion(3, "analog closed depolarizing: exact and linear-inverse"):
        exact = ideal_evolution(replace(PRESETS["fig2a"].series[0][1], samples=0))
        assert np.abs(exact.ideal - closed_form(exact.t)).max() <= 1e-12

        cfg = replace(PRESETS["fig2b"].series[0][1], samples=0, reference="approx-analog")
        approx = ideal_evolution(cfg)
        assert np.abs(approx.ideal - approx.reference).max() <= 1e-12
        assert approx.ideal.max() > 1.0  # non-physical amplitude is reproduced


def test_criterion_4_analog_closed_x_noise():
    with criterion(4, "analog closed X-noise: beta=pi/2 exact, dt^2 error otherwise"):
        series = {name: cfg for name, cfg in PRESETS["fig3"].series}
        ts = ideal_evolution(replace(series["betapi2"], samples=0))
        assert np.abs(ts.ideal - closed_form(ts.t)).max() <= 1e-10

        dts = np.array([0.5, 0.25, 0.125, 0.0625])
        for name in ("beta0", "betapi4"):
            cfg = replace(series[name], samples=0)
            deviation = np.abs(
                ideal_evolution(cfg).ideal - closed_form(np.arange(21) * 0.5)
            ).max()
            assert deviation > 1e-6
            errs = [diagnostics(replace(cfg, dt=dt))["one_step_error"] for dt in dts]
            slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
            assert abs(slope - 2.0) <= 0.1, f"{name}: slope {slope}"


def test_criterion_5_digital_open_fidelity():
    with criterion(5, "digital open: fidelity 1 at beta=pi/2, below 1 otherwise"):
        series = {name: ideal_evolution(cfg) for name, cfg in PRESETS["fig5"].series}
        assert np.abs(1.0 - series["betapi2"].fidelity).max() <= 1e-10
        assert series["beta0"].fidelity.min() < 1.0 - 1e-6
        assert series["betapi4"].fidelity.min() < 1.0 - 1e-6


def test_criterion_6_digital_analog_equivalence():
    with criterion(6, "digital-open-exact equals analog-depolarizing-open-exact"):
        for beta in (0.0, math.pi / 4, math.pi / 2):
            dig = ScenarioConfig(
                hardware="digital",
                device=PauliChannelParams(0.16, 0.12, 0.2),
                target=PauliRates(0.3, 0, 0),
                beta=beta,
            )
            ana = ScenarioConfig(
                hardware="analog",
                device=PauliRates(0.1, 0.1, 0.1),
                target=PauliRates(0.3, 0, 0),
                beta=beta,
            )
            a, b = ideal_evolution(dig), ideal_evolution(ana)
            assert np.abs(a.ideal - b.ideal).max() <= 1e-12


def test_criterion_7_biased_sampling():
    with criterion(7, "biased sampling: trace factor, deformed rate, 3-step oracle"):
        mu1 = 0.05 / 1.1  # unbiased Pauli probability of the fig1a inverse map
        xi, kp = biased_predictions(0.1, 0.5, 0.97 * mu1)
        assert abs(xi - 1.01) <= 5e-3
        assert abs(kp - 0.0041) <= 5e-5
        xi, kp = biased_predictions(0.1, 0.5, 1.03 * mu1)
        assert abs(xi - 0.99) <= 5e-3
        assert abs(kp - (-0.0042)) <= 5e-5

        cfg = replace(PRESETS["figB1a"].series[0][1], samples=0, steps=3, reference="biased")
        got = exhaustive_expectation(build_scenario(cfg))
        expected = ideal_evolution(cfg).reference  # kappa = 0.1, mu' = 0.97 mu1
        assert np.abs(got.mean - expected).max() <= 1e-12


_ORACLE_CONFIGS = [
    ("digital closed exact", replace(PRESETS["fig1a"].series[0][1], samples=0, steps=4)),
    ("digital closed first-order", replace(PRESETS["fig1b"].series[0][1], samples=0, steps=4)),
    ("digital open exact", replace(PRESETS["fig5"].series[0][1], steps=4)),
    ("digital open first-order", replace(PRESETS["fig6a"].series[0][1], steps=4)),
    ("analog closed exact", replace(PRESETS["fig2a"].series[0][1], samples=0, steps=4)),
    ("analog closed linear-inverse", replace(PRESETS["fig2b"].series[0][1], samples=0, steps=4)),
    ("analog open exact", replace(PRESETS["fig8"].series[0][1], samples=0, steps=4)),
    ("analog open first-order", replace(PRESETS["fig7"].series[0][1], steps=4)),
]


def test_criterion_8_oracle_equivalence():
    with criterion(8, "exhaustive enumeration equals ideal evolution, 8 classes"):
        start = time.perf_counter()
        for label, cfg in _ORACLE_CONFIGS:
            got = exhaustive_expectation(build_scenario(cfg))
            ideal = ideal_evolution(cfg).ideal
            assert np.abs(got.mean - ideal).max() <= 1e-12, label
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"oracle suite took {elapsed:.1f}s"


def test_criterion_9_coefficient_identity_grid():
    with criterion(9, "rate-mismatch map identities over the parameter grid"):
        targets = [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.5, 0.2, 0.4)]
        devices = [(0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (0.16, 0.12, 0.2)]
        for g in targets:
            for k in devices:
                for dt in (0.1, 0.5, 1.0):
                    q = exact_coeffs(PauliRates(*g), PauliRates(*k), dt)
                    assert abs(sum(q.as_tuple()) - 1.0) <= 1e-12
                    assert q.q0 > 0.25
                    lhs = coeffs_to_superop(q) @ expm(pauli_dissipator(PauliRates(*k)) * dt)
                    rhs = expm(pauli_dissipator(PauliRates(*g)) * dt)
                    assert max_abs_diff(lhs, rhs) <= 1e-10


def test_criterion_10_unmitigated_digital():
    with criterion(10, "unmitigated digital decay and its effective rate"):
        ts = ideal_evolution(replace(PRESETS["figA1"].series[0][1], reference="unmitigated-digital"))
        assert np.abs(ts.ideal - ts.reference).max() <= 1e-12

        # fit the decay rate from the oscillation envelope
        osc = np.cos(2 * ts.t)
        keep = (np.abs(osc) > 0.2) & (ts.step > 0)
        amplitude = (2 * ts.ideal[keep] - 1) / osc[keep]
        slope = np.polyfit(ts.t[keep], np.log(amplitude), 1)[0]
        fitted_rate = -slope / 4
        expected_rate = -math.log(1 - 4 * 0.1 * 0.5) / (4 * 0.5)
        assert abs(expected_rate - 0.111572) < 5e-7
        assert abs(fitted_rate - expected_rate) <= 1e-9
