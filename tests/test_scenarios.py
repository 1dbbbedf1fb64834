import math
from dataclasses import replace

import numpy as np
import pytest

from pecstep.channels import PauliChannelParams
from pecstep.generators import PauliRates
from pecstep.linalg import max_abs_diff
from pecstep.presets import PRESETS
from pecstep.scenarios import (
    ScenarioConfig,
    biased_predictions,
    build_scenario,
    fidelity,
    ideal_evolution,
    mitigation_coeffs,
    one_step_error_norm,
    reference_value,
    resolve_reference,
    simulate,
    trotter_error_norm,
)

LAM_OPEN = PauliChannelParams(0.16, 0.12, 0.2)
GAMMA_X = PauliRates(0.3, 0.0, 0.0)

KET1 = np.array([[1, 0], [0, 0]], dtype=complex)
KET0 = np.array([[0, 0], [0, 1]], dtype=complex)


def closed_form(t):
    return 0.5 * (1 + np.cos(2 * t))


# --- configuration validation ---


def test_config_rejects_linear_inverse_on_digital():
    with pytest.raises(ValueError, match="linear-inverse"):
        ScenarioConfig(hardware="digital", device=PauliChannelParams(), mitigation="linear-inverse")


def test_config_rejects_bias_without_stochastic_mitigation():
    with pytest.raises(ValueError, match="bias"):
        ScenarioConfig(
            hardware="digital", device=PauliChannelParams(), mitigation="none", bias=0.97
        )


def test_config_rejects_mismatched_device_type():
    with pytest.raises(ValueError, match="device"):
        ScenarioConfig(hardware="digital", device=PauliRates(0.1, 0, 0))
    with pytest.raises(ValueError, match="device"):
        ScenarioConfig(hardware="analog", device=PauliChannelParams(0.1, 0, 0))


def test_config_rejects_bad_scalars():
    with pytest.raises(ValueError, match="dt"):
        ScenarioConfig(hardware="analog", device=PauliRates(), dt=0.0)
    with pytest.raises(ValueError, match="steps"):
        ScenarioConfig(hardware="analog", device=PauliRates(), steps=0)
    with pytest.raises(ValueError, match="bias"):
        ScenarioConfig(hardware="analog", device=PauliRates(), bias=-1.0)
    for name in ("omega", "beta", "dt", "bias"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=name):
                ScenarioConfig(hardware="analog", device=PauliRates(), **{name: bad})


# --- mitigation coefficients per scenario ---


def test_fig1a_coefficients():
    q = mitigation_coeffs(PRESETS["fig1a"].series[0][1])
    assert np.allclose(q.as_tuple(), (1.1875, -0.0625, -0.0625, -0.0625), atol=1e-13)


def test_fig3_coefficients():
    q = mitigation_coeffs(PRESETS["fig3"].series[0][1])
    assert q.q1 == pytest.approx(-0.1749294037880016, abs=1e-12)
    assert q.q2 == q.q3 == pytest.approx(0.0, abs=1e-15)


def test_biased_x_device_reduces_to_uniform_coefficients():
    # target gamma on X against device (gamma+kappa, kappa, kappa): the
    # mismatch is a uniform kappa triple, so all three weights coincide
    q = mitigation_coeffs(PRESETS["fig8"].series[0][1])
    expected = (1 - math.exp(0.2)) / 4
    assert np.allclose(q.as_tuple()[1:], [expected] * 3, atol=1e-13)
    assert q.q1 == pytest.approx(-0.055350689540042464, abs=1e-12)


def test_fig9_first_order_coefficients():
    q = mitigation_coeffs(PRESETS["fig9"].series[0][1])
    assert np.allclose(q.as_tuple()[1:], [-0.05] * 3, atol=1e-15)


def test_mitigation_none_is_identity():
    q = mitigation_coeffs(PRESETS["figA1"].series[0][1])
    assert q.as_tuple() == (1.0, 0.0, 0.0, 0.0)


# --- ideal evolutions against the closed forms ---


def test_digital_closed_exact_recovers_target():
    ts = ideal_evolution(replace(PRESETS["fig1a"].series[0][1], samples=0))
    assert np.abs(ts.ideal - closed_form(ts.t)).max() < 1e-12
    assert np.abs(ts.reference - closed_form(ts.t)).max() == 0.0


def test_digital_closed_first_order_matches_deformed_form():
    ts = ideal_evolution(replace(PRESETS["fig1b"].series[0][1], samples=0))
    expected = np.array(
        [reference_value("approx-digital", n, omega=1.0, dt=0.5, lam=0.05) for n in range(21)]
    )
    assert np.abs(ts.ideal - expected).max() < 1e-12
    assert ts.ideal[1] == pytest.approx(0.7593451068167071, abs=1e-12)


def test_analog_closed_exact_depolarizing_recovers_target():
    ts = ideal_evolution(replace(PRESETS["fig2a"].series[0][1], samples=0))
    assert np.abs(ts.ideal - closed_form(ts.t)).max() < 1e-12


def test_analog_linear_inverse_matches_deformed_form():
    ts = ideal_evolution(replace(PRESETS["fig2b"].series[0][1], samples=0))
    expected = np.array(
        [reference_value("approx-analog", n, omega=1.0, dt=0.5, kappa=0.1) for n in range(21)]
    )
    assert np.abs(ts.ideal - expected).max() < 1e-12
    assert ts.ideal[1] == pytest.approx(0.776476321108245, abs=1e-12)
    # amplitude blows past 1: the non-physical average is kept, not clipped
    assert ts.ideal.max() > 1.0
    assert ts.negativity.max() > 0.0


def test_trace_preserved_at_every_step():
    for pid in ("fig1a", "fig1b", "fig2b", "fig5", "fig6a"):
        name, cfg = PRESETS[pid].series[0]
        plan = build_scenario(replace(cfg, samples=0))
        step = plan.mitigation @ plan.deterministic
        v = plan.rho0.copy()
        for _ in range(cfg.steps):
            v = step @ v
            assert abs((v[0] + v[3]).real - 1.0) < 1e-12
            assert abs((v[0] + v[3]).imag) < 1e-12


# --- reference formulas ---


def test_reference_closed_value():
    assert reference_value("closed", 1, omega=1.0, dt=0.5) == pytest.approx(
        0.7701511529340699, abs=1e-15
    )


def test_reference_damped_depolarizing():
    got = reference_value("damped-depolarizing", 1, omega=1.0, dt=0.5, kappa=0.1)
    assert got == pytest.approx(0.7211810568865961, abs=1e-15)


def test_reference_unmitigated():
    got = reference_value("unmitigated-digital", 1, omega=1.0, dt=0.5, kappa=0.1)
    assert got == pytest.approx(0.5 * (1 + 0.8 * np.cos(1.0)), abs=1e-15)
    assert got == pytest.approx(0.7161209223472559, abs=1e-12)


def test_reference_unknown_kind():
    with pytest.raises(ValueError):
        reference_value("nope", 0, omega=1.0, dt=0.5)


def test_biased_predictions_unbiased_is_identity():
    mu1 = 0.05 / 1.1
    xi, kp = biased_predictions(0.1, 0.5, mu1)
    assert xi == pytest.approx(1.0, abs=1e-14)
    assert kp == pytest.approx(0.0, abs=1e-14)


def test_biased_predictions_caption_values():
    mu1 = 0.05 / 1.1
    xi, kp = biased_predictions(0.1, 0.5, 0.97 * mu1)
    assert xi == pytest.approx(1.01125, abs=1e-12)
    assert kp == pytest.approx(0.004095840205382934, abs=1e-12)
    xi, kp = biased_predictions(0.1, 0.5, 1.03 * mu1)
    assert xi == pytest.approx(0.98875, abs=1e-12)
    assert kp == pytest.approx(-0.004154625439987435, abs=1e-12)


def test_biased_predictions_domain():
    with pytest.raises(ValueError):
        biased_predictions(0.1, 0.5, 0.2)
    with pytest.raises(ValueError):
        biased_predictions(0.6, 0.5, 0.01)


# --- fidelity ---


def test_fidelity_pure_state_with_itself():
    assert fidelity(KET1, KET1) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_orthogonal_pure_states():
    assert fidelity(KET1, KET0) == pytest.approx(0.0, abs=1e-15)


def test_fidelity_maximally_mixed_with_itself():
    half = np.eye(2) / 2
    assert fidelity(half, half) == pytest.approx(1.0, abs=1e-15)


def test_fidelity_symmetric(rng):
    from conftest import random_density

    a, b = random_density(rng), random_density(rng)
    assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-14)


def test_fidelity_clamps_small_negative_determinant():
    eps = 1e-12
    nearly_pure = np.array([[1.0 + eps, 0.0], [0.0, -eps]], dtype=complex)
    assert fidelity(nearly_pure, KET1) == pytest.approx(1.0, abs=1e-10)


# --- trotter error ---


def test_trotter_error_zero_for_commuting_digital_open():
    cfg = ScenarioConfig(
        hardware="digital", device=LAM_OPEN, target=GAMMA_X, beta=np.pi / 2
    )
    assert trotter_error_norm(cfg) < 1e-12


def test_trotter_error_digital_open_scales_quadratically():
    cfg = ScenarioConfig(hardware="digital", device=LAM_OPEN, target=GAMMA_X, beta=0.0)
    assert trotter_error_norm(cfg) > 0.0
    dts = np.array([0.25, 0.125, 0.0625, 0.03125])
    errs = [trotter_error_norm(cfg, dt) for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_trotter_error_analog_closed_nonzero_without_target_noise():
    cfg = ScenarioConfig(
        hardware="analog", device=PauliRates(0.3, 0, 0), mitigation="exact", beta=0.0
    )
    assert trotter_error_norm(cfg) > 0.01


def test_trotter_error_requires_exact_mitigation():
    cfg = ScenarioConfig(hardware="analog", device=PauliRates(0.1, 0, 0), mitigation="first-order")
    with pytest.raises(ValueError):
        trotter_error_norm(cfg)
    one_step_error_norm(cfg)  # the unrestricted variant accepts any scheme


# --- equivalences and fidelity-based scenarios ---


def test_digital_and_analog_open_exact_are_equivalent():
    from pecstep.generators import hamiltonian, pauli_dissipator, unitary_generator
    from pecstep.linalg import expm

    for beta in (0.0, np.pi / 4, np.pi / 2):
        dig = ScenarioConfig(
            hardware="digital", device=LAM_OPEN, target=GAMMA_X, beta=beta
        )
        ana = ScenarioConfig(
            hardware="analog",
            device=PauliRates(0.1, 0.1, 0.1),
            target=GAMMA_X,
            beta=beta,
        )
        a, b = ideal_evolution(dig), ideal_evolution(ana)
        assert np.abs(a.ideal - b.ideal).max() < 1e-12
        # both mitigated steps reduce to exp(L_target dt) exp(L_unitary dt)
        split = expm(pauli_dissipator(GAMMA_X).matrix * 0.5) @ expm(
            unitary_generator(hamiltonian(1.0, beta)).matrix * 0.5
        )
        for cfg in (dig, ana):
            plan = build_scenario(cfg)
            assert max_abs_diff(plan.mitigation @ plan.deterministic, split) < 1e-12


def test_no_trotter_error_when_rate_mismatch_is_depolarizing():
    # device = target + uniform excess: the mismatch commutes with every
    # Hamiltonian, so exact mitigation is error-free for all beta
    for _, cfg in PRESETS["fig8"].series:
        ts = ideal_evolution(replace(cfg, samples=0))
        assert np.abs(1.0 - ts.fidelity).max() < 1e-10


def test_step_plan_structure():
    plan = build_scenario(replace(PRESETS["fig1a"].series[0][1], samples=0))
    assert len(plan.parts) == 2  # unitary layer, then the noise channel
    assert max_abs_diff(plan.deterministic, plan.parts[1] @ plan.parts[0]) == 0.0
    plan = build_scenario(replace(PRESETS["fig2a"].series[0][1], samples=0))
    assert len(plan.parts) == 1  # one simultaneous exponential
    assert max_abs_diff(plan.deterministic, plan.parts[0]) == 0.0


def test_open_digital_fidelity_by_beta():
    series = {name: ideal_evolution(cfg) for name, cfg in PRESETS["fig5"].series}
    assert np.abs(1 - series["betapi2"].fidelity).max() < 1e-10
    assert series["beta0"].fidelity.min() < 1.0 - 1e-6
    assert series["betapi4"].fidelity.min() < 1.0 - 1e-6


def test_unmitigated_matches_stepwise_decay_form():
    ts = ideal_evolution(PRESETS["figA1"].series[0][1])
    expected = np.array(
        [reference_value("unmitigated-digital", n, omega=1.0, dt=0.5, kappa=0.1) for n in range(21)]
    )
    assert np.abs(ts.ideal - expected).max() < 1e-12
    # identical to a continuous depolarizing solution at the deformed rate
    rate = -math.log(1 - 4 * 0.1 * 0.5) / (4 * 0.5)
    lindblad = np.array(
        [reference_value("damped-depolarizing", n, omega=1.0, dt=0.5, kappa=rate) for n in range(21)]
    )
    assert np.abs(ts.ideal - lindblad).max() < 1e-12


# --- reference auto-selection ---


@pytest.mark.parametrize(
    "pid,expected",
    [
        ("fig1a", "closed"),
        ("fig1b", "approx-digital"),
        ("fig2a", "closed"),
        ("fig2b", "approx-analog"),
        ("fig3", "closed"),
        ("fig4", "closed"),
        ("fig5", None),
        ("fig6a", None),
        ("fig7", None),
        ("fig8", None),
        ("fig9", None),
        ("figA1", "unmitigated-digital"),
        ("figB1a", "biased"),
    ],
)
def test_reference_auto_selection(pid, expected):
    cfg = PRESETS[pid].series[0][1]
    got = resolve_reference(cfg)
    if expected is None:
        assert got is None
    else:
        assert got[0] == expected


def test_reference_override_none():
    cfg = replace(PRESETS["fig1a"].series[0][1], reference=None, samples=0)
    ts = ideal_evolution(cfg)
    assert np.isnan(ts.reference).all()


def test_simulate_fills_mc_columns():
    cfg = replace(PRESETS["fig1a"].series[0][1], samples=500, steps=5)
    ts, stats = simulate(cfg)
    assert stats is not None and stats.samples == 500
    assert np.isfinite(ts.mc_mean).all()
    ts2, stats2 = simulate(replace(cfg, samples=0))
    assert stats2 is None
    assert np.isnan(ts2.mc_mean).all()


def test_simulate_builds_one_plan_per_series(monkeypatch):
    # the ideal evolution and the ensemble share one step plan
    import pecstep.scenarios as scenarios

    plans = []

    def counting_build(cfg):
        plans.append(build_scenario(cfg))
        return plans[-1]

    monkeypatch.setattr(scenarios, "build_scenario", counting_build)
    simulate(replace(PRESETS["fig1a"].series[0][1], samples=100, steps=3))
    assert len(plans) == 1
