import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from conftest import fidelity, max_abs_diff, sequential_orbit
from pecstep.channels import PauliChannelParams, channel_superop
from pecstep.generators import PauliRates, pauli_dissipator, unitary_generator
from pecstep.linalg import expm
from pecstep.presets import PRESETS
from pecstep.sampling import RHO0, run_ensemble
from pecstep.scenarios import (
    ScenarioConfig,
    biased_predictions,
    build_scenario,
    diagnostics,
    ideal_evolution,
    mitigation_coeffs,
    resolve_reference,
    simulate,
    step_maps,
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
    with pytest.raises(ValueError, match="seed: must be >= 0"):
        ScenarioConfig(hardware="analog", device=PauliRates(), seed=-1)
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
    ts = ideal_evolution(replace(PRESETS["fig1b"].series[0][1], samples=0, reference="approx-digital"))
    assert np.abs(ts.ideal - ts.reference).max() < 1e-12
    assert ts.ideal[1] == pytest.approx(0.7593451068167071, abs=1e-12)


def test_analog_closed_exact_depolarizing_recovers_target():
    ts = ideal_evolution(replace(PRESETS["fig2a"].series[0][1], samples=0))
    assert np.abs(ts.ideal - closed_form(ts.t)).max() < 1e-12


def test_analog_linear_inverse_matches_deformed_form():
    cfg = replace(PRESETS["fig2b"].series[0][1], samples=0, reference="approx-analog")
    plan = build_scenario(cfg)
    ts = ideal_evolution(cfg, plan)
    assert np.abs(ts.ideal - ts.reference).max() < 1e-12
    assert ts.ideal[1] == pytest.approx(0.776476321108245, abs=1e-12)
    # amplitude blows past 1: the non-physical average is kept, not clipped,
    # and the mitigated state leaves the physical set (det rho < 0)
    assert ts.ideal.max() > 1.0
    r = sequential_orbit([step_maps(cfg, plan)[0]] * cfg.steps, RHO0)
    assert ((r[:, 0] ** 2 - (r[:, 1:] ** 2).sum(axis=1)) / 4).min() < 0.0


def test_trace_preserved_at_every_step():
    for pid in ("fig1a", "fig1b", "fig2b", "fig5", "fig6a"):
        name, cfg = PRESETS[pid].series[0]
        plan = build_scenario(replace(cfg, samples=0))
        step = step_maps(cfg, plan)[0]
        r = RHO0
        for _ in range(cfg.steps):
            r = step @ r
            assert abs(r[0] - 1.0) < 1e-12


@pytest.mark.parametrize(
    "key, cfg",
    [(f"{pid}/{name}", cfg) for pid, p in sorted(PRESETS.items()) for name, cfg in p.series
     if cfg.bias is None],
)
def test_unbiased_step_map_keeps_trace_exactly(key, cfg):
    plan = build_scenario(cfg)
    assert np.array_equal(step_maps(cfg, plan)[0][0], [1.0, 0.0, 0.0, 0.0])


_PRESET_SERIES = [(f"{pid}/{name}" if name else pid, cfg)
                  for pid, p in sorted(PRESETS.items()) for name, cfg in p.series]


@pytest.mark.parametrize("key, cfg", _PRESET_SERIES, ids=[key for key, _ in _PRESET_SERIES])
def test_ideal_evolution_matches_sequential_loop_over_dt_sweep(key, cfg):
    # the dt sweep of the benchmark: dt = 0.5/k and 20k steps, t = 10 fixed
    for k in (1, 2, 4, 8):
        sweep = replace(cfg, dt=0.5 / k, steps=20 * k, samples=0)
        plan = build_scenario(sweep)
        r = sequential_orbit([step_maps(sweep, plan)[0]] * sweep.steps, RHO0)
        ideal = ideal_evolution(sweep, plan).ideal
        assert np.abs(ideal - 0.5 * (r[:, 0] + r[:, 3])).max() <= 1e-13, k


def _infinite_sample_bias(cfg: ScenarioConfig, k: int) -> float:
    """max over steps of |ideal - target population| at dt = 0.5/k and 20k
    steps (t = 10), the target from one exponential exp((L_u + L_target) t)
    of RHO0 per step."""
    cfg = replace(cfg, dt=0.5 / k, steps=20 * k, samples=0)
    generator = unitary_generator(cfg.omega, cfg.beta) + pauli_dissipator(cfg.target)
    target = np.array([scipy.linalg.expm(generator * (n * cfg.dt)) @ RHO0 for n in range(cfg.steps + 1)])
    return np.abs(ideal_evolution(cfg).ideal - 0.5 * (target[:, 0] + target[:, 3])).max()


_DT_CUTS = (1, 4, 16, 64)


@pytest.mark.parametrize(
    "pid, name", [("fig1a", ""), ("fig2a", ""), ("fig3", "betapi2"), ("fig5", "betapi2")]
)
def test_exact_mitigation_has_no_bias_where_the_generators_commute(pid, name):
    cfg = dict(PRESETS[pid].series)[name]
    for k in _DT_CUTS:
        assert _infinite_sample_bias(cfg, k) <= 1e-12, k


@pytest.mark.parametrize(
    "pid, name", [("fig3", "beta0"), ("fig3", "betapi4"), ("fig5", "beta0"), ("fig5", "betapi4")]
)
def test_exact_mitigation_bias_is_set_by_dt_not_by_samples(pid, name):
    # the paper's claim: with noise that does not commute with the drive, the
    # infinite-sample limit itself misses the target, by O(dt^2) at fixed t
    bias = [_infinite_sample_bias(dict(PRESETS[pid].series)[name], k) for k in _DT_CUTS]
    assert bias[0] > 1e-3
    for coarse, fine in zip(bias, bias[1:]):
        assert coarse >= 10.0 * fine, bias


# --- reference formulas ---


def _reference(pid: str, kind: str, **overrides) -> np.ndarray:
    """The `kind` reference curve of preset `pid`'s first series."""
    cfg = replace(PRESETS[pid].series[0][1], samples=0, reference=kind, **overrides)
    return ideal_evolution(cfg).reference


def test_reference_closed_value():
    assert _reference("fig1a", "closed")[1] == pytest.approx(0.7701511529340699, abs=1e-15)


def test_reference_damped_depolarizing():
    got = _reference("fig1a", "damped-depolarizing", target=PauliRates(0.1, 0.1, 0.1))[1]
    assert got == pytest.approx(0.7211810568865961, abs=1e-15)


def test_reference_unmitigated():
    got = _reference("figA1", "unmitigated-digital")[1]  # kappa = lx / dt = 0.1
    assert got == pytest.approx(0.5 * (1 + 0.8 * np.cos(1.0)), abs=1e-15)
    assert got == pytest.approx(0.7161209223472559, abs=1e-12)


def test_reference_unknown_kind():
    with pytest.raises(ValueError, match="^reference: unknown kind 'nope'"):
        replace(PRESETS["fig1a"].series[0][1], reference="nope")


@pytest.mark.parametrize(
    "kind, params", [("approx-analog", {"steps": 30669}), ("biased", {"steps": 2231, "bias": 1e-3})]
)
def test_reference_overflow_is_a_value_error(kind, params):
    # fig2b's amplitude e^{-0.2} / 0.8 and figB1a's xi ~ 1.1 / 0.8 per step
    # (kappa = 0.1, mu' ~ 0) first leave the float range at step params["steps"]
    pid = {"approx-analog": "fig2b", "biased": "figB1a"}[kind]
    _reference(pid, kind, **dict(params, steps=params["steps"] - 1))
    with pytest.raises(ValueError, match=f"^reference: {kind} overflows .* at step {params['steps']};"):
        _reference(pid, kind, **params)


@pytest.mark.parametrize(
    "cfg, keys",
    [
        (ScenarioConfig("digital", PauliChannelParams(0.05), omega=1e200, dt=1e200), "omega"),
        (ScenarioConfig("analog", PauliRates(1e300), dt=1e10), "noise_k*"),
        (ScenarioConfig("digital", PauliChannelParams(0.05), target=PauliRates(gz=1e300), dt=1e10,
                        omega=1e-3), "target_g*"),
    ],
    ids=["unitary", "device", "target"],
)
def test_a_generator_times_dt_that_overflows_names_its_keys(cfg, keys):
    # raised before numpy can warn: the product is checked, not exponentiated
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: simulate([cfg]), lambda: diagnostics(cfg)):
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == f"{keys} * dt: the generator times dt overflows the float range"


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
    assert diagnostics(cfg)["one_step_error"] < 1e-12


def test_trotter_error_digital_open_scales_quadratically():
    cfg = ScenarioConfig(hardware="digital", device=LAM_OPEN, target=GAMMA_X, beta=0.0)
    assert diagnostics(cfg)["one_step_error"] > 0.0
    dts = np.array([0.25, 0.125, 0.0625, 0.03125])
    errs = [diagnostics(replace(cfg, dt=dt))["one_step_error"] for dt in dts]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_trotter_error_analog_closed_nonzero_without_target_noise():
    cfg = ScenarioConfig(
        hardware="analog", device=PauliRates(0.3, 0, 0), mitigation="exact", beta=0.0
    )
    assert diagnostics(cfg)["one_step_error"] > 0.01


# --- equivalences and fidelity-based scenarios ---


def test_digital_and_analog_open_exact_are_equivalent():
    from pecstep.generators import pauli_dissipator, unitary_generator
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
        split = expm(pauli_dissipator(GAMMA_X) * 0.5) @ expm(unitary_generator(1.0, beta) * 0.5)
        for cfg in (dig, ana):
            plan = build_scenario(cfg)
            assert max_abs_diff(step_maps(cfg, plan)[0], split) < 1e-12


@pytest.mark.parametrize("lam", [(0.05, 0.05, 0.0), (0.3, 0.3, 0.0)], ids=["weak", "ez<0"])
def test_open_exact_on_a_channel_without_rates_reaches_the_target_noise(lam):
    # neither channel is exp(L dt) for nonnegative rates, and the second
    # (ez = -0.2) has no real logarithm; the mitigation map needs neither
    # omega = 0: the unitary layer is the identity, so the mitigated step is
    # the mitigation map after the channel
    device = PauliChannelParams(*lam)
    cfg = ScenarioConfig(hardware="digital", device=device, target=GAMMA_X, omega=0.0)
    plan = build_scenario(cfg)
    assert np.array_equal(plan.deterministic, channel_superop(device))
    after_channel, target = step_maps(cfg, plan)
    assert np.array_equal(target, expm(pauli_dissipator(GAMMA_X) * cfg.dt))
    assert max_abs_diff(after_channel, target) < 1e-12


def test_no_trotter_error_when_rate_mismatch_is_depolarizing():
    # device = target + uniform excess: the mismatch commutes with every
    # Hamiltonian, so exact mitigation is error-free for all beta
    for _, cfg in PRESETS["fig8"].series:
        ts = ideal_evolution(replace(cfg, samples=0))
        assert np.abs(1.0 - ts.fidelity).max() < 1e-10


def test_step_plan_structure():
    cfg = replace(PRESETS["fig1a"].series[0][1], samples=0)
    l_u = unitary_generator(cfg.omega, cfg.beta)
    # digital: the unitary layer, then the noise channel
    expected = channel_superop(cfg.device) @ expm(l_u * cfg.dt)
    assert max_abs_diff(build_scenario(cfg).deterministic, expected) == 0.0
    cfg = replace(PRESETS["fig2a"].series[0][1], samples=0)
    l_u = unitary_generator(cfg.omega, cfg.beta)
    # analog: one simultaneous exponential
    l_device = pauli_dissipator(cfg.device)
    expected = expm((l_u + l_device) * cfg.dt)
    assert max_abs_diff(build_scenario(cfg).deterministic, expected) == 0.0


def test_open_digital_fidelity_by_beta():
    series = {name: ideal_evolution(cfg) for name, cfg in PRESETS["fig5"].series}
    assert np.abs(1 - series["betapi2"].fidelity).max() < 1e-10
    assert series["beta0"].fidelity.min() < 1.0 - 1e-6
    assert series["betapi4"].fidelity.min() < 1.0 - 1e-6


def test_unmitigated_matches_stepwise_decay_form():
    ts = ideal_evolution(PRESETS["figA1"].series[0][1])
    assert np.abs(ts.ideal - _reference("figA1", "unmitigated-digital")).max() < 1e-12
    # identical to a continuous depolarizing solution at the deformed rate
    rate = -math.log(1 - 4 * 0.1 * 0.5) / (4 * 0.5)
    lindblad = _reference("fig1a", "damped-depolarizing", target=PauliRates(rate, rate, rate))
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
    assert resolve_reference(cfg) == expected


def test_reference_override_none():
    cfg = replace(PRESETS["fig1a"].series[0][1], reference=None, samples=0)
    ts = ideal_evolution(cfg)
    assert ts.reference is None


def test_simulate_fills_mc_columns():
    cfg = replace(PRESETS["fig1a"].series[0][1], samples=500, steps=5)
    [ts] = simulate([cfg])
    stats = run_ensemble(build_scenario(cfg), 500, cfg.seed)
    assert np.array_equal(ts.mc_mean, stats.mean)
    assert np.array_equal(ts.mc_stderr, stats.std / np.sqrt(500))
    assert np.isfinite(ts.mc_mean).all()
    [ts2] = simulate([replace(cfg, samples=0)])
    assert ts2.mc_mean is None and ts2.mc_stderr is None


def test_simulate_builds_one_plan_per_series(monkeypatch):
    # the ideal evolution and the ensemble share one step plan
    import pecstep.scenarios as scenarios

    plans = []

    def counting_build(cfg):
        plans.append(build_scenario(cfg))
        return plans[-1]

    monkeypatch.setattr(scenarios, "build_scenario", counting_build)
    simulate([replace(PRESETS["fig1a"].series[0][1], samples=100, steps=3)])
    assert len(plans) == 1


def test_a_two_chunk_family_draws_one_stream_per_chunk(monkeypatch):
    # the three fig8 series share (samples, seed, steps, distribution): each
    # chunk's Philox stream is created once for all of them
    import pecstep.sampling as sampling

    streams = []
    philox = sampling._philox

    def counting_philox(seed, chunk):
        streams.append((seed, chunk))
        return philox(seed, chunk)

    monkeypatch.setattr(sampling, "CHUNK", 700)
    monkeypatch.setattr(sampling, "_philox", counting_philox)
    configs = [replace(cfg, samples=1400, seed=4) for _, cfg in PRESETS["fig8"].series]
    results = simulate(configs)
    assert streams == [(4, 0), (4, 1)]
    for cfg, series in zip(configs, results):
        [alone] = simulate([cfg])
        assert np.array_equal(series.mc_mean, alone.mc_mean)
        assert np.array_equal(series.mc_stderr, alone.mc_stderr)
    assert len(streams) == 2 + 3 * 2


def test_simulate_groups_only_configs_that_share_their_draws(monkeypatch):
    import pecstep.scenarios as scenarios

    calls = []
    run_ensemble = scenarios.sampling.run_ensemble

    def counting_run_ensemble(plan, samples, seed, workers=None):
        calls.append(np.shape(plan.deterministic))
        return run_ensemble(plan, samples, seed, workers)

    base = replace(PRESETS["fig1a"].series[0][1], samples=300, steps=5, seed=2)
    configs = [
        base,
        replace(base, seed=3),
        replace(base, samples=301),
        replace(base, steps=6),
        replace(base, bias=0.97),
        replace(base, samples=0),
    ]
    monkeypatch.setattr(scenarios.sampling, "run_ensemble", counting_run_ensemble)
    results = simulate(configs)
    assert calls == [(1, 4, 4)] * 5
    for cfg, series in zip(configs, results):
        [alone] = simulate([cfg])
        if cfg.samples == 0:
            assert series.mc_mean is None and alone.mc_mean is None
            assert series.mc_stderr is None and alone.mc_stderr is None
            continue
        assert np.array_equal(series.mc_mean, alone.mc_mean)
        assert np.array_equal(series.mc_stderr, alone.mc_stderr)
    calls.clear()
    simulate([base, replace(base, beta=0.3), replace(base, omega=2.0)])
    assert calls == [(3, 4, 4)]  # the Hamiltonian does not enter the draws
