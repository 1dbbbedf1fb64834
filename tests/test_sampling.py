import itertools
from dataclasses import replace

import numpy as np
import pytest

import pecstep.sampling as sampling
from conftest import random_density
from pecstep.channels import PAULI_CONJUGATIONS, PauliChannelParams
from pecstep.generators import check_density_matrix
from pecstep.linalg import X, Y, Z
from pecstep.presets import PRESETS
from pecstep.sampling import exhaustive_expectation, run_ensemble, run_trajectory
from pecstep.scenarios import (
    ScenarioConfig,
    build_scenario,
    ideal_evolution,
    reference_value,
)


def _fig1a(steps=6, **kw):
    return replace(PRESETS["fig1a"].series[0][1], samples=0, steps=steps, **kw)


def _plan(cfg):
    return build_scenario(cfg)


def reference_enumeration(plan, steps):
    """Brute-force oracle: walk every I/X/Y/Z branch sequence explicitly,
    one python tuple at a time, with no shared machinery.

    Weighting every intermediate step with the full-sequence probability is
    exact because the branch probabilities of each suffix sum to 1.
    """
    d = plan.distribution
    branch_p = [d.mu1, d.mu2, d.mu3, 1 - d.mu1 - d.mu2 - d.mu3]
    branch_w = [
        d.signs[0] * d.prefactor,
        d.signs[1] * d.prefactor,
        d.signs[2] * d.prefactor,
        d.prefactor,
    ]
    paulis = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
        np.eye(2, dtype=complex),
    ]
    means = np.zeros(steps + 1)
    means[0] = plan.rho0[0].real
    det = plan.deterministic
    for seq in itertools.product(range(4), repeat=steps):
        v = plan.rho0.copy()
        p, w = 1.0, 1.0
        contributions = []
        for b in seq:
            v = det @ v
            rho = v.reshape((2, 2), order="F")
            rho = paulis[b] @ rho @ paulis[b].conj().T
            v = rho.flatten(order="F")
            p, w = p * branch_p[b], w * branch_w[b]
            contributions.append(w * rho[0, 0].real)
        for n, c in enumerate(contributions, start=1):
            means[n] += p * c
    return means


def test_plan_starts_from_read_only_excited_state():
    # every plan shares the module-level |1><1| vector; it must stay
    # read-only so no kernel can write through the default
    plan = _plan(_fig1a())
    assert plan.rho0.dtype == complex
    assert np.array_equal(plan.rho0, [1, 0, 0, 0])
    assert not plan.rho0.flags.writeable


def test_run_ensemble_bit_identical_across_runs():
    plan = _plan(_fig1a())
    a = run_ensemble(plan, 400, seed=42)
    b = run_ensemble(plan, 400, seed=42)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std, b.std)
    assert np.array_equal(a.mean_state, b.mean_state)


def test_seed_changes_results():
    plan = _plan(_fig1a())
    a = run_ensemble(plan, 400, seed=1)
    b = run_ensemble(plan, 400, seed=2)
    assert not np.array_equal(a.mean, b.mean)


def test_noiseless_plan_is_deterministic():
    cfg = ScenarioConfig(
        hardware="digital",
        device=PauliChannelParams(0, 0, 0),
        mitigation="none",
        steps=8,
    )
    plan = _plan(cfg)
    traj = run_trajectory(plan, seed=0)
    assert np.array_equal(traj.weights, np.ones(9))
    ideal = ideal_evolution(cfg)
    assert np.allclose(traj.states[:, 0, 0].real, ideal.ideal, atol=1e-13)
    stats = run_ensemble(plan, 50, seed=0)
    assert np.allclose(stats.std, 0.0, atol=1e-15)


def test_degenerate_distribution_reproduces_deterministic_step():
    # mitigation "none" has q = (1, 0, 0, 0): the Pauli branches carry zero
    # probability, every trajectory is the plain noisy evolution
    cfg = ScenarioConfig(
        hardware="digital",
        device=PauliChannelParams(0.05, 0.05, 0.05),
        mitigation="none",
        steps=5,
    )
    plan = _plan(cfg)
    stats = run_ensemble(plan, 30, seed=9)
    assert np.allclose(stats.std, 0.0, atol=1e-15)
    assert np.allclose(stats.mean, ideal_evolution(cfg).ideal, atol=1e-13)


def test_trajectory_matches_ensemble_row():
    plan = _plan(_fig1a())
    stats = run_ensemble(plan, 1, seed=42)
    traj = run_trajectory(plan, 42, index=0)
    assert np.allclose(stats.mean, traj.observable(), atol=1e-12)


def test_ensemble_moments_match_replayed_trajectories(monkeypatch):
    # 20 samples over chunks of 7 rows: the chunk merge, the sign folding
    # and the late gamma^n must reproduce the plain per-trajectory moments
    monkeypatch.setattr(sampling, "CHUNK", 7)
    plan = _plan(_fig1a(steps=6))
    stats = run_ensemble(plan, 20, seed=13)
    obs = np.array([run_trajectory(plan, 13, index=i).observable() for i in range(20)])
    assert np.allclose(stats.mean, obs.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(stats.std, obs.std(axis=0, ddof=1), rtol=0, atol=1e-12)


def test_pauli_conjugations_are_branch_diagonals():
    for conj, diag in zip(PAULI_CONJUGATIONS, sampling.BRANCH_DIAG):
        assert np.allclose(sampling.pauli_transfer(conj), np.diag(diag), rtol=0, atol=1e-15)
    assert np.array_equal(sampling.BRANCH_DIAG[3], np.ones(4))


def test_pauli_coordinates_round_trip(rng):
    for _ in range(5):
        rho = random_density(rng)
        r = np.array([np.trace(p @ rho).real for p in (np.eye(2), X, Y, Z)])
        assert np.allclose(sampling.pauli_to_density(r), rho, rtol=0, atol=1e-15)


def test_trajectory_states_stay_physical():
    plan = _plan(_fig1a(steps=10))
    for i in range(5):
        traj = run_trajectory(plan, seed=3, index=i)
        for state in traj.states:
            check_density_matrix(state, tol=1e-10)


def test_trajectory_weight_magnitude_is_prefactor_product():
    plan = _plan(_fig1a(steps=10))
    g = plan.distribution.prefactor
    traj = run_trajectory(plan, seed=11, index=4)
    running = 1.0
    for n in range(1, 11):
        running *= g
        assert abs(traj.weights[n]) == running


def test_exhaustive_single_step_hand_expansion():
    plan = _plan(_fig1a(steps=1))
    d = plan.distribution
    v = plan.deterministic @ plan.rho0
    rho = v.reshape((2, 2), order="F")
    x = np.array([[0, 1], [1, 0]])
    y = np.array([[0, -1j], [1j, 0]])
    z = np.array([[1, 0], [0, -1]])
    g = d.prefactor
    expected = (1 - d.mu1 - d.mu2 - d.mu3) * g * rho[0, 0].real
    for mu, sign, p in zip(d.mu_tuple(), d.signs, (x, y, z)):
        expected += mu * sign * g * (p @ rho @ p.conj().T)[0, 0].real
    got = exhaustive_expectation(plan)
    assert got.mean[1] == pytest.approx(expected, abs=1e-14)


def test_exhaustive_matches_brute_force_enumeration():
    plan = _plan(_fig1a(steps=3))
    got = exhaustive_expectation(plan)
    oracle = reference_enumeration(plan, 3)
    assert np.allclose(got.mean, oracle, atol=1e-12)


def test_exhaustive_equals_ideal_evolution():
    cfg = _fig1a(steps=4)
    got = exhaustive_expectation(_plan(cfg))
    assert np.allclose(got.mean, ideal_evolution(cfg).ideal, atol=1e-12)


def test_exhaustive_weight_sum_is_one_when_unbiased():
    plan = _plan(_fig1a(steps=4))
    got = exhaustive_expectation(plan)
    assert np.allclose(got.weight_mean, 1.0, atol=1e-12)


def test_exhaustive_weight_sum_is_trace_factor_when_biased():
    from pecstep.scenarios import biased_predictions

    cfg = _fig1a(steps=4, bias=0.97)
    plan = _plan(cfg)
    got = exhaustive_expectation(plan)
    mu1 = 0.05 / 1.1  # unbiased Pauli probability of the 0.05 inverse map
    xi, _ = biased_predictions(0.1, 0.5, 0.97 * mu1)
    assert np.allclose(got.weight_mean, xi ** np.arange(5), atol=1e-12)


def test_biased_exhaustive_matches_closed_form():
    cfg = _fig1a(steps=3, bias=0.97)
    got = exhaustive_expectation(_plan(cfg))
    mu1 = 0.05 / 1.1
    ref = [
        reference_value("biased", n, omega=1.0, dt=0.5, kappa=0.1, mu_prime=0.97 * mu1)
        for n in range(4)
    ]
    assert np.allclose(got.mean, ref, atol=1e-12)


def test_exhaustive_refuses_deep_plans():
    with pytest.raises(ValueError):
        exhaustive_expectation(_plan(_fig1a(steps=8)))
    exhaustive_expectation(_plan(_fig1a(steps=8)), steps=4)  # explicit truncation ok


def test_stderr_halves_when_samples_quadruple():
    plan = _plan(_fig1a(steps=10))
    small = run_ensemble(plan, 4000, seed=5)
    large = run_ensemble(plan, 16000, seed=5)
    ratio = small.stderr[1:] / large.stderr[1:]
    assert np.all(np.abs(ratio - 2.0) < 0.4)


def test_ensemble_tracks_ideal_statistically():
    cfg = replace(PRESETS["fig1a"].series[0][1], samples=0)
    plan = _plan(cfg)
    stats = run_ensemble(plan, 100_000, seed=12)
    ideal = ideal_evolution(cfg).ideal
    z = np.abs(stats.mean[1:] - ideal[1:]) / stats.stderr[1:]
    assert (z <= 4.0).mean() >= 0.95


def test_approximate_analog_ensemble_tracks_its_own_limit():
    # the sampled mean follows the deformed closed form, not the target dynamics
    cfg = replace(PRESETS["fig2b"].series[0][1], samples=0)
    plan = _plan(cfg)
    stats = run_ensemble(plan, 100_000, seed=3)
    t = np.arange(21) * 0.5
    deformed = np.array(
        [reference_value("approx-analog", n, omega=1.0, dt=0.5, kappa=0.1) for n in range(21)]
    )
    closed = 0.5 * (1 + np.cos(2 * t))
    z_deformed = np.abs(stats.mean[1:] - deformed[1:]) / stats.stderr[1:]
    z_closed = np.abs(stats.mean[1:] - closed[1:]) / stats.stderr[1:]
    assert z_deformed.max() < 5.0
    assert z_closed.max() > 6.0


def test_worker_count_does_not_change_results(monkeypatch):
    monkeypatch.setattr(sampling, "CHUNK", 127)
    plan = _plan(_fig1a(steps=5))
    serial = run_ensemble(plan, 1000, seed=7, workers=1)
    parallel = run_ensemble(plan, 1000, seed=7, workers=3)
    assert np.array_equal(serial.mean, parallel.mean)
    assert np.array_equal(serial.std, parallel.std)
    assert np.array_equal(serial.mean_state, parallel.mean_state)


def test_run_ensemble_validates_sample_count():
    with pytest.raises(ValueError):
        run_ensemble(_plan(_fig1a()), 0, seed=1)


def test_mean_state_consistent_with_observable():
    plan = _plan(_fig1a(steps=4))
    stats = run_ensemble(plan, 2000, seed=8)
    assert np.allclose(stats.mean, stats.mean_state[:, 0, 0].real, atol=1e-12)
