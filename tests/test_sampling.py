import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import pecstep.sampling as sampling
from conftest import (
    BASIS,
    X,
    Y,
    Z,
    chunk_uniforms,
    conjugation,
    exhaustive_expectation,
    random_density,
    to_column_stacked,
    to_pauli_transfer,
    unvec,
)
from pecstep.channels import PauliChannelParams
from pecstep.generators import check_density_matrix
from pecstep.linalg import pauli_coords, pauli_to_density
from pecstep.presets import PRESETS
from pecstep.sampling import run_ensemble, run_trajectory
from pecstep.scenarios import (
    ScenarioConfig,
    build_scenario,
    ideal_evolution,
    simulate,
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
    rho0 = BASIS @ sampling.RHO0  # column-stacked
    means = np.zeros(steps + 1)
    means[0] = rho0[0].real
    det = to_column_stacked(plan.deterministic)
    for seq in itertools.product(range(4), repeat=steps):
        v = rho0
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
    # every plan starts from the module-level |1><1| coordinates; they must
    # stay read-only so no kernel can write through them
    assert sampling.RHO0.dtype == np.float64
    assert np.array_equal(sampling.RHO0, [1, 0, 0, 1])
    assert not sampling.RHO0.flags.writeable


def test_run_ensemble_bit_identical_across_runs():
    plan = _plan(_fig1a())
    a = run_ensemble(plan, 400, seed=42)
    b = run_ensemble(plan, 400, seed=42)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.std, b.std)


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


@pytest.mark.parametrize("steps", [1, 2, 3, 5, 7, 20])
def test_replay_draws_its_row_of_the_chunk_block(steps):
    # the skip-ahead must land on every row offset mod 4 and in later chunks
    block = chunk_uniforms(5, 0, 4096, steps)
    for row in list(range(9)) + list(range(97, 4096, 97)) + [4095]:
        assert np.array_equal(sampling._row_uniforms(5, row, steps), block[row])
    block = chunk_uniforms(5, 1, 1236, steps)
    for row in (0, 1, 2, 3, 1235):
        index = sampling.CHUNK + row
        assert np.array_equal(sampling._row_uniforms(5, index, steps), block[row])


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
    for p, diag in zip((X, Y, Z, np.eye(2)), sampling.BRANCH_DIAG):
        assert np.allclose(to_pauli_transfer(conjugation(p)), np.diag(diag), rtol=0, atol=1e-15)
    assert np.array_equal(sampling.BRANCH_DIAG[3], np.ones(4))


def test_pauli_coordinates_round_trip(rng):
    for _ in range(5):
        rho = random_density(rng)
        r = np.array([np.trace(p @ rho).real for p in (np.eye(2), X, Y, Z)])
        assert np.allclose(pauli_to_density(r), rho, rtol=0, atol=1e-15)
        assert np.allclose(pauli_coords(rho), r, rtol=0, atol=1e-15)


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
    rho = unvec(to_column_stacked(plan.deterministic) @ BASIS @ sampling.RHO0)
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
    cfg = _fig1a(steps=3, bias=0.97, reference="biased")  # kappa = 0.1, mu' = 0.97 mu1
    got = exhaustive_expectation(_plan(cfg))
    assert np.allclose(got.mean, ideal_evolution(cfg).reference, atol=1e-12)


def test_exhaustive_refuses_deep_plans():
    with pytest.raises(ValueError):
        exhaustive_expectation(_plan(_fig1a(steps=8)))
    exhaustive_expectation(replace(_plan(_fig1a(steps=8)), steps=4))  # a truncated plan is ok


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
    cfg = replace(PRESETS["fig2b"].series[0][1], samples=0, reference="approx-analog")
    plan = _plan(cfg)
    stats = run_ensemble(plan, 100_000, seed=3)
    t = np.arange(21) * 0.5
    deformed = ideal_evolution(cfg, plan).reference
    closed = 0.5 * (1 + np.cos(2 * t))
    z_deformed = np.abs(stats.mean[1:] - deformed[1:]) / stats.stderr[1:]
    z_closed = np.abs(stats.mean[1:] - closed[1:]) / stats.stderr[1:]
    assert z_deformed.max() < 5.0
    assert z_closed.max() > 6.0


def test_worker_count_does_not_change_results(monkeypatch):
    monkeypatch.setattr(sampling, "CHUNK", 127)
    plan = _plan(_fig1a(steps=5))
    serial = run_ensemble(plan, 1000, seed=7)
    parallel = run_ensemble(plan, 1000, seed=7, workers=3)
    assert np.array_equal(serial.mean, parallel.mean)
    assert np.array_equal(serial.std, parallel.std)


def test_zero_step_plan_gives_the_initial_state():
    plan = replace(_plan(_fig1a()), steps=0)
    stats = run_ensemble(plan, 5, seed=1)
    assert np.array_equal(stats.mean, [1.0]) and np.array_equal(stats.std, [0.0])


def test_run_ensemble_validates_sample_count():
    with pytest.raises(ValueError):
        run_ensemble(_plan(_fig1a()), 0, seed=1)


def dense_rotate(rot, v):
    """The dense kernel rotate: 16 scalar-times-row multiply-adds per step."""
    out = np.empty_like(v)
    for i, coeffs in enumerate(rot.tolist()):
        out[i] = v[0] * coeffs[0]
        for j in (1, 2, 3):
            out[i] += v[j] * coeffs[j]
    return out


def dense_ensemble(plan, samples, seed):
    """Every trajectory at once, one chunk after another, with the dense
    rotate, searchsorted branch codes and per-trajectory weights: the plain
    form of the kernel, returning (mean, std ddof=1)."""
    cum, sign = sampling._branch_tables(plan.distribution)
    u = np.vstack([
        chunk_uniforms(seed, c, min(sampling.CHUNK, samples - c * sampling.CHUNK), plan.steps)
        for c in range(-(-samples // sampling.CHUNK))
    ])
    branches = np.searchsorted(cum, u, side="right")
    v = np.repeat(sampling.RHO0[:, None], samples, axis=1)
    w = np.ones(samples)
    obs = [0.5 * (v[0] + v[3])]
    for s in range(plan.steps):
        v = sampling.BRANCH_DIAG[branches[:, s]].T * dense_rotate(plan.deterministic, v)
        w = w * sign[branches[:, s]] * plan.distribution.prefactor
        obs.append(w * 0.5 * (v[0] + v[3]))
    obs = np.array(obs)
    return obs.mean(axis=1), obs.std(axis=1, ddof=1)


def test_sparse_rotate_is_the_dense_sum_bit_for_bit(rng):
    rot = rng.standard_normal((4, 4))
    rot[rng.random((4, 4)) < 0.5] = 0.0
    rot[0] = [1.0, 0.0, 0.0, 0.0]  # copied row
    rot[2] = 0.0  # all-zero row
    v = rng.standard_normal((4, 33))
    out = sampling._rotate(sampling._sparse_rows(rot), v, np.empty_like(v), np.empty(33))
    assert np.array_equal(out, dense_rotate(rot, v))
    assert np.array_equal(out[0], v[0]) and not out[2].any()


def test_comparison_codes_equal_searchsorted(rng):
    cum = np.array([0.1, 0.25, 0.25])  # an empty branch: equal thresholds
    u = np.concatenate([rng.random(1000), cum, [0.0, np.nextafter(0.1, 0)]])
    codes = sampling._codes(u, cum)
    assert codes.dtype == np.uint8
    assert np.array_equal(codes, np.searchsorted(cum, u, side="right"))


def _unpack(packed, steps):
    """(steps, rows) one-byte codes from _branch_codes' packed bytes."""
    s = np.arange(steps)
    return (packed[s // 4] >> (2 * (s % 4))[:, None].astype(np.uint8)) & 3


@pytest.mark.parametrize("draw_rows", [None, 3])  # None: the default DRAW_BYTES
@pytest.mark.parametrize("rows", [1, 7, 130])
@pytest.mark.parametrize("steps", [1, 2, 3, 4, 5, 7, 2000])
def test_packed_codes_unpack_to_the_codes_of_the_chunk_block(monkeypatch, steps, rows, draw_rows):
    # step 4q + j in bits 2j, 2j+1 of byte q, over every steps % 4; a draw
    # budget of 3 rows makes several pieces, as 2000 steps do by default
    if draw_rows:
        monkeypatch.setattr(sampling, "DRAW_BYTES", draw_rows * 8 * steps)
    cum = np.array([0.2, 0.45, 0.7])
    gen = np.random.Generator(sampling._philox(6, 0))
    packed = sampling._branch_codes(gen, cum, rows, steps)
    assert packed.dtype == np.uint8 and packed.shape == (-(-steps // 4), rows)
    want = sampling._codes(chunk_uniforms(6, 0, rows, steps), cum)
    assert np.array_equal(_unpack(packed, steps), want.T)
    if steps % 4:
        assert not (packed[-1] >> 2 * (steps % 4)).any()  # unused bits are zero


def _zero_row_config(**kw):
    # x transfer eigenvalue 1 - 2 (ly + lz) = 0: the step map's x row is all zero
    return ScenarioConfig(
        hardware="digital",
        mitigation="none",
        device=PauliChannelParams(0.0, 0.25, 0.25),
        **kw,
    )


def test_all_zero_row_of_the_step_map_matches_the_dense_path():
    cfg = _zero_row_config(steps=5)
    plan = _plan(cfg)
    assert not plan.deterministic[1].any()
    stats = run_ensemble(plan, 300, seed=4)
    mean, std = dense_ensemble(plan, 300, 4)
    assert np.allclose(stats.mean, mean, rtol=0, atol=1e-12)
    assert np.allclose(stats.std, std, rtol=0, atol=1e-12)
    got = exhaustive_expectation(plan)
    assert np.allclose(got.mean, reference_enumeration(plan, 5), rtol=0, atol=1e-12)
    assert np.allclose(got.mean, ideal_evolution(cfg).ideal, rtol=0, atol=1e-12)


def test_kernel_matches_the_dense_path_over_chunks(monkeypatch):
    monkeypatch.setattr(sampling, "CHUNK", 50)
    plan = _plan(_fig1a(steps=6))
    stats = run_ensemble(plan, 130, seed=21)
    mean, std = dense_ensemble(plan, 130, 21)
    assert np.allclose(stats.mean, mean, rtol=0, atol=1e-12)
    assert np.allclose(stats.std, std, rtol=0, atol=1e-12)


_ROWS = 40


@pytest.mark.parametrize("size", [1, 3, 7, _ROWS - 1])
@pytest.mark.parametrize("limit", ["SUB_ROWS", "DRAW_BYTES"])
def test_sub_block_merge_matches_one_block_and_replays(monkeypatch, limit, size):
    plan = _plan(_fig1a(steps=6))
    whole = run_ensemble(plan, _ROWS, seed=17)  # 40 rows: one sub-block
    # DRAW_BYTES of `size` rows of uniforms: draws of `size` rows
    monkeypatch.setattr(sampling, limit, size if limit == "SUB_ROWS" else size * 8 * plan.steps)
    split = run_ensemble(plan, _ROWS, seed=17)
    for name in ("mean", "std"):
        assert np.allclose(getattr(split, name), getattr(whole, name), rtol=0, atol=1e-12), name
    obs = np.array([run_trajectory(plan, 17, index=i).observable() for i in range(_ROWS)])
    assert np.allclose(split.mean, obs.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(split.std, obs.std(axis=0, ddof=1), rtol=0, atol=1e-12)


def test_tiny_budget_draws_one_row_at_a_time(monkeypatch):
    plan = _plan(_fig1a(steps=4))
    whole = run_ensemble(plan, 9, seed=2)
    monkeypatch.setattr(sampling, "DRAW_BYTES", 1)
    split = run_ensemble(plan, 9, seed=2)
    assert np.allclose(split.std, whole.std, rtol=0, atol=1e-12)
    assert np.array_equal(split.mean, whole.mean)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("pid", ["fig1a", "fig1b", "fig2b", "fig3", "figB1a"])
def test_tiny_byte_budget_keeps_the_mean_bit_for_bit(monkeypatch, pid, seed):
    # numpy sums up to 128 values with 8 interleaved accumulators, so a
    # byte budget of a few rows must not split the chunk below 128 rows;
    # the draws are one row each
    plan = _plan(replace(PRESETS[pid].series[0][1], samples=0, steps=4))
    whole = run_ensemble(plan, 300, seed=seed)
    monkeypatch.setattr(sampling, "BLOCK_BYTES", 32)
    monkeypatch.setattr(sampling, "DRAW_BYTES", 32)
    split = run_ensemble(plan, 300, seed=seed)
    assert np.array_equal(split.mean, whole.mean)


def test_sub_block_draws_concatenate_to_the_chunk_block(monkeypatch):
    steps, samples = 5, 130
    plan = _plan(_fig1a(steps=steps))
    draws = []
    codes = sampling._codes

    def recording_codes(u, cum):
        draws.append(u.copy())
        return codes(u, cum)

    monkeypatch.setattr(sampling, "_codes", recording_codes)
    monkeypatch.setattr(sampling, "CHUNK", 50)
    monkeypatch.setattr(sampling, "SUB_ROWS", 7)
    monkeypatch.setattr(sampling, "DRAW_BYTES", 3 * 8 * steps)
    run_ensemble(plan, samples, seed=8)
    assert max(len(u) for u in draws) == 3
    blocks = [chunk_uniforms(8, c, rows, steps) for c, rows in enumerate((50, 50, 30))]
    assert np.array_equal(np.vstack(draws), np.vstack(blocks))


def _long_plan():
    # the long_horizon shape: 2000 steps of weak depolarizing digital noise
    cfg = ScenarioConfig(
        hardware="digital",
        mitigation="exact",
        device=PauliChannelParams(5e-4, 5e-4, 5e-4),
        beta=0.7,
        dt=0.01,
        steps=2000,
    )
    return _plan(cfg)


def test_ensemble_memory_is_the_codes_plus_one_draw_buffer():
    # a 4096-row leaf holds 2 MiB of codes packed four steps to a byte; the
    # uniforms pass through one reused buffer of DRAW_BYTES
    plan = _long_plan()
    tracemalloc.start()
    try:
        run_ensemble(plan, 4096, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("steps, samples", [(2000, 4096), (20, 40000)])
def test_no_uniform_draw_exceeds_the_draw_bound(monkeypatch, steps, samples):
    plan = _long_plan() if steps == 2000 else _plan(_fig1a(steps=steps))
    sizes = []
    codes = sampling._codes

    def recording_codes(u, cum):
        sizes.append(u.nbytes)
        return codes(u, cum)

    monkeypatch.setattr(sampling, "_codes", recording_codes)
    run_ensemble(plan, samples, seed=3)
    assert sum(sizes) == 8 * samples * steps
    assert max(sizes) <= sampling.DRAW_BYTES


@pytest.mark.parametrize("rows", [3 * 4096 // 2, 20000, 4 * 4096])
def test_split_chunk_sums_equal_the_unsplit_sums_bit_for_bit(monkeypatch, rows):
    # the sub-blocks follow numpy's pairwise summation tree, so the
    # observable sums (hence the mean) do not move
    plan = _plan(_fig1a(steps=3))
    whole = sampling._chunk_stats(plan, 6, 0, rows)
    monkeypatch.setattr(sampling, "SUB_ROWS", 4096)
    split = sampling._chunk_stats(plan, 6, 0, rows)
    assert split[0] == whole[0] == rows
    assert np.array_equal(split[1], whole[1])
    assert np.allclose(split[2], whole[2], rtol=1e-13, atol=0)


def test_run_ensemble_without_a_pool_starts_no_process(monkeypatch):
    # PECSTEP_WORKERS is the CLI's to read: without a worker count the
    # library runs every chunk in this process
    starts = []
    executor = sampling.ProcessPoolExecutor

    def counting_executor(*args, **kwargs):
        starts.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(sampling, "ProcessPoolExecutor", counting_executor)
    monkeypatch.setenv("PECSTEP_WORKERS", "2")
    monkeypatch.setattr(sampling, "CHUNK", 100)
    run_ensemble(_plan(_fig1a(steps=3)), 300, seed=1)
    assert starts == []


def test_worker_pool_starts_only_when_needed(monkeypatch):
    starts = []
    executor = sampling.ProcessPoolExecutor

    def counting_executor(*args, **kwargs):
        starts.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(sampling, "ProcessPoolExecutor", counting_executor)
    monkeypatch.setattr(sampling, "CHUNK", 100)
    plan = _plan(_fig1a(steps=3))
    run_ensemble(plan, 300, seed=1, workers=1)
    run_ensemble(plan, 100, seed=1, workers=2)  # one chunk
    assert starts == []
    a = run_ensemble(plan, 300, seed=1, workers=2)
    b = run_ensemble(plan, 250, seed=2, workers=5)  # three chunks: no idle process
    assert starts == [{"max_workers": 2}, {"max_workers": 3}]
    assert np.array_equal(a.std, run_ensemble(plan, 300, seed=1).std)
    assert np.array_equal(b.mean, run_ensemble(plan, 250, seed=2).mean)


def _stacked(pid):
    """The preset family's single-series plans and their stacked plan."""
    plans = [_plan(cfg) for _, cfg in PRESETS[pid].series]
    stacked = sampling.StepPlan(
        deterministic=np.stack([p.deterministic for p in plans]),
        distribution=plans[0].distribution,
        steps=plans[0].steps,
    )
    return plans, stacked


@pytest.mark.parametrize("on_pool", [False, True], ids=["in-process", "pool"])
@pytest.mark.parametrize("samples", [1, 70000, 131073])
@pytest.mark.parametrize("pid", ["fig3", "fig4", "fig8"])
def test_stacked_plan_equals_separate_runs_bit_for_bit(pid, samples, on_pool):
    # a beta family shares its distribution, so its series share the codes
    plans, stacked = _stacked(pid)
    assert all(p.distribution == stacked.distribution for p in plans)
    workers = 2 if on_pool else 1
    together = run_ensemble(stacked, samples, seed=5, workers=workers)
    assert together.mean.shape == (3, stacked.steps + 1)
    for j, plan in enumerate(plans):
        alone = run_ensemble(plan, samples, seed=5, workers=workers)
        for name in ("mean", "std", "stderr"):
            assert np.array_equal(getattr(together, name)[j], getattr(alone, name)), name
        assert np.array_equal(together.stderr[j], together.std[j] / np.sqrt(samples))


@pytest.mark.parametrize("on_pool", [False, True], ids=["in-process", "pool"])
def test_simulate_series_are_the_rows_of_the_stacked_ensemble(on_pool):
    # simulate stacks the fig8 family into one plan and hands row j to series j
    samples, seed, workers = 70000, 5, 2 if on_pool else 1
    _, stacked = _stacked("fig8")
    together = run_ensemble(stacked, samples, seed, workers=workers)
    configs = [replace(cfg, samples=samples, seed=seed) for _, cfg in PRESETS["fig8"].series]
    series = simulate(configs, workers=workers)
    assert len(series) == len(together.mean) == 3
    for j, ts in enumerate(series):
        assert np.array_equal(ts.mc_mean, together.mean[j])
        assert np.array_equal(ts.mc_stderr, together.stderr[j])


def test_single_map_plan_keeps_its_shapes():
    stats = run_ensemble(_plan(_fig1a(steps=4)), 10, seed=1)
    assert stats.mean.shape == stats.std.shape == stats.stderr.shape == (5,)


_SERIES = [f"{pid}-{name}" if name else pid for pid, p in PRESETS.items() for name, _ in p.series]


@pytest.mark.parametrize("series", _SERIES + ["fig8-stacked"])
def test_reachable_support_keeps_the_statistics_bit_for_bit(monkeypatch, series):
    # 70,000 samples: two chunks; the full support steps components that stay zero
    pid, _, name = series.partition("-")
    if name == "stacked":
        plan = _stacked(pid)[1]
    else:
        plan = _plan(dict(PRESETS[pid].series)[name])
    restricted = run_ensemble(plan, 70000, seed=9)
    monkeypatch.setattr(sampling, "_support", lambda rot: [0, 1, 2, 3])
    full = run_ensemble(plan, 70000, seed=9)
    assert np.array_equal(restricted.mean, full.mean)
    assert np.array_equal(restricted.std, full.std)


def test_support_is_the_closure_of_the_initial_components():
    assert sampling._support(_plan(_fig1a()).deterministic) == [0, 1, 3]  # y stays 0 at beta = 0
    plans, _ = _stacked("fig8")
    assert [sampling._support(p.deterministic) for p in plans] == [[0, 1, 3], [0, 1, 2, 3], [0, 1, 2, 3]]
    # at beta = pi/2 z reaches x only through an entry of about 4e-17, which counts
    assert 0 < abs(plans[2].deterministic[1, 3]) < 1e-15
    hops = np.diag([1.0, 0.5, 0.5, 0.5])
    hops[1, 3] = 0.25  # z -> x
    hops[2, 1] = 0.25  # x -> y: y is two hops from z, and neither t nor z reaches it directly
    assert sampling._support(hops) == [0, 1, 2, 3]
    hops[1, 3] = 0.0
    assert sampling._support(hops) == [0, 3]


@pytest.mark.parametrize("signs", list(itertools.product((-1, 1), repeat=3)))
def test_flip_sets_rebuild_the_sign_folded_branch_factors(signs):
    sign = np.array(signs + (1,), dtype=float)
    flips = sampling._flips(sign)
    factors = np.array([[-1.0 if f >> b & 1 else 1.0 for f in flips] for b in range(4)])
    assert np.array_equal(factors, sign[:, None] * sampling.BRANCH_DIAG)
