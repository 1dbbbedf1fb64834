"""Quasi-probability Monte Carlo over Pauli-sampled mitigation steps.

A step is the plan's deterministic map followed by one Pauli drawn from
the plan's sampling distribution: X, Y or Z with probability mu_i and
signed weight signs[i] * gamma, identity otherwise with weight +gamma.
A plan is in the real Pauli-transfer basis: a state is its coordinates
(trace, x, y, z) = Tr(P rho) for P = I, X, Y, Z, the deterministic map is
a real 4x4 matrix R and a Pauli branch is a +-1 diagonal (BRANCH_DIAG).

A trajectory's weight always has magnitude gamma^n; only its sign is
random.  The ensemble therefore folds the branch sign into the state (the
branch acts as sign * diagonal) and applies gamma^n once, when the chunk
partials are merged.  The replay keeps physical states and the exact
sequential weight product.

Reproducibility contract: trajectories are organized in fixed blocks of
CHUNK; block c consumes the Philox stream seeded by SeedSequence(seed,
spawn_key=(c,)) and trajectory i uses row i % CHUNK of that block's uniform
draws.  Results therefore depend only on (seed, samples), never on the
worker count.  run_trajectory(plan, seed, i) replays exactly the branch
sequence of ensemble trajectory i (states agree to floating rounding, the
weights exactly), drawing only row i of the block.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channels import BRANCH_DIAG, SamplingDistribution
from .linalg import pauli_to_density

CHUNK = 1 << 16

RHO0 = np.array([1.0, 0.0, 0.0, 1.0])  # |1><1| in Pauli coordinates
RHO0.setflags(write=False)


@dataclass(frozen=True, eq=False)
class StepPlan:
    """One experiment step, repeated `steps` times from the Pauli
    coordinates rho0.

    `deterministic` is the physical step's Pauli-transfer matrix (unitary
    layer then noise channel for digital hardware, one combined exponential
    for analog).  `mitigation` is the infinite-sample Pauli-transfer matrix
    of the sampled mitigation step.
    """

    deterministic: np.ndarray
    mitigation: np.ndarray
    distribution: SamplingDistribution
    steps: int
    rho0: np.ndarray = field(default_factory=lambda: RHO0)


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    states: np.ndarray  # (steps+1, 2, 2), physical at every step
    weights: np.ndarray  # (steps+1,), signed

    def observable(self) -> np.ndarray:
        """Weighted excited-state population w * <1|rho|1> per step."""
        return self.weights * self.states[:, 0, 0].real


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Per-step statistics of the weighted observable over an ensemble."""

    samples: int
    mean: np.ndarray
    std: np.ndarray  # sample standard deviation (ddof=1)
    stderr: np.ndarray  # std / sqrt(samples)
    mean_state: np.ndarray  # (steps+1, 2, 2) weighted mean density matrix


@dataclass(frozen=True, eq=False)
class ExhaustiveResult:
    """Exact branch-enumeration averages (the infinite-sample limit)."""

    mean: np.ndarray
    weight_mean: np.ndarray  # expected weight per step, ignoring the state
    mean_state: np.ndarray


def _branch_tables(dist: SamplingDistribution):
    """Cumulative X/Y/Z probabilities and the weight sign of each branch,
    in branch order; a branch's weight is sign * gamma."""
    return np.cumsum(dist.mu_tuple()), np.array(dist.signs + (1,), dtype=float)


def _rotate(rot: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = rot @ v for states stored as the columns of v, shape (4, rows),
    as 16 scalar-times-row multiply-adds: row-batched matmuls are handed to
    BLAS, which starts threads that only compete with the workers."""
    tmp = np.empty(v.shape[1])
    for i, coeffs in enumerate(rot.tolist()):
        row = out[i]
        np.multiply(v[0], coeffs[0], out=row)
        for j in (1, 2, 3):
            np.multiply(v[j], coeffs[j], out=tmp)
            row += tmp
    return out


def _philox(seed: int, chunk: int) -> np.random.Philox:
    return np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))


def _chunk_uniforms(seed: int, chunk: int, rows: int, steps: int) -> np.ndarray:
    return np.random.Generator(_philox(seed, chunk)).random((rows, steps))


def _row_uniforms(seed: int, index: int, steps: int) -> np.ndarray:
    """Row `index % CHUNK` of its chunk's uniform block, drawn alone.

    The block is filled row-major, one 64-bit Philox output per double, and
    one Philox counter step yields four outputs: skip whole counter steps
    with advance() and discard the remainder.
    """
    chunk, row = divmod(index, CHUNK)
    skip, rest = divmod(row * steps, 4)
    bitgen = _philox(seed, chunk)
    bitgen.advance(skip)
    return np.random.Generator(bitgen).random(rest + steps)[rest:]


def run_trajectory(plan: StepPlan, seed: int, index: int = 0) -> TrajectoryResult:
    """Simulate the single trajectory `index` of the ensemble (seed, ...)."""
    u = _row_uniforms(seed, index, plan.steps)
    cum, sign = _branch_tables(plan.distribution)
    branches = np.searchsorted(cum, u, side="right")
    # one real map per branch: the Pauli diagonal after the deterministic step
    step_maps = BRANCH_DIAG[:, :, None] * plan.deterministic

    r = np.empty((plan.steps + 1, 4))
    r[0] = plan.rho0
    for s, b in enumerate(branches):
        r[s + 1] = step_maps[b] @ r[s]
    weights = np.empty(plan.steps + 1)
    weights[0] = 1.0
    np.cumprod(sign[branches] * plan.distribution.prefactor, out=weights[1:])  # sequential, as a loop would
    return TrajectoryResult(states=pauli_to_density(r), weights=weights)


def _chunk_stats(plan: StepPlan, seed: int, chunk: int, rows: int):
    """Per-block partials in sign-folded units: observable sum, centered
    second moment (two-pass within the block, which keeps the spread of a
    constant observable at zero) and the state sum in Pauli coordinates.

    Each row holds sign(w_n) * (trace, x, y, z) of its trajectory: a branch
    multiplies the state by its Pauli diagonal times its weight sign, so the
    weight magnitude gamma^n is left to run_ensemble.
    """
    steps = plan.steps
    u = _chunk_uniforms(seed, chunk, rows, steps)
    cum, sign = _branch_tables(plan.distribution)
    fold = np.ascontiguousarray((sign[:, None] * BRANCH_DIAG).T)  # (component, branch)

    v = np.empty((4, rows))
    v[...] = plan.rho0[:, None]
    rotated = np.empty_like(v)
    s1 = np.zeros(steps + 1)
    m2 = np.zeros(steps + 1)
    sv = np.zeros((steps + 1, 4))

    def record(step):
        obs = 0.5 * (v[0] + v[3])  # <1|rho|1> = (trace + z) / 2
        s1[step] = obs.sum()
        centered = obs - s1[step] / rows
        m2[step] = (centered * centered).sum()
        sv[step] = v.sum(axis=1)

    record(0)
    for s in range(steps):
        _rotate(plan.deterministic, v, rotated)
        b = np.searchsorted(cum, u[:, s], side="right")
        for k, component_signs in enumerate(fold):
            np.multiply(rotated[k], component_signs[b], out=v[k])
        record(s + 1)
    return s1, m2, sv


def _chunk_stats_star(args):
    return _chunk_stats(*args)


def default_workers() -> int:
    return max(1, int(os.environ.get("PECSTEP_WORKERS", "1")))


def run_ensemble(
    plan: StepPlan, samples: int, seed: int, workers: int | None = None
) -> EnsembleStats:
    """Ensemble statistics over `samples` independent trajectories.

    Deterministic given (seed, samples): chunk partial sums are merged in
    chunk order regardless of how many workers computed them.  Raises
    ValueError when the weight magnitude gamma^steps overflows.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    steps = plan.steps
    gamma = plan.distribution.prefactor
    with np.errstate(over="ignore"):
        gamma_n = gamma ** np.arange(steps + 1.0)
    if not np.isfinite(gamma_n[-1]):
        raise ValueError(
            f"steps: the weight magnitude gamma^steps = {gamma:.12g}^{steps} "
            "overflows the float range; use fewer steps"
        )
    workers = default_workers() if workers is None else workers

    n_chunks = (samples + CHUNK - 1) // CHUNK
    jobs = [
        (plan, seed, c, min(CHUNK, samples - c * CHUNK)) for c in range(n_chunks)
    ]
    if workers > 1 and n_chunks > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_chunk_stats_star, jobs))
    else:
        partials = [_chunk_stats(*job) for job in jobs]

    s1 = np.zeros(steps + 1)
    sv = np.zeros((steps + 1, 4))
    for p1, _, pv in partials:
        s1 += p1
        sv += pv
    mean = s1 / samples

    # sum of squares about the global mean, rebuilt from the block-centered
    # moments: sum (x-mean)^2 = sum_c [M2_c + n_c (mean_c - mean)^2]
    m2 = np.zeros(steps + 1)
    for job, (p1, pm2, _) in zip(jobs, partials):
        rows_c = job[3]
        m2 += pm2 + rows_c * (p1 / rows_c - mean) ** 2
    std = gamma_n * np.sqrt(m2 / (samples - 1)) if samples > 1 else np.zeros(steps + 1)
    return EnsembleStats(
        samples=samples,
        mean=gamma_n * mean,
        std=std,
        stderr=std / np.sqrt(samples),
        mean_state=pauli_to_density(gamma_n[:, None] * sv / samples),
    )


def exhaustive_expectation(plan: StepPlan, steps: int | None = None) -> ExhaustiveResult:
    """Exact expectation by enumerating all Pauli branch sequences.

    Independent of the matrix form of the mitigation map: walks every
    sequence of I/X/Y/Z draws with its probability and signed prefactor.
    Limited to 4^steps branches, steps <= 6.
    """
    steps = plan.steps if steps is None else steps
    if steps > 6:
        raise ValueError(f"exhaustive enumeration limited to 6 steps, got {steps}")

    dist = plan.distribution
    cum, sign = _branch_tables(dist)
    probs = np.array([dist.mu1, dist.mu2, dist.mu3, 1.0 - cum[-1]])
    live = [b for b in range(4) if probs[b] > 0.0]

    v = plan.rho0[:, None]  # one column per branch sequence
    pw = np.ones(1)  # probability times weight sign of each sequence
    mean = np.empty(steps + 1)
    weight_mean = np.empty(steps + 1)
    mean_state = np.empty((steps + 1, 2, 2), dtype=complex)

    def record(n):
        g_n = dist.prefactor**n
        mean[n] = g_n * (pw * 0.5 * (v[0] + v[3])).sum()
        weight_mean[n] = g_n * pw.sum()
        mean_state[n] = pauli_to_density(g_n * (pw * v).sum(axis=1))

    record(0)
    for s in range(steps):
        v = _rotate(plan.deterministic, v, np.empty_like(v))
        v = np.concatenate([v * BRANCH_DIAG[b][:, None] for b in live], axis=1)
        pw = np.concatenate([pw * (probs[b] * sign[b]) for b in live])
        record(s + 1)
    return ExhaustiveResult(mean=mean, weight_mean=weight_mean, mean_state=mean_state)
