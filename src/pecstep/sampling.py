"""Quasi-probability Monte Carlo over Pauli-sampled mitigation steps.

A step is the plan's deterministic map followed by one Pauli drawn from
the plan's sampling distribution: X, Y or Z with probability mu_i and
signed weight signs[i] * gamma, identity otherwise with weight +gamma.
A plan is in the real Pauli-transfer basis: a state is its coordinates
(trace, x, y, z) = Tr(P rho) for P = I, X, Y, Z, the deterministic map is
a real 4x4 matrix R and a Pauli branch is a +-1 diagonal (BRANCH_DIAG).
A plan holds only what is sampled; the limit of infinitely many samples,
R followed by the expected sampled step, is scenarios.step_maps.

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

A plan may stack k deterministic maps, shape (k, 4, 4), for k series that
share (samples, seed, steps, distribution): they share each chunk's stream
and its branch codes, which are drawn once and stepped through by every
map in turn.  Each series' statistics equal those of its own single-map
plan bit for bit.

Kernel layout: a chunk is walked in sub-blocks of at most SUB_ROWS rows,
every step of one sub-block before the next, so that its states stay in
cache.  A sub-block draws its rows of the chunk's uniforms in order,
through one buffer of at most DRAW_BYTES reused piece after piece, and
keeps only each draw's 2-bit branch code, packed four steps to a byte,
step-major.  What bounds the ensemble's memory is therefore a sub-block's
codes (rows x ceil(steps/4) bytes, about a quarter of BLOCK_BYTES) plus
that one draw buffer, however many steps a plan has; no kernel ever holds
a chunk's whole uniform block.  The chunk is split as
numpy's pairwise summation splits a sum and the sub-block partials are
merged back with the centered-moment formula used across chunks, so the
observable sums s1 equal the unsplit ones bit for bit.  A map's
ensemble holds only the components RHO0 can reach, the closure of {t, z}
under the map's nonzero pattern (_support): the others stay zero, so
dropping them changes no sum.  A step applies only the nonzero
coefficients of the map restricted to them (_rotate), and a branch factor
-1 on a component becomes one xor of its sign bytes.  run_ensemble
runs the chunks in this process, or on one process pool of at most one
worker per chunk that it starts and stops itself.

Start-up: the pool comes from this module's ProcessPoolExecutor, which
imports concurrent.futures' executor on its first call, and numpy.random
is first imported by a draw (_philox) or by run_ensemble just before it
starts a pool.  Importing the package, or a run that neither samples nor
pools, loads neither multiprocessing nor numpy.random.

Every plan starts from RHO0 = |1><1|, the initial state of every
experiment here.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .channels import BRANCH_DIAG, SamplingDistribution
from .linalg import orbit, pauli_to_density

CHUNK = 1 << 16
SUB_ROWS = 1 << 14  # rows a chunk walks together: their states stay in a 2 MiB L2
BLOCK_BYTES = 1 << 23  # bound on a sub-block's rows x steps; its packed codes take a quarter
DRAW_BYTES = 1 << 20  # bound on the reused uniform buffer: it stays in half a 2 MiB L2

RHO0 = np.array([1.0, 0.0, 0.0, 1.0])  # |1><1| in Pauli coordinates
RHO0.setflags(write=False)


@dataclass(frozen=True, eq=False)
class StepPlan:
    """One sampled experiment step, repeated `steps` times from RHO0.

    `deterministic` is the physical step's Pauli-transfer matrix (unitary
    layer then noise channel for digital hardware, one combined exponential
    for analog), followed by one Pauli drawn from `distribution`.  It may
    carry a leading axis, shape (k, 4, 4), for k series sharing
    `distribution` and `steps`; only run_ensemble takes such a stacked
    plan.
    """

    deterministic: np.ndarray
    distribution: SamplingDistribution
    steps: int


@dataclass(frozen=True, eq=False)
class TrajectoryResult:
    states: np.ndarray  # (steps+1, 2, 2), physical at every step
    weights: np.ndarray  # (steps+1,), signed

    def observable(self) -> np.ndarray:
        """Weighted excited-state population w * <1|rho|1> per step."""
        return self.weights * self.states[:, 0, 0].real


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Per-step statistics of the weighted observable over an ensemble.

    The arrays of a stacked plan's statistics carry its leading axis; row
    j is series j alone.
    """

    samples: int
    mean: np.ndarray
    std: np.ndarray  # sample standard deviation (ddof=1)

    @property
    def stderr(self) -> np.ndarray:
        return self.std / np.sqrt(self.samples)


def _branch_tables(dist: SamplingDistribution):
    """Cumulative X/Y/Z probabilities and the weight sign of each branch,
    in branch order; a branch's weight is sign * gamma."""
    return np.cumsum(dist.mu_tuple()), np.array(dist.signs + (1,), dtype=float)


def _support(rot: np.ndarray) -> list:
    """The components that repeated steps of the 4x4 map rot can make
    nonzero from RHO0, in component order: the closure of RHO0's support
    {t, z} under rot's exact nonzero pattern.  Branch diagonals only flip
    signs, so every other component of an ensemble state stays zero.  No
    entry counts as zero unless it is exactly zero."""
    reached = RHO0 != 0.0
    while True:
        grown = reached | (rot[:, reached] != 0.0).any(axis=1)
        if (grown == reached).all():
            return np.flatnonzero(reached).tolist()
        reached = grown


def _sparse_rows(rot: np.ndarray) -> list:
    """The nonzero (column, coefficient) terms of each row of a 4x4 map, the
    form _rotate takes; built once per map."""
    return [[(j, c) for j, c in enumerate(row) if c != 0.0] for row in rot.tolist()]


def _rotate(rows: list, v: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = rot @ v for states stored as the columns of v, shape (4, n),
    with rows = _sparse_rows(rot) and tmp a scratch row of length n.

    A row adds only its nonzero terms, in column order, so the result equals
    the dense sum of 16 products bit for bit, up to the sign of a zero (a
    zero product never changes a sum); an all-zero row writes zeros and a
    lone coefficient 1 copies.  Scalar-times-row numpy calls keep BLAS,
    whose threads would only compete with the workers, out of the kernel.
    """
    for row, terms in zip(out, rows):
        if not terms:
            row.fill(0.0)
        elif len(terms) == 1 and terms[0][1] == 1.0:
            np.copyto(row, v[terms[0][0]])
        else:
            (j, c), *rest = terms
            np.multiply(v[j], c, out=row)
            for j, c in rest:
                np.multiply(v[j], c, out=tmp)
                row += tmp
    return out


def _philox(seed: int, chunk: int) -> "np.random.Philox":
    return np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))


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


def _codes(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Branch index of each uniform, as uint8: the number of cum entries
    <= u, which is np.searchsorted(cum, u, side="right")."""
    code = (u >= cum[0]).view(np.uint8)
    code += u >= cum[1]
    code += u >= cum[2]
    return code


def run_trajectory(plan: StepPlan, seed: int, index: int = 0) -> TrajectoryResult:
    """Simulate the single trajectory `index` of the ensemble (seed, ...).

    Each step's branch picks one real map, the Pauli diagonal after the
    deterministic step, and linalg.orbit runs the sequence in blocked
    batches of about sqrt(steps) maps."""
    u = _row_uniforms(seed, index, plan.steps)
    cum, sign = _branch_tables(plan.distribution)
    branches = _codes(u, cum)
    r = orbit((BRANCH_DIAG[:, :, None] * plan.deterministic)[branches], RHO0)
    weights = np.empty(plan.steps + 1)
    weights[0] = 1.0
    np.cumprod(sign[branches] * plan.distribution.prefactor, out=weights[1:])  # sequential, as a loop would
    return TrajectoryResult(states=pauli_to_density(r), weights=weights)


def _branch_codes(gen: "np.random.Generator", cum: np.ndarray, rows: int, steps: int) -> np.ndarray:
    """Packed step-major branch codes, shape (ceil(steps/4), rows), of the
    next `rows` rows of the generator's uniform block: the 2-bit code of
    step 4q + j sits in bits 2j, 2j+1 of byte q, and unused bits are zero.

    The uniforms are drawn in order into one buffer of at most DRAW_BYTES
    (or one row), reused piece after piece.  A piece's one-byte codes go
    into a zero-padded buffer of whole 4-step words, which a word fold packs
    in place: a 32-bit little-endian word holds one code per byte, at bits
    0, 8, 16 and 24, and w |= w>>6 then w |= w>>12 leave
    w | w>>6 | w>>12 | w>>18, whose low byte holds all four.  Right shifts
    move bits only down, so the padding bytes stay zero.  Only the packed
    quarter-size array is transposed.  The call holds the packed codes plus
    those piece buffers, however many rows it draws.
    """
    words = -(-steps // 4)
    packed = np.empty((words, rows), dtype=np.uint8)
    piece = min(rows, max(1, DRAW_BYTES // (8 * max(steps, 1))))
    buf = np.empty(piece * steps)
    pad = np.zeros((piece, 4 * words), dtype=np.uint8)  # columns past `steps` stay 0
    shifted = np.empty((piece, words), dtype=np.uint32)
    for a in range(0, rows, piece):
        n = min(piece, rows - a)
        u = buf[: n * steps].reshape(n, steps)
        gen.random(out=u)
        pad[:n, :steps] = _codes(u, cum)
        w, t = pad[:n].view("<u4"), shifted[:n]
        np.right_shift(w, 6, out=t)
        w |= t
        np.right_shift(w, 12, out=t)
        w |= t
        np.copyto(packed[:, a : a + n], w.T, casting="unsafe")  # keeps the low byte
    return packed


def _flips(sign: np.ndarray) -> list:
    """flips[k]: the 4-bit set of branches whose sign-folded branch factor
    sign[b] * BRANCH_DIAG[b, k] on component k is -1, bit b for branch b."""
    return ((sign[:, None] * BRANCH_DIAG < 0).T @ (1 << np.arange(4))).tolist()


def _block_stats(support: list, rot: list, flips: list, codes: np.ndarray, steps: int):
    """Partials (s1, m2) of one sub-block over `steps` steps, from its
    packed branch codes (_branch_codes): the observable sum s1 and its
    centered second moment m2 (two-pass, which keeps the spread of a
    constant observable at zero), per step.

    The state holds only the components of `support` (_support of the
    map), which starts with t and ends with z; rot is _sparse_rows of the
    map restricted to them and flips[i] is _flips' set for component
    support[i].  Each column of v holds sign(w_n) times those coordinates
    of its trajectory: a branch multiplies the state by its Pauli diagonal
    times its weight sign, so the weight magnitude gamma^n is left to
    run_ensemble.  A factor -1 is an exact flip of the sign bit: every four
    steps, as a byte row is unpacked, each flipping component gets a byte
    mask (flips[i] << (7 - code)) & 0x80 per step, which holds the sign bit
    just where its set has the step's branch, and each step xors it into
    the component's sign bytes, one strided uint8 xor per component.
    """
    rows = codes.shape[1]
    v = np.empty((len(support), rows))
    v[...] = RHO0[support, None]
    out = np.empty_like(v)
    tmp = np.empty(rows)
    quad = np.empty((4, rows), dtype=np.uint8)
    shifts = np.arange(0, 8, 2, dtype=np.uint8)[:, None]  # code j of a byte sits at bit 2j
    flipping = [i for i, f in enumerate(flips) if f]
    sets = np.array([flips[i] for i in flipping], dtype=np.uint8)[:, None, None]
    masks = np.empty((len(flipping), 4, rows), dtype=np.uint8)
    byte = 7 if sys.byteorder == "little" else 0  # the byte of a float64 that holds its sign

    def sign_bytes(a):
        return a.view(np.uint8)[:, byte::8]

    signs, signs_out = sign_bytes(v), sign_bytes(out)
    s1 = np.zeros(steps + 1)
    m2 = np.zeros(steps + 1)

    def record(step):
        obs = np.add(v[0], v[-1], out=tmp)
        obs *= 0.5  # <1|rho|1> = (trace + z) / 2
        s1[step] = obs.sum()
        obs -= s1[step] / rows
        obs *= obs
        m2[step] = obs.sum()

    record(0)
    for s in range(steps):
        if s & 3 == 0:  # unpack steps s .. s + 3 from byte row s // 4
            np.right_shift(codes[s >> 2], shifts, out=quad)
            quad &= 3
            np.subtract(7, quad, out=quad)  # moves bit `code` of a set to the sign bit
            np.left_shift(sets, quad, out=masks)
            masks &= 0x80
        _rotate(rot, v, out, tmp)
        for i, mask in zip(flipping, masks):
            signs_out[i] ^= mask[s & 3]
        v, out = out, v
        signs, signs_out = signs_out, signs
        record(s + 1)
    return s1, m2


def _merge(parts):
    """Merge (rows, s1, m2) partials of disjoint row sets, in order and
    element by element: the sums s1 add, and the centered moments m2
    combine as sum (x - mean)^2 = sum_c [M2_c + n_c (mean_c - mean)^2]."""
    rows = sum(p[0] for p in parts)
    s1 = np.zeros_like(parts[0][1])
    for _, p1, _ in parts:
        s1 += p1
    mean = s1 / rows
    m2 = np.zeros_like(s1)
    for n, p1, pm2 in parts:
        m2 += pm2 + n * (p1 / n - mean) ** 2
    return rows, s1, m2


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches the callers' NaN checks
def _chunk_stats(plan: StepPlan, seed: int, chunk: int, rows: int) -> tuple:
    """Partials (rows, s1, m2) of one chunk, in sign-folded units (see
    _block_stats); s1 and m2 carry a stacked plan's leading axis.

    The chunk is walked in sub-blocks of at most SUB_ROWS rows whose rows x
    steps fit in BLOCK_BYTES, but never fewer than 128 rows (beyond 65536
    steps they exceed BLOCK_BYTES by at most 128 * steps).  A sub-block's
    packed codes take rows x ceil(steps/4) bytes; they are drawn once and
    every map steps through them.  The chunk is split as numpy's pairwise
    summation splits a sum (halves rounded down to a multiple of 8) and
    the partials are merged back up the same tree.  numpy sums at
    most 128 values with 8 interleaved accumulators rather than by halves,
    so with sub-blocks of 128 rows or more every leaf is a node of numpy's
    own tree: s1 equals the sum over the whole chunk bit for bit, and m2
    moves by rounding only.
    """
    steps = plan.steps
    shape = np.shape(plan.deterministic)[:-2] + (steps + 1,)
    cum, sign = _branch_tables(plan.distribution)
    flips = _flips(sign)
    kernels = []
    for m in np.reshape(plan.deterministic, (-1, 4, 4)):
        support = _support(m)
        kernels.append((support, _sparse_rows(m[np.ix_(support, support)]), [flips[k] for k in support]))
    gen = np.random.Generator(_philox(seed, chunk))
    leaf = min(SUB_ROWS, max(128, BLOCK_BYTES // max(steps, 1)))

    def stats(n):  # the generator's next n rows
        if n <= leaf:
            codes = _branch_codes(gen, cum, n, steps)
            parts = [_block_stats(*kernel, codes, steps) for kernel in kernels]
            return (n, *(np.reshape(a, shape) for a in zip(*parts)))
        half = n // 2 - n // 2 % 8 or n // 2  # numpy's split; halves below 16 rows
        return _merge([stats(half), stats(n - half)])

    return stats(rows)


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor(max_workers=max_workers),
    imported by the first call: an invocation that starts no pool never
    loads multiprocessing.  Tests and bench/trace.py patch this name to
    count pool starts."""
    import concurrent.futures

    return concurrent.futures.ProcessPoolExecutor(max_workers=max_workers)


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches the callers' NaN checks
def run_ensemble(plan: StepPlan, samples: int, seed: int, workers: int = 1) -> EnsembleStats:
    """Ensemble statistics over `samples` independent trajectories.

    The chunks run in this process unless `workers` > 1 and there is more
    than one chunk; then one ProcessPoolExecutor of min(workers, chunks)
    processes runs them and is shut down before the call returns.
    Deterministic given (seed, samples): chunk partials are merged in chunk
    order regardless of how many workers computed them.  A stacked plan's
    statistics carry its leading axis, every series drawn from the same
    codes.  Raises ValueError when the weight magnitude gamma^steps
    overflows.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    steps = plan.steps
    gamma = plan.distribution.prefactor
    gamma_n = gamma ** np.arange(steps + 1.0)
    if not np.isfinite(gamma_n[-1]):
        raise ValueError(
            f"steps: the weight magnitude gamma^steps = {gamma:.12g}^{steps} "
            "overflows the float range; use fewer steps"
        )

    n_chunks = (samples + CHUNK - 1) // CHUNK
    jobs = [
        (plan, seed, c, min(CHUNK, samples - c * CHUNK)) for c in range(n_chunks)
    ]
    if workers > 1 and n_chunks > 1:
        # loaded once here, or every forked worker of every pool would load it
        import numpy.random  # noqa: F401

        with ProcessPoolExecutor(max_workers=min(workers, n_chunks)) as pool:
            partials = list(pool.map(_chunk_stats, *zip(*jobs)))
    else:
        partials = [_chunk_stats(*job) for job in jobs]

    _, s1, m2 = _merge(partials)
    mean = s1 / samples
    std = gamma_n * np.sqrt(m2 / (samples - 1)) if samples > 1 else np.zeros_like(s1)
    return EnsembleStats(samples=samples, mean=gamma_n * mean, std=std)

