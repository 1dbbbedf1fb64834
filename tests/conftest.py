import contextlib
import math
import signal
from dataclasses import dataclass

import numpy as np
import pytest

import pecstep.sampling as sampling
from pecstep.channels import PauliChannelParams, transfer_to_coeffs
from pecstep.generators import PauliRates

# Independent complex reference for the library's real Pauli-transfer maps:
# column-stacked 4x4 superoperators built from Kronecker products, with
# vec(rho)[2j + i] = rho[i, j], so that vec(A rho B) = (B^T kron A) vec(rho).
I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def vec(rho):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    return rho.flatten(order="F")


def unvec(v):
    return np.asarray(v).reshape((2, 2), order="F")


def conjugation(p):
    """Superoperator of rho -> P rho P^dagger."""
    return np.kron(p.conj(), p)


def hamiltonian(omega, beta):
    """Rabi Hamiltonian omega (sin(beta) X - cos(beta) Y); eigenvalues +-omega."""
    return omega * (np.sin(beta) * X - np.cos(beta) * Y)


def lindbladian(omega=0.0, beta=0.0, rates=(0.0, 0.0, 0.0)):
    """-i[H, .] + sum_k g_k (P_k . P_k - .) for H = hamiltonian(omega, beta)."""
    h = hamiltonian(omega, beta)
    m = -1j * (np.kron(I2, h) - np.kron(h.T, I2))
    for g, p in zip(rates, (X, Y, Z)):
        m = m + g * (conjugation(p) - np.eye(4))
    return m


def pauli_channel(probs):
    """Superoperator of rho -> (1 - sum l) rho + sum_k l_k P_k rho P_k."""
    m = (1.0 - sum(probs)) * np.eye(4, dtype=complex)
    for l, p in zip(probs, (X, Y, Z)):
        m = m + l * conjugation(p)
    return m


# Columns vec(P)/2 for P = I, X, Y, Z: vec(rho) = BASIS @ r for the Pauli
# coordinates r = Tr(P rho).  The columns are orthogonal with norm^2 1/2,
# hence the inverse 2 BASIS^dagger.
BASIS = np.stack([vec(p) for p in (I2, X, Y, Z)], axis=1) / 2.0
BASIS_INV = 2.0 * BASIS.conj().T


def to_pauli_transfer(s):
    """B^-1 S B, complex, so that a test also sees a stray imaginary part."""
    return BASIS_INV @ s @ BASIS


def to_column_stacked(r):
    """B R B^-1 of a Pauli-transfer matrix R."""
    return BASIS @ r @ BASIS_INV


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_density(rng):
    """Random physical qubit state via a Bloch vector of length <= 1."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    r = rng.uniform(0.0, 1.0) * direction
    return 0.5 * (I2 + r[0] * X + r[1] * Y + r[2] * Z)


def taylor_expm(a, order=40):
    """Scaling + truncated Taylor series, independent of the library core."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    m = a / 2**squarings
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ m / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def sequential_orbit(maps, r0, dtype=float):
    """The step loop one map at a time, r_{n+1} = maps[n] @ r_n: the oracle
    for linalg.orbit's blocked loop; dtype=np.longdouble gives a reference
    with more bits on platforms where long double is wider than double."""
    maps = np.asarray(maps, dtype=dtype)
    r = np.empty((len(maps) + 1, len(r0)), dtype=dtype)
    r[0] = r0
    for n, step in enumerate(maps):
        r[n + 1] = step @ r[n]
    return r


def max_abs_diff(a, b):
    """Largest elementwise |a - b|; arrays of different shapes raise."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def chunk_uniforms(seed, chunk, rows, steps):
    """A chunk's whole uniform block, row-major, as sampling's
    reproducibility contract defines it: the oracle for the ensemble's
    piecewise draws and the replay's skip-ahead."""
    return np.random.Generator(sampling._philox(seed, chunk)).random((rows, steps))


def kappa_to_lambda(r: PauliRates, dt: float) -> PauliChannelParams:
    """Channel probabilities of exp(L_n dt) for rates r, through the
    transfer eigenvalues: the digital device whose one step equals an
    analog device's step with rates r."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    gx, gy, gz = r.as_tuple()
    e = (
        math.exp(-2.0 * (gy + gz) * dt),
        math.exp(-2.0 * (gx + gz) * dt),
        math.exp(-2.0 * (gx + gy) * dt),
    )
    q = transfer_to_coeffs(e)
    return PauliChannelParams(q.q1, q.q2, q.q3)


@dataclass(frozen=True, eq=False)
class ExhaustiveResult:
    """Exact branch-enumeration averages (the infinite-sample limit)."""

    mean: np.ndarray
    weight_mean: np.ndarray  # expected weight per step, ignoring the state


# Pauli-transfer diagonals of the X, Y, Z and identity branches, from the
# complex reference above rather than the library's table.
BRANCH_DIAGONALS = np.array(
    [np.diag(to_pauli_transfer(conjugation(p))).real for p in (X, Y, Z, I2)]
)


def expected_superop(dist) -> np.ndarray:
    """Infinite-sample limit of the sampled mitigation step, read from the
    sampling distribution alone: gamma * sum_b p_b s_b D_b over the X, Y, Z
    and identity branches, D_b from BRANCH_DIAGONALS.  The oracle for
    channels.coeffs_to_superop(q, bias), which states it in (q, bias)."""
    probs = np.array(dist.mu_tuple() + (1.0 - dist.mu1 - dist.mu2 - dist.mu3,))
    signs = np.array(dist.signs + (1,))
    return np.diag(dist.prefactor * (probs * signs) @ BRANCH_DIAGONALS)


def exhaustive_expectation(plan) -> ExhaustiveResult:
    """Exact expectation by enumerating all Pauli branch sequences: the
    infinite-sample oracle for the ensemble.

    Independent of the matrix form of the mitigation map: walks every
    sequence of X/Y/Z/I draws with its probability and signed prefactor,
    one dense R @ v step per step.  Limited to 4^steps branches, steps <= 6.
    """
    steps = plan.steps
    if steps > 6:
        raise ValueError(f"exhaustive enumeration limited to 6 steps, got {steps}")

    dist = plan.distribution
    mu = dist.mu_tuple()
    probs = mu + (1.0 - sum(mu),)
    sign = dist.signs + (1,)
    live = [b for b in range(4) if probs[b] > 0.0]

    v = sampling.RHO0[:, None]  # one column per branch sequence
    pw = np.ones(1)  # probability times weight sign of each sequence
    mean = np.empty(steps + 1)
    weight_mean = np.empty(steps + 1)
    for n in range(steps + 1):
        if n:
            v = plan.deterministic @ v
            v = np.concatenate([v * BRANCH_DIAGONALS[b][:, None] for b in live], axis=1)
            pw = np.concatenate([pw * (probs[b] * sign[b]) for b in live])
        g_n = dist.prefactor**n
        mean[n] = g_n * (pw * 0.5 * (v[0] + v[3])).sum()
        weight_mean[n] = g_n * pw.sum()
    return ExhaustiveResult(mean=mean, weight_mean=weight_mean)


def fidelity(r1, r2) -> float:
    """Qubit fidelity Tr(r1 r2) + 2 sqrt(det r1 det r2) of complex 2x2
    density matrices: the oracle for the fidelity column, which
    scenarios.ideal_evolution computes from Pauli coordinates.

    Determinants of slightly non-physical averaged states are clamped at 0.
    """
    r1, r2 = np.asarray(r1, dtype=complex), np.asarray(r2, dtype=complex)
    overlap = np.trace(r1 @ r2).real
    d1 = max(np.linalg.det(r1).real, 0.0)
    d2 = max(np.linalg.det(r2).real, 0.0)
    return float(overlap + 2.0 * math.sqrt(d1 * d2))


class Hang(BaseException):
    """Raised by time_limit.  Not an Exception, so no handler in the code
    under test (the CLI turns an OSError such as TimeoutError into exit 2)
    can take it for an error of its own."""


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise Hang inside the block once `seconds` have passed (SIGALRM, so
    the main thread only): a hang fails instead of stalling."""

    def expire(signum, frame):
        raise Hang(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
