"""Lindblad generators in vectorized (superoperator) form.

The Hamiltonian part acts as -i[H, rho]; each Pauli dissipator with rate g
acts as g(P rho P - rho).  Both become 4x4 matrices on the column-stacked
state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import I2, PAULIS, devectorize, expm, frobenius_norm, kron, vectorize

GENERATOR_KINDS = ("hamiltonian", "target-noise", "device-noise", "combined")

_I4 = np.eye(4, dtype=complex)


@dataclass(frozen=True)
class PauliRates:
    """Nonnegative X/Y/Z error rates (inverse time)."""

    gx: float = 0.0
    gy: float = 0.0
    gz: float = 0.0

    def __post_init__(self):
        for name, value in zip(("gx", "gy", "gz"), self.as_tuple()):
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"{name}: rate must be finite and >= 0, got {value}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.gx, self.gy, self.gz)

    def is_zero(self) -> bool:
        return self.gx == 0.0 and self.gy == 0.0 and self.gz == 0.0


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Rabi Hamiltonian omega*(sin(beta) X - cos(beta) Y); eigenvalues +-omega."""

    omega: float
    beta: float
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class Generator:
    """A 4x4 generator tagged by its physical role."""

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")


def hamiltonian(omega: float, beta: float) -> Hamiltonian:
    m = omega * (np.sin(beta) * PAULIS[0] - np.cos(beta) * PAULIS[1])
    m.setflags(write=False)
    return Hamiltonian(omega=float(omega), beta=float(beta), matrix=m)


def unitary_generator(h: Hamiltonian) -> Generator:
    """Superoperator of rho -> -i[H, rho]: -i(I kron H - H^T kron I)."""
    m = -1j * (kron(I2, h.matrix) - kron(h.matrix.T, I2))
    m.setflags(write=False)
    return Generator(matrix=m, kind="hamiltonian")


def pauli_dissipator(rates: PauliRates, kind: str = "target-noise") -> Generator:
    """Superoperator sum_k g_k (P_k* kron P_k - I kron I).

    The Y term is real since Y* = -Y.
    """
    m = np.zeros((4, 4), dtype=complex)
    for g, p in zip(rates.as_tuple(), PAULIS):
        m += g * (kron(p.conj(), p) - _I4)
    m.setflags(write=False)
    return Generator(matrix=m, kind=kind)


def combine(a: Generator, b: Generator) -> Generator:
    """Sum two generators, refusing physically nonsensical pairings."""
    if a.kind == b.kind and a.kind != "combined":
        raise ValueError(f"refusing to combine two {a.kind!r} generators")
    m = a.matrix + b.matrix
    m.setflags(write=False)
    return Generator(matrix=m, kind="combined")


def _as_matrix(g) -> np.ndarray:
    return g.matrix if isinstance(g, Generator) else np.asarray(g, dtype=complex)


def commutator(a, b) -> np.ndarray:
    ma, mb = _as_matrix(a), _as_matrix(b)
    return ma @ mb - mb @ ma


def commutator_norm(a, b) -> float:
    return frobenius_norm(commutator(a, b))


def check_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> None:
    """Raise unless rho is Hermitian, trace-1 and positive semidefinite."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > tol:
        raise ValueError(f"density matrix trace {np.trace(rho).real} != 1")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < -tol:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")


def exact_propagate(g: Generator, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve rho0 by exp(L t) for the full generator; physicality of the
    input is enforced, the output is whatever the generator produces."""
    if t < 0:
        raise ValueError(f"propagation time must be >= 0, got {t}")
    check_density_matrix(rho0)
    return devectorize(expm(_as_matrix(g) * t) @ vectorize(rho0))
