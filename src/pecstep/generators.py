"""Lindblad generators as real 4x4 Pauli-transfer matrices.

On the Pauli coordinates (trace, x, y, z) of a state, the Hamiltonian part
-i[H, rho] with H = h . sigma rotates the Bloch vector, dr/dt = 2 h x r,
and each Pauli dissipator g(P rho P - rho) damps the two Bloch components
that anticommute with P at rate 2g.  The trace row of every generator is
zero.  Generators are plain read-only float64 arrays: they add, commute
and exponentiate as matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import expm, pauli_coords, pauli_to_density


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


def unitary_generator(omega: float, beta: float) -> np.ndarray:
    """Generator of rho -> -i[H, rho] for the Rabi Hamiltonian
    H = omega (sin(beta) X - cos(beta) Y): rotation of the Bloch vector
    about the axis (sin beta, -cos beta, 0) at angular rate 2 omega."""
    hx, hy = omega * np.sin(beta), -omega * np.cos(beta)
    m = np.zeros((4, 4))
    m[1, 3], m[3, 1] = 2.0 * hy, -2.0 * hy
    m[3, 2], m[2, 3] = 2.0 * hx, -2.0 * hx
    m.setflags(write=False)
    return m


def pauli_dissipator(rates: PauliRates) -> np.ndarray:
    """Generator of rho -> sum_k g_k (P_k rho P_k - rho):
    diag(0, -2(gy + gz), -2(gx + gz), -2(gx + gy))."""
    gx, gy, gz = rates.as_tuple()
    m = np.diag([0.0, -2.0 * (gy + gz), -2.0 * (gx + gz), -2.0 * (gx + gy)])
    m.setflags(write=False)
    return m


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = np.asarray(a), np.asarray(b)
    return a @ b - b @ a


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(commutator(a, b)))


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


def exact_propagate(g: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve rho0 by exp(L t) for the full generator; physicality of the
    input is enforced, the output is whatever the generator produces."""
    if t < 0:
        raise ValueError(f"propagation time must be >= 0, got {t}")
    check_density_matrix(rho0)
    return pauli_to_density(expm(np.asarray(g) * t) @ pauli_coords(rho0))
