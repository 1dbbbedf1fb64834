"""Qubit states in Pauli coordinates and small dense matrix kernels.

A state rho is stored as its real Pauli coordinates r = (trace, x, y, z)
with r_P = Tr(P rho) for P = I, X, Y, Z, so rho = (t I + x X + y Y + z Z)/2.
Every linear map on states (generator, channel, step) is then a real 4x4
Pauli-transfer matrix acting on r.  The computational basis is ordered
|1> = (1, 0)^T, |0> = (0, 1)^T, so Z = diag(1, -1) and the excited-state
population is rho[0, 0] = (t + z) / 2.
"""

import numpy as np
import scipy.linalg


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix; a real matrix gives a real one.

    Relative accuracy ~1e-13 for norms up to ~50, which covers every
    generator arising here (only 2x2 and 4x4 matrices occur).
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm requires a square matrix, got shape {a.shape}")
    return scipy.linalg.expm(a)


def pauli_coords(rho: np.ndarray) -> np.ndarray:
    """Pauli coordinates (..., 4) of Hermitian 2x2 matrices (..., 2, 2)."""
    rho = np.asarray(rho)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"pauli_coords expects 2x2 matrices, got shape {rho.shape}")
    a, b, c, d = rho[..., 0, 0], rho[..., 0, 1], rho[..., 1, 0], rho[..., 1, 1]
    return np.stack([a + d, b + c, 1j * (b - c), a - d], axis=-1).real


def pauli_to_density(r: np.ndarray) -> np.ndarray:
    """2x2 density matrices (..., 2, 2) from Pauli coordinates (..., 4)."""
    t, x, y, z = np.moveaxis(np.asarray(r, dtype=float), -1, 0)
    rho = np.empty(t.shape + (2, 2), dtype=complex)
    rho[..., 0, 0] = 0.5 * (t + z)
    rho[..., 0, 1] = 0.5 * (x - 1j * y)
    rho[..., 1, 0] = 0.5 * (x + 1j * y)
    rho[..., 1, 1] = 0.5 * (t - z)
    return rho


def orbit(maps, r0: np.ndarray) -> np.ndarray:
    """Pauli coordinates r_0 = r0, r_{n+1} = maps[n] @ r_n, one row per
    step: the states a sequence of step maps takes r0 through."""
    r = np.empty((len(maps) + 1, 4))
    r[0] = r0
    for n, step in enumerate(maps):
        r[n + 1] = step @ r[n]
    return r


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))
