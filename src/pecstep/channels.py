"""Pauli-diagonal maps: noise channels, their inverses, and every mitigation
coefficient set used by the simulation scenarios.

Every map q0*I + q1*XX + q2*YY + q3*ZZ (P P meaning rho -> P rho P) is
diagonal in the Pauli-transfer basis (trace, x, y, z): the trace component
is scaled by q0 + q1 + q2 + q3 (1 unless a biased sampler deforms the map,
see coeffs_to_superop) and the X/Y/Z components by the transfer eigenvalues

    ex = q0 + q1 - q2 - q3   (cyclic).

Transfer eigenvalues are plain (ex, ey, ez) tuples.  Composition is a
componentwise product and inversion is a componentwise reciprocal, so the
exact mitigation map is one ratio per Bloch axis instead of a 4x4 matrix
inversion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .generators import PauliRates

COEFF_SUM_TOL = 1e-12

# Pauli-transfer diagonals of rho -> P rho P in branch order 0=X, 1=Y, 2=Z,
# 3=identity: conjugating by a Pauli keeps the trace and that Pauli's own
# axis and flips the other two.
BRANCH_DIAG = np.array(
    [[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0], [1.0, -1.0, -1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
)
BRANCH_DIAG.setflags(write=False)


@dataclass(frozen=True)
class PauliChannelParams:
    """Per-application X/Y/Z flip probabilities of a Pauli channel."""

    lx: float = 0.0
    ly: float = 0.0
    lz: float = 0.0

    def __post_init__(self):
        for name, value in zip(("lx", "ly", "lz"), self.as_tuple()):
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"{name}: probability must be finite and >= 0, got {value}")
        if self.lx + self.ly + self.lz > 1.0 + 1e-15:
            raise ValueError(
                f"lx+ly+lz = {self.lx + self.ly + self.lz} > 1: not a physical channel"
            )

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lx, self.ly, self.lz)


@dataclass(frozen=True)
class MitigationCoeffs:
    """Quasi-probability weights of a Pauli-diagonal map; sum to 1, q0 > 0."""

    q0: float
    q1: float
    q2: float
    q3: float

    def __post_init__(self):
        total = self.q0 + self.q1 + self.q2 + self.q3
        if abs(total - 1.0) > COEFF_SUM_TOL:
            raise ValueError(f"coefficients must sum to 1, got {total!r}")
        if not self.q0 > 0.0:
            raise ValueError(f"q0 must be > 0, got {self.q0}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.q0, self.q1, self.q2, self.q3)


@dataclass(frozen=True)
class SamplingDistribution:
    """Pauli sampling probabilities with the sign-carrying prefactor.

    mu1/mu2/mu3 are the probabilities of applying X/Y/Z in one mitigation
    step (identity otherwise); the weight picked up by a trajectory is
    signs[i] * prefactor for a Pauli branch and +prefactor for identity.
    """

    mu1: float
    mu2: float
    mu3: float
    prefactor: float
    signs: tuple[int, int, int]

    def mu_tuple(self) -> tuple[float, float, float]:
        return (self.mu1, self.mu2, self.mu3)


def lambda_to_transfer(p: PauliChannelParams) -> tuple[float, float, float]:
    lx, ly, lz = p.as_tuple()
    return (1.0 - 2.0 * ly - 2.0 * lz, 1.0 - 2.0 * lx - 2.0 * lz, 1.0 - 2.0 * lx - 2.0 * ly)


def _decay(r: PauliRates, dt: float) -> tuple[float, float, float]:
    """Transfer eigenvalues of exp(L dt) for Pauli rates r: exp(-2(g_j + g_k) dt)."""
    gx, gy, gz = r.as_tuple()
    return (
        math.exp(-2.0 * (gy + gz) * dt),
        math.exp(-2.0 * (gx + gz) * dt),
        math.exp(-2.0 * (gx + gy) * dt),
    )


def transfer_to_coeffs(e: tuple[float, float, float]) -> MitigationCoeffs:
    ex, ey, ez = e
    return MitigationCoeffs(
        q0=0.25 * (1.0 + ex + ey + ez),
        q1=0.25 * (1.0 + ex - ey - ez),
        q2=0.25 * (1.0 - ex + ey - ez),
        q3=0.25 * (1.0 - ex - ey + ez),
    )


def coeffs_to_superop(q: MitigationCoeffs, bias: float = 1.0) -> np.ndarray:
    """The sampled step of sampling_distribution(q, bias) in the limit of
    infinitely many samples, gamma sum_b p_b s_b P_b: the map with weights
    c_i = bias q_i and c0 = q0 + (1 - bias) sum|q_i|, q's own map at bias
    1.  Its trace entry, 1 + 2 (1 - bias) sum_{q_i<0} |q_i|, is the
    expected weight of one step."""
    q0, q1, q2, q3 = q.as_tuple()
    c0 = q0 + (1.0 - bias) * (abs(q1) + abs(q2) + abs(q3))
    c1, c2, c3 = bias * q1, bias * q2, bias * q3
    trace = 1.0 + 2.0 * (1.0 - bias) * sum(-qi for qi in (q1, q2, q3) if qi < 0)
    return np.diag((trace, c0 + c1 - c2 - c3, c0 - c1 + c2 - c3, c0 - c1 - c2 + c3))


def channel_superop(p: PauliChannelParams) -> np.ndarray:
    """Pauli-transfer matrix of the Pauli channel with flip probabilities p."""
    return np.diag((1.0,) + lambda_to_transfer(p))


def exact_coeffs(
    target: PauliRates, device: PauliChannelParams | PauliRates, dt: float
) -> MitigationCoeffs:
    """Coefficients of the map that turns one step of device noise into one
    step of the target noise exp(L_target dt): per Bloch axis, the target's
    exp(-2(g_j + g_k) dt) divided by the device's transfer eigenvalue.

    The device step is the channel itself on digital hardware and
    exp(L_device dt) for analog rates; a zero target gives its inverse.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if isinstance(device, PauliChannelParams):
        e = lambda_to_transfer(device)
    else:
        e = _decay(device, dt)
    if min(abs(v) for v in e) < 1e-14:
        raise ValueError(f"device noise with transfer eigenvalues {e} is singular, not invertible")
    return transfer_to_coeffs(tuple(t / v for t, v in zip(_decay(target, dt), e)))


def first_order_coeffs(
    target: PauliRates, device_eps: tuple[float, float, float], dt: float
) -> MitigationCoeffs:
    """First-order mitigation coefficients q_k = g_k*dt - eps_k.

    device_eps holds the per-step device error probabilities: the channel
    probabilities themselves for digital hardware, rate*dt for analog.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    q1 = target.gx * dt - device_eps[0]
    q2 = target.gy * dt - device_eps[1]
    q3 = target.gz * dt - device_eps[2]
    return MitigationCoeffs(1.0 - q1 - q2 - q3, q1, q2, q3)


def linear_inverse_coeffs(device: PauliRates, dt: float) -> MitigationCoeffs:
    """Exact inverse of the first-order channel expansion (probabilities
    rate*dt); differs from first_order_coeffs at second order in rate*dt."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    eps = (device.gx * dt, device.gy * dt, device.gz * dt)
    if sum(eps) > 1.0 + 1e-15:  # the bound PauliChannelParams puts on lx+ly+lz
        raise ValueError(
            f"(noise_kx + noise_ky + noise_kz) * dt = {sum(eps)} > 1: the linearized "
            "device channel is not physical; lower dt or the noise rates"
        )
    return exact_coeffs(PauliRates(), PauliChannelParams(*eps), dt)


def _sign(x: float) -> int:
    return -1 if x < 0 else 1


def sampling_distribution(q: MitigationCoeffs, bias: float = 1.0) -> SamplingDistribution:
    """Pauli sampling probabilities mu_i = bias*|q_i| / (q0 + sum|q_i|).

    The prefactor q0 + |q1| + |q2| + |q3| is never rescaled by the bias;
    bias != 1 models an imperfect sampler whose post-processing weights are
    left at their nominal values.
    """
    if not bias > 0:
        raise ValueError(f"bias must be > 0, got {bias}")
    q0, q1, q2, q3 = q.as_tuple()
    prefactor = q0 + abs(q1) + abs(q2) + abs(q3)
    mus = tuple(bias * abs(qi) / prefactor for qi in (q1, q2, q3))
    if sum(mus) > 1.0:
        raise ValueError(
            f"biased sampling probabilities sum to {sum(mus)} > 1; lower the bias"
        )
    return SamplingDistribution(
        mu1=mus[0],
        mu2=mus[1],
        mu3=mus[2],
        prefactor=prefactor,
        signs=(_sign(q1), _sign(q2), _sign(q3)),
    )

