"""Pauli-diagonal maps: noise channels, their inverses, and every mitigation
coefficient set used by the simulation scenarios.

Every map q0*I + q1*XX + q2*Y*Y + q3*ZZ is diagonal in the Bloch basis: the
identity component is fixed at 1 (trace preservation) and the X/Y/Z
components are scaled by the transfer eigenvalues

    ex = q0 + q1 - q2 - q3   (cyclic).

Composition is a componentwise product and inversion is a componentwise
reciprocal, so exact inverse maps and channel logarithms reduce to scalar
arithmetic instead of 4x4 matrix inversion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .generators import PauliRates
from .linalg import PAULIS, kron

COEFF_SUM_TOL = 1e-12

# Conjugation superoperators P* kron P for P = X, Y, Z (all real).
PAULI_CONJUGATIONS = tuple(kron(p.conj(), p).real for p in PAULIS)
for _m in PAULI_CONJUGATIONS:
    _m.setflags(write=False)

_I4 = np.eye(4)


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
class TransferEigenvalues:
    """Scaling factors applied to the X/Y/Z Bloch components."""

    ex: float
    ey: float
    ez: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.ex, self.ey, self.ez)


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


def lambda_to_transfer(p: PauliChannelParams) -> TransferEigenvalues:
    lx, ly, lz = p.as_tuple()
    return TransferEigenvalues(
        ex=1.0 - 2.0 * ly - 2.0 * lz,
        ey=1.0 - 2.0 * lx - 2.0 * lz,
        ez=1.0 - 2.0 * lx - 2.0 * ly,
    )


def transfer_to_coeffs(e: TransferEigenvalues) -> MitigationCoeffs:
    ex, ey, ez = e.as_tuple()
    return MitigationCoeffs(
        q0=0.25 * (1.0 + ex + ey + ez),
        q1=0.25 * (1.0 + ex - ey - ez),
        q2=0.25 * (1.0 - ex + ey - ez),
        q3=0.25 * (1.0 - ex - ey + ez),
    )


def coeffs_to_transfer(q: MitigationCoeffs) -> TransferEigenvalues:
    q0, q1, q2, q3 = q.as_tuple()
    return TransferEigenvalues(
        ex=q0 + q1 - q2 - q3,
        ey=q0 - q1 + q2 - q3,
        ez=q0 - q1 - q2 + q3,
    )


def coeffs_to_superop(q: MitigationCoeffs) -> np.ndarray:
    """The (real) 4x4 matrix q0*I + q1*XX + q2*Y*Y + q3*ZZ."""
    out = q.q0 * _I4.copy()
    for qi, conj in zip((q.q1, q.q2, q.q3), PAULI_CONJUGATIONS):
        out += qi * conj
    return out


def channel_superop(p: PauliChannelParams) -> np.ndarray:
    """Superoperator of the Pauli channel with flip probabilities p."""
    lx, ly, lz = p.as_tuple()
    out = (1.0 - lx - ly - lz) * _I4.copy()
    for li, conj in zip((lx, ly, lz), PAULI_CONJUGATIONS):
        out += li * conj
    return out


def exact_inverse_coeffs(p: PauliChannelParams) -> MitigationCoeffs:
    """Coefficients of the map that exactly undoes the channel p."""
    e = lambda_to_transfer(p)
    if min(abs(v) for v in e.as_tuple()) < 1e-14:
        raise ValueError(
            f"channel with transfer eigenvalues {e.as_tuple()} is singular, not invertible"
        )
    return transfer_to_coeffs(
        TransferEigenvalues(1.0 / e.ex, 1.0 / e.ey, 1.0 / e.ez)
    )


def general_exact_coeffs(
    target: PauliRates, device: PauliRates, dt: float
) -> MitigationCoeffs:
    """Coefficients of exp((L_target - L_device) dt) for Pauli rate triples.

    This is the exact mitigation map converting the device noise into the
    target noise over one time step; it specializes to the plain channel
    inverse when the target rates vanish.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    gx, gy, gz = target.as_tuple()
    kx, ky, kz = device.as_tuple()
    return transfer_to_coeffs(
        TransferEigenvalues(
            ex=math.exp(-2.0 * ((gy + gz) - (ky + kz)) * dt),
            ey=math.exp(-2.0 * ((gx + gz) - (kx + kz)) * dt),
            ez=math.exp(-2.0 * ((gx + gy) - (kx + ky)) * dt),
        )
    )


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
    eps = PauliChannelParams(device.gx * dt, device.gy * dt, device.gz * dt)
    return exact_inverse_coeffs(eps)


def lambda_to_kappa(
    p: PauliChannelParams, dt: float, mode: str = "exact"
) -> PauliRates:
    """Rates kappa such that exp(L_n dt) realizes the channel p.

    mode="exact" solves the channel logarithm (requires a weak channel,
    lx+ly+lz <= 1/2); mode="first-order" is the linearization kappa = p/dt.
    """
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if mode == "first-order":
        return PauliRates(p.lx / dt, p.ly / dt, p.lz / dt)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    if p.lx + p.ly + p.lz > 0.5:
        raise ValueError(
            f"lx+ly+lz = {p.lx + p.ly + p.lz} > 1/2: channel too strong for a rate decomposition"
        )
    e = lambda_to_transfer(p)
    if min(e.as_tuple()) <= 0.0:
        raise ValueError(
            f"channel with transfer eigenvalues {e.as_tuple()} has no real logarithm"
        )
    ux, uy, uz = (math.log(v) for v in e.as_tuple())
    s = 0.25 / dt
    rates = (s * (ux - uy - uz), s * (uy - ux - uz), s * (uz - ux - uy))
    # not every Pauli channel divides into nonnegative rates; reject the
    # ones that do not instead of returning an unphysical generator
    if min(rates) < -1e-12:
        raise ValueError(
            f"channel {p.as_tuple()} has no nonnegative rate decomposition (log gives {rates})"
        )
    return PauliRates(*(max(r, 0.0) for r in rates))


def kappa_to_lambda(r: PauliRates, dt: float) -> PauliChannelParams:
    """Channel probabilities of exp(L_n dt) for rates r."""
    if not dt > 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    gx, gy, gz = r.as_tuple()
    e = TransferEigenvalues(
        ex=math.exp(-2.0 * (gy + gz) * dt),
        ey=math.exp(-2.0 * (gx + gz) * dt),
        ez=math.exp(-2.0 * (gx + gy) * dt),
    )
    q = transfer_to_coeffs(e)
    return PauliChannelParams(q.q1, q.q2, q.q3)


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


def expected_superop(d: SamplingDistribution) -> np.ndarray:
    """Infinite-sample limit of the sampled mitigation step.

    Equals coeffs_to_superop of the originating coefficients when the
    distribution is unbiased; with bias it is the deformed (generally
    trace-changing) map actually implemented.
    """
    g = d.prefactor
    out = g * (1.0 - d.mu1 - d.mu2 - d.mu3) * _I4.copy()
    for mu, sign, conj in zip(d.mu_tuple(), d.signs, PAULI_CONJUGATIONS):
        out += g * sign * mu * conj
    return out
