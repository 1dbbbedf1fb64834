"""Experiment assembly: digital/analog step plans, infinite-sample
evolutions, closed-form references, and fidelity against the exact target.

A digital step is a unitary layer followed by a Pauli noise channel, then
the mitigation map; an analog step is a single exponential in which the
device noise acts simultaneously with the Hamiltonian, then the mitigation
map.  The mitigation coefficients are chosen per configuration:

    exact          exp(L_target dt) after the inverse device step: one ratio
                   of transfer eigenvalues per Bloch axis
    first-order    q_k = g_k dt - eps_k (per-step device error eps)
    linear-inverse exact inverse of the linearized device channel (analog only)
    none           identity

build_scenario's step plan is what the ensemble samples; step_maps gives
its infinite-sample limit, the mitigated step M C (M the expected sampled
step, under any bias), and the target step.  Every experiment starts from
sampling.RHO0 = |1><1|, which the ideal evolution steps through
linalg.orbit.  A TimeSeries column the configuration does not define is
None; the CSV and SVG writers go by that alone.  simulate runs one
ensemble per group of configs that share their branch codes, as a stacked
plan, on up to `workers` processes (see sampling.run_ensemble).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import channels, sampling
from .channels import MitigationCoeffs, PauliChannelParams
from .generators import (
    PauliRates,
    commutator_norm,
    exact_propagate,  # noqa: F401  (kept importable as pecstep.scenarios.exact_propagate)
    pauli_dissipator,
    unitary_generator,
)
from .linalg import expm, orbit

HARDWARE = ("digital", "analog")
MITIGATIONS = ("exact", "first-order", "linear-inverse", "none")
# Largest power of ten of the per-step rotation angle 2|omega| dt at which
# linalg.expm of the rotation stays orthogonal to 1e-8 (7.5e-9 at 1e8,
# 6e-8 at 1e9); past it the float angle loses its digits.
MAX_ANGLE = 1e8


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment.

    `target` rates define the open dynamics to be simulated (all-zero =
    closed dynamics).  `device` is the intrinsic noise of the simulator:
    per-step channel probabilities for digital hardware, rates for analog.
    `bias` deforms the Pauli sampling probabilities while leaving the
    post-processing prefactors untouched; it requires a stochastic
    mitigation step, so it cannot be combined with mitigation="none".
    `reference` picks the closed-form reference curve: "auto" (default),
    None, or one of REFERENCE_KINDS.
    """

    hardware: str
    device: PauliChannelParams | PauliRates
    mitigation: str = "exact"
    target: PauliRates = PauliRates()
    omega: float = 1.0
    beta: float = 0.0
    dt: float = 0.5
    steps: int = 20
    samples: int = 0
    seed: int = 0
    bias: float | None = None
    reference: str | None = "auto"

    def __post_init__(self):
        if self.hardware not in HARDWARE:
            raise ValueError(f"hardware: expected one of {HARDWARE}, got {self.hardware!r}")
        if self.mitigation not in MITIGATIONS:
            raise ValueError(
                f"mitigation: expected one of {MITIGATIONS}, got {self.mitigation!r}"
            )
        if self.hardware == "digital" and not isinstance(self.device, PauliChannelParams):
            raise ValueError("device: digital hardware takes channel probabilities")
        if self.hardware == "analog" and not isinstance(self.device, PauliRates):
            raise ValueError("device: analog hardware takes Pauli rates")
        if self.mitigation == "linear-inverse" and self.hardware == "digital":
            raise ValueError("mitigation: linear-inverse is defined for analog hardware only")
        for name in ("omega", "beta", "dt", "bias"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name}: must be a finite number, got {value}")
        if not self.dt > 0:
            raise ValueError(f"dt: must be > 0, got {self.dt}")
        if self.steps < 1:
            raise ValueError(f"steps: must be >= 1, got {self.steps}")
        if self.samples < 0:
            raise ValueError(f"samples: must be >= 0, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")
        if self.bias is not None:
            if not self.bias > 0:
                raise ValueError(f"bias: must be > 0, got {self.bias}")
            if self.mitigation == "none":
                raise ValueError("bias: requires a stochastic mitigation step, not 'none'")
        if self.reference is not None and self.reference not in ("auto",) + REFERENCE_KINDS:
            raise ValueError(f"reference: unknown kind {self.reference!r}")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Per-step records.  `reference` is None when no closed form applies,
    `mc_mean` and `mc_stderr` when the config draws no samples."""

    step: np.ndarray
    t: np.ndarray
    ideal: np.ndarray
    reference: np.ndarray | None
    mc_mean: np.ndarray | None
    mc_stderr: np.ndarray | None
    fidelity: np.ndarray


def mitigation_coeffs(cfg: ScenarioConfig) -> MitigationCoeffs:
    if cfg.mitigation == "none":
        return MitigationCoeffs(1.0, 0.0, 0.0, 0.0)
    if cfg.mitigation == "exact":
        return channels.exact_coeffs(cfg.target, cfg.device, cfg.dt)
    if cfg.hardware == "digital":
        return channels.first_order_coeffs(cfg.target, cfg.device.as_tuple(), cfg.dt)
    kappa: PauliRates = cfg.device
    if cfg.mitigation == "linear-inverse":
        return channels.linear_inverse_coeffs(kappa, cfg.dt)
    eps = tuple(k * cfg.dt for k in kappa.as_tuple())
    return channels.first_order_coeffs(cfg.target, eps, cfg.dt)


def _scaled_generator(cfg: ScenarioConfig, rates: PauliRates | None = None, keys: str = "") -> np.ndarray:
    """(L_h + L_d) dt, with L_d the dissipator of `rates` (none if None),
    named `keys` in messages.  The two parts touch disjoint entries, so
    scaling each by dt gives the scaled sum exactly.  Raises ValueError
    naming the config keys whose product with dt overflows the float
    range, or naming omega * dt when the step's rotation angle exceeds
    MAX_ANGLE."""
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [("omega", unitary_generator(cfg.omega, cfg.beta) * cfg.dt)]
        if rates is not None:
            parts.append((keys, pauli_dissipator(rates) * cfg.dt))
    for name, part in parts:
        if not np.isfinite(part).all():
            raise ValueError(f"{name} * dt: the generator times dt overflows the float range")
    angle = 2.0 * abs(cfg.omega) * cfg.dt
    if angle > MAX_ANGLE:
        raise ValueError(
            f"omega * dt: the rotation angle 2|omega| dt = {angle:.6g} per step exceeds "
            f"{MAX_ANGLE:g}, past which its float exponential is no rotation; use a smaller dt"
        )
    return parts[0][1] if rates is None else parts[0][1] + parts[1][1]


def build_scenario(cfg: ScenarioConfig) -> sampling.StepPlan:
    if cfg.hardware == "digital":
        # unitary layer, then the noise channel; an inf from expm becomes NaN,
        # which ideal_evolution's series carries to cli.write_csv's check
        with np.errstate(invalid="ignore"):
            deterministic = channels.channel_superop(cfg.device) @ expm(_scaled_generator(cfg))
    else:
        # one exponential: the noise acts during the Hamiltonian evolution
        deterministic = expm(_scaled_generator(cfg, cfg.device, "noise_k*"))

    dist = channels.sampling_distribution(mitigation_coeffs(cfg), cfg.bias or 1.0)
    return sampling.StepPlan(deterministic=deterministic, distribution=dist, steps=cfg.steps)


def step_maps(cfg: ScenarioConfig, plan: sampling.StepPlan) -> tuple[np.ndarray, np.ndarray]:
    """The one-step maps of the infinite-sample limit: the mitigated step
    M C, the plan's deterministic map C followed by the expected sampled
    step M (channels.coeffs_to_superop), and the target exp((L_h + L_d) dt)."""
    mitigation = channels.coeffs_to_superop(mitigation_coeffs(cfg), cfg.bias or 1.0)
    return mitigation @ plan.deterministic, expm(_scaled_generator(cfg, cfg.target, "target_g*"))


def biased_predictions(kappa: float, dt: float, mu_prime: float) -> tuple[float, float]:
    """Trace factor xi and effective rate kappa' of biased Pauli sampling
    against a per-step depolarizing channel of strength kappa*dt."""
    if not mu_prime < 1.0 / 6.0:
        raise ValueError(f"mu_prime must be < 1/6, got {mu_prime}")
    if not kappa * dt < 0.25:
        raise ValueError(f"kappa*dt must be < 1/4, got {kappa * dt}")
    xi = (1.0 + 2.0 * kappa * dt) * (1.0 - 6.0 * mu_prime) / (1.0 - 4.0 * kappa * dt)
    kappa_prime = (
        math.log((1.0 - 6.0 * mu_prime) / ((1.0 - 4.0 * kappa * dt) * (1.0 - 2.0 * mu_prime)))
        / (4.0 * dt)
    )
    return xi, kappa_prime


def _uniform(values: tuple[float, float, float]) -> bool:
    return values[0] == values[1] == values[2]


def _regime(cfg: ScenarioConfig, hardware: str, mitigation: str) -> bool:
    return (
        cfg.hardware == hardware
        and cfg.mitigation == mitigation
        and _uniform(cfg.device.as_tuple())
    )


def _biased(cfg: ScenarioConfig):
    """The biased curve: xi^n times a population decaying at kappa', with
    kappa = lx / dt and mu' = bias mu1."""
    mu_prime = cfg.bias * channels.sampling_distribution(mitigation_coeffs(cfg), 1.0).mu1
    xi, kappa_prime = biased_predictions(cfg.device.lx / cfg.dt, cfg.dt, mu_prime)
    return lambda n, t, osc: xi**n * 0.5 * (1.0 + math.exp(-4.0 * kappa_prime * t) * osc)


# Each closed form: the regime it was derived for, whether cfg is in it, and
# its curve read from cfg: the excited-state population at step n, time
# t = n dt, with osc = cos(2 omega t).  "auto" takes the first kind whose
# regime holds; an explicit kind must be in its own regime.
_REFERENCES = {
    "biased": (
        "digital hardware, exact mitigation, a bias, a closed target"
        " and uniform channel probabilities",
        lambda cfg: _regime(cfg, "digital", "exact") and cfg.bias is not None and cfg.target.is_zero(),
        _biased,
    ),
    "unmitigated-digital": (
        "digital hardware, no mitigation and uniform channel probabilities",
        lambda cfg: _regime(cfg, "digital", "none"),
        lambda cfg: lambda n, t, osc: 0.5 * (
            1.0 + (1.0 - 4.0 * (cfg.device.lx / cfg.dt) * cfg.dt) ** n * osc
        ),
    ),
    "approx-digital": (
        "digital hardware, first-order mitigation, a closed target"
        " and uniform channel probabilities",
        lambda cfg: _regime(cfg, "digital", "first-order") and cfg.target.is_zero(),
        lambda cfg: lambda n, t, osc: 0.5 * (1.0 + (1.0 - 16.0 * cfg.device.lx**2) ** n * osc),
    ),
    "approx-analog": (
        "analog hardware, linear-inverse mitigation, a closed target and uniform device rates",
        lambda cfg: _regime(cfg, "analog", "linear-inverse") and cfg.target.is_zero(),
        lambda cfg: lambda n, t, osc: 0.5 * (1.0 + (
            math.exp(-4.0 * cfg.device.gx * cfg.dt) / (1.0 - 4.0 * cfg.device.gx * cfg.dt)
        ) ** n * osc),
    ),
    "closed": (
        "a closed target",
        lambda cfg: cfg.target.is_zero(),
        lambda cfg: lambda n, t, osc: 0.5 * (1.0 + osc),
    ),
    "damped-depolarizing": (
        "exact mitigation and uniform target rates",
        lambda cfg: cfg.mitigation == "exact" and _uniform(cfg.target.as_tuple()),
        lambda cfg: lambda n, t, osc: 0.5 * (1.0 + math.exp(-4.0 * cfg.target.gx * t) * osc),
    ),
}
REFERENCE_KINDS = tuple(_REFERENCES)


def resolve_reference(cfg: ScenarioConfig) -> str | None:
    """Pick the closed-form reference curve for a configuration.

    Returns its kind or None.  "auto" takes the first kind of
    REFERENCE_KINDS whose regime the configuration is in, or None; an
    explicit kind outside its regime raises ValueError.
    """
    if cfg.reference is None:
        return None
    for kind in REFERENCE_KINDS if cfg.reference == "auto" else (cfg.reference,):
        needs, holds, _ = _REFERENCES[kind]
        if holds(cfg):
            return kind
    if cfg.reference != "auto":
        raise ValueError(f"reference: {kind} needs {needs}")
    return None


def _det(r: np.ndarray) -> np.ndarray:
    """det rho = (t^2 - x^2 - y^2 - z^2) / 4 per row of Pauli coordinates."""
    t, x, y, z = r.T
    return 0.25 * (t * t - x * x - y * y - z * z)


def ideal_evolution(cfg: ScenarioConfig, plan: sampling.StepPlan | None = None) -> TimeSeries:
    """Infinite-sample evolution: the mitigation map applied as a matrix.

    Also evolves the exact target dynamics exp((L_h + L_d) t) and records
    the fidelity of the mitigated state against it per step.  Both are
    stepped in Pauli coordinates (trace, x, y, z) by one real 4x4 transfer
    matrix each per series, the two of step_maps: the mitigated step M C,
    and exp((L_h + L_d) dt) for the target.  Each is repeated `steps` times
    as a broadcast view, not copied, and run through linalg.orbit.
    `plan` is build_scenario(cfg), built here when not given.  A mitigated
    state that blows up leaves inf or NaN in the series, which
    cli.write_csv refuses.
    """
    if plan is None:
        plan = build_scenario(cfg)
    shape = (cfg.steps, 4, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        r, e = (orbit(np.broadcast_to(m, shape), sampling.RHO0) for m in step_maps(cfg, plan))

        # qubit fidelity Tr(rho sigma) + 2 sqrt(det rho det sigma), with
        # Tr(rho sigma) = (t1 t2 + x1 x2 + y1 y2 + z1 z2) / 2; the complex
        # 2x2 form it is checked against is fidelity() in tests/conftest.py
        overlap = 0.5 * (r * e).sum(axis=1)
        fid = overlap + 2.0 * np.sqrt(np.maximum(_det(r), 0.0) * np.maximum(_det(e), 0.0))
        ideal = 0.5 * (r[:, 0] + r[:, 3])

    n_rows = cfg.steps + 1
    reference = None
    kind = resolve_reference(cfg)
    if kind is not None:
        curve = _REFERENCES[kind][2](cfg)
        reference = np.empty(n_rows)
        for n in range(n_rows):
            t = n * cfg.dt
            try:
                reference[n] = curve(n, t, math.cos(2.0 * cfg.omega * t))
            except OverflowError:
                raise ValueError(
                    f"reference: {kind} overflows the float range at step {n}; use fewer steps"
                ) from None
    return TimeSeries(
        step=np.arange(n_rows),
        t=np.arange(n_rows) * cfg.dt,
        ideal=ideal,
        reference=reference,
        mc_mean=None,
        mc_stderr=None,
        fidelity=fid,
    )


def simulate(configs: list[ScenarioConfig], workers: int = 1) -> list[TimeSeries]:
    """Ideal evolution of each config plus, when its samples > 0, the Monte
    Carlo mean and standard error on up to `workers` processes (see
    sampling.run_ensemble), in config order.

    Configs with equal (samples, seed, steps, sampling distribution), such
    as the series of a beta family, run as one stacked plan: they share
    each chunk's branch codes, and each result equals its own single-config
    run bit for bit.
    """
    plans = [build_scenario(cfg) for cfg in configs]
    results = [ideal_evolution(cfg, plan) for cfg, plan in zip(configs, plans)]
    groups = {}
    for i, (cfg, plan) in enumerate(zip(configs, plans)):
        if cfg.samples > 0:
            key = (cfg.samples, cfg.seed, cfg.steps, plan.distribution)
            groups.setdefault(key, []).append(i)
    for (samples, seed, steps, distribution), members in groups.items():
        stacked = sampling.StepPlan(
            deterministic=np.stack([plans[i].deterministic for i in members]),
            distribution=distribution,
            steps=steps,
        )
        stats = sampling.run_ensemble(stacked, samples, seed, workers)
        for j, i in enumerate(members):
            results[i] = replace(results[i], mc_mean=stats.mean[j], mc_stderr=stats.stderr[j])
    return results


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises below, naming its field
def diagnostics(cfg: ScenarioConfig) -> dict:
    """Commutator norms, the one-step map error ||M C - exp((L_h + L_d) dt)||,
    coefficients and sampling distribution, whose prefactor is the overhead.

    A digital device channel with transfer eigenvalues e enters as the
    generator diag(0, ln e) / dt, which needs every e > 0: the commutators
    compare generators, not one-step maps.  A NaN or inf raises ValueError.
    """
    if cfg.hardware == "digital":
        e = channels.lambda_to_transfer(cfg.device)
        if min(e) <= 0.0:
            raise ValueError(f"channel with transfer eigenvalues {e} has no real logarithm")
        device = np.diag([0.0] + [math.log(v) for v in e]) / cfg.dt
    else:
        device = pauli_dissipator(cfg.device)
    unitary = unitary_generator(cfg.omega, cfg.beta)
    target = pauli_dissipator(cfg.target)
    plan = build_scenario(cfg)
    d = {
        "comm_target_unitary": commutator_norm(target, unitary),
        "comm_device_unitary": commutator_norm(device, unitary),
        "comm_diff_unitary": commutator_norm(target - device, unitary),
        "one_step_error": float(np.linalg.norm(np.subtract(*step_maps(cfg, plan)))),
        "coeffs": mitigation_coeffs(cfg),
        "distribution": plan.distribution,
    }
    for name, value in d.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name}: {value} (the config overflows the float range)")
    return d
