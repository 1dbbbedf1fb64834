"""Experiment assembly: digital/analog step plans, infinite-sample
evolutions, closed-form references, and fidelity against the exact target.

A digital step is a unitary layer followed by a Pauli noise channel, then
the mitigation map; an analog step is a single exponential in which the
device noise acts simultaneously with the Hamiltonian, then the mitigation
map.  The mitigation coefficients are chosen per configuration:

    exact          exp((L_target - L_device) dt), channel inverse if closed
    first-order    q_k = g_k dt - eps_k (per-step device error eps)
    linear-inverse exact inverse of the linearized device channel (analog only)
    none           identity
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import channels, sampling
from .channels import MitigationCoeffs, PauliChannelParams
from .generators import (
    Generator,
    PauliRates,
    combine,
    commutator_norm,
    exact_propagate,
    hamiltonian,
    pauli_dissipator,
    unitary_generator,
)
from .linalg import devectorize, expm, frobenius_norm

HARDWARE = ("digital", "analog")
MITIGATIONS = ("exact", "first-order", "linear-inverse", "none")
REFERENCE_KINDS = (
    "closed",
    "damped-depolarizing",
    "approx-digital",
    "approx-analog",
    "unmitigated-digital",
    "biased",
)


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
        if self.bias is not None:
            if not self.bias > 0:
                raise ValueError(f"bias: must be > 0, got {self.bias}")
            if self.mitigation == "none":
                raise ValueError("bias: requires a stochastic mitigation step, not 'none'")
        if self.reference is not None and self.reference not in ("auto",) + REFERENCE_KINDS:
            raise ValueError(f"reference: unknown kind {self.reference!r}")

    def is_closed_target(self) -> bool:
        return self.target.is_zero()


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Per-step records; reference/mc columns are NaN where undefined.

    `negativity` records how far the ideal-evolution state dips below
    positivity (max(0, -det rho)); mitigated averages are allowed to be
    non-physical and this is where that shows up.
    """

    step: np.ndarray
    t: np.ndarray
    ideal: np.ndarray
    reference: np.ndarray
    mc_mean: np.ndarray
    mc_stderr: np.ndarray
    fidelity: np.ndarray
    negativity: np.ndarray


def device_rates(cfg: ScenarioConfig) -> PauliRates:
    """Device noise as rates; solves the channel logarithm for digital hardware."""
    if isinstance(cfg.device, PauliRates):
        return cfg.device
    return channels.lambda_to_kappa(cfg.device, cfg.dt, mode="exact")


def scenario_generators(cfg: ScenarioConfig) -> dict[str, Generator]:
    """The three generators of the configuration: unitary, target, device.

    Digital device noise is converted through the channel logarithm, which
    only exists for rate-decomposable channels; the simulation paths below
    avoid this conversion unless they actually need the device generator.
    """
    device = pauli_dissipator(device_rates(cfg), kind="device-noise")
    return {**_dynamics_generators(cfg), "device": device}


def _dynamics_generators(cfg: ScenarioConfig) -> dict[str, Generator]:
    h = hamiltonian(cfg.omega, cfg.beta)
    return {
        "unitary": unitary_generator(h),
        "target": pauli_dissipator(cfg.target, kind="target-noise"),
    }


def mitigation_coeffs(cfg: ScenarioConfig) -> MitigationCoeffs:
    if cfg.mitigation == "none":
        return MitigationCoeffs(1.0, 0.0, 0.0, 0.0)
    if cfg.hardware == "digital":
        lam: PauliChannelParams = cfg.device
        if cfg.mitigation == "exact":
            if cfg.is_closed_target():
                return channels.exact_inverse_coeffs(lam)
            kappa = channels.lambda_to_kappa(lam, cfg.dt, mode="exact")
            return channels.general_exact_coeffs(cfg.target, kappa, cfg.dt)
        return channels.first_order_coeffs(cfg.target, lam.as_tuple(), cfg.dt)
    kappa: PauliRates = cfg.device
    if cfg.mitigation == "exact":
        return channels.general_exact_coeffs(cfg.target, kappa, cfg.dt)
    if cfg.mitigation == "linear-inverse":
        return channels.linear_inverse_coeffs(kappa, cfg.dt)
    eps = tuple(k * cfg.dt for k in kappa.as_tuple())
    return channels.first_order_coeffs(cfg.target, eps, cfg.dt)


def build_scenario(cfg: ScenarioConfig) -> sampling.StepPlan:
    gens = _dynamics_generators(cfg)
    if cfg.hardware == "digital":
        u = expm(gens["unitary"].matrix * cfg.dt)
        noise = channels.channel_superop(cfg.device)
        parts = (u, noise)
        deterministic = noise @ u
    else:
        device = pauli_dissipator(cfg.device, kind="device-noise")
        step = combine(gens["unitary"], device)
        deterministic = expm(step.matrix * cfg.dt)
        parts = (deterministic,)

    q = mitigation_coeffs(cfg)
    dist = channels.sampling_distribution(q, bias=1.0 if cfg.bias is None else cfg.bias)
    if cfg.bias is None:
        mitigation = channels.coeffs_to_superop(q)
    else:
        mitigation = channels.expected_superop(dist)
    return sampling.StepPlan(
        parts=parts,
        deterministic=deterministic,
        mitigation=mitigation,
        distribution=dist,
        steps=cfg.steps,
    )


def fidelity(r1: np.ndarray, r2: np.ndarray) -> float:
    """Qubit fidelity Tr(r1 r2) + 2 sqrt(det r1 det r2).

    Determinants of slightly non-physical averaged states are clamped at 0;
    larger negativity is surfaced via TimeSeries.negativity, not hidden here.
    """
    r1, r2 = np.asarray(r1, dtype=complex), np.asarray(r2, dtype=complex)
    overlap = np.trace(r1 @ r2).real
    d1 = max(np.linalg.det(r1).real, 0.0)
    d2 = max(np.linalg.det(r2).real, 0.0)
    return float(overlap + 2.0 * math.sqrt(d1 * d2))


def _negativity(rho: np.ndarray) -> float:
    return float(max(0.0, -np.linalg.det(rho).real))


def reference_value(
    kind: str,
    n: int,
    *,
    omega: float,
    dt: float,
    kappa: float | None = None,
    lam: float | None = None,
    mu_prime: float | None = None,
) -> float:
    """Closed-form excited-state population at step n (t = n*dt).

    Kinds and their parameters:
      closed                 -- none
      damped-depolarizing    -- kappa: depolarizing rate of the target dynamics
      approx-digital         -- lam: per-step depolarizing probability
      approx-analog          -- kappa: depolarizing device rate
      unmitigated-digital    -- kappa: rate such that the per-step channel is kappa*dt
      biased                 -- kappa as above plus mu_prime, the deformed
                                Pauli sampling probability
    """
    t = n * dt
    osc = math.cos(2.0 * omega * t)
    if kind == "closed":
        return 0.5 * (1.0 + osc)
    if kind == "damped-depolarizing":
        return 0.5 * (1.0 + math.exp(-4.0 * kappa * t) * osc)
    if kind == "approx-digital":
        return 0.5 * (1.0 + (1.0 - 16.0 * lam**2) ** n * osc)
    if kind == "approx-analog":
        amp = (math.exp(-4.0 * kappa * dt) / (1.0 - 4.0 * kappa * dt)) ** n
        return 0.5 * (1.0 + amp * osc)
    if kind == "unmitigated-digital":
        return 0.5 * (1.0 + (1.0 - 4.0 * kappa * dt) ** n * osc)
    if kind == "biased":
        xi, kappa_prime = biased_predictions(kappa, dt, mu_prime)
        return xi**n * 0.5 * (1.0 + math.exp(-4.0 * kappa_prime * t) * osc)
    raise ValueError(f"unknown reference kind {kind!r}")


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


def resolve_reference(cfg: ScenarioConfig):
    """Pick the closed-form reference curve for a configuration.

    Returns (kind, params) or None.  Explicit cfg.reference wins; "auto"
    matches the parameter regimes the closed forms were derived for.
    """
    if cfg.reference is None:
        return None
    if cfg.reference != "auto":
        return cfg.reference, _reference_params(cfg, cfg.reference)

    digital = cfg.hardware == "digital"
    lam = cfg.device.as_tuple() if digital else None
    kap = cfg.device.as_tuple() if not digital else None

    if (
        cfg.bias is not None
        and digital
        and cfg.mitigation == "exact"
        and cfg.is_closed_target()
        and _uniform(lam)
    ):
        return "biased", _reference_params(cfg, "biased")
    if cfg.mitigation == "none" and digital and _uniform(lam):
        return "unmitigated-digital", _reference_params(cfg, "unmitigated-digital")
    if (
        digital
        and cfg.mitigation == "first-order"
        and cfg.is_closed_target()
        and _uniform(lam)
    ):
        return "approx-digital", _reference_params(cfg, "approx-digital")
    if (
        not digital
        and cfg.mitigation == "linear-inverse"
        and cfg.is_closed_target()
        and _uniform(kap)
    ):
        return "approx-analog", _reference_params(cfg, "approx-analog")
    if cfg.is_closed_target():
        return "closed", _reference_params(cfg, "closed")
    if cfg.mitigation == "exact" and _uniform(cfg.target.as_tuple()):
        return "damped-depolarizing", _reference_params(cfg, "damped-depolarizing")
    return None


def _reference_params(cfg: ScenarioConfig, kind: str) -> dict:
    params = {"omega": cfg.omega, "dt": cfg.dt}
    digital = cfg.hardware == "digital"
    if kind == "closed":
        return params
    if kind == "damped-depolarizing":
        params["kappa"] = cfg.target.gx
        return params
    if kind == "approx-digital":
        params["lam"] = cfg.device.lx
        return params
    if kind == "approx-analog":
        params["kappa"] = cfg.device.gx
        return params
    if kind in ("unmitigated-digital", "biased"):
        if not digital or not _uniform(cfg.device.as_tuple()):
            raise ValueError(f"reference: {kind} needs uniform digital channel probabilities")
        params["kappa"] = cfg.device.lx / cfg.dt
        if kind == "biased":
            unbiased = channels.sampling_distribution(mitigation_coeffs(cfg), 1.0)
            params["mu_prime"] = (cfg.bias if cfg.bias is not None else 1.0) * unbiased.mu1
        return params
    raise ValueError(f"unknown reference kind {kind!r}")


def ideal_evolution(cfg: ScenarioConfig, plan: sampling.StepPlan | None = None) -> TimeSeries:
    """Infinite-sample evolution: the mitigation map applied as a matrix.

    Also evolves the exact target dynamics exp((L_h + L_d) t) and records
    the fidelity of the mitigated state against it per step.  `plan` is
    build_scenario(cfg), built here when not given.
    """
    if plan is None:
        plan = build_scenario(cfg)
    gens = _dynamics_generators(cfg)
    exact_gen = combine(gens["unitary"], gens["target"])
    rho0 = devectorize(plan.rho0)

    ref = resolve_reference(cfg)
    step_map = plan.mitigation @ plan.deterministic

    n_rows = cfg.steps + 1
    out = {
        "step": np.arange(n_rows),
        "t": np.arange(n_rows) * cfg.dt,
        "ideal": np.empty(n_rows),
        "reference": np.full(n_rows, np.nan),
        "mc_mean": np.full(n_rows, np.nan),
        "mc_stderr": np.full(n_rows, np.nan),
        "fidelity": np.empty(n_rows),
        "negativity": np.empty(n_rows),
    }

    v = plan.rho0.copy()
    for n in range(n_rows):
        rho = devectorize(v)
        exact = exact_propagate(exact_gen, rho0, n * cfg.dt)
        out["ideal"][n] = rho[0, 0].real
        out["fidelity"][n] = fidelity(rho, exact)
        out["negativity"][n] = _negativity(rho)
        if ref is not None:
            out["reference"][n] = reference_value(ref[0], n, **ref[1])
        if n < cfg.steps:
            v = step_map @ v
    return TimeSeries(**out)


def simulate(
    cfg: ScenarioConfig, workers: int | None = None
) -> tuple[TimeSeries, sampling.EnsembleStats | None]:
    """Ideal evolution plus, when cfg.samples > 0, the Monte Carlo ensemble."""
    plan = build_scenario(cfg)
    series = ideal_evolution(cfg, plan)
    if cfg.samples == 0:
        return series, None
    stats = sampling.run_ensemble(plan, cfg.samples, cfg.seed, workers)
    series = replace(series, mc_mean=stats.mean, mc_stderr=stats.stderr)
    return series, stats


def one_step_error_norm(cfg: ScenarioConfig, dt: float | None = None) -> float:
    """Frobenius norm of (M C - exp((L_h + L_d) dt)) for a single step."""
    if dt is not None:
        cfg = replace(cfg, dt=dt)
    plan = build_scenario(cfg)
    gens = _dynamics_generators(cfg)
    exact = expm(combine(gens["unitary"], gens["target"]).matrix * cfg.dt)
    return frobenius_norm(plan.mitigation @ plan.deterministic - exact)


def trotter_error_norm(cfg: ScenarioConfig, dt: float | None = None) -> float:
    """One-step splitting error of the exactly mitigated step."""
    if cfg.mitigation != "exact":
        raise ValueError("trotter_error_norm is defined for exact mitigation")
    return one_step_error_norm(cfg, dt)


def diagnostics(cfg: ScenarioConfig) -> dict:
    """Commutator norms, coefficients and sampling overhead for a config."""
    gens = scenario_generators(cfg)
    q = mitigation_coeffs(cfg)
    dist = channels.sampling_distribution(q, bias=1.0 if cfg.bias is None else cfg.bias)
    diff = gens["target"].matrix - gens["device"].matrix
    return {
        "comm_target_unitary": commutator_norm(gens["target"], gens["unitary"]),
        "comm_device_unitary": commutator_norm(gens["device"], gens["unitary"]),
        "comm_diff_unitary": commutator_norm(diff, gens["unitary"]),
        "one_step_error": one_step_error_norm(cfg),
        "coeffs": q,
        "distribution": dist,
        "overhead": dist.prefactor,
    }
