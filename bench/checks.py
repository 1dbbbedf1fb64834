"""Output checks that do not use the program's own code.

The expected numbers come from an independent single-qubit model written
here with numpy/scipy only: the state is (trace, rx, ry, rz), the
Hamiltonian omega*(sin(beta) X - cos(beta) Y) rotates the Bloch vector about
(sin(beta), -cos(beta), 0) at rate 2*omega, every Pauli map is a diagonal
on (trace, rx, ry, rz), and the excited-state population is
(trace + rz) / 2.  The reference column is checked against the paper's
closed forms, re-implemented below.

A config is a dict of the `key = value` pairs of the program's config file
format (missing keys take the documented defaults).  Every check returns a
list of failure messages; an empty list means the output passed.
"""

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

CSV_HEADER = "step,t,ideal,reference,mc_mean,mc_stderr,fidelity"
COLUMNS = CSV_HEADER.split(",")

# CSVs print 12 significant digits and rounding builds up over thousands of
# steps, so values are compared at 1e-9 (relative above magnitude 1).
VALUE_TOL = 1e-9
# |w_n| = gamma^n, up to one rounding per multiplication.
WEIGHT_RTOL = 1e-12
STATE_TOL = 1e-12
# Median over steps of printed / model standard error: 1.000 at the
# workloads' sizes, 0.92 to 1.08 over 30 seeds of a 512-sample run.
STDERR_RATIO = (0.8, 1.25)
# Rounding in a 2x2 determinant of a propagated state (expm is accurate to
# ~1e-13).  Fidelity adds 2 sqrt(det1 det2), which turns that rounding into
# ~2 sqrt(det * DET_EPS) when one of the two states is pure.
DET_EPS = 1e-13

DEFAULTS = {
    "mitigation": "exact",
    "omega": 1.0,
    "beta": 0.0,
    "dt": 0.5,
    "steps": 20,
    "samples": 0,
    "seed": 0,
    "bias": None,
}


def full_config(cfg: dict) -> dict:
    out = dict(DEFAULTS)
    out.update(cfg)
    for key in ("target_gx", "target_gy", "target_gz", "noise_lx", "noise_ly",
                "noise_lz", "noise_kx", "noise_ky", "noise_kz"):
        out.setdefault(key, 0.0)
    return out


def config_text(cfg: dict) -> str:
    """The config file the program reads for `cfg`."""
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in cfg.items() if value is not None)


# ---------------------------------------------------------------- model

def _triple(cfg, prefix):
    return np.array([cfg[prefix + "x"], cfg[prefix + "y"], cfg[prefix + "z"]], dtype=float)


def _rate_decay(rates):
    """Bloch decay rates of a Pauli dissipator: x decays at 2(gy+gz), etc."""
    gx, gy, gz = rates
    return 2.0 * np.array([gy + gz, gx + gz, gx + gy])


def _channel_transfer(probs):
    lx, ly, lz = probs
    return np.array([1 - 2 * ly - 2 * lz, 1 - 2 * lx - 2 * lz, 1 - 2 * lx - 2 * ly])


def _rotation_generator(omega, beta):
    nx, ny = math.sin(beta), -math.cos(beta)
    return 2.0 * omega * np.array([[0.0, 0.0, ny], [0.0, 0.0, -nx], [-ny, nx, 0.0]])


def _coeffs_from_transfer(m):
    mx, my, mz = m
    return np.array([1 + mx + my + mz, 1 + mx - my - mz, 1 - mx + my - mz,
                     1 - mx - my + mz]) / 4.0


def mitigation_coeffs(cfg: dict) -> np.ndarray:
    """Quasi-probabilities (q0, qx, qy, qz) of one mitigation step."""
    cfg = full_config(cfg)
    dt, mode = cfg["dt"], cfg["mitigation"]
    target = _triple(cfg, "target_g")
    if mode == "none":
        return np.array([1.0, 0.0, 0.0, 0.0])
    if cfg["hardware"] == "digital":
        lam = _triple(cfg, "noise_l")
        if mode == "exact":  # target evolution over dt divided by the device channel
            return _coeffs_from_transfer(np.exp(-_rate_decay(target) * dt)
                                         / _channel_transfer(lam))
        q = target * dt - lam  # first-order
    else:
        kap = _triple(cfg, "noise_k")
        if mode == "exact":
            return _coeffs_from_transfer(np.exp(-(_rate_decay(target) - _rate_decay(kap)) * dt))
        if mode == "linear-inverse":
            return _coeffs_from_transfer(1.0 / _channel_transfer(kap * dt))
        q = (target - kap) * dt  # first-order
    return np.concatenate([[1.0 - q.sum()], q])


# conjugation by I, X, Y, Z acts on (trace, x, y, z) as these signs: it keeps
# the trace and its own axis and flips the other two
_PAULI_SIGNS = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]])


@dataclass(frozen=True)
class Sampling:
    gamma: float  # per-step overhead q0 + |qx| + |qy| + |qz|
    mu: np.ndarray  # Pauli sampling probabilities (bias applied)
    transfer: np.ndarray  # expected (trace, x, y, z) factors of one sampled step


def sampling(cfg: dict) -> Sampling:
    q = mitigation_coeffs(cfg)
    bias = full_config(cfg)["bias"] or 1.0
    gamma = q[0] + np.abs(q[1:]).sum()
    mu = bias * np.abs(q[1:]) / gamma
    signs = np.where(q[1:] < 0, -1.0, 1.0)
    keep = gamma * (1.0 - mu.sum())
    return Sampling(gamma, mu, keep + gamma * _PAULI_SIGNS[1:].T @ (signs * mu))


def _device_step(cfg):
    dt = cfg["dt"]
    rot = _rotation_generator(cfg["omega"], cfg["beta"])
    if cfg["hardware"] == "digital":
        return np.diag(_channel_transfer(_triple(cfg, "noise_l"))) @ scipy.linalg.expm(rot * dt)
    return scipy.linalg.expm((rot - np.diag(_rate_decay(_triple(cfg, "noise_k")))) * dt)


def _det(s):
    """det of (t I + r.sigma) / 2, clamped at 0 as the fidelity formula does."""
    return np.maximum(0.25 * (s[:, 0] ** 2 - (s[:, 1:] ** 2).sum(axis=1)), 0.0)


def _fidelity(s1, s2):
    """Tr(r1 r2) + 2 sqrt(det r1 det r2), and its tolerance."""
    overlap = 0.5 * (s1 * s2).sum(axis=1)
    d1, d2 = _det(s1), _det(s2)
    root = np.sqrt(d1 * d2)
    tol = VALUE_TOL + 2.0 * (np.sqrt((d1 + DET_EPS) * (d2 + DET_EPS)) - root)
    return overlap + 2.0 * root, tol


@dataclass(frozen=True)
class Expected:
    ideal: np.ndarray
    fidelity: np.ndarray
    fidelity_tol: np.ndarray
    obs_std: np.ndarray  # standard deviation of one trajectory's w_n * population
    reference: np.ndarray  # NaN where no closed form applies
    gamma: float
    exact: bool  # mitigated step reproduces the closed unitary evolution


def expected(cfg: dict) -> Expected:
    """Infinite-sample evolution, fidelity and closed form for `cfg`."""
    cfg = full_config(cfg)
    steps, dt = cfg["steps"], cfg["dt"]
    samp = sampling(cfg)
    exact_gen = _rotation_generator(cfg["omega"], cfg["beta"]) - np.diag(
        _rate_decay(_triple(cfg, "target_g")))

    device = _block(_device_step(cfg))
    step = np.diag(samp.transfer) @ device
    states = np.empty((steps + 1, 4))
    states[0] = (1.0, 0.0, 0.0, 1.0)
    # second moment E[s s^T] of a trajectory's physical state; |w_n| = gamma^n
    # is fixed, so E[(w_n pop_n)^2] = gamma^2n e^T E[s s^T] e
    probs = np.concatenate([[1.0 - samp.mu.sum()], samp.mu])
    mix = sum(p * np.outer(f, f) for p, f in zip(probs, _PAULI_SIGNS))
    moment = np.outer(states[0], states[0])
    pop = np.array([0.5, 0.0, 0.0, 0.5])
    second = np.empty(steps + 1)
    second[0] = pop @ moment @ pop
    for n in range(steps):
        states[n + 1] = step @ states[n]
        moment = mix * (device @ moment @ device.T)
        second[n + 1] = pop @ moment @ pop
    ideal = pop @ states.T
    exact_states = np.array([_block(scipy.linalg.expm(exact_gen * n * dt)) @ states[0]
                             for n in range(steps + 1)])
    fid, fid_tol = _fidelity(states, exact_states)
    return Expected(
        ideal=ideal,
        fidelity=fid,
        fidelity_tol=fid_tol,
        obs_std=np.sqrt(np.maximum(samp.gamma ** (2 * np.arange(steps + 1)) * second
                                   - ideal**2, 0.0)),
        reference=reference_curve(cfg),
        gamma=float(samp.gamma),
        exact=_is_exact(cfg),
    )


def _block(m3):
    out = np.eye(4)
    out[1:, 1:] = m3
    return out


def _is_exact(cfg):
    """Closed target, unbiased exact mitigation, and device noise that
    commutes with the Hamiltonian (always so for a digital channel, which
    the exact map inverts after the unitary)."""
    if (cfg["mitigation"] != "exact" or cfg["bias"] is not None
            or np.any(_triple(cfg, "target_g"))):
        return False
    if cfg["hardware"] == "digital":
        return True
    rot = _rotation_generator(cfg["omega"], cfg["beta"])
    decay = np.diag(_rate_decay(_triple(cfg, "noise_k")))
    return bool(np.abs(rot @ decay - decay @ rot).max() < 1e-12)


# ---------------------------------------------------------- closed forms

def reference_kind(cfg: dict):
    """Which of the paper's closed forms applies, with its parameters."""
    cfg = full_config(cfg)
    digital = cfg["hardware"] == "digital"
    device = _triple(cfg, "noise_l" if digital else "noise_k")
    uniform = bool(device[0] == device[1] == device[2])
    closed = not np.any(_triple(cfg, "target_g"))
    mode, dt = cfg["mitigation"], cfg["dt"]
    if cfg["bias"] is not None and digital and mode == "exact" and closed and uniform:
        mu = sampling({**cfg, "bias": None}).mu[0]
        return "biased", {"kappa": device[0] / dt, "mu_prime": cfg["bias"] * mu}
    if mode == "none" and digital and uniform:
        return "unmitigated-digital", {"kappa": device[0] / dt}
    if digital and mode == "first-order" and closed and uniform:
        return "approx-digital", {"lam": device[0]}
    if not digital and mode == "linear-inverse" and closed and uniform:
        return "approx-analog", {"kappa": device[0]}
    if closed:
        return "closed", {}
    target = _triple(cfg, "target_g")
    if mode == "exact" and target[0] == target[1] == target[2]:
        return "damped-depolarizing", {"kappa": target[0]}
    return None


def reference_curve(cfg: dict) -> np.ndarray:
    cfg = full_config(cfg)
    n = np.arange(cfg["steps"] + 1)
    dt = cfg["dt"]
    t = n * dt
    osc = np.cos(2.0 * cfg["omega"] * t)
    found = reference_kind(cfg)
    if found is None:
        return np.full(n.size, np.nan)
    kind, p = found
    if kind == "closed":
        amp = np.ones(n.size)
    elif kind == "damped-depolarizing":
        amp = np.exp(-4.0 * p["kappa"] * t)
    elif kind == "approx-digital":
        amp = (1.0 - 16.0 * p["lam"] ** 2) ** n
    elif kind == "approx-analog":
        amp = (math.exp(-4.0 * p["kappa"] * dt) / (1.0 - 4.0 * p["kappa"] * dt)) ** n
    elif kind == "unmitigated-digital":
        amp = (1.0 - 4.0 * p["kappa"] * dt) ** n
    else:  # biased: trace factor xi per step and an effective damping rate
        kd, mp = p["kappa"] * dt, p["mu_prime"]
        xi = (1.0 + 2.0 * kd) * (1.0 - 6.0 * mp) / (1.0 - 4.0 * kd)
        rate = math.log((1.0 - 6.0 * mp) / ((1.0 - 4.0 * kd) * (1.0 - 2.0 * mp))) / (4.0 * dt)
        return xi ** n * 0.5 * (1.0 + np.exp(-4.0 * rate * t) * osc)
    return 0.5 * (1.0 + amp * osc)


# ---------------------------------------------------------------- checks

def read_csv(path) -> dict:
    """Columns of a pecstep CSV as float arrays (NaN for an empty field).

    Raises ValueError on a wrong header, a short row or a non-number."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: header {lines[:1]!r} != {CSV_HEADER!r}")
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(COLUMNS):
            raise ValueError(f"{path}: row {i} has {len(row)} fields")
    return {name: np.array([float(r[j]) if r[j] else np.nan for r in rows])
            for j, name in enumerate(COLUMNS)}


def _close(got, want, tol=VALUE_TOL):
    return np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))


def _column_defined(name, col, defined, fails):
    """A column is either filled on every row or empty on every row."""
    if defined and np.isnan(col).any():
        fails.append(f"{name}: empty field at step {int(np.argmax(np.isnan(col)))}")
    if not defined and not np.isnan(col).all():
        fails.append(f"{name}: filled but not defined for this config")
    return defined and not np.isnan(col).any()


def check_series(cols: dict, cfg: dict, exp: Expected | None = None) -> list[str]:
    """Check one CSV's columns against the model, the closed forms and the
    Monte Carlo bounds."""
    cfg = full_config(cfg)
    exp = exp or expected(cfg)
    fails = []
    steps, dt, samples = cfg["steps"], cfg["dt"], cfg["samples"]
    n = np.arange(steps + 1)
    if cols["step"].size != steps + 1:
        return [f"rows: {cols['step'].size} != steps + 1 = {steps + 1}"]
    if not np.array_equal(cols["step"], n):
        fails.append("step: not 0..steps")
    if not _close(cols["t"], n * dt).all():
        fails.append("t: not step * dt")

    for name, want, tol in (("ideal", exp.ideal, VALUE_TOL),
                            ("fidelity", exp.fidelity, exp.fidelity_tol)):
        if _column_defined(name, cols[name], True, fails):
            bad = ~_close(cols[name], want, tol)
            if bad.any():
                i = int(np.argmax(bad))
                fails.append(f"{name}: step {i} is {cols[name][i]:.12g}, model gives {want[i]:.12g}")

    has_ref = not np.isnan(exp.reference).all()
    if _column_defined("reference", cols["reference"], has_ref, fails):
        bad = ~_close(cols["reference"], exp.reference)
        if bad.any():
            i = int(np.argmax(bad))
            fails.append(f"reference: step {i} is {cols['reference'][i]:.12g}, "
                         f"closed form gives {exp.reference[i]:.12g}")

    if exp.exact:
        closed = 0.5 * (1.0 + np.cos(2.0 * cfg["omega"] * n * dt))
        if not (_close(cols["ideal"], closed).all() and _close(cols["fidelity"], 1.0).all()):
            fails.append("exact case: ideal != (1 + cos 2 omega t) / 2 or fidelity != 1")

    mean_ok = _column_defined("mc_mean", cols["mc_mean"], samples > 0, fails)
    err_ok = _column_defined("mc_stderr", cols["mc_stderr"], samples > 0, fails)
    if mean_ok and err_ok:
        fails += check_monte_carlo(cols, exp, samples)
    return fails


def check_monte_carlo(cols: dict, exp: Expected, samples: int) -> list[str]:
    """z-bound of the mean against the infinite-sample value; the printed
    standard error against the bound that |weight| = gamma^n allows and,
    as a median over steps, against the model's.

    sigma is the model's exact standard error of the mean.  The printed one
    is an estimate from the sample: where Pauli branches are rare (a few
    per ensemble in the first steps) it reads small or 0 and would flag
    honest outputs, so it is compared only as a median over steps."""
    fails = []
    mean, err, ideal = cols["mc_mean"], cols["mc_stderr"], cols["ideal"]
    dev = np.abs(mean - ideal)
    sigma = exp.obs_std / math.sqrt(samples)
    within4 = dev <= 4.0 * sigma + 1e-9
    if within4.mean() < 0.95:
        fails.append(f"mc_mean: {int((~within4).sum())} of {dev.size} steps beyond 4 sigma")
    beyond6 = dev > 6.0 * sigma + 1e-9
    if beyond6.any():
        i = int(np.argmax(beyond6))
        fails.append(f"mc_mean: step {i} is {dev[i] / max(sigma[i], 1e-300):.3g} sigma from ideal")
    live = sigma > 0
    if live.any():
        ratio = float(np.median(err[live] / sigma[live]))
        if not STDERR_RATIO[0] <= ratio <= STDERR_RATIO[1]:
            fails.append(f"mc_stderr: median ratio to the model's standard error is {ratio:.3g}")
    n = np.arange(err.size)
    bound = exp.gamma ** n / math.sqrt(samples - 1) if samples > 1 else np.zeros(err.size)
    over = err > bound * (1.0 + VALUE_TOL)
    if over.any():
        i = int(np.argmax(over))
        fails.append(f"mc_stderr: step {i} is {err[i]:.12g} > gamma^n / sqrt(N-1) = "
                     f"{bound[i]:.12g}")
    return fails


def check_trajectory(states: np.ndarray, weights: np.ndarray, gamma: float,
                     steps: int) -> list[str]:
    """A replayed trajectory: physical state at every step, |w_n| = gamma^n."""
    fails = []
    if states.shape != (steps + 1, 2, 2) or weights.shape != (steps + 1,):
        return [f"trajectory: shapes {states.shape}, {weights.shape}"]
    want = gamma ** np.arange(steps + 1)
    if not (np.abs(np.abs(weights) - want) <= WEIGHT_RTOL * want).all():
        fails.append("trajectory: |w_n| != gamma^n")
    if np.abs(states - states.conj().transpose(0, 2, 1)).max() > STATE_TOL:
        fails.append("trajectory: state not Hermitian")
    if np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max() > STATE_TOL:
        fails.append("trajectory: trace != 1")
    herm = 0.5 * (states + states.conj().transpose(0, 2, 1))
    if np.linalg.eigvalsh(herm).min() < -STATE_TOL:
        fails.append("trajectory: negative eigenvalue")
    return fails


def check_svg(path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"svg: {exc}"]
    return [] if root.tag.endswith("svg") else [f"svg: root element {root.tag!r}"]
