"""Property tests over random small configurations: the Pauli-coordinate
ideal evolution against the exhaustive oracle, a complex column-stacked
reference and the Monte Carlo ensemble; the library's expm against a
40-digit mpmath expm; the printed columns of `pecstep run` against the
benchmark's independent Bloch model (bench/checks.py); and the exit-code
contract of `pecstep run` on configs with extreme magnitudes."""

import contextlib
import importlib.util
import io
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    I2,
    X,
    Y,
    Z,
    conjugation,
    exhaustive_expectation,
    fidelity,
    lindbladian,
    pauli_channel,
    time_limit,
    unvec,
    vec,
)
from pecstep import cli
from pecstep.channels import PauliChannelParams
from pecstep.generators import PauliRates, pauli_dissipator, unitary_generator
from pecstep.linalg import expm
from pecstep.sampling import run_ensemble
from pecstep.scenarios import (
    REFERENCE_KINDS,
    ScenarioConfig,
    build_scenario,
    ideal_evolution,
    resolve_reference,
)


def _load_bench_checks():
    """bench/checks.py, imported by path: the benchmark's output checks,
    which model the physics without the library's code."""
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


checks = _load_bench_checks()

MITIGATIONS = {
    "digital": ("exact", "first-order", "none"),
    "analog": ("exact", "first-order", "linear-inverse", "none"),
}


RHO0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)  # |1><1|


def column_stacked_steps(cfg, plan):
    """The step's deterministic map and infinite-sample mitigation map as
    complex column-stacked superoperators, rebuilt from the configuration
    and the plan's sampling distribution with Kronecker products."""
    if cfg.hardware == "digital":
        u = scipy.linalg.expm(lindbladian(cfg.omega, cfg.beta) * cfg.dt)
        deterministic = pauli_channel(cfg.device.as_tuple()) @ u
    else:
        l_device = lindbladian(cfg.omega, cfg.beta, cfg.device.as_tuple())
        deterministic = scipy.linalg.expm(l_device * cfg.dt)
    d = plan.distribution
    probs = (d.mu1, d.mu2, d.mu3, 1.0 - d.mu1 - d.mu2 - d.mu3)
    signs = d.signs + (1,)
    mitigation = sum(
        p * s * d.prefactor * conjugation(pauli) for p, s, pauli in zip(probs, signs, (X, Y, Z, I2))
    )
    return deterministic, mitigation


def reference_columns(cfg, plan, steps):
    """`ideal`, `fidelity` and det rho of the mitigated state at the given
    steps from complex column-stacked states: the mitigated step as a matrix
    power, the target as one exponential of the Lindbladian from t = 0."""
    deterministic, mitigation = column_stacked_steps(cfg, plan)
    step_map = mitigation @ deterministic
    l_target = lindbladian(cfg.omega, cfg.beta, cfg.target.as_tuple())
    ideal, fid, det = [], [], []
    for n in steps:
        rho = unvec(np.linalg.matrix_power(step_map, n) @ vec(RHO0))
        target = unvec(scipy.linalg.expm(l_target * n * cfg.dt) @ vec(RHO0))
        ideal.append(rho[0, 0].real)
        fid.append(fidelity(rho, target))
        det.append(np.linalg.det(rho).real)
    return np.array(ideal), np.array(fid), np.array(det)


def exact_stderr(cfg, plan, samples):
    """Standard error of the weighted observable at `samples` from its exact
    first and second moments, walking every I/X/Y/Z branch sequence with
    complex 2x2 states.

    The sample standard error cannot stand in for it: a branch of
    probability 1e-7 is missing from 4096 samples, which then agree
    exactly and report a spread of 0 around a mean that is off by the
    missing branch's share."""
    d = plan.distribution
    probs = (d.mu1, d.mu2, d.mu3, 1.0 - d.mu1 - d.mu2 - d.mu3)
    weights = tuple(s * d.prefactor for s in d.signs) + (d.prefactor,)
    deterministic, _ = column_stacked_steps(cfg, plan)
    walks = [(1.0, 1.0, RHO0)]  # (probability, weight, state)
    var = [0.0]
    for _ in range(plan.steps):
        walks = [
            (p * probs[b], w * weights[b], pauli @ stepped @ pauli)
            for p, w, rho in walks
            for stepped in [unvec(deterministic @ vec(rho))]
            for b, pauli in enumerate((X, Y, Z, I2))
            if probs[b] > 0.0
        ]
        first = sum(p * w * rho[0, 0].real for p, w, rho in walks)
        second = sum(p * (w * rho[0, 0].real) ** 2 for p, w, rho in walks)
        var.append(max(second - first**2, 0.0))
    return np.sqrt(np.array(var) / samples)


def _triple(draw, high):
    return tuple(draw(st.floats(0.0, high)) for _ in range(3))


@st.composite
def small_configs(draw):
    hardware = draw(st.sampled_from(("digital", "analog")))
    mitigation = draw(st.sampled_from(MITIGATIONS[hardware]))
    if hardware == "digital":
        device = PauliChannelParams(*_triple(draw, 0.08))
    else:
        device = PauliRates(*_triple(draw, 0.3))
    target = PauliRates() if draw(st.booleans()) else PauliRates(*_triple(draw, 0.3))
    bias = None if mitigation == "none" else draw(st.one_of(st.none(), st.floats(0.8, 1.2)))
    return ScenarioConfig(
        hardware=hardware,
        device=device,
        mitigation=mitigation,
        target=target,
        omega=draw(st.floats(0.2, 2.0)),
        beta=draw(st.floats(0.0, math.pi)),
        dt=draw(st.floats(0.05, 0.8)),
        steps=draw(st.integers(1, 4)),
        bias=bias,
    )


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_configs())
@example(  # a Z branch too rare for 4096 samples to draw
    ScenarioConfig(hardware="digital", device=PauliChannelParams(0.0, 0.0, 1.2e-7), steps=1)
)
@example(  # an open target on a channel that is exp(L dt) for no nonnegative rates
    ScenarioConfig(hardware="digital", device=PauliChannelParams(0.05, 0.05, 0.0),
                   target=PauliRates(0.3, 0.0, 0.0), steps=3)
)
def test_ideal_evolution_against_oracle_reference_and_ensemble(cfg):
    plan = build_scenario(cfg)
    ts = ideal_evolution(cfg, plan)
    steps = np.arange(cfg.steps + 1)

    assert np.abs(exhaustive_expectation(plan).mean - ts.ideal).max() < 1e-12

    ideal, fid, _ = reference_columns(cfg, plan, steps)
    assert np.abs(ts.ideal - ideal).max() < 1e-12
    assert np.abs(ts.fidelity - fid).max() < 1e-6

    stats = run_ensemble(plan, 4096, seed=cfg.steps)
    assert np.all(np.abs(stats.mean - ts.ideal) <= 5.0 * exact_stderr(cfg, plan, 4096) + 1e-12)


def test_long_horizon_against_reference():
    cfg = ScenarioConfig(
        hardware="digital",
        device=PauliChannelParams(5e-4, 5e-4, 5e-4),
        mitigation="exact",
        beta=0.7,
        dt=0.01,
        steps=2000,
    )
    plan = build_scenario(cfg)
    ts = ideal_evolution(cfg, plan)
    steps = np.linspace(0, cfg.steps, 20).astype(int)
    ideal, fid, det = reference_columns(cfg, plan, steps)
    assert np.abs(ts.ideal[steps] - ideal).max() < 1e-10
    assert np.abs(ts.fidelity[steps] - fid).max() < 1e-6
    assert np.maximum(0.0, -det).max() == pytest.approx(0.0, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    omega=st.floats(0.0, 5.0),
    beta=st.floats(-math.pi, math.pi),
    rates=st.tuples(*[st.floats(0.0, 2.0)] * 3),
    dt=st.floats(1e-6, 1.0),
)
def test_expm_of_library_generators_against_40_digits(omega, beta, rates, dt):
    # the independent reference is mpmath at 40 digits, rounded once to
    # double; scipy.linalg.expm is a cross-check, itself off by up to ~4e-14
    g = (unitary_generator(omega, beta) + pauli_dissipator(PauliRates(*rates))) * dt
    got = expm(g)
    assert got.dtype == np.float64
    with mpmath.workdps(40):
        exact = np.array(mpmath.expm(mpmath.matrix(g.tolist())).tolist(), dtype=float)
    assert np.linalg.norm(got - exact) / np.linalg.norm(exact) < 2e-15
    cross = scipy.linalg.expm(g)
    assert np.linalg.norm(got - cross) / np.linalg.norm(cross) < 1e-13


# --- the CLI boundary: random config files through `pecstep run` ---


def _noise(draw, prefix, high):
    """None, one value for all three axes, or three values, as config keys."""
    shape = draw(st.sampled_from(("none", "uniform", "random")))
    if shape == "none":
        return {}
    values = _triple(draw, high) if shape == "random" else (draw(st.floats(0.0, high)),) * 3
    return {prefix + axis: v for axis, v in zip("xyz", values)}


@st.composite
def cli_configs(draw):
    """A valid config file's `key = value` pairs, as bench/checks.py reads
    them."""
    hardware = draw(st.sampled_from(("digital", "analog")))
    mitigation = draw(st.sampled_from(MITIGATIONS[hardware]))
    cfg = {"hardware": hardware, "mitigation": mitigation}
    cfg.update(_noise(draw, "noise_l" if hardware == "digital" else "noise_k",
                      0.08 if hardware == "digital" else 0.3))
    cfg.update(_noise(draw, "target_g", 0.3))
    cfg.update(omega=draw(st.floats(0.2, 2.0)), beta=draw(st.floats(0.0, math.pi)),
               dt=draw(st.floats(0.05, 0.8)), steps=draw(st.integers(1, 8)))
    if mitigation != "none" and draw(st.booleans()):
        cfg["bias"] = draw(st.floats(0.8, 1.2))
    scenario = cli.config_from_values(cli.parse_config_text(checks.config_text(cfg)))
    picked = resolve_reference(scenario)
    if picked is not None:
        cfg["reference"] = draw(st.sampled_from(("auto", picked)))
    return cfg


def _run_cli(cfg_text, out_dir: Path) -> int:
    path = out_dir / "series.cfg"
    path.write_text(cfg_text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["run", "--config", str(path), "--samples", "0", "--svg",
                         "--output", str(out_dir / "out")])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(cli_configs())
def test_cli_columns_match_independent_model(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert _run_cli(checks.config_text(cfg), Path(tmp)) == 0
        fails = checks.check_series(checks.read_csv(out / "series.csv"), cfg)
        fails += checks.check_svg(out / "series.svg")
    assert fails == []


def _defects(cfg):
    """Single edits that make a valid config invalid, each with the reason."""
    digital = cfg["hardware"] == "digital"
    out = [
        ({"steps": 0}, "steps below 1"),
        ({"dt": "nan"}, "non-finite dt"),
        ({"omega": "inf"}, "non-finite omega"),
        ({"dt": -0.1}, "negative dt"),
        ({"seed": -1}, "negative seed"),
        ({"hardware": "quantum"}, "unknown hardware"),
        ({"colour": "red"}, "unknown key"),
        ({"reference": "exact"}, "unknown reference kind"),
        ({"noise_kx" if digital else "noise_lx": 0.1}, "noise key of the other hardware"),
    ]
    if digital:
        out.append(({"mitigation": "linear-inverse"}, "linear-inverse on digital hardware"))
    if cfg["mitigation"] == "none":
        out.append(({"bias": 1.1}, "bias without a stochastic step"))
    else:
        out.append(({"bias": -1.0}, "negative bias"))
    return out


def _wrong_references(cfg):
    """Explicit reference kinds whose regime the config is outside; the near
    misses alone when there are any: kinds for the config's hardware and
    mitigation that fail only on uniform noise, a closed target or a bias."""
    cfg = checks.full_config(cfg)
    wrong = [(kind, need) for kind, need in _REGIMES.items() if not _holds(need, cfg)]
    near = [(kind, need) for kind, need in wrong
            if need[0] in (None, cfg["hardware"]) and need[1] in (None, cfg["mitigation"])]
    return [({"reference": kind}, f"reference {kind} outside its regime")
            for kind, _ in near or wrong]


def _uniform(cfg, prefix):
    return cfg[prefix + "x"] == cfg[prefix + "y"] == cfg[prefix + "z"]


def _closed(cfg):
    return not any(cfg["target_g" + axis] for axis in "xyz")


# where each closed form of the paper applies, written out from the
# reference kinds' documented preconditions rather than taken from the
# library: (hardware or None, mitigation or None, the rest of the regime)
_REGIMES = {
    "biased": ("digital", "exact",
               lambda c: c["bias"] is not None and _closed(c) and _uniform(c, "noise_l")),
    "unmitigated-digital": ("digital", "none", lambda c: _uniform(c, "noise_l")),
    "approx-digital": ("digital", "first-order",
                       lambda c: _closed(c) and _uniform(c, "noise_l")),
    "approx-analog": ("analog", "linear-inverse",
                      lambda c: _closed(c) and _uniform(c, "noise_k")),
    "closed": (None, None, _closed),
    "damped-depolarizing": (None, "exact", lambda c: _uniform(c, "target_g")),
}


def _holds(need, cfg):
    hardware, mitigation, rest = need
    return (hardware in (None, cfg["hardware"]) and mitigation in (None, cfg["mitigation"])
            and rest(cfg))


def test_regime_table_names_every_reference_kind():
    assert sorted(_REGIMES) == sorted(REFERENCE_KINDS)


@st.composite
def invalid_cli_configs(draw):
    cfg = draw(cli_configs())
    # half of the cases name a reference kind outside its regime, the
    # defect an exit-0 run is most likely to hide
    kinds = _wrong_references(cfg)
    edit, why = draw(st.sampled_from(kinds if kinds and draw(st.booleans()) else _defects(cfg)))
    return {**cfg, **edit}, why


@settings(derandomize=True, deadline=None, max_examples=100)
@given(invalid_cli_configs())
@example(({"hardware": "digital", "mitigation": "first-order", "noise_lx": 0.1,
           "reference": "approx-digital", "steps": 3}, "approx-digital on non-uniform noise"))
@example(({"hardware": "analog", "mitigation": "linear-inverse", "noise_kz": 0.2,
           "reference": "approx-analog", "steps": 3}, "approx-analog on non-uniform noise"))
def test_cli_invalid_config_exits_2_without_csv(case):
    cfg, why = case
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_cli(checks.config_text(cfg), Path(tmp)) == 2, why
        assert not (Path(tmp) / "out" / "series.csv").exists(), why


# --- the exit-code contract: extreme magnitudes through `pecstep run` ---


def _magnitude():
    """Log-uniform over 1e-300 .. 1e300."""
    return st.floats(-300.0, 300.0).map(lambda e: 10.0**e)


@st.composite
def extreme_cli_runs(draw):
    """A config whose floats are log-uniform magnitudes, zero or negative
    (digital channel probabilities tiny or ordinary), with --samples and
    whether --svg is asked for."""
    hardware = draw(st.sampled_from(("digital", "analog")))
    mitigation = draw(st.sampled_from(MITIGATIONS[hardware]))
    cfg = {"hardware": hardware, "mitigation": mitigation}
    signed = st.one_of(_magnitude(), _magnitude().map(lambda v: -v), st.just(0.0))
    for key, values in (("omega", signed), ("beta", signed), ("dt", _magnitude())):
        if draw(st.booleans()):
            cfg[key] = draw(values)
    if hardware == "digital":
        noise = st.one_of(st.floats(-300.0, -2.0).map(lambda e: 10.0**e), st.floats(0.0, 0.3))
    else:
        noise = _magnitude()
    for axis in "xyz":
        for prefix, values in (("noise_l" if hardware == "digital" else "noise_k", noise),
                               ("target_g", _magnitude())):
            if draw(st.booleans()):
                cfg[prefix + axis] = draw(values)
    if mitigation != "none" and draw(st.booleans()):
        cfg["bias"] = draw(_magnitude())
    cfg["steps"] = draw(st.integers(1, 50))
    return cfg, draw(st.integers(0, 300)), draw(st.booleans())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(extreme_cli_runs())
@example(({"hardware": "digital", "noise_ly": 0.0467, "omega": 0.0, "steps": 2, "dt": 0.43},
          0, True))  # a y-span below the float spacing at 1: the tick loop never ended
@example(({"hardware": "analog", "noise_kx": 0.9, "dt": 1e-16, "steps": 1}, 0, True))
@example(({"hardware": "digital", "noise_lx": 0.05, "omega": 1e200, "dt": 1e200}, 0, False))
def test_cli_exit_code_contract_under_extreme_input(run):
    # exit 0 with finite fields and a manifest, or exit 2 with one error
    # line and nothing written; never a warning, a traceback or a hang
    cfg, samples, svg = run
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "series.cfg", Path(tmp) / "out"
        path.write_text(checks.config_text(cfg))
        argv = ["run", "--config", str(path), "--samples", str(samples), "--output", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), time_limit(10),
              contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr)):
            warnings.simplefilter("error")
            rc = cli.main(argv + ["--svg"] * svg)
        if rc == 0:
            rows = (out / "series.csv").read_text().splitlines()[1:]
            assert all(math.isfinite(float(f)) for row in rows for f in row.split(",") if f)
            assert (out / "series.manifest.json").exists()
        else:
            assert rc == 2
            assert re.fullmatch("error: [^\n]*\n", stderr.getvalue())
            assert stdout.getvalue() == "" and not out.exists()
