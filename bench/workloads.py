"""The benchmark's workloads: their inputs, the program calls they time and
the checks each call's output must pass.

A workload is prepared once per process from the run's seed (config files,
model values), then run in rounds.  Every round attempts the same
operations; an operation is one program call plus the checks on what it
wrote or returned.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from bench import checks

# The bundled figure presets, written out here so the benchmark's inputs and
# expected values do not come from the program: (series name, config).
_DEP05 = {"noise_lx": 0.05, "noise_ly": 0.05, "noise_lz": 0.05}
_LAM_OPEN = {"noise_lx": 0.16, "noise_ly": 0.12, "noise_lz": 0.2}
_K01 = {"noise_kx": 0.1, "noise_ky": 0.1, "noise_kz": 0.1}
_K_XBIAS = {"noise_kx": 0.4, "noise_ky": 0.1, "noise_kz": 0.1}
_GAMMA_X = {"target_gx": 0.3}
_BETAS = (("beta0", 0.0), ("betapi4", math.pi / 4), ("betapi2", math.pi / 2))


def _family(stem, base):
    return [(f"{stem}_{name}", {**base, "beta": beta}) for name, beta in _BETAS]


PRESET_SERIES = {
    "fig1a": [("fig1a", {"hardware": "digital", "mitigation": "exact", **_DEP05})],
    "fig1b": [("fig1b", {"hardware": "digital", "mitigation": "first-order", **_DEP05})],
    "fig2a": [("fig2a", {"hardware": "analog", "mitigation": "exact", **_K01})],
    "fig2b": [("fig2b", {"hardware": "analog", "mitigation": "linear-inverse", **_K01})],
    "fig3": _family("fig3", {"hardware": "analog", "mitigation": "exact", "noise_kx": 0.3}),
    "fig4": _family("fig4", {"hardware": "analog", "mitigation": "linear-inverse",
                             "noise_kx": 0.3}),
    "fig5": _family("fig5", {"hardware": "digital", "mitigation": "exact", **_LAM_OPEN,
                             **_GAMMA_X}),
    **{f"fig6{s}": [(f"fig6{s}", {"hardware": "digital", "mitigation": "first-order",
                                  **_LAM_OPEN, **_GAMMA_X, "beta": beta})]
       for s, (_, beta) in zip("abc", _BETAS)},
    "fig7": _family("fig7", {"hardware": "analog", "mitigation": "first-order", **_K01,
                             **_GAMMA_X}),
    "fig8": _family("fig8", {"hardware": "analog", "mitigation": "exact", **_K_XBIAS,
                             **_GAMMA_X}),
    "fig9": _family("fig9", {"hardware": "analog", "mitigation": "first-order", **_K_XBIAS,
                             **_GAMMA_X}),
    "figA1": [("figA1", {"hardware": "digital", "mitigation": "none", **_DEP05,
                         "target_gx": 0.1, "target_gy": 0.1, "target_gz": 0.1})],
    "figB1a": [("figB1a", {"hardware": "digital", "mitigation": "exact", **_DEP05,
                           "bias": 0.97})],
    "figB1b": [("figB1b", {"hardware": "digital", "mitigation": "exact", **_DEP05,
                           "bias": 1.03})],
}


def cli_call(argv):
    """Run `pecstep <argv>` in this process; (exit code, printed lines)."""
    from pecstep import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().split()


def _clear(directory: Path, names):
    for name in names:
        (directory / name).unlink(missing_ok=True)


def _outputs(series):
    return [f"{name}.{ext}" for name, _ in series for ext in ("csv", "svg")]


def check_cli_output(result, out_dir: Path, stem, series):
    """Exit code, printed file names, every CSV and SVG, and the manifest's
    config echo of one CLI invocation over `series` [(name, cfg)]."""
    code, printed = result
    names = _outputs(series) + [f"{stem}.manifest.json"]
    if code != 0:
        return [f"exit code {code}"]
    if printed != names:
        return [f"printed {printed} != {names}"]
    fails = []
    for name, cfg in series:
        try:
            cols = checks.read_csv(out_dir / f"{name}.csv")
        except (OSError, ValueError) as exc:
            fails.append(str(exc))
            continue
        fails += [f"{name}: {f}" for f in checks.check_series(cols, cfg, expected(cfg))]
        fails += checks.check_svg(out_dir / f"{name}.svg")
    try:
        echo = json.loads((out_dir / names[-1]).read_text())["configs"]
    except (OSError, ValueError, KeyError) as exc:
        return fails + [f"manifest: {exc}"]
    for entry, (_, cfg) in zip(echo, series):
        for key, value in cfg.items():
            same = (math.isclose(entry.get(key, math.nan), value, rel_tol=1e-15)
                    if isinstance(value, float) else entry.get(key) == value)
            if not same:
                fails.append(f"manifest: {key} = {entry.get(key)!r}, config has {value!r}")
    return fails


_EXPECTED = {}


def expected(cfg):
    """Model values of `cfg`; the seed does not enter them, so they are
    computed once per config and reused across rounds."""
    key = json.dumps({k: v for k, v in cfg.items() if k != "seed"}, sort_keys=True)
    if key not in _EXPECTED:
        _EXPECTED[key] = checks.expected(cfg)
    return _EXPECTED[key]


class Figure:
    """`pecstep figure <id> --samples N --seed S --svg`, one call per round
    with a fresh seed."""

    def __init__(self, preset_id, samples, out_dir, workers=1):
        self.preset_id = preset_id
        self.samples = samples
        self.out_dir = out_dir / preset_id
        self.workers = workers

    def prepare(self, rng):
        self.rng = rng
        for _, cfg in PRESET_SERIES[self.preset_id]:
            expected({**cfg, "samples": self.samples})

    def operations(self):
        seed = int(self.rng.integers(2**31))
        series = [(name, {**cfg, "samples": self.samples, "seed": seed})
                  for name, cfg in PRESET_SERIES[self.preset_id]]
        argv = ["figure", self.preset_id, "--samples", str(self.samples), "--seed", str(seed),
                "--output", str(self.out_dir), "--svg"]

        _clear(self.out_dir, _outputs(series))
        yield (lambda: cli_call(argv),
               lambda result: check_cli_output(result, self.out_dir, self.preset_id, series))


class DtSweep:
    """Every preset series at dt = 0.5/k, steps = 20k (t_final = 10 fixed),
    through `pecstep run --config <file> --samples 0 --svg`; the seed sets
    the order of the runs."""

    workers = 1

    def __init__(self, ks, out_dir):
        self.ks = ks
        self.out_dir = out_dir / "dt_sweep"

    def prepare(self, rng):
        self.rng = rng
        self.runs = []
        cfg_dir = self.out_dir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for series in PRESET_SERIES.values():
            for name, base in series:
                for k in self.ks:
                    cfg = {**base, "dt": 0.5 / k, "steps": 20 * k}
                    path = cfg_dir / f"{name}_k{k}.cfg"
                    path.write_text(checks.config_text(cfg))
                    expected(cfg)
                    self.runs.append((path, cfg))

    def operations(self):
        for i in self.rng.permutation(len(self.runs)):
            path, cfg = self.runs[i]
            series = [(path.stem, cfg)]
            argv = ["run", "--config", str(path), "--samples", "0", "--svg",
                    "--output", str(self.out_dir)]
            _clear(self.out_dir, _outputs(series))
            yield (lambda argv=argv: cli_call(argv),
                   lambda result, series=series:
                   check_cli_output(result, self.out_dir, series[0][0], series))


class LongHorizon:
    """A 2000-step digital run with weak depolarizing noise: `pecstep run`
    on a generated config (the seed draws beta), then replays of
    trajectories of that ensemble with sampling.run_trajectory."""

    workers = 1

    def __init__(self, samples, replays, out_dir, steps=2000):
        self.samples = samples
        self.replays = replays
        self.steps = steps
        self.out_dir = out_dir / "long_horizon"

    def prepare(self, rng):
        from pecstep import cli, scenarios

        self.rng = rng
        self.cfg = {"hardware": "digital", "mitigation": "exact", "noise_lx": 5e-4,
                    "noise_ly": 5e-4, "noise_lz": 5e-4, "omega": 1.0,
                    "beta": float(rng.uniform(0.0, math.pi / 2)), "dt": 0.01,
                    "steps": self.steps, "samples": self.samples}
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.out_dir / "long_horizon.cfg"
        self.path.write_text(checks.config_text(self.cfg))
        self.plan = scenarios.build_scenario(cli.load_config(self.path))
        expected(self.cfg)

    def operations(self):
        from pecstep import sampling

        seed = int(self.rng.integers(2**31))
        series = [("long_horizon", {**self.cfg, "seed": seed})]
        argv = ["run", "--config", str(self.path), "--samples", str(self.samples),
                "--seed", str(seed), "--output", str(self.out_dir), "--svg"]

        _clear(self.out_dir, _outputs(series))
        yield (lambda: cli_call(argv),
               lambda result: check_cli_output(result, self.out_dir, "long_horizon", series))
        gamma = expected(self.cfg).gamma
        # low indices: run_trajectory draws rows 0..index of the Philox block
        for index in sorted(self.rng.choice(2 * self.replays, self.replays, replace=False)):
            yield ((lambda index=int(index): sampling.run_trajectory(self.plan, seed, index)),
                   lambda traj: checks.check_trajectory(traj.states, traj.weights, gamma,
                                                        self.steps))


def make(name, out_dir: Path, small=False):
    """The workload `name` writing under `out_dir`; `small` shrinks it for
    the benchmark's tests.  Its `workers` is the PECSTEP_WORKERS to run at."""
    if name == "fig1a":
        return Figure("fig1a", 20_000 if small else 10**6, out_dir)
    if name == "dt_sweep":
        return DtSweep((1, 2) if small else (1, 2, 4, 8), out_dir)
    if name == "long_horizon":
        return LongHorizon(512 if small else 4096, 4 if small else 32, out_dir,
                           200 if small else 2000)
    if name == "fig8_workers2":
        return Figure("fig8", 70_000 if small else 131_072, out_dir, workers=2)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fig1a", "dt_sweep", "long_horizon", "fig8_workers2")
