"""Command-line front end.

    pecstep figure <id> [--samples N] [--seed S] [--output DIR] [--svg]
    pecstep run --config FILE [--samples N] [--seed S] [--output DIR] [--svg]
    pecstep diagnose --config FILE

Worker count for the Monte Carlo ensemble comes from the environment
variable PECSTEP_WORKERS (default: the CPUs this process may run on), read
here and nowhere else in the package; it never changes the results.  The
series of every preset share their branch codes and run as one stacked
ensemble, so an invocation starts at most one worker pool, of at most one
process per block of trajectories (see sampling.run_ensemble).

Config files are flat `key = value` lines, '#' starts a comment.  Keys:

    hardware      digital | analog                        (required)
    mitigation    exact | first-order | linear-inverse | none
    omega beta dt floats                                  (1.0, 0.0, 0.5)
    steps         int >= 1                                (20)
    samples       int >= 0, 0 = analytic output only      (0)
    seed          int >= 0                                (0)
    bias          float > 0, optional sampling deformation
    target_gx/gy/gz   target noise rates, all 0 = closed  (0)
    noise_lx/ly/lz    device channel probabilities (digital)
    noise_kx/ky/kz    device noise rates (analog)
    reference     auto | none | closed | damped-depolarizing | approx-digital
                  | approx-analog | unmitigated-digital | biased   (auto)
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, svg
from .channels import PauliChannelParams
from .generators import PauliRates
from .presets import PRESETS, preset
from .scenarios import HARDWARE, ScenarioConfig, TimeSeries, diagnostics, simulate

CSV_HEADER = "step,t,ideal,reference,mc_mean,mc_stderr,fidelity"

_FLOAT_KEYS = ("omega", "beta", "dt", "bias")
_INT_KEYS = ("steps", "samples", "seed")
_TRIPLES = {
    "target": ("target_gx", "target_gy", "target_gz"),
    "lambda": ("noise_lx", "noise_ly", "noise_lz"),
    "kappa": ("noise_kx", "noise_ky", "noise_kz"),
}
_KNOWN_KEYS = (
    {"hardware", "mitigation", "reference"}
    | set(_FLOAT_KEYS)
    | set(_INT_KEYS)
    | {k for keys in _TRIPLES.values() for k in keys}
)


class ConfigError(ValueError):
    pass


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{key}: unknown key ({source}:{lineno})")
        if key in values:
            raise ConfigError(f"{key}: duplicate key ({source}:{lineno})")
        values[key] = value
    return values


def _number(values: dict, key: str):
    if key not in values:
        return None
    convert, kind = (int, "an integer") if key in _INT_KEYS else (float, "a number")
    try:
        number = convert(values[key])
    except ValueError:
        raise ConfigError(f"{key}: expected {kind}, got {values[key]!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {values[key]!r}")
    return number


def config_from_values(values: dict) -> ScenarioConfig:
    if "hardware" not in values:
        raise ConfigError("hardware: missing required key")
    hardware = values["hardware"]
    if hardware not in HARDWARE:
        raise ConfigError(f"hardware: expected digital or analog, got {hardware!r}")

    lam = [_number(values, k) for k in _TRIPLES["lambda"]]
    kap = [_number(values, k) for k in _TRIPLES["kappa"]]
    if hardware == "digital":
        if any(v is not None for v in kap):
            raise ConfigError("noise_kx: rate keys are for analog hardware; use noise_lx/ly/lz")
        device = PauliChannelParams(*(0.0 if v is None else v for v in lam))
    else:
        if any(v is not None for v in lam):
            raise ConfigError("noise_lx: probability keys are for digital hardware; use noise_kx/ky/kz")
        device = PauliRates(*(0.0 if v is None else v for v in kap))

    target = PauliRates(
        *(0.0 if v is None else v for v in (_number(values, k) for k in _TRIPLES["target"]))
    )

    # keys absent from the file take the ScenarioConfig defaults
    kwargs = dict(hardware=hardware, device=device, target=target)
    kwargs.update((k, _number(values, k)) for k in _FLOAT_KEYS + _INT_KEYS if k in values)
    if "mitigation" in values:
        kwargs["mitigation"] = values["mitigation"]
    if "reference" in values:
        kwargs["reference"] = None if values["reference"] == "none" else values["reference"]
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ScenarioConfig:
    return config_from_values(parse_config_text(Path(path).read_text(), source=str(path)))


def config_echo(cfg: ScenarioConfig) -> dict:
    """The config as the file keys that load it back."""
    echo = {
        "hardware": cfg.hardware,
        "mitigation": cfg.mitigation,
        "reference": "none" if cfg.reference is None else cfg.reference,
    }
    for key in _FLOAT_KEYS + _INT_KEYS:
        if getattr(cfg, key) is not None:
            echo[key] = getattr(cfg, key)
    device = "lambda" if cfg.hardware == "digital" else "kappa"
    echo.update(zip(_TRIPLES["target"], cfg.target.as_tuple()))
    echo.update(zip(_TRIPLES[device], cfg.device.as_tuple()))
    return echo


def _defined_columns(path, series: TimeSeries) -> list[str]:
    """The columns the series defines (not None); raises ValueError on NaN
    or inf in any of them, naming the CSV `path` that is not written."""
    defined = [name for name in CSV_HEADER.split(",")[2:] if getattr(series, name) is not None]
    for name in defined:
        values = getattr(series, name)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            first = "NaN" if np.isnan(values[bad[0]]) else f"{values[bad[0]]:g}"
            raise ValueError(
                f"{name}: {first} at step {int(series.step[bad[0]])} "
                f"({bad.size} of {series.step.size} steps); no CSV written to {path}"
            )
    return defined


def write_csv(path, series: TimeSeries) -> None:
    """Write the series.  A column that is None prints as empty fields ("not
    applicable"); raises ValueError on NaN or inf in any other column."""
    names = CSV_HEADER.split(",")[2:]
    defined = _defined_columns(path, series)
    row = ",".join(["%d", "%.12g"] + ["%.12g" if name in defined else "" for name in names])
    columns = [series.step, series.t] + [getattr(series, name) for name in defined]
    lines = [CSV_HEADER] + [row % values for values in zip(*(c.tolist() for c in columns))]
    Path(path).write_text("\n".join(lines) + "\n")


def _workers() -> int:
    """The worker count PECSTEP_WORKERS asks for; when it is unset, the CPUs
    this process may run on."""
    raw = os.environ.get("PECSTEP_WORKERS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"PECSTEP_WORKERS: expected an integer >= 1, got {raw!r}")
    return workers


def _write(written: list, path: Path, write, *args) -> str:
    """write(path, *args), noting path in `written` for removal if the run
    fails: first if it is new (a failed write may leave part of it), then
    once written.  Returns the file's name."""
    if not path.exists():
        written.append(path)
    write(path, *args)
    written.append(path)  # a path noted twice is removed once
    return path.name


def _run_series(args, stem: str, named_configs) -> int:
    """Simulate the series under the --samples and --seed overrides, write
    their files into --output and print their names.  Every series is
    checked before the directory is made, so a NaN or inf in any of them, or
    a chart range wider than the float range, leaves no file and no
    directory behind; nor does an OSError while writing, once it propagates."""
    names = [name for name, _ in named_configs]
    overrides = {k: getattr(args, k) for k in ("samples", "seed") if getattr(args, k) is not None}
    configs = [dataclasses.replace(cfg, **overrides) for _, cfg in named_configs]
    out_dir = Path(args.output)
    workers = _workers()
    t0 = time.perf_counter()
    outputs = []
    echoes = []
    results = simulate(configs, workers=workers)
    bases = [stem if not name else f"{stem}_{name}" for name in names]
    for base, series in zip(bases, results):
        _defined_columns(out_dir / f"{base}.csv", series)
        if args.svg:
            svg.y_range(base, series)
    made = [] if out_dir.exists() else [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for base, name, cfg, series in zip(bases, names, configs, results):
            outputs.append(_write(written, out_dir / f"{base}.csv", write_csv, series))
            if args.svg:
                outputs.append(_write(written, out_dir / f"{base}.svg", svg.write, base, series))
            echoes.append({"series": name or stem, **config_echo(cfg)})
        manifest = {
            "artifact": "pecstep",
            "version": __version__,
            "outputs": outputs,
            "configs": echoes,
            "wall_clock_s": round(time.perf_counter() - t0, 3),
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        manifest_name = _write(written, out_dir / f"{stem}.manifest.json", Path.write_text, text)
    except OSError:
        for path in written + made:
            with contextlib.suppress(OSError):
                path.rmdir() if path in made else path.unlink()
        raise
    for name in outputs + [manifest_name]:
        print(name)
    return 0


def cmd_figure(args) -> int:
    p = preset(args.id)
    return _run_series(args, p.id, p.series)


def cmd_run(args) -> int:
    return _run_series(args, Path(args.config).stem, [("", load_config(args.config))])


def cmd_diagnose(args) -> int:
    cfg = load_config(args.config)
    d = diagnostics(cfg)
    q = d["coeffs"]
    dist = d["distribution"]

    def g(x):
        return format(x, ".12g")

    print(f"hardware={cfg.hardware} mitigation={cfg.mitigation} "
          f"omega={g(cfg.omega)} beta={g(cfg.beta)} dt={g(cfg.dt)} steps={cfg.steps}")
    print(f"||[L_target, L_unitary]||          = {g(d['comm_target_unitary'])}")
    print(f"||[L_device, L_unitary]||          = {g(d['comm_device_unitary'])}")
    print(f"||[L_target - L_device, L_unitary]|| = {g(d['comm_diff_unitary'])}")
    print(f"one-step map error                 = {g(d['one_step_error'])}")
    print(f"coefficients q = ({g(q.q0)}, {g(q.q1)}, {g(q.q2)}, {g(q.q3)})")
    print(f"sampling mu = ({g(dist.mu1)}, {g(dist.mu2)}, {g(dist.mu3)}) "
          f"signs = {dist.signs}")
    print(f"per-step overhead factor = {g(dist.prefactor)}")
    return 0


@functools.cache  # one per process: scripts call main many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pecstep",
        description="Step-wise probabilistic error cancellation on single-qubit Lindblad dynamics",
    )
    parser.add_argument("--version", action="version", version=f"pecstep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    outputs = argparse.ArgumentParser(add_help=False)  # the flags figure and run share
    outputs.add_argument("--samples", type=int, default=None, help="override ensemble size")
    outputs.add_argument("--seed", type=int, default=None, help="override RNG seed")
    outputs.add_argument("--output", default="out", help="output directory (default: out)")
    outputs.add_argument("--svg", action="store_true", help="emit an SVG chart per CSV")

    fig = sub.add_parser("figure", parents=[outputs], help="run a bundled figure preset")
    fig.add_argument("id", metavar="ID", help=f"one of: {', '.join(sorted(PRESETS))}")
    fig.set_defaults(func=cmd_figure)

    run = sub.add_parser("run", parents=[outputs], help="run a custom configuration file")
    run.add_argument("--config", required=True)
    run.set_defaults(func=cmd_run)

    diag = sub.add_parser("diagnose", help="print commutator norms and mitigation diagnostics")
    diag.add_argument("--config", required=True)
    diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
