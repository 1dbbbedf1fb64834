"""Command-line front end.

    pecstep figure <id> [--samples N] [--seed S] [--output DIR] [--svg]
    pecstep run --config FILE [--samples N] [--seed S] [--output DIR] [--svg]
    pecstep diagnose --config FILE

Worker count for the Monte Carlo ensemble comes from the environment
variable PECSTEP_WORKERS (default 1); it never changes the results.

Config files are flat `key = value` lines, '#' starts a comment.  Keys:

    hardware      digital | analog                        (required)
    mitigation    exact | first-order | linear-inverse | none
    omega beta dt floats                                  (1.0, 0.0, 0.5)
    steps         int >= 1                                (20)
    samples       int >= 0, 0 = analytic output only      (0)
    seed          int                                     (0)
    bias          float > 0, optional sampling deformation
    target_gx/gy/gz   target noise rates, all 0 = closed  (0)
    noise_lx/ly/lz    device channel probabilities (digital)
    noise_kx/ky/kz    device noise rates (analog)
    reference     auto | none | closed | damped-depolarizing | approx-digital
                  | approx-analog | unmitigated-digital | biased   (auto)
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, svg
from .channels import PauliChannelParams
from .generators import PauliRates
from .presets import PRESETS, preset, with_overrides
from .sampling import default_workers
from .scenarios import ScenarioConfig, TimeSeries, diagnostics, simulate

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


def _number(values: dict, key: str, convert, default=None):
    if key not in values:
        return default
    try:
        number = convert(values[key])
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {values[key]!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {values[key]!r}")
    return number


def config_from_values(values: dict) -> ScenarioConfig:
    if "hardware" not in values:
        raise ConfigError("hardware: missing required key")
    hardware = values["hardware"]
    if hardware not in ("digital", "analog"):
        raise ConfigError(f"hardware: expected digital or analog, got {hardware!r}")

    lam = [_number(values, k, float) for k in _TRIPLES["lambda"]]
    kap = [_number(values, k, float) for k in _TRIPLES["kappa"]]
    if hardware == "digital":
        if any(v is not None for v in kap):
            raise ConfigError("noise_kx: rate keys are for analog hardware; use noise_lx/ly/lz")
        device = PauliChannelParams(*(0.0 if v is None else v for v in lam))
    else:
        if any(v is not None for v in lam):
            raise ConfigError("noise_lx: probability keys are for digital hardware; use noise_kx/ky/kz")
        device = PauliRates(*(0.0 if v is None else v for v in kap))

    target = PauliRates(
        *(0.0 if v is None else v for v in (_number(values, k, float) for k in _TRIPLES["target"]))
    )

    reference = values.get("reference", "auto")
    kwargs = dict(
        hardware=hardware,
        device=device,
        target=target,
        mitigation=values.get("mitigation", "exact"),
        omega=_number(values, "omega", float, 1.0),
        beta=_number(values, "beta", float, 0.0),
        dt=_number(values, "dt", float, 0.5),
        steps=_number(values, "steps", int, 20),
        samples=_number(values, "samples", int, 0),
        seed=_number(values, "seed", int, 0),
        bias=_number(values, "bias", float, None),
        reference=None if reference == "none" else reference,
    )
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> ScenarioConfig:
    return config_from_values(parse_config_text(Path(path).read_text(), source=str(path)))


def config_echo(cfg: ScenarioConfig) -> dict:
    echo = {
        "hardware": cfg.hardware,
        "mitigation": cfg.mitigation,
        "omega": cfg.omega,
        "beta": cfg.beta,
        "dt": cfg.dt,
        "steps": cfg.steps,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "target_gx": cfg.target.gx,
        "target_gy": cfg.target.gy,
        "target_gz": cfg.target.gz,
        "reference": "none" if cfg.reference is None else cfg.reference,
    }
    if isinstance(cfg.device, PauliChannelParams):
        echo.update(noise_lx=cfg.device.lx, noise_ly=cfg.device.ly, noise_lz=cfg.device.lz)
    else:
        echo.update(noise_kx=cfg.device.gx, noise_ky=cfg.device.gy, noise_kz=cfg.device.gz)
    if cfg.bias is not None:
        echo["bias"] = cfg.bias
    return echo


def _fmt(x: float) -> str:
    return "" if x is None or np.isnan(x) else format(float(x), ".12g")


def write_csv(path, series: TimeSeries) -> None:
    lines = [CSV_HEADER]
    for i in range(series.step.size):
        lines.append(
            ",".join(
                (
                    str(int(series.step[i])),
                    _fmt(series.t[i]),
                    _fmt(series.ideal[i]),
                    _fmt(series.reference[i]),
                    _fmt(series.mc_mean[i]),
                    _fmt(series.mc_stderr[i]),
                    _fmt(series.fidelity[i]),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_svg(path, title: str, series: TimeSeries) -> None:
    chart = svg.Chart(title=title, xlabel="t", ylabel="excited-state population")
    chart.series.append(svg.Series("ideal", series.t, series.ideal, color="#d95f02"))
    if np.isfinite(series.reference).any():
        chart.series.append(
            svg.Series("reference", series.t, series.reference, color="#1b9e77", dash="6,4")
        )
    if np.isfinite(series.mc_mean).any():
        chart.series.append(
            svg.Series(
                "mc mean",
                series.t,
                series.mc_mean,
                color="#7570b3",
                yerr=series.mc_stderr,
                markers=True,
            )
        )
    svg.write(path, chart)


def _run_series(named_configs, out_dir: Path, stem: str, want_svg: bool, workers: int):
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    outputs = []
    configs = []
    for name, cfg in named_configs:
        series, _ = simulate(cfg, workers=workers)
        base = stem if not name else f"{stem}_{name}"
        csv_path = out_dir / f"{base}.csv"
        write_csv(csv_path, series)
        outputs.append(csv_path.name)
        if want_svg:
            svg_path = out_dir / f"{base}.svg"
            write_svg(svg_path, base, series)
            outputs.append(svg_path.name)
        configs.append({"series": name or stem, **config_echo(cfg)})
    manifest = {
        "artifact": "pecstep",
        "version": __version__,
        "outputs": outputs,
        "configs": configs,
        "wall_clock_s": round(time.perf_counter() - t0, 3),
    }
    manifest_path = out_dir / f"{stem}.manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return outputs + [manifest_path.name]


def cmd_figure(args) -> int:
    p = preset(args.id)
    samples = args.samples
    configs = [
        (name, with_overrides(cfg, samples=samples, seed=args.seed)) for name, cfg in p.series
    ]
    outputs = _run_series(configs, Path(args.output), p.id, args.svg, default_workers())
    for name in outputs:
        print(name)
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    cfg = with_overrides(cfg, samples=args.samples, seed=args.seed)
    stem = Path(args.config).stem
    outputs = _run_series([("", cfg)], Path(args.output), stem, args.svg, default_workers())
    for name in outputs:
        print(name)
    return 0


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
    print(f"per-step overhead factor = {g(d['overhead'])}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pecstep",
        description="Step-wise probabilistic error cancellation on single-qubit Lindblad dynamics",
    )
    parser.add_argument("--version", action="version", version=f"pecstep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="run a bundled figure preset")
    fig.add_argument("id", metavar="ID", help=f"one of: {', '.join(sorted(PRESETS))}")
    fig.add_argument("--samples", type=int, default=None, help="override ensemble size")
    fig.add_argument("--seed", type=int, default=None, help="override RNG seed")
    fig.add_argument("--output", default="out", help="output directory (default: out)")
    fig.add_argument("--svg", action="store_true", help="emit an SVG chart per CSV")
    fig.set_defaults(func=cmd_figure)

    run = sub.add_parser("run", help="run a custom configuration file")
    run.add_argument("--config", required=True)
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--output", default="out")
    run.add_argument("--svg", action="store_true")
    run.set_defaults(func=cmd_run)

    diag = sub.add_parser("diagnose", help="print commutator norms and mitigation diagnostics")
    diag.add_argument("--config", required=True)
    diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
