import contextlib
import errno
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import time_limit
from pecstep import cli
from pecstep.channels import PauliChannelParams
from pecstep.cli import (
    CSV_HEADER,
    ConfigError,
    config_echo,
    config_from_values,
    load_config,
    main,
    parse_config_text,
)
from pecstep.generators import PauliRates
from pecstep.presets import PRESETS
from pecstep.scenarios import ScenarioConfig

UNMITIGATED_CFG = """\
# step-proportional depolarizing noise, no mitigation
hardware = digital
mitigation = none
noise_lx = 0.05
noise_ly = 0.05
noise_lz = 0.05
target_gx = 0.1
target_gy = 0.1
target_gz = 0.1
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_config_roundtrip():
    values = parse_config_text(UNMITIGATED_CFG)
    cfg = config_from_values(values)
    assert cfg.hardware == "digital"
    assert cfg.mitigation == "none"
    assert cfg.device.lx == 0.05
    assert cfg.target.gx == 0.1


def test_parse_config_reports_field_paths():
    with pytest.raises(ConfigError, match="noise_lx"):
        config_from_values(parse_config_text("hardware = digital\nnoise_lx = abc\n"))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("hardware = digital\nnope = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("hardware = digital\nhardware = analog\n")
    with pytest.raises(ConfigError, match="hardware"):
        config_from_values(parse_config_text("dt = 0.5\n"))
    with pytest.raises(ConfigError, match="noise_kx"):
        config_from_values(parse_config_text("hardware = digital\nnoise_kx = 0.1\n"))
    with pytest.raises(ConfigError, match="mitigation"):
        config_from_values(
            parse_config_text("hardware = digital\nmitigation = linear-inverse\n")
        )


def test_figure_writes_csv_svg_manifest(tmp_path):
    rc = main(["figure", "fig1a", "--samples", "1000", "--output", str(tmp_path), "--svg"])
    assert rc == 0
    csv = (tmp_path / "fig1a.csv").read_text()
    assert csv.splitlines()[0] == CSV_HEADER
    assert len(csv.splitlines()) == 22  # header + steps 0..20
    svg = (tmp_path / "fig1a.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    manifest = json.loads((tmp_path / "fig1a.manifest.json").read_text())
    assert "fig1a.csv" in manifest["outputs"]
    assert "fig1a.svg" in manifest["outputs"]
    assert manifest["configs"][0]["samples"] == 1000


def test_figure_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["figure", "fig1a", "--samples", "2000", "--output", str(out)]) == 0
    assert (a / "fig1a.csv").read_bytes() == (b / "fig1a.csv").read_bytes()


def test_seed_override_changes_only_mc_columns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["figure", "fig1a", "--samples", "2000", "--output", str(a)])
    main(["figure", "fig1a", "--samples", "2000", "--seed", "9", "--output", str(b)])
    rows_a = (a / "fig1a.csv").read_text().splitlines()[1:]
    rows_b = (b / "fig1a.csv").read_text().splitlines()[1:]
    changed = False
    for ra, rb in zip(rows_a, rows_b):
        ca, cb = ra.split(","), rb.split(",")
        assert ca[:4] == cb[:4]  # step, t, ideal, reference
        assert ca[6] == cb[6]  # fidelity
        changed |= ca[4] != cb[4]
    assert changed


def test_zero_samples_emit_empty_mc_fields(tmp_path):
    rc = main(["figure", "fig1a", "--samples", "0", "--output", str(tmp_path)])
    assert rc == 0
    row = (tmp_path / "fig1a.csv").read_text().splitlines()[1]
    fields = row.split(",")
    assert fields[4] == "" and fields[5] == ""


def test_multi_series_preset_writes_one_csv_per_beta(tmp_path):
    rc = main(["figure", "fig5", "--output", str(tmp_path)])
    assert rc == 0
    for name in ("fig5_beta0.csv", "fig5_betapi4.csv", "fig5_betapi2.csv"):
        assert (tmp_path / name).exists()
    manifest = json.loads((tmp_path / "fig5.manifest.json").read_text())
    assert len(manifest["outputs"]) == 3


def test_run_config_matches_figure_preset(tmp_path):
    cfg = _write(tmp_path, "unmit.cfg", UNMITIGATED_CFG)
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path)]) == 0
    assert main(["figure", "figA1", "--output", str(tmp_path)]) == 0
    run_rows = (tmp_path / "unmit.csv").read_text()
    fig_rows = (tmp_path / "figA1.csv").read_text()
    assert run_rows == fig_rows


def test_run_unknown_figure_and_bad_config_exit_nonzero(tmp_path, capsys):
    assert main(["figure", "nope", "--output", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err
    bad = _write(tmp_path, "bad.cfg", "hardware = digital\nnoise_lx = abc\n")
    assert main(["run", "--config", str(bad), "--output", str(tmp_path)]) == 2
    assert "noise_lx" in capsys.readouterr().err
    fractional = _write(tmp_path, "fractional.cfg", "hardware = digital\nsteps = 1.5\n")
    assert main(["run", "--config", str(fractional), "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: steps: expected an integer, got '1.5'\n"
    negative_seed = _write(tmp_path, "neg.cfg", "hardware = digital\nseed = -1\n")
    for argv in (
        ["run", "--config", str(negative_seed), "--samples", "8"],
        ["run", "--config", str(negative_seed)],
        ["figure", "fig5", "--seed", "-1"],
    ):
        assert main(argv + ["--output", str(tmp_path)]) == 2, argv
        assert capsys.readouterr().err.startswith("error: seed: must be >= 0"), argv
    assert not list(tmp_path.glob("*.csv"))


def test_csv_uses_twelve_significant_digits(tmp_path):
    main(["figure", "fig1a", "--samples", "0", "--output", str(tmp_path)])
    row1 = (tmp_path / "fig1a.csv").read_text().splitlines()[2]  # step 1
    ideal = row1.split(",")[2]
    assert ideal == format(0.7701511529340699, ".12g")


def test_diagnose_reports_overhead(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "fig1a.cfg",
        "hardware = digital\nmitigation = exact\n"
        "noise_lx = 0.05\nnoise_ly = 0.05\nnoise_lz = 0.05\n",
    )
    assert main(["diagnose", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "per-step overhead factor = 1.375" in out
    assert "||[L_target, L_unitary]||" in out


def test_diagnose_commuting_case(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "fig5pi2.cfg",
        "hardware = digital\nmitigation = exact\nbeta = 1.5707963267948966\n"
        "noise_lx = 0.16\nnoise_ly = 0.12\nnoise_lz = 0.2\n"
        "target_gx = 0.3\n",
    )
    assert main(["diagnose", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    one_step = [l for l in out.splitlines() if l.startswith("one-step map error")][0]
    assert float(one_step.split("=")[1]) < 1e-12
    comm = [l for l in out.splitlines() if l.startswith("||[L_target, L_unitary]||")][0]
    assert float(comm.split("=")[1]) < 1e-13


@pytest.mark.parametrize("lam", ["0.05", "0.3"])
def test_open_exact_runs_on_a_channel_without_rates(tmp_path, capsys, lam):
    # noise_lz = 0: no nonnegative rates give this channel, and at 0.3 it
    # has no real logarithm either
    cfg = _write(tmp_path, "open.cfg",
                 f"hardware = digital\nnoise_lx = {lam}\nnoise_ly = {lam}\n"
                 "target_gx = 0.3\nsteps = 4\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--samples", "256", "--output", str(out)]) == 0
    assert len((out / "open.csv").read_text().splitlines()) == 6
    if lam == "0.05":
        assert main(["diagnose", "--config", str(cfg)]) == 0


def test_diagnose_refuses_a_channel_without_real_logarithm(tmp_path, capsys):
    cfg = _write(tmp_path, "neg.cfg",
                 "hardware = digital\nnoise_lx = 0.3\nnoise_ly = 0.3\ntarget_gx = 0.3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagnose", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: channel with transfer eigenvalues ")
    assert captured.err.rstrip().endswith("has no real logarithm")
    assert "nan" not in captured.err


def test_diagnose_refuses_an_overflowing_config(tmp_path, capsys):
    cfg = _write(tmp_path, "big.cfg", "hardware = digital\nnoise_lx = 0.05\nomega = 1e200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["diagnose", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: omega * dt: the rotation angle 2|omega| dt = 1e+200 ")


@pytest.mark.parametrize("device", ["hardware = digital\nnoise_lx = 0.05", "hardware = analog\nnoise_kx = 0.1"],
                         ids=["digital", "analog"])
def test_run_on_an_overflowing_config_exits_without_a_warning(device, tmp_path, capsys):
    cfg = _write(tmp_path, "big.cfg", device + "\nomega = 1e200\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before expm can overflow
        assert main(["run", "--config", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: omega * dt: the rotation angle ")
    assert not out.exists()


# a per-step rotation angle 2|omega| dt of 2e16: no digit of it is right
_HUGE_ANGLE = "hardware = digital\nnoise_lx = 0.05\nmitigation = none\nsteps = 3\n"


@pytest.mark.parametrize("command", ["run", "diagnose"])
def test_a_rotation_angle_past_the_bound_exits_2(command, tmp_path, capsys):
    cfg = _write(tmp_path, "spin.cfg", _HUGE_ANGLE + "omega = 1e8\ndt = 1e8\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", str(cfg)] + ["--output", str(out)] * (command == "run")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: omega * dt: the rotation angle 2|omega| dt = 2e+16 per step exceeds 1e+08, "
        "past which its float exponential is no rotation; use a smaller dt\n"
    )
    assert not out.exists()


def test_a_rotation_angle_just_under_the_bound_runs(tmp_path, capsys):
    cfg = _write(tmp_path, "spin.cfg", _HUGE_ANGLE + "omega = 4.9e7\ndt = 1\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", str(cfg), "--samples", "100", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [row.split(",") for row in (out / "spin.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4
    ideal = [float(row[2]) for row in rows]
    assert all(0.0 <= p <= 1.0 for p in ideal)


@pytest.mark.parametrize(
    "hardware, device", [("digital", PauliChannelParams()), ("analog", PauliRates())]
)
def test_config_defaults_are_the_scenario_config_defaults(hardware, device):
    assert config_from_values({"hardware": hardware}) == ScenarioConfig(
        hardware=hardware, device=device
    )


def test_manifest_config_echo_round_trips_every_preset():
    for p in PRESETS.values():
        for _, cfg in p.series:
            echo = {k: str(v) for k, v in config_echo(cfg).items()}
            assert config_from_values(echo) == cfg


def test_load_config_from_file(tmp_path):
    cfg = load_config(_write(tmp_path, "c.cfg", UNMITIGATED_CFG))
    assert cfg.steps == 20 and cfg.samples == 0


def test_worker_env_var_does_not_change_csv(tmp_path, monkeypatch):
    import pecstep.sampling as sampling

    monkeypatch.setattr(sampling, "CHUNK", 500)  # force several chunks
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    monkeypatch.setenv("PECSTEP_WORKERS", "1")
    main(["figure", "fig1a", "--samples", "2000", "--output", str(serial)])
    monkeypatch.setenv("PECSTEP_WORKERS", "3")
    main(["figure", "fig1a", "--samples", "2000", "--output", str(parallel)])
    assert (serial / "fig1a.csv").read_bytes() == (parallel / "fig1a.csv").read_bytes()



def test_one_shared_pool_per_invocation_keeps_every_csv(tmp_path, monkeypatch):
    import pecstep.sampling as sampling

    starts = []
    executor = sampling.ProcessPoolExecutor

    def counting_executor(*args, **kwargs):
        starts.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(sampling, "ProcessPoolExecutor", counting_executor)
    monkeypatch.setattr(sampling, "CHUNK", 700)  # three chunks per series
    argv = ["figure", "fig8", "--samples", "2000", "--seed", "4", "--output"]
    monkeypatch.setenv("PECSTEP_WORKERS", "1")
    assert main(argv + [str(tmp_path / "serial")]) == 0
    assert starts == []
    monkeypatch.setenv("PECSTEP_WORKERS", "3")
    assert main(argv + [str(tmp_path / "parallel")]) == 0
    assert starts == [{"max_workers": 3}]  # one pool for the three series
    names = sorted(p.name for p in (tmp_path / "serial").glob("*.csv"))
    assert names == ["fig8_beta0.csv", "fig8_betapi2.csv", "fig8_betapi4.csv"]
    for name in names:
        serial = (tmp_path / "serial" / name).read_bytes()
        assert serial == (tmp_path / "parallel" / name).read_bytes(), name


@pytest.mark.parametrize("pid", sorted(PRESETS))
def test_every_preset_starts_one_pool_at_two_workers(tmp_path, monkeypatch, pid):
    # 140000 samples are three chunks: each preset's series run as one
    # stacked ensemble, so the invocation starts one pool of two processes
    import pecstep.sampling as sampling

    starts = []
    executor = sampling.ProcessPoolExecutor

    def counting_executor(*args, **kwargs):
        starts.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(sampling, "ProcessPoolExecutor", counting_executor)
    monkeypatch.setenv("PECSTEP_WORKERS", "2")
    assert main(["figure", pid, "--samples", "140000", "--output", str(tmp_path)]) == 0
    assert starts == [{"max_workers": 2}]


def test_figure_writes_what_a_run_of_each_series_config_writes(tmp_path, monkeypatch):
    # the figure's three series share one draw per chunk; each CSV must equal
    # a run of that series alone, from the config its manifest echoes
    import pecstep.sampling as sampling

    monkeypatch.setattr(sampling, "CHUNK", 700)  # three chunks per series
    monkeypatch.setenv("PECSTEP_WORKERS", "2")
    figure = tmp_path / "figure"
    argv = ["figure", "fig8", "--samples", "2000", "--seed", "4", "--output", str(figure)]
    assert main(argv) == 0
    manifest = json.loads((figure / "fig8.manifest.json").read_text())
    monkeypatch.setenv("PECSTEP_WORKERS", "1")
    for echo in manifest["configs"]:
        name = f"fig8_{echo.pop('series')}"
        text = "".join(f"{key} = {value}\n" for key, value in echo.items())
        cfg = _write(tmp_path, f"{name}.cfg", text)
        assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "runs")]) == 0
        assert (tmp_path / "runs" / f"{name}.csv").read_bytes() == (
            figure / f"{name}.csv"
        ).read_bytes(), name


# depolarizing 0.05 per Pauli at dt = 0.5: gamma = 1.375, so gamma^n leaves
# the float range past n ~ 2228 (and gamma^2n past n ~ 1114)
HEAVY_CFG = """\
hardware = digital
mitigation = exact
noise_lx = 0.05
noise_ly = 0.05
noise_lz = 0.05
dt = 0.5
"""


def test_long_run_keeps_monte_carlo_columns_finite(tmp_path):
    cfg = _write(tmp_path, "heavy.cfg", HEAVY_CFG + "steps = 2000\n")
    args = ["run", "--config", str(cfg), "--samples", "256", "--seed", "1"]
    assert main(args + ["--output", str(tmp_path)]) == 0
    rows = (tmp_path / "heavy.csv").read_text().splitlines()[1:]
    assert len(rows) == 2001
    for row in rows:
        mc_mean, mc_stderr = row.split(",")[4:6]
        assert mc_mean and mc_stderr
        assert math.isfinite(float(mc_mean)) and math.isfinite(float(mc_stderr))


def test_weight_overflow_exits_with_message(tmp_path, capsys):
    cfg = _write(tmp_path, "heavy.cfg", HEAVY_CFG + "steps = 2300\n")
    args = ["run", "--config", str(cfg), "--samples", "256", "--seed", "1"]
    assert main(args + ["--output", str(tmp_path)]) == 2
    assert "overflows" in capsys.readouterr().err
    assert not (tmp_path / "heavy.csv").exists()


LINEAR_INVERSE_CFG = """\
# per-step amplitude e^{-0.2} / 0.8 > 1: the mitigated state grows without bound
hardware = analog
mitigation = linear-inverse
noise_kx = 0.1
noise_ky = 0.1
noise_kz = 0.1
"""


def test_overflowing_reference_exits_with_message(tmp_path, capsys):
    cfg = _write(tmp_path, "blowup.cfg", LINEAR_INVERSE_CFG + "steps = 40000\n")
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: reference: approx-analog overflows the float range at step ")
    assert not (tmp_path / "blowup.csv").exists()


def test_infinite_ideal_exits_with_message(tmp_path, capsys):
    cfg = _write(tmp_path, "blowup.cfg", LINEAR_INVERSE_CFG + "steps = 30700\nreference = none\n")
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ideal: inf at step ")
    assert not (tmp_path / "blowup.csv").exists()


def test_unphysical_linear_inverse_step_names_analog_keys(tmp_path, capsys):
    text = "hardware = analog\nmitigation = linear-inverse\nnoise_kx = 1\nnoise_ky = 1\nnoise_kz = 1\n"
    cfg = _write(tmp_path, "unphysical.cfg", text)
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: (noise_kx + noise_ky + noise_kz) * dt = 1.5 > 1: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg_text, samples", [
    (HEAVY_CFG + "steps = 2300\n", "256"),  # fails in simulate
    (LINEAR_INVERSE_CFG + "steps = 30700\nreference = none\n", "0"),  # fails in write_csv
], ids=["simulate", "write_csv"])
def test_failed_run_leaves_no_output_directory(tmp_path, capsys, cfg_text, samples):
    cfg = _write(tmp_path, "blowup.cfg", cfg_text)
    args = ["run", "--config", str(cfg), "--samples", samples, "--seed", "1", "--output"]
    assert main(args + [str(tmp_path / "new" / "out")]) == 2
    assert not (tmp_path / "new").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert main(args + [str(existing / "out")]) == 2
    assert existing.is_dir() and not any(existing.iterdir())
    assert capsys.readouterr().err.count("error: ") == 2


def test_a_nan_in_a_later_series_leaves_no_file_and_no_directory(tmp_path, capsys, monkeypatch):
    simulate = cli.simulate

    def simulate_with_nan_in_third_series(configs, workers=1):
        results = simulate(configs, workers=workers)
        series = results[2]
        ideal = series.ideal.copy()
        ideal[1] = np.nan
        results[2] = replace(series, ideal=ideal)
        return results

    monkeypatch.setattr(cli, "simulate", simulate_with_nan_in_third_series)
    args = ["figure", "fig5", "--samples", "0", "--svg", "--output"]
    assert main(args + [str(tmp_path / "new" / "out")]) == 2
    assert not (tmp_path / "new").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert main(args + [str(existing)]) == 2
    assert not any(existing.iterdir())
    err = capsys.readouterr().err
    assert err.count("error: ideal: NaN at step 1 ") == 2 and "fig5_betapi2.csv" in err


def test_a_failed_write_removes_the_files_of_its_run(tmp_path, capsys):
    # the CSV is written, then the SVG's path turns out to be a directory
    out = tmp_path / "pd"
    (out / "fig1a.svg").mkdir(parents=True)
    assert main(["figure", "fig1a", "--samples", "0", "--svg", "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: [Errno 21] Is a directory: ") and captured.out == ""
    assert [p.name for p in out.iterdir()] == ["fig1a.svg"]
    assert (out / "fig1a.svg").is_dir() and not any((out / "fig1a.svg").iterdir())


def test_a_failed_write_into_a_new_directory_leaves_no_directory(tmp_path, capsys, monkeypatch):
    svg_write = cli.svg.write

    def svg_write_until_the_disk_is_full(path, title, series):
        if path.name == "fig5_betapi2.svg":  # the last SVG, of which part is written
            path.write_text("<svg")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        svg_write(path, title, series)

    monkeypatch.setattr(cli.svg, "write", svg_write_until_the_disk_is_full)
    args = ["figure", "fig5", "--samples", "0", "--svg", "--output"]
    assert main(args + [str(tmp_path / "new" / "out")]) == 2
    assert not (tmp_path / "new").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "notes.txt").write_text("kept\n")
    assert main(args + [str(existing)]) == 2
    assert [p.name for p in existing.iterdir()] == ["notes.txt"]
    assert capsys.readouterr().err.count("error: [Errno 28] ") == 2


def _spanning_the_float_range(series):
    """The series with its ideal column at -1e308 and 1e308: every value
    finite, their padded span not."""
    ideal = series.ideal.copy()
    ideal[1], ideal[2] = -1e308, 1e308
    return replace(series, ideal=ideal)


def test_svg_refuses_a_chart_range_wider_than_the_float_range(tmp_path):
    [series] = cli.simulate([ScenarioConfig("digital", PauliChannelParams())])
    wide = _spanning_the_float_range(series)
    cli.write_csv(tmp_path / "wide.csv", wide)  # the CSV itself is finite
    with pytest.raises(ValueError, match="^wide: the chart's y-range .* is wider than the float range"):
        cli.svg.render("wide", wide)
    with pytest.raises(ValueError):
        cli.svg.write(tmp_path / "wide.svg", "wide", wide)
    assert not (tmp_path / "wide.svg").exists()


def test_run_svg_on_a_chart_range_wider_than_the_float_range_leaves_no_directory(
    tmp_path, capsys, monkeypatch
):
    simulate = cli.simulate
    monkeypatch.setattr(cli, "simulate", lambda configs, workers=1: [
        _spanning_the_float_range(series) for series in simulate(configs, workers)])
    config = tmp_path / "wide.cfg"
    config.write_text("hardware = digital\nnoise_lx = 0.05\n")
    args = ["run", "--config", str(config), "--output", str(tmp_path / "out")]
    assert main(args + ["--svg"]) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err.startswith("error: wide: the chart's y-range ")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0  # without --svg the same series writes its CSV


# series whose chart's y-span is nonzero but below the float spacing at 1:
# the tick step adds nothing to a tick near 1
_FLAT_SERIES = {
    "digital": "hardware = digital\nnoise_ly = 0.0467\nomega = 0\nsteps = 2\ndt = 0.43\n",
    "analog": "hardware = analog\nnoise_kx = 0.9\ndt = 1e-16\nsteps = 1\n",
}


@pytest.mark.parametrize("hardware", sorted(_FLAT_SERIES))
def test_run_svg_on_a_y_span_below_the_float_spacing_ends(tmp_path, hardware):
    config = _write(tmp_path, "flat.cfg", _FLAT_SERIES[hardware])
    with time_limit(10), contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--svg", "--output", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "flat.svg").read_text().startswith("<svg")


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_csv_writer_refuses_infinity(tmp_path, value):
    [series] = cli.simulate([ScenarioConfig("digital", PauliChannelParams())])
    fidelity = series.fidelity.copy()
    fidelity[3] = value
    path = tmp_path / "inf.csv"
    with pytest.raises(ValueError, match=f"^fidelity: {value:g} at step 3 "):
        cli.write_csv(path, replace(series, fidelity=fidelity))
    assert not path.exists()


@pytest.mark.parametrize(
    "hardware, device_key, kind",
    [("digital", "noise_lx", "approx-analog"), ("analog", "noise_kx", "approx-digital")],
)
def test_reference_kind_on_wrong_hardware_exits(tmp_path, capsys, hardware, device_key, kind):
    cfg = _write(
        tmp_path, "wrong.cfg", f"hardware = {hardware}\n{device_key} = 0.05\nreference = {kind}\n"
    )
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: reference: {kind} needs ")
    assert not (tmp_path / "wrong.csv").exists()


def test_reference_kind_outside_its_regime_exits(tmp_path, capsys):
    # approx-digital is the closed form for uniform channel probabilities;
    # on x noise alone it would print a curve built from noise_lx only
    cfg = _write(
        tmp_path,
        "skewed.cfg",
        "hardware = digital\nmitigation = first-order\nnoise_lx = 0.1\n"
        "reference = approx-digital\nsteps = 3\n",
    )
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: reference: approx-digital needs ")
    assert not (tmp_path / "skewed.csv").exists()


@pytest.mark.parametrize("value", ["-3", "0", "abc", ""])
def test_bad_worker_count_exits_naming_the_variable(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("PECSTEP_WORKERS", value)
    out = tmp_path / "out"
    assert main(["figure", "fig1a", "--samples", "10", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: PECSTEP_WORKERS: ")
    assert not (out / "fig1a.csv").exists()


def test_unset_worker_count_uses_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.delenv("PECSTEP_WORKERS", raising=False)
    assert cli._workers() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._workers() == 1
    monkeypatch.setenv("PECSTEP_WORKERS", "1")
    assert cli._workers() == 1


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_runs_without_scipy(tmp_path):
    # the library needs numpy alone: a process in which scipy cannot be
    # imported writes the same CSV as this one
    argv = ["figure", "fig1a", "--samples", "2000", "--seed", "7", "--output"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + [str(tmp_path / "here")]) == 0
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "from pecstep import cli; raise SystemExit(cli.main(sys.argv[1:]))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run(
        [sys.executable, "-c", code, *argv, str(tmp_path / "alone")],
        env=env, check=True, capture_output=True,
    )
    here = (tmp_path / "here" / "fig1a.csv").read_bytes()
    assert (tmp_path / "alone" / "fig1a.csv").read_bytes() == here


def test_allocation_failure_exits_with_message(tmp_path, capsys, monkeypatch):
    def simulate_out_of_memory(configs, workers=1):
        raise MemoryError("Unable to allocate 2.91 TiB for an array")

    monkeypatch.setattr(cli, "simulate", simulate_out_of_memory)
    cfg = _write(tmp_path, "huge.cfg", "hardware = digital\nsteps = 100000000000\n")
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert "error: Unable to allocate" in capsys.readouterr().err
    assert not (tmp_path / "huge.csv").exists()


@pytest.mark.parametrize(
    "hardware, key, value",
    [("digital", "omega", "nan"), ("analog", "noise_kx", "inf"), ("digital", "dt", "inf")],
)
def test_non_finite_config_value_exits_naming_key(tmp_path, capsys, hardware, key, value):
    cfg = _write(tmp_path, "bad.cfg", f"hardware = {hardware}\nsteps = 3\n{key} = {value}\n")
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert f"{key}:" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize(
    "column, extra, samples, code",
    [
        ("ideal", "", "0", 2),
        ("fidelity", "", "0", 2),
        ("reference", "", "0", 2),  # auto picks unmitigated-digital
        ("mc_mean", "", "64", 2),
        ("mc_stderr", "", "64", 2),
        ("reference", "reference = none\n", "0", 0),
        ("mc_mean", "", "0", 0),
    ],
)
def test_csv_writer_refuses_nan_in_defined_column(
    tmp_path, capsys, monkeypatch, column, extra, samples, code
):
    simulate = cli.simulate

    def simulate_with_nan(configs, workers=1):
        [series] = simulate(configs, workers=workers)
        values = getattr(series, column)
        if values is None:  # the config does not define the column
            return [series]
        values = values.copy()
        values[2] = np.nan
        return [replace(series, **{column: values})]

    monkeypatch.setattr(cli, "simulate", simulate_with_nan)
    cfg = _write(tmp_path, "unmit.cfg", UNMITIGATED_CFG + extra + "steps = 4\n")
    args = ["run", "--config", str(cfg), "--samples", samples, "--output", str(tmp_path)]
    assert main(args) == code
    csv = tmp_path / "unmit.csv"
    if code == 2:
        assert f"{column}: NaN at step 2" in capsys.readouterr().err
        assert not csv.exists()
    else:
        row = csv.read_text().splitlines()[3].split(",")
        assert row[0] == "2" and row[CSV_HEADER.split(",").index(column)] == ""
