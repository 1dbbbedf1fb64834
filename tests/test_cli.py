import json
import math

import pytest

from pecstep.cli import (
    CSV_HEADER,
    ConfigError,
    config_from_values,
    load_config,
    main,
    parse_config_text,
)

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


@pytest.mark.parametrize(
    "hardware, key, value",
    [("digital", "omega", "nan"), ("analog", "noise_kx", "inf"), ("digital", "dt", "inf")],
)
def test_non_finite_config_value_exits_naming_key(tmp_path, capsys, hardware, key, value):
    cfg = _write(tmp_path, "bad.cfg", f"hardware = {hardware}\nsteps = 3\n{key} = {value}\n")
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path)]) == 2
    assert f"{key}:" in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()
