"""The scripts under scripts/, each run as its own process on the source tree."""

import os
import subprocess
import sys
from pathlib import Path

from pecstep.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _script(tmp_path, name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_dt_sweep_writes_one_row_per_dt(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _script(tmp_path, "dt_sweep.py", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "dt,fixed_lambda,scaled_lambda,target"
    assert len(lines) == 7


def test_trotter_scaling_prints_four_slopes(tmp_path):
    proc = _script(tmp_path, "trotter_scaling.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("fitted slope:") == 4


def test_reproduce_figures_matches_pecstep_figure(tmp_path):
    args = ["--samples", "2000", "--seed", "1"]
    proc = _script(tmp_path, "reproduce_figures.py", "--only", "fig1a", "fig5",
                   "--output", "scripts_out", *args)
    assert proc.returncode == 0, proc.stderr
    for pid in ("fig1a", "fig5"):
        assert main(["figure", pid, "--output", str(tmp_path / "cli_out"), *args]) == 0
    expected = sorted(p.name for p in (tmp_path / "cli_out").glob("*.csv"))
    assert len(expected) == 4  # fig1a plus one CSV per beta of fig5
    assert sorted(p.name for p in (tmp_path / "scripts_out").glob("*.csv")) == expected
    for name in expected:
        got = (tmp_path / "scripts_out" / name).read_bytes()
        assert got == (tmp_path / "cli_out" / name).read_bytes(), name


def test_reproduce_figures_unknown_preset_exits_2(tmp_path):
    proc = _script(tmp_path, "reproduce_figures.py", "--only", "fig99")
    assert proc.returncode == 2
    assert "unknown preset 'fig99'" in proc.stderr and "fig1a" in proc.stderr
