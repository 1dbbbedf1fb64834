"""The scripts under scripts/, each run as its own process on the source tree."""

import json
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


def test_kernel_stages_prints_one_row_per_sub_block(tmp_path):
    proc = _script(tmp_path, "kernel_stages.py", "--rows", "200", "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(" | ") for line in proc.stdout.splitlines()[2:]]
    names = [r[0].lstrip("| ") for r in rows]
    assert names == ["fig1a", "fig8 beta0", "fig8 betapi4", "fig8 betapi2", "long_horizon"]
    assert [r[1] for r in rows] == ["200 x 20"] * 4 + ["200 x 2000"]
    for r in rows:
        assert all(float(cell.split()[0]) > 0 for cell in r[2:5])  # ms of draw, codes, leaf


def _runs(path, workload, walls, rss):
    lines = [
        json.dumps({"workload": workload, "seed": seed, "seconds": 24, "trace": 0, "rounds": 9,
                    "correct": True, "attempted": 10, "failed": 0,
                    "metrics": {"wall_s": {"value": w, "unit": "s"},
                                "peak_rss_mb": {"value": rss, "unit": "MB"}}})
        for seed, w in enumerate(walls, start=1)
    ]
    path.write_text("\n".join(lines) + "\n")


def test_bench_record_summarises_both_sides_and_counts_paired_wins(tmp_path):
    _runs(tmp_path / "parent.jsonl", "fig1a", [1.0, 1.2, 1.1, 1.3, 0.9], 80.0)
    _runs(tmp_path / "change.jsonl", "fig1a", [0.8, 0.9, 1.2, 0.7, 0.8], 75.0)
    out = tmp_path / "BENCH.json"
    proc = _script(tmp_path, "bench_record.py", "parent.jsonl", "change.jsonl",
                   "--parent-commit", "aaa", "--change-commit", "bbb", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    assert rec["parent"] == {"commit": "aaa", "runs": 5}
    assert rec["change"] == {"commit": "bbb", "runs": 5}
    assert rec["machine"]["nproc"] >= 1 and rec["machine"]["numpy"]
    assert "OPENBLAS_NUM_THREADS" in rec["machine"]["blas_thread_variables"]
    wall = rec["workloads"]["fig1a"]["wall_s"]
    assert wall["parent"]["median"] == 1.1 and wall["change"]["median"] == 0.8
    assert wall["parent"]["n"] == wall["change"]["n"] == 5
    assert wall["parent"]["q1"] <= 1.1 <= wall["parent"]["q3"]
    assert (wall["pairs"], wall["wins"]) == (5, 4)  # seed 3: 1.2 against 1.1 loses
    assert rec["workloads"]["fig1a"]["peak_rss_mb"]["wins"] == 5
