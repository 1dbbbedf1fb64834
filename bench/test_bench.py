"""Tests of the benchmark itself: its checks catch corrupted outputs, the
program's CSVs do not depend on the worker count, and every workload
passes its statistical checks on several seeds (at reduced sizes)."""

import numpy as np
import pytest

from bench import checks, workloads
from pecstep import cli, sampling, scenarios

FIG1A = dict(workloads.PRESET_SERIES["fig1a"][0][1], samples=20_000, seed=5)


@pytest.fixture(scope="module")
def fig1a_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1a")
    code, _ = workloads.cli_call(["figure", "fig1a", "--samples", "20000", "--seed", "5",
                                  "--output", str(out)])
    assert code == 0
    return (out / "fig1a.csv").read_text().splitlines()


def _check(lines, tmp_path, cfg=FIG1A):
    path = tmp_path / "x.csv"
    path.write_text("\n".join(lines) + "\n")
    try:
        cols = checks.read_csv(path)
    except ValueError as exc:
        return [str(exc)]
    return checks.check_series(cols, cfg)


def _edit(lines, step, column, change):
    rows = [line.split(",") for line in lines]
    j = checks.COLUMNS.index(column)
    row = rows[step + 1]
    row[j] = change(row)
    return [",".join(r) for r in rows]


def test_program_output_passes(fig1a_csv, tmp_path):
    assert _check(fig1a_csv, tmp_path) == []


@pytest.mark.parametrize("column", ["ideal", "reference", "fidelity"])
def test_value_shifted_by_1e8_fails(fig1a_csv, tmp_path, column):
    j = checks.COLUMNS.index(column)
    bad = _edit(fig1a_csv, 7, column, lambda row: repr(float(row[j]) + 1e-8))
    assert _check(bad, tmp_path)


def test_mc_mean_moved_8_sigma_fails(fig1a_csv, tmp_path):
    j, k = checks.COLUMNS.index("mc_mean"), checks.COLUMNS.index("mc_stderr")
    bad = _edit(fig1a_csv, 9, "mc_mean",
                lambda row: repr(float(row[j]) + 8.0 * float(row[k])))
    assert any("sigma" in f for f in _check(bad, tmp_path))


def test_mc_stderr_above_gamma_bound_fails(fig1a_csv, tmp_path):
    gamma = checks.expected(FIG1A).gamma
    bound = gamma**4 / np.sqrt(FIG1A["samples"] - 1)
    bad = _edit(fig1a_csv, 4, "mc_stderr", lambda row: repr(float(1.01 * bound)))
    assert any("mc_stderr" in f for f in _check(bad, tmp_path))


def test_mc_stderr_halved_fails(fig1a_csv, tmp_path):
    k = checks.COLUMNS.index("mc_stderr")
    rows = [line.split(",") for line in fig1a_csv]
    for row in rows[1:]:
        row[k] = repr(0.5 * float(row[k]))
    assert any("mc_stderr" in f for f in _check([",".join(r) for r in rows], tmp_path))


@pytest.mark.parametrize("column", checks.COLUMNS[1:])
def test_empty_field_fails(fig1a_csv, tmp_path, column):
    assert _check(_edit(fig1a_csv, 5, column, lambda row: ""), tmp_path)


def test_filled_field_where_undefined_fails(fig1a_csv, tmp_path):
    analytic = dict(FIG1A, samples=0)
    assert _check(fig1a_csv, tmp_path, analytic)


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_wrong_row_count_fails(fig1a_csv, tmp_path, change):
    lines = fig1a_csv[:-1] if change == "drop" else fig1a_csv + fig1a_csv[-1:]
    assert any("rows" in f for f in _check(lines, tmp_path))


def test_short_row_fails(fig1a_csv, tmp_path):
    lines = list(fig1a_csv)
    lines[3] = lines[3].rsplit(",", 1)[0]
    assert _check(lines, tmp_path)


@pytest.fixture(scope="module")
def trajectory(tmp_path_factory):
    cfg = dict(workloads.PRESET_SERIES["fig2b"][0][1], steps=12)
    path = tmp_path_factory.mktemp("traj") / "t.cfg"
    path.write_text(checks.config_text(cfg))
    traj = sampling.run_trajectory(scenarios.build_scenario(cli.load_config(path)), 3, 17)
    return traj, checks.expected(cfg).gamma, cfg["steps"]


def test_replay_passes(trajectory):
    traj, gamma, steps = trajectory
    assert checks.check_trajectory(traj.states, traj.weights, gamma, steps) == []


@pytest.mark.parametrize("corrupt", ["weight", "hermitian", "trace", "negative"])
def test_corrupted_replay_fails(trajectory, corrupt):
    traj, gamma, steps = trajectory
    states, weights = traj.states.copy(), traj.weights.copy()
    if corrupt == "weight":
        weights[6] *= 1.0 + 1e-9
    elif corrupt == "hermitian":
        states[6, 0, 1] += 1e-9
    elif corrupt == "trace":
        states[6, 0, 0] += 1e-9
    else:  # trace kept, one eigenvalue pushed below zero
        states[6] = np.diag([1.0 + 1e-9, -1e-9])
    assert checks.check_trajectory(states, weights, gamma, steps)


def test_csv_identical_at_one_and_two_workers(tmp_path, monkeypatch):
    """70000 samples are two chunks, so two workers split the ensemble."""
    out = {}
    for workers in (1, 2):
        monkeypatch.setenv("PECSTEP_WORKERS", str(workers))
        code, _ = workloads.cli_call(["figure", "fig1a", "--samples", "70000", "--seed", "11",
                                      "--output", str(tmp_path / str(workers))])
        assert code == 0
        out[workers] = (tmp_path / str(workers) / "fig1a.csv").read_bytes()
    assert out[1] == out[2]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_its_checks(tmp_path, monkeypatch, name, seed):
    workload = workloads.make(name, tmp_path, small=True)
    monkeypatch.setenv("PECSTEP_WORKERS", str(workload.workers))
    workload.prepare(np.random.default_rng(seed))
    ops = 0
    for call, check in workload.operations():
        assert check(call()) == []
        ops += 1
    assert ops > 0
