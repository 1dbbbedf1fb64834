"""Golden CSVs and SVGs: each run below is regenerated through `cli.main`
and must match its files in tests/golden/ byte for byte.  The preset
table must match tests/golden/presets.json.

A golden may only be regenerated by a change that says why and tables
every field that moved.  To regenerate all of them:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from pecstep import cli
from pecstep.presets import PRESETS
from pecstep.scenarios import diagnostics

GOLDEN = Path(__file__).parent / "golden"

# (argv without --output, files it writes)
RUNS = {
    "fig1a": (["figure", "fig1a", "--samples", "20000", "--seed", "3", "--svg"],
              ["fig1a.csv", "fig1a.svg"]),
    "fig2b": (["figure", "fig2b", "--samples", "20000", "--seed", "3"], ["fig2b.csv"]),
    "figB1a": (["figure", "figB1a", "--samples", "20000", "--seed", "3"], ["figB1a.csv"]),
    "fig3": (
        ["figure", "fig3", "--samples", "20000", "--seed", "3"],
        ["fig3_beta0.csv", "fig3_betapi4.csv", "fig3_betapi2.csv"],
    ),
    # no reference column, Monte Carlo error bars in the SVG
    "fig8": (
        ["figure", "fig8", "--samples", "20000", "--seed", "3", "--svg"],
        [f"fig8_{beta}.{ext}" for beta in ("beta0", "betapi4", "betapi2") for ext in ("csv", "svg")],
    ),
    # analytic only: the ideal curve and a dashed reference, no error bars or markers
    "fig1b_k8": (["run", "--config", str(GOLDEN / "fig1b_k8.cfg"), "--samples", "0", "--svg"],
                 ["fig1b_k8.csv", "fig1b_k8.svg"]),
    "long_horizon": (
        ["run", "--config", str(GOLDEN / "long_horizon.cfg"), "--samples", "4096", "--seed", "11"],
        ["long_horizon.csv"],
    ),
    # the two reference kinds no run above covers: unmitigated-digital and
    # damped-depolarizing
    "figA1": (["figure", "figA1"], ["figA1.csv"]),
    "damped": (["run", "--config", str(GOLDEN / "damped.cfg"), "--samples", "0"], ["damped.csv"]),
}


def _run(argv, out_dir):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--output", str(out_dir)]) == 0


@pytest.mark.parametrize("run", sorted(RUNS))
def test_csv_matches_golden(run, tmp_path):
    argv, names = RUNS[run]
    _run(argv, tmp_path)
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def _preset_pin() -> list:
    """Every preset, in order: its description, original ensemble size and
    each series' name and config echo."""
    return [{"id": pid, "description": p.description, "full_samples": p.full_samples,
             "series": [{"name": name, "config": cli.config_echo(cfg)} for name, cfg in p.series]}
            for pid, p in PRESETS.items()]


def test_presets_match_pin():
    assert [p.id for p in PRESETS.values()] == list(PRESETS)
    assert _preset_pin() == json.loads((GOLDEN / "presets.json").read_text())


# commutator norms and one-step map error of every preset series, pinned
# at the column-stacked representation; sqrt(2) B is unitary for the Pauli
# basis change B, so the Frobenius norms hold in the Pauli-transfer basis
DIAGNOSTICS = json.loads((GOLDEN / "diagnostics.json").read_text())
_SERIES = [(f"{pid}/{name}" if name else pid, cfg)
           for pid, p in sorted(PRESETS.items()) for name, cfg in p.series]


@pytest.mark.parametrize("key, cfg", _SERIES, ids=[key for key, _ in _SERIES])
def test_diagnostics_match_pin(key, cfg):
    d = diagnostics(cfg)
    for name, value in DIAGNOSTICS[key].items():
        assert d[name] == pytest.approx(value, rel=0, abs=1e-12), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for argv, names in RUNS.values():
            _run(argv, Path(tmp))
            for name in names:
                (GOLDEN / name).write_bytes((Path(tmp) / name).read_bytes())
    (GOLDEN / "presets.json").write_text(json.dumps(_preset_pin(), indent=2) + "\n")
