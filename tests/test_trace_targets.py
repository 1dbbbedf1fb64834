"""The benchmark's tracer looks up every (module, attribute) in
bench/trace.py's TARGETS with getattr, so a refactor that drops one of
those names breaks `bench/run.py --trace 1`; this test fails first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACE = Path(__file__).resolve().parents[1] / "bench" / "trace.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_trace", _TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in _targets()])
def test_trace_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
