"""Spans around the program's layer boundaries, recorded from outside.

`Tracer.installed()` replaces each traced function at every name the
program looks it up under (a module that did `from .linalg import expm`
holds its own reference), and puts the originals back on exit.  Spans are
kept in memory as [name, parent, start, end, work] and written out by the
caller when the run ends.
"""

import contextlib
import importlib
import time
import tracemalloc

# (module, attribute, span name, work done per call as a function of the
# call's arguments, or None)
TARGETS = (
    ("pecstep.cli", "main", "cli.main", None),
    ("pecstep.cli", "load_config", "cli.load_config", None),
    ("pecstep.cli", "write_csv", "cli.write_csv", None),
    ("pecstep.cli", "simulate", "scenarios.simulate", None),
    ("pecstep.svg", "write", "svg.write", None),
    ("pecstep.scenarios", "build_scenario", "scenarios.build_scenario", None),
    ("pecstep.scenarios", "ideal_evolution", "scenarios.ideal_evolution",
     lambda cfg, *a, **k: cfg.steps),
    ("pecstep.scenarios", "exact_propagate", "generators.exact_propagate", None),
    ("pecstep.generators", "exact_propagate", "generators.exact_propagate", None),
    ("pecstep.scenarios", "expm", "linalg.expm", None),
    ("pecstep.generators", "expm", "linalg.expm", None),
    ("pecstep.linalg", "expm", "linalg.expm", None),
    ("pecstep.sampling", "run_ensemble", "sampling.run_ensemble",
     lambda plan, samples, *a, **k: samples * plan.steps),
    ("pecstep.sampling", "run_trajectory", "sampling.run_trajectory",
     lambda plan, *a, **k: plan.steps),
    ("pecstep.sampling", "ProcessPoolExecutor", "sampling.pool_start", None),
)

NAME, PARENT, START, END, WORK = range(5)


class Tracer:
    def __init__(self, alloc_name=None):
        """`alloc_name`: record the tracemalloc peak (bytes) inside each
        span of this name as its work; tracing is then only for that."""
        self.spans = []
        self._stack = []
        self._alloc_name = alloc_name

    def _wrap(self, name, fn, work):
        alloc = name == self._alloc_name

        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0,
                    work(*args, **kwargs) if work else 0]
            self.spans.append(span)
            self._stack.append(sid)
            if alloc:
                tracemalloc.start()
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                if alloc:
                    span[WORK] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        wrapped = {}
        try:
            for module_name, attr, name, work in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, work)
                saved.append((module, attr, original))
                setattr(module, attr, wrapped[id(original)])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans):
    """Per span name: calls, summed inclusive time, summed self time and
    summed work."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out = {}
    for s, inner in zip(spans, child_time):
        calls, total, own, work = out.get(s[NAME], (0, 0.0, 0.0, 0))
        dur = s[END] - s[START]
        out[s[NAME]] = (calls + 1, total + dur, own + dur - inner, work + s[WORK])
    return out
