"""What an invocation loads: the worker pool's modules and numpy.random are
imported by the first call that uses them, never by start-up.

Each check runs in a fresh interpreter, since this test session has already
imported all of them.  A module that `import numpy` loads by itself (numpy
1.x imports numpy.random eagerly) is not held against the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("concurrent.futures.process", "multiprocessing", "numpy.random")
CFG = "hardware = digital\nnoise_lx = 0.05\nnoise_ly = 0.05\ntarget_gx = 0.1\nsteps = 6\n"

PRELUDE = f"""\
import json, sys
import numpy
DEFERRED = {DEFERRED!r}
BARE = {{m for m in DEFERRED if m in sys.modules}}
seen = {{}}

def loaded(name):
    seen[name] = [m for m in DEFERRED if m in sys.modules and m not in BARE]
"""


def _loaded(tmp_path, code, **env):
    """Run PRELUDE + code in a fresh interpreter from tmp_path, where
    tmp_path/c.cfg holds CFG; return {checkpoint: the DEFERRED modules
    loaded there that a bare `import numpy` does not load}."""
    (tmp_path / "c.cfg").write_text(CFG)
    script = PRELUDE + code + "\nprint(json.dumps(seen))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_start_up_and_unsampled_runs_load_neither_pool_nor_rng(tmp_path):
    seen = _loaded(tmp_path, """
import pecstep, pecstep.cli
loaded("import")
assert pecstep.cli.main(["run", "--config", "c.cfg", "--samples", "0", "--svg", "--output", "out"]) == 0
loaded("run --samples 0 --svg")
assert pecstep.cli.main(["diagnose", "--config", "c.cfg"]) == 0
loaded("diagnose")
""")
    assert seen == {"import": [], "run --samples 0 --svg": [], "diagnose": []}
    assert (tmp_path / "out" / "c.svg").is_file()


def test_a_sampled_run_on_one_worker_loads_the_rng_but_no_pool(tmp_path):
    # 140000 samples are three chunks, which one worker runs in-process
    seen = _loaded(tmp_path, """
import pecstep.cli
assert pecstep.cli.main(["run", "--config", "c.cfg", "--samples", "140000", "--output", "out"]) == 0
loaded("run --samples 140000")
seen["rng"] = "numpy.random" in sys.modules
""", PECSTEP_WORKERS="1")
    assert set(seen["run --samples 140000"]) <= {"numpy.random"}
    assert seen["rng"]


def test_pooled_workers_inherit_the_rng_and_keep_the_statistics(tmp_path):
    # the parent of a pooled run draws nothing itself: run_ensemble must
    # load numpy.random before the pool forks, or every worker loads it
    seen = _loaded(tmp_path, """
import numpy as np
import pecstep.sampling as sampling
from pecstep.cli import load_config
from pecstep.scenarios import build_scenario

executor = sampling.ProcessPoolExecutor
at_start = []

def recording_executor(*args, **kwargs):
    at_start.append("numpy.random" in sys.modules)
    return executor(*args, **kwargs)

sampling.ProcessPoolExecutor = recording_executor
plan = build_scenario(load_config("c.cfg"))
samples = sampling.CHUNK + 1000  # two chunks
pooled = sampling.run_ensemble(plan, samples, seed=5, workers=2)
alone = sampling.run_ensemble(plan, samples, seed=5)
seen["at_start"] = at_start
seen["equal"] = [np.array_equal(pooled.mean, alone.mean), np.array_equal(pooled.std, alone.std)]
""")
    assert seen == {"at_start": [True], "equal": [True, True]}
