"""Runtime imports stay numpy-only.

scipy and hypothesis are installed beside the package, for the benchmark's
reference and for the tests, so an import of either on a library path would
go unnoticed without this check.
"""

import json
import os
import subprocess
import sys

import gencheb

_NEW_TOP_LEVEL_MODULES = """
import json, sys
before = set(sys.modules)
import gencheb, gencheb.cli, gencheb.genmat
code = gencheb.cli.main(["example33", "--steps", "5", "--out", sys.argv[1]])
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps([code, sorted(new - set(sys.stdlib_module_names))]))
"""


def _last_line_of(script, tmp_path):
    """The JSON that `script` prints last, run in a fresh process with the
    package on its path and an output directory as its argument."""
    src = os.path.dirname(os.path.dirname(gencheb.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_library_and_cli_import_only_numpy(tmp_path):
    code, modules = _last_line_of(_NEW_TOP_LEVEL_MODULES, tmp_path)
    assert code == 0
    assert set(modules) == {"gencheb", "numpy"}


_CONCURRENT_FUTURES_LOADED = """
import dataclasses, json, sys
loaded = lambda: "concurrent.futures" in sys.modules
import gencheb, gencheb.cli
seen = [loaded()]
for argv in (["example33", "--steps", "5"], ["normal-sparse", "--n", "60", "--block", "12"]):
    assert gencheb.cli.main([*argv, "--out", sys.argv[1]]) == 0
    seen.append(loaded())
from gencheb import solvers
from gencheb.genmat import NormalMatrixSpec, assemble_normal_system
system = assemble_normal_system(NormalMatrixSpec(n=60, block_size=12, seed=1)).system
solvers._OVERLAP_MIN_NNZ = 0
solvers.run(dataclasses.replace(system, k=3), "generalized", steps=4)
seen.append(loaded())
print(json.dumps(seen))
"""


def test_only_a_run_that_overlaps_imports_concurrent_futures(tmp_path):
    # the executor's import is deferred to the run that makes it: not the
    # package's import, example33, nor a run below the thread floor
    assert _last_line_of(_CONCURRENT_FUTURES_LOADED, tmp_path) == [False, False, False, True]
