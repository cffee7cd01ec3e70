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


def test_library_and_cli_import_only_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(gencheb.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _NEW_TOP_LEVEL_MODULES, str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert set(modules) == {"gencheb", "numpy"}
