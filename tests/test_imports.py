"""phaseproj does not import scipy, at import time or later, and keeps
its one thread pool in kernels.

Every command-line run is a fresh process; scipy.stats alone takes about
a second and 70 MB to import, and the package needs numpy only.

The only pool is the executor that fills the sinc-profile tables
(kernels._periodized_sinc_power): only kernels may import
concurrent.futures, and no module threading or multiprocessing.  Every
other job runs on the calling thread.  A pool comes back elsewhere only
with a measured gain: each one brings threads, shared buffers and error
paths that the tests must cover.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import phaseproj

PACKAGE = pathlib.Path(phaseproj.__file__).parent

PROBE = """
import importlib, json, pkgutil, sys
import phaseproj
names = [info.name for info in pkgutil.iter_modules(phaseproj.__path__)]
for name in names:
    importlib.import_module("phaseproj." + name)
from phaseproj import cli
try:
    cli.main(["--help"])
except SystemExit:
    pass
print(json.dumps({"imported": names, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_fresh_interpreter_imports_no_scipy():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result["imported"]) == sorted(
        p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    assert result["scipy"] == []


def imported_modules():
    """(file name, module) of every import statement in the package,
    lazy ones inside functions too."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                found.append((path.name, node.module or ""))
    return found


def test_no_source_file_imports_scipy():
    # a lazy import inside a function escapes the fresh-interpreter probe
    assert [(name, m) for name, m in imported_modules() if m.split(".")[0] == "scipy"] == []


def test_only_kernels_imports_a_pool():
    found = [(name, m) for name, m in imported_modules()
             if m.split(".")[0] in ("concurrent", "threading", "multiprocessing")]
    assert found == [("kernels.py", "concurrent.futures")]
