"""phaseproj does not import scipy, at import time or later, and runs
on the calling thread.

Every command-line run is a fresh process; scipy.stats alone takes about
a second and 70 MB to import, and the package needs numpy only.

No module imports concurrent, threading or multiprocessing, and building
a dictionary starts no thread.  A pool comes back only with a measured
gain: each one brings threads, shared buffers and error paths that the
tests must cover.
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


THREAD_PROBE = """
import json, threading
from phaseproj.grid import TorusGrid
from phaseproj.kernels import DictionarySpec, build_dictionary
before = [t.name for t in threading.enumerate()]
build_dictionary(TorusGrid(1, 8.0, 1 << 14), -3, 8.0, "phi", DictionarySpec())
print(json.dumps({"before": before, "after": [t.name for t in threading.enumerate()]}))
"""


def fresh_run(probe):
    """The JSON that `probe` prints last, run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_fresh_interpreter_imports_no_scipy():
    result = fresh_run(PROBE)
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


def test_no_module_imports_a_pool():
    found = [(name, m) for name, m in imported_modules()
             if m.split(".")[0] in ("concurrent", "threading", "multiprocessing")]
    assert found == []


def test_dictionary_build_starts_no_thread():
    # in a fresh interpreter, so that no thread an earlier test started
    # hides one that the build starts
    result = fresh_run(THREAD_PROBE)
    assert result["after"] == result["before"]
