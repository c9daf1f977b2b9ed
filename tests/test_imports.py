"""phaseproj does not import scipy, at import time or later.

Every command-line run is a fresh process; scipy.stats alone takes about
a second and 70 MB to import, and the package needs numpy only.
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


def test_no_source_file_imports_scipy():
    # a lazy import inside a function escapes the fresh-interpreter probe
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [(path.name, m) for m in modules if m.split(".")[0] == "scipy"]
    assert found == []
