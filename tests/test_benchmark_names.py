"""Every phaseproj name that the benchmark in perfbench/ binds still resolves.

The benchmark traces, imports and monkeypatches package functions by
name, and it runs outside this suite: without these checks a rename or a
deletion passes tier-1 and then breaks every benchmark run.  The tests
read perfbench/ and change nothing in it.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

from phaseproj import acceptance

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """A perfbench module loaded from its file under a private name."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def phaseproj_references(path):
    """(module, name) of each phaseproj name a file imports or reads: the
    x of `from phaseproj.m import x`, and the x of `m.x` where m is bound
    by `from phaseproj import m` or `import phaseproj`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "phaseproj":
            for alias in node.names:
                if node.module == "phaseproj":
                    modules[alias.asname or alias.name] = f"phaseproj.{alias.name}"
                else:
                    refs.append((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "phaseproj":
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.append((modules[node.value.id], node.attr))
    return refs


def test_traced_names_resolve():
    tracer = _load("tracer")
    for module, name in [*tracer.FUNCTIONS, tracer.DICTIONARY]:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)
    for module, cls, name in [*tracer.METHODS, *tracer.COUNTED_METHODS]:
        owner = getattr(importlib.import_module(module), cls)
        assert callable(getattr(owner, name)), (module, cls, name)


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_imported_and_read_names_resolve(path):
    for module, name in phaseproj_references(path):
        assert hasattr(importlib.import_module(module), name), (path.name, module, name)


def test_workload_names_are_seen():
    # the scan above reaches the names the workloads call and patch
    refs = set(phaseproj_references(PERFBENCH / "workloads.py"))
    assert {("phaseproj.cubes", "expand_to_tree"), ("phaseproj.acceptance", "run"),
            ("phaseproj.harness", "generate_tree"), ("phaseproj.harness", "run"),
            ("phaseproj.acceptance", "run_sweep_artifacts")} <= refs


def test_sweep_calls_the_patched_run():
    # the sweep workload records each config by replacing acceptance.run,
    # which run_sweep_artifacts must look up as a module global
    assert "run" in acceptance.run_sweep_artifacts.__code__.co_names
