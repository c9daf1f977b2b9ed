"""Every function and class in src/phaseproj has a caller in src/, and
every module-level import there is read by its module.

A definition that only tests reach is dead weight in the package: an
oracle belongs in tests/oracles.py, anything else goes.  The one kept
exception is harness.load_baselines, which shares its file format with
save_baselines and feeds the frozen-baseline gates.  An import that its
module never reads is left over from deleted code.
"""

import ast
import pathlib

import phaseproj

SRC = pathlib.Path(phaseproj.__file__).parent
ALLOWED = {("harness", "load_baselines")}


def definitions_without_callers(src_dir):
    """(module, name) of each non-dunder function or class defined in
    src_dir/*.py whose name is not read anywhere in those files."""
    defined, used = [], set()
    for path in sorted(src_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((path.stem, node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted({d for d in defined if d[1] not in used})


def unused_imports(src_dir):
    """(module, name) of each name bound by a module-level import in
    src_dir/*.py that its module never reads; `from __future__` is exempt."""
    unused = []
    for path in sorted(src_dir.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
        for node in module.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append((path.stem, name))
    return sorted(unused)


def _copy_of_src(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    return tmp_path


def test_every_definition_has_a_caller_in_src():
    assert [d for d in definitions_without_callers(SRC) if d not in ALLOWED] == []


def test_guard_sees_a_dead_helper(tmp_path):
    copy = _copy_of_src(tmp_path)
    with open(copy / "grid.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _dead_helper():\n    return 0\n")
    assert ("grid", "_dead_helper") in definitions_without_callers(copy)


def test_every_module_level_import_is_read():
    assert unused_imports(SRC) == []


def test_guard_sees_an_unused_import(tmp_path):
    copy = _copy_of_src(tmp_path)
    with open(copy / "grid.py", "a", encoding="utf-8") as fh:
        fh.write("\nfrom fractions import Fraction\n")
    assert unused_imports(copy) == [("grid", "Fraction")]
