"""Every function and class in src/phaseproj has a caller in src/, every
dataclass field there is read in src/, every module-level import there
is read by its module, and every defaulted parameter there is passed by
some call in src/.

A definition that only tests reach is dead weight in the package: an
oracle belongs in tests/oracles.py, anything else goes.  The one kept
exception is harness.load_baselines, which shares its file format with
save_baselines and feeds the frozen-baseline gates.  The one kept unread
field is RunConfig.keep_pieces: config_hash hashes every field, and the
benchmark compares stored config hashes.  An import that its module never
reads is left over from deleted code.  A default that every call in src/
takes leaves its parameter as a switch only tests turn; the one kept is
cli.main's argv, through which tests drive the entry point.
"""

import ast
import math
import pathlib

import phaseproj

SRC = pathlib.Path(phaseproj.__file__).parent
ALLOWED = {("harness", "load_baselines")}
ALLOWED_FIELDS = {("harness", "RunConfig", "keep_pieces")}
ALLOWED_DEFAULTS = {("cli", "main", "argv")}


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


def _is_dataclass(node):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def unread_dataclass_fields(src_dir):
    """(module, class, field) of each field of a @dataclass in src_dir/*.py
    whose name no attribute read in those files uses."""
    fields, read = [], set()
    for path in sorted(src_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields.extend((path.stem, node.name, item.target.id) for item in node.body
                              if isinstance(item, ast.AnnAssign))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f for f in fields if f[2] not in read)


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


def _bound_methods(module):
    """{def node: (name its calls use, positional arguments a call leaves
    out)} of each method: a class's __init__ is called by the class name,
    and a bound call leaves out self or cls."""
    out = {}
    for node in ast.walk(module):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    out[item] = (name, 0 if static else 1)
    return out


def _calls(module):
    """(called name, positional argument count, keyword names) of each
    call; `cls(...)` in a class body calls that class."""
    classes = {id(sub): node.name for node in ast.walk(module)
               if isinstance(node, ast.ClassDef) for sub in ast.walk(node)}
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "cls":
                name = classes.get(id(node), name)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield (name, math.inf if starred else len(node.args),
                   {k.arg for k in node.keywords})


def defaults_never_passed(src_dir):
    """(module, function, parameter) of each defaulted parameter of a
    function in src_dir/*.py that no call there passes, by keyword or by
    position; a call with *args passes every positional parameter, one
    with **kwargs every parameter.  Calls are matched by name alone."""
    defs, calls = [], {}
    for path in sorted(src_dir.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        bound = _bound_methods(module)
        for node in ast.walk(module):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.stem, *bound.get(node, (node.name, 0)), node.args))
        for name, count, keywords in _calls(module):
            calls.setdefault(name, []).append((count, keywords))
    never = []
    for module, name, skipped, args in defs:
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        params = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
        params += [(a.arg, math.inf) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                   if d is not None]
        for param, index in params:
            if not any(param in keywords or None in keywords or index < count + skipped
                       for count, keywords in calls.get(name, ())):
                never.append((module, name, param))
    return sorted(never)


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


def test_every_dataclass_field_is_read():
    assert [f for f in unread_dataclass_fields(SRC) if f not in ALLOWED_FIELDS] == []


def test_guard_sees_a_dead_field(tmp_path):
    copy = _copy_of_src(tmp_path)
    with open(copy / "grid.py", "a", encoding="utf-8") as fh:
        fh.write("\n\n@dataclass\nclass _Holder:\n    never_read_anywhere: int = 0\n")
    assert ("grid", "_Holder", "never_read_anywhere") in unread_dataclass_fields(copy)


def test_every_module_level_import_is_read():
    assert unused_imports(SRC) == []


def test_guard_sees_an_unused_import(tmp_path):
    copy = _copy_of_src(tmp_path)
    with open(copy / "grid.py", "a", encoding="utf-8") as fh:
        fh.write("\nfrom fractions import Fraction\n")
    assert unused_imports(copy) == [("grid", "Fraction")]


def test_every_default_is_passed_by_some_call():
    assert [d for d in defaults_never_passed(SRC) if d not in ALLOWED_DEFAULTS] == []


def test_guard_sees_a_default_no_call_passes(tmp_path):
    copy = _copy_of_src(tmp_path)
    with open(copy / "grid.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _scaled(x, factor=1.0, *, shift=0.0):\n"
                 "    return x * factor + shift\n\n\n"
                 "def _caller():\n    return _scaled(2.0, shift=1.0)\n")
    never = defaults_never_passed(copy)
    assert ("grid", "_scaled", "factor") in never
    assert ("grid", "_scaled", "shift") not in never
    assert ("cli", "main", "argv") in never
