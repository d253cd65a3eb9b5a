"""Every function in the package is reached by a command, or is pinned here.

A few small CLI commands run in a fresh interpreter under
`sys.setprofile`, so no cache that an earlier test filled (`build_group`
and `build_hecke` are memoized) hides a call.  The functions defined in
`treelab` that none of them calls must equal `UNREACHED`, each listed
with the reason it stays; code that no command reaches either joins a
suite or leaves the package.  Run this file directly to print the
functions the commands never call.  A second test parses each module of
the package and fails on a name it imports but never reads.
"""

import ast
import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path
from types import FunctionType

import treelab
from treelab import cli  # imports every module of the package

COMMANDS = (
    "verify all --p 3 --depth 2 --seed 1 --random 1",
    "verify all --p 2 --e 2 --depth 2 --seed 1 --random 1",
    "verify hecke --p 5 --check flatness,vytastra",
    "verify corrpro --p 3 --depth 2 --rho twist:1",
    "verify corrpro --p 3 --depth 2 --rho scalar:1",
    "reduce --p 3 --depth 2 --seed 1",
    "catalog emit --p 3",
    "catalog list --p 2",
)

# the package functions no command calls, and why each stays
UNREACHED = {
    "catalog.load_catalog": "the JSON interchange loader that README documents",
    "catalog._as_int": "read by the documented loader",
    "grouprep.GModule.verify_action": "the documented loader re-verifies each module with it",
    "halftree.ChainComplexData.dmat": "read by perfbench until the benchmark is re-based",
    "halftree.ChainComplexData.boundary_solver": "read by perfbench until the benchmark is re-based",
    "halftree.ChainComplexData.h0_generator_matrix": "read by perfbench until the benchmark is re-based",
    "halftree.TreeBasis.reduce_rows": "called only by h0_generator_matrix, which perfbench reads",
    "cli._fail_summary": "runs only when a run fails",
    "report.timed": "runs at import, as the decorator of every check",
    "report.rejected": "runs only on an instance that fails a hypothesis; no command here has one",
}


def _functions(obj):
    """The plain functions behind a module attribute or a class member."""
    if inspect.isclass(obj):
        if obj.__module__.startswith("treelab."):  # aliases such as tuple[int, ...] pass isclass
            for member in vars(obj).values():
                yield from _functions(member)
    elif isinstance(obj, property):
        yield from (f for f in (obj.fget, obj.fset) if f is not None)
    elif isinstance(obj, (staticmethod, classmethod)):
        yield obj.__func__
    elif isinstance(obj, cached_property):
        yield obj.func
    elif type(inspect.unwrap(obj)) is FunctionType:
        yield inspect.unwrap(obj)


def package_functions() -> dict:
    """Name ("module.qualname") -> code object of every function defined in treelab."""
    root = str(Path(treelab.__file__).parent)
    out = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("treelab."):
            continue
        for obj in vars(mod).values():
            for f in _functions(obj):
                if f.__code__.co_filename.startswith(root):
                    out[f"{f.__module__.removeprefix('treelab.')}.{f.__qualname__}"] = f.__code__
    return out


def never_called() -> list:
    """The package functions that no command of COMMANDS calls."""
    functions = package_functions()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(record)
    try:
        for argv in COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv.split()) != 0:
                    raise AssertionError(f"{argv} failed")
    finally:
        sys.setprofile(None)
    return sorted(name for name, code in functions.items() if code not in called)


def test_every_package_function_is_reached_or_pinned():
    src = str(Path(treelab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=600, env=env)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == sorted(UNREACHED)


def unused_imports(path: Path) -> list:
    """The names a module imports and never reads (`from __future__` aside)."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_package_module_imports_a_name_it_never_uses():
    modules = sorted(Path(treelab.__file__).parent.glob("*.py"))
    unused = {path.name: unused_imports(path) for path in modules if path.name != "__init__.py"}
    assert len(unused) > 1
    assert {name: names for name, names in unused.items() if names} == {}


if __name__ == "__main__":
    print(json.dumps(never_called()))
