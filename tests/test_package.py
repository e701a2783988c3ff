"""The package's public namespace is the union of its submodules' public names,
importing it leaves numpy.random unloaded, its numpy floor has the FFTs it uses,
and every private helper in it has a caller."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import incrstat
from incrstat import corrector, errors, green, lattice, pointsets, randfields, seeding

SUBMODULES = (corrector, errors, green, lattice, pointsets, randfields, seeding)


def test_every_exported_name_resolves():
    for name in incrstat.__all__:
        assert getattr(incrstat, name) is not None, name


def test_all_is_the_union_of_submodule_lists():
    union = {name for module in SUBMODULES for name in module.__all__}
    assert len(incrstat.__all__) == len(set(incrstat.__all__))
    assert set(incrstat.__all__) == union | {"__version__"}
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(incrstat, name) is getattr(module, name), name


def test_import_does_not_load_numpy_random():
    # seeding builds its numpy.random types on first use, so the import stays cheap
    src = str(Path(incrstat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, incrstat.cli; assert 'numpy.random' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_declared_numpy_floor_has_fft_out():
    # the in-place transform passes give numpy.fft's functions out=, new in numpy 2.0
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    floors = [re.fullmatch(r"numpy>=(\d+)\.(\d+)(?:\.\d+)?", dep.replace(" ", "")) for dep in deps]
    floors = [tuple(int(g) for g in m.groups()) for m in floors if m]
    assert len(floors) == 1, deps
    assert floors[0] >= (2, 0)


def _private_definitions(tree):
    """(name, node) of each module-level private function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(node):
    """Names read, attributes taken and names imported anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_private_helper_is_referenced():
    # a private name only its own definition mentions is code that nothing needs
    trees = {path.name: ast.parse(path.read_text()) for path in Path(incrstat.__file__).parent.glob("*.py")}
    used = Counter(ref for tree in trees.values() for ref in _references(tree))
    dead = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if name.startswith("_") and not name.startswith("__")
        and used[name] == Counter(_references(node))[name]
    ]
    assert not dead, dead
