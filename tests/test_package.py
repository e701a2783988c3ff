"""The package's public namespace is the union of its submodules' public names,
importing it leaves numpy.random unloaded, and its numpy floor has the FFTs it uses."""

import os
import re
import subprocess
import sys
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
