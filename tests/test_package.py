"""The package's public namespace is the union of its submodules' public names."""

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
