import importlib

import coverfree

MODULES = ("bounds", "codes", "construct", "core", "gf", "grouptest", "verify")


def test_exports_are_the_modules_exports():
    union = set()
    for name in MODULES:
        union |= set(importlib.import_module(f"coverfree.{name}").__all__)
    assert len(coverfree.__all__) == len(set(coverfree.__all__)) == 63
    assert set(coverfree.__all__) == union
    assert {"DEFAULT_MAX_BLOCKS", "trivial_cff"} <= union
    for name in coverfree.__all__:
        assert getattr(coverfree, name) is not None
