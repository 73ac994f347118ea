import importlib

import pytest

MODULES = ("affine", "bde", "conormal", "flow", "jets", "singular", "surface")


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    # tooling looks up every exported name; a stale entry breaks it
    mod = importlib.import_module(f"affasym.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing
