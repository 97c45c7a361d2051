"""Exported names: every ``__all__`` entry resolves, and ``conformal.__all__``
lists exactly the public classes and functions the module defines."""

import inspect

import pytest

import varifoldlab
from varifoldlab import conformal


@pytest.mark.parametrize("module", [varifoldlab, conformal], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_conformal_exports_exactly_its_public_definitions():
    public = {
        name
        for name, obj in vars(conformal).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == conformal.__name__
    }
    assert sorted(conformal.__all__) == sorted(public)
