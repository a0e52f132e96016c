"""The public names: every export resolves, and ``import *`` binds exactly them."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import compderiv

MODULES = ["compderiv"] + [
    f"compderiv.{info.name}"
    for info in pkgutil.iter_modules(compderiv.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves_and_star_import_binds_exactly_the_exports(name):
    module = importlib.import_module(name)
    exports = module.__all__
    assert len(set(exports)) == len(exports)
    missing = [export for export in exports if not hasattr(module, export)]
    assert missing == []
    namespace: dict[str, object] = {}
    exec(f"from {name} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(exports)
