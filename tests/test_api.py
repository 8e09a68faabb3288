"""The public names: every entry of an ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import kpforecast

# ``__main__`` runs the command line when imported, and lists no names.
MODULES = ["kpforecast"] + [
    f"kpforecast.{info.name}"
    for info in pkgutil.iter_modules(kpforecast.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_every_module_is_checked():
    assert {"kpforecast.baseline", "kpforecast.forest", "kpforecast.pca"} <= set(MODULES)
